//! SIGTERM / ctrl-c → graceful-shutdown flag.
//!
//! The workspace carries no `libc` crate, but the process already links
//! the platform C library, so a single `extern "C"` declaration of
//! `signal(2)` is all the unsafe surface we need. The handler does the
//! only async-signal-safe thing there is to do: set an atomic flag. The
//! accept loop polls it between non-blocking accepts.

use std::sync::atomic::{AtomicBool, Ordering};

static SHUTDOWN: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
#[allow(
    unsafe_code,
    reason = "signal(2) shim: the only way to install a handler without a crate"
)]
mod sys {
    pub const SIGINT: i32 = 2;
    pub const SIGTERM: i32 = 15;

    pub type Handler = extern "C" fn(i32);

    extern "C" {
        fn signal(signum: i32, handler: Handler) -> usize;
    }

    pub fn install(signum: i32, handler: Handler) {
        // SAFETY: `signal` is the C library's signal(2); the handler only
        // stores to a static AtomicBool, which is async-signal-safe.
        unsafe {
            signal(signum, handler);
        }
    }
}

#[cfg(unix)]
extern "C" fn on_signal(_signum: i32) {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

/// Installs SIGINT/SIGTERM handlers that trip the shutdown flag. Safe to
/// call more than once; a no-op on non-unix platforms.
pub fn install_shutdown_handlers() {
    #[cfg(unix)]
    {
        sys::install(sys::SIGINT, on_signal);
        sys::install(sys::SIGTERM, on_signal);
    }
}

/// Whether a shutdown signal has arrived (or [`request_shutdown`] ran).
pub fn shutdown_requested() -> bool {
    SHUTDOWN.load(Ordering::SeqCst)
}

/// Trips the flag programmatically — what `Handle::shutdown` and the
/// oneshot path use, and what tests use instead of raising signals.
pub fn request_shutdown() {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

/// Clears the flag (between oneshot runs and tests in one process).
pub fn reset() {
    SHUTDOWN.store(false, Ordering::SeqCst);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_roundtrip() {
        reset();
        assert!(!shutdown_requested());
        request_shutdown();
        assert!(shutdown_requested());
        reset();
        assert!(!shutdown_requested());
        install_shutdown_handlers();
    }
}
