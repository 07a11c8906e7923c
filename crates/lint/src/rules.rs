//! The five workspace rules: four per-file checks (pure functions over
//! a [`FileCtx`] pushing [`Finding`]s) and one workspace-level check
//! (`lock-order`) that runs over the [`crate::graph::Workspace`] built
//! from every file's [`crate::syntax`] facts. The engine applies
//! test-code exclusion afterwards, so rules here report every match
//! they see. Each rule checks a repo invariant that rustc and clippy
//! cannot express; the panic, determinism and `unsafe` policies live in
//! the workspace `[lints]` table and `clippy.toml` instead.

use crate::engine::{FileCtx, Finding, Severity};
use crate::graph::{find_cycles, Workspace};
use crate::lexer::{TokKind, Token};

/// A named per-file check with a fixed severity story (rules may emit
/// both severities; the table's `check` decides per finding).
pub struct Rule {
    /// Kebab-case rule name, used in diagnostics.
    pub name: &'static str,
    /// The check itself.
    pub check: fn(&FileCtx<'_>, &mut Vec<Finding>),
}

/// A workspace-level check over the call/lock graphs. Findings still
/// point at one file/line, so test-code exclusion applies exactly as
/// for per-file rules.
pub struct WorkspaceRule {
    /// Kebab-case rule name.
    pub name: &'static str,
    /// The check itself.
    pub check: fn(&Workspace<'_>, &mut Vec<Finding>),
}

/// Every per-file rule the engine knows, in reporting order.
pub const ALL_RULES: &[Rule] = &[
    Rule {
        name: "lock-discipline",
        check: lock_discipline,
    },
    Rule {
        name: "hot-path-alloc",
        check: hot_path_alloc,
    },
    Rule {
        name: "blocking-in-event-loop",
        check: blocking_in_event_loop,
    },
    Rule {
        name: "store-lock-discipline",
        check: store_lock_discipline,
    },
];

/// Every workspace-level rule, in reporting order.
pub const WORKSPACE_RULES: &[WorkspaceRule] = &[WorkspaceRule {
    name: "lock-order",
    check: lock_order,
}];

/// Every rule name, per-file rules first, in reporting order.
pub fn rule_names() -> impl Iterator<Item = &'static str> {
    ALL_RULES
        .iter()
        .map(|r| r.name)
        .chain(WORKSPACE_RULES.iter().map(|r| r.name))
}

fn finding(
    rule: &'static str,
    severity: Severity,
    ctx: &FileCtx<'_>,
    t: &Token,
    message: String,
) -> Finding {
    Finding {
        rule,
        severity,
        path: ctx.rel_path.to_string(),
        line: t.line,
        col: t.col,
        message,
    }
}

// --- lock-discipline ----------------------------------------------------

/// Blocking calls that must not run while a `MutexGuard` is live.
const IO_IDENTS: &[&str] = &[
    "write_all",
    "write_fmt",
    "flush",
    "read",
    "read_exact",
    "read_to_end",
    "read_to_string",
    "read_line",
    "recv",
    "recv_timeout",
    "sync_all",
    "sync_data",
    "copy",
    "accept",
];

/// In `crates/serve`/`crates/runner`, a heuristic: an identifier bound
/// from a `.lock()` call is treated as a live guard until its scope
/// closes or it is `drop`ped; `.`-method I/O or channel calls inside
/// that window are warnings. (`.lock().unwrap()` is clippy's
/// `unwrap_used`.)
fn lock_discipline(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    if ctx.crate_name != "serve" && ctx.crate_name != "runner" {
        return;
    }
    let code = ctx.code;
    scan_with_guards(ctx, |i, guard| {
        let t = &code[i];
        let text = ctx.text(t);
        let io_call = t.kind == TokKind::Ident
            && IO_IDENTS.contains(&text)
            && i >= 1
            && ctx.code_text(i - 1) == "."
            && ctx.code_text(i + 1) == "(";
        if let (true, Some(guard)) = (io_call, guard) {
            out.push(finding(
                "lock-discipline",
                Severity::Warning,
                ctx,
                t,
                format!(
                    ".{text}() while `{guard}` holds a lock guard blocks every \
                     other thread on that mutex; drop the guard first"
                ),
            ));
        }
    });
}

/// The lock-guard heuristic `lock-discipline` and
/// `blocking-in-event-loop` share. Walks the file's code tokens treating
/// an identifier bound by a `let` statement that calls `.lock()` as a
/// live guard until its scope closes or it is `drop`ped, and calls
/// `visit(i, guard)` for every token that is not a brace, a `let` or a
/// `drop(` call, with the innermost live guard's name.
fn scan_with_guards(ctx: &FileCtx<'_>, mut visit: impl FnMut(usize, Option<&str>)) {
    let code = ctx.code;
    // (binding name, brace depth it was bound at)
    let mut guards: Vec<(String, i32)> = Vec::with_capacity(4);
    let mut depth = 0i32;
    for i in 0..code.len() {
        match ctx.code_text(i) {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                guards.retain(|g| g.1 <= depth);
            }
            "let" if code[i].kind == TokKind::Ident => {
                // Scan the statement for a `.lock()` call; bind the first
                // ident after `let` (skipping `mut`) as a guard if found.
                let k = if ctx.code_is_ident(i + 1, "mut") {
                    i + 2
                } else {
                    i + 1
                };
                let name = code.get(k).filter(|t| t.kind == TokKind::Ident);
                let mut nest = 0i32;
                let mut locks = false;
                for j in i + 1..code.len() {
                    match ctx.code_text(j) {
                        "{" | "(" | "[" => nest += 1,
                        "}" | ")" | "]" => nest -= 1,
                        ";" if nest <= 0 => break,
                        "lock" if ctx.code_text(j - 1) == "." => locks = true,
                        _ => {}
                    }
                }
                if let (true, Some(name)) = (locks, name) {
                    guards.push((ctx.text(name).to_string(), depth));
                }
            }
            "drop" if ctx.code_text(i + 1) == "(" => {
                let dropped = ctx.code_text(i + 2);
                guards.retain(|g| g.0 != dropped);
            }
            _ => visit(i, guards.last().map(|g| g.0.as_str())),
        }
    }
}

// --- hot-path-alloc -----------------------------------------------------

/// Files on the simulator's measured hot path, where incremental `Vec`
/// growth shows up directly in the benchmark's per-stage times.
const HOT_PATHS: &[&str] = &["crates/sim/src/plan.rs", "crates/matrix/src/gemm.rs"];

/// In the [`HOT_PATHS`] files only: `.push(...)` onto a local bound
/// from `Vec::new()`, i.e. growth with no reserved capacity. Turbofish
/// spellings (`Vec::<T>::new()`) are not matched; the workspace does not
/// use them.
fn hot_path_alloc(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    if !HOT_PATHS.contains(&ctx.rel_path) {
        return;
    }
    // Locals bound `let [mut] name = Vec::new()` (or reassigned from
    // one); pushes onto these are growth with no up-front reservation.
    let mut uncapped: Vec<String> = Vec::with_capacity(4);
    let code = ctx.code;
    for (i, t) in code.iter().enumerate() {
        if t.kind != TokKind::Ident || i < 2 {
            continue;
        }
        match ctx.text(t) {
            "Vec"
                if ctx.code_text(i + 1) == "::"
                    && ctx.code_is_ident(i + 2, "new")
                    && ctx.code_text(i - 1) == "=" =>
            {
                if let Some(name) = code.get(i - 2).filter(|p| p.kind == TokKind::Ident) {
                    uncapped.push(ctx.text(name).to_string());
                }
            }
            "push" if ctx.code_text(i - 1) == "." && ctx.code_text(i + 1) == "(" => {
                let recv = &code[i - 2];
                if recv.kind == TokKind::Ident && uncapped.iter().any(|n| n == ctx.text(recv)) {
                    out.push(finding(
                        "hot-path-alloc",
                        Severity::Warning,
                        ctx,
                        t,
                        format!(
                            ".push() onto `{}` (bound from Vec::new) may reallocate \
                             on the hot path; reserve with with_capacity first",
                            ctx.text(recv)
                        ),
                    ));
                }
            }
            _ => {}
        }
    }
}

// --- blocking-in-event-loop ---------------------------------------------

/// Files that run on the serve event-loop thread, where one blocking
/// call stalls every connection at once.
const EVENT_LOOP_PATHS: &[&str] = &["crates/serve/src/event.rs", "crates/serve/src/conn.rs"];

/// Method calls that park the calling thread: loop-until-done I/O,
/// channel waits, condvar waits, thread parking/joining.
const EVENT_LOOP_BLOCKING_CALLS: &[&str] = &[
    "write_all",
    "write_fmt",
    "read_exact",
    "read_to_end",
    "read_to_string",
    "read_line",
    "recv",
    "recv_timeout",
    "wait",
    "wait_timeout",
    "park",
    "join",
];

/// In the [`EVENT_LOOP_PATHS`] files only, all errors: `thread::sleep`,
/// any [`EVENT_LOOP_BLOCKING_CALLS`] method call (single non-blocking
/// `.read(..)`/`.write(..)` syscalls after a readiness event are the
/// only sanctioned I/O), and `.read(..)`/`.write(..)` while a lock
/// guard is live (the same guard heuristic as `lock-discipline`, but
/// hardened to an error here: I/O under a lock serializes the loop
/// against the worker threads).
fn blocking_in_event_loop(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    if !EVENT_LOOP_PATHS.contains(&ctx.rel_path) {
        return;
    }
    let code = ctx.code;
    scan_with_guards(ctx, |i, guard| {
        let t = &code[i];
        let text = ctx.text(t);
        if text == "sleep"
            && ctx.code_text(i.wrapping_sub(1)) == "::"
            && ctx.code_is_ident(i.wrapping_sub(2), "thread")
        {
            out.push(finding(
                "blocking-in-event-loop",
                Severity::Error,
                ctx,
                t,
                "thread::sleep stalls every connection on the event loop; \
                 use the poll timeout instead"
                    .to_string(),
            ));
            return;
        }
        let is_method_call = t.kind == TokKind::Ident
            && i >= 1
            && ctx.code_text(i - 1) == "."
            && ctx.code_text(i + 1) == "(";
        if is_method_call && EVENT_LOOP_BLOCKING_CALLS.contains(&text) {
            out.push(finding(
                "blocking-in-event-loop",
                Severity::Error,
                ctx,
                t,
                format!(
                    ".{text}() blocks the event-loop thread; do single \
                     non-blocking reads/writes after a readiness event"
                ),
            ));
        }
        let socket_io = is_method_call && (text == "read" || text == "write");
        if let (true, Some(guard)) = (socket_io, guard) {
            out.push(finding(
                "blocking-in-event-loop",
                Severity::Error,
                ctx,
                t,
                format!(
                    ".{text}() while `{guard}` holds a lock guard serializes \
                     the event loop against the workers; drop the guard \
                     before touching the socket"
                ),
            ));
        }
    });
}

// --- store-lock-discipline ----------------------------------------------

/// Filesystem mutations that may only happen inside the locked store
/// accessors (`crates/serve/src/store.rs`).
const STORE_MUTATING_FS_CALLS: &[&str] = &[
    "write",
    "rename",
    "remove_file",
    "remove_dir_all",
    "create_dir_all",
];

/// The shared result store is multi-process: every write to it must go
/// through `ResultStore`'s accessors, which take the flock(2) store lock
/// and use atomic tmp+rename. Any direct `fs::`/`File::`/`OpenOptions`
/// mutation elsewhere in the serve crate can tear `memo.jsonl` or a job
/// status document under a concurrent server, so it is an error.
fn store_lock_discipline(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    if !ctx.rel_path.starts_with("crates/serve/src/") || ctx.rel_path.ends_with("/store.rs") {
        return;
    }
    let code = ctx.code;
    for (i, t) in code.iter().enumerate() {
        if t.kind != TokKind::Ident || i < 2 || ctx.code_text(i - 1) != "::" {
            continue;
        }
        let name = ctx.text(t);
        let owner_is = |what: &str| ctx.code_is_ident(i - 2, what);
        let flagged = (owner_is("fs") && STORE_MUTATING_FS_CALLS.contains(&name))
            || (owner_is("File") && (name == "create" || name == "options"))
            || (owner_is("OpenOptions") && name == "new");
        if flagged {
            let call = format!("{}::{name}", ctx.code_text(i - 2));
            out.push(finding(
                "store-lock-discipline",
                Severity::Error,
                ctx,
                t,
                format!(
                    "{call} outside store.rs bypasses the store lock; route \
                     shared-store writes through a ResultStore accessor"
                ),
            ));
        }
    }
}

// --- lock-order (workspace) ---------------------------------------------

/// Cycle detection over the workspace lock-acquisition graph: an edge
/// A → B means some path acquires B while holding A (directly or via a
/// call whose may-acquire set contains B); any cycle is a deadlock risk
/// once two threads/processes interleave, so it is an error. The
/// finding's message walks the cycle naming every acquisition site.
fn lock_order(ws: &Workspace<'_>, out: &mut Vec<Finding>) {
    let edges = ws.lock_edges();
    for cycle in find_cycles(&edges) {
        let mut order = cycle.locks.join(" -> ");
        order.push_str(" -> ");
        order.push_str(&cycle.locks[0]);
        let mut sites = String::with_capacity(128);
        for e in &cycle.edges {
            let via = if e.site.via_call.is_empty() {
                String::new()
            } else {
                format!(" via call to `{}`", e.site.via_call)
            };
            sites.push_str(&format!(
                "; `{}` taken at {}:{}{} while `{}` held (acquired line {}) in `{}`",
                e.to, e.site.path, e.site.line, via, e.from, e.site.first.line, e.site.qual
            ));
        }
        let first = &cycle.edges[0];
        out.push(Finding {
            rule: "lock-order",
            severity: Severity::Error,
            path: first.site.path.clone(),
            line: first.site.line,
            col: first.site.col,
            message: format!(
                "lock-order cycle {order} risks deadlock{sites}; acquire \
                 these locks in one global order"
            ),
        });
    }
}
