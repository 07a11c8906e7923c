//! Fixture tests for the structural (workspace-level) analyses:
//! `lock-order` cycle detection and `panic-reachability`
//! classification.

use tbstc_lint::{lint_texts, Finding, Severity};

fn rule<'a>(findings: &'a [Finding], name: &str) -> Vec<&'a Finding> {
    findings.iter().filter(|f| f.rule == name).collect()
}

// --- lock-order ---------------------------------------------------------

/// The seeded two-lock cycle: `jobs.rs` takes queue then cancels,
/// `sweep.rs` takes cancels then queue via a shared impl type.
const CYCLE_A: &str = "\
impl Jobs {
    fn enqueue(&self) {
        let q = self.queue.lock();
        let c = self.cancels.lock();
        drop(c);
        drop(q);
    }
}
";
const CYCLE_B: &str = "\
impl Jobs {
    fn sweep(&self) {
        let c = self.cancels.lock();
        let q = self.queue.lock();
        drop(q);
        drop(c);
    }
}
";

#[test]
fn lock_order_detects_the_seeded_two_lock_cycle_naming_both_sites() {
    let findings = lint_texts(
        &[
            ("crates/serve/src/jobs.rs", CYCLE_A),
            ("crates/serve/src/sweep.rs", CYCLE_B),
        ],
        Some(&["lock-order".to_string()]),
    );
    let hits = rule(&findings, "lock-order");
    assert_eq!(hits.len(), 1, "{findings:?}");
    let f = hits[0];
    assert_eq!(f.severity, Severity::Error);
    // The cycle path names both locks…
    assert!(
        f.message
            .contains("Jobs.queue -> Jobs.cancels -> Jobs.queue")
            || f.message
                .contains("Jobs.cancels -> Jobs.queue -> Jobs.cancels"),
        "{}",
        f.message
    );
    // …and both acquisition sites, with file:line each.
    assert!(
        f.message.contains("crates/serve/src/jobs.rs:4"),
        "{}",
        f.message
    );
    assert!(
        f.message.contains("crates/serve/src/sweep.rs:4"),
        "{}",
        f.message
    );
    assert!(f.message.contains("deadlock"), "{}", f.message);
}

#[test]
fn lock_order_accepts_a_consistent_global_order() {
    let consistent = "\
impl Jobs {
    fn a(&self) { let q = self.queue.lock(); let c = self.cancels.lock(); }
    fn b(&self) { let q = self.queue.lock(); let c = self.cancels.lock(); }
}
";
    let findings = lint_texts(
        &[("crates/serve/src/jobs.rs", consistent)],
        Some(&["lock-order".to_string()]),
    );
    assert!(rule(&findings, "lock-order").is_empty(), "{findings:?}");
}

#[test]
fn lock_order_sees_interprocedural_cycles_and_flocks() {
    // holder() takes the flock store lock, then calls deep(), which
    // takes a mutex; elsewhere the mutex is held while the store lock
    // is taken. Cycle spans a call edge and two lock kinds.
    let a = "\
impl Engine {
    fn holder(&self) {
        let g = self.store.lock(\"store\", &|| false);
        self.deep();
    }
    fn deep(&self) {
        let g = self.m.lock();
    }
}
";
    let b = "\
impl Engine {
    fn other(&self) {
        let g = self.m.lock();
        let s = self.store.lock(\"store\", &|| false);
    }
}
";
    let findings = lint_texts(
        &[
            ("crates/serve/src/store.rs", a),
            ("crates/serve/src/jobs.rs", b),
        ],
        Some(&["lock-order".to_string()]),
    );
    let hits = rule(&findings, "lock-order");
    assert_eq!(hits.len(), 1, "{findings:?}");
    assert!(
        hits[0].message.contains("flock:store"),
        "{}",
        hits[0].message
    );
    assert!(
        hits[0].message.contains("via call to `deep`"),
        "{}",
        hits[0].message
    );
}

#[test]
fn lock_order_suppression_is_honored() {
    let b_suppressed = "\
impl Jobs {
    fn sweep(&self) {
        let c = self.cancels.lock();
        // tbstc-lint: allow(lock-order) — sweep runs single-threaded at boot
        let q = self.queue.lock();
    }
}
";
    let findings = lint_texts(
        &[
            ("crates/serve/src/jobs.rs", CYCLE_A),
            ("crates/serve/src/sweep.rs", b_suppressed),
        ],
        Some(&["lock-order".to_string()]),
    );
    // The cycle's witness edge in sweep.rs carries the allow; the other
    // direction alone is acyclic.
    assert!(rule(&findings, "lock-order").is_empty(), "{findings:?}");
}

// --- panic-reachability -------------------------------------------------

const EVENT_ROOT: &str = "\
fn run_loop() {
    dispatch();
}
";

#[test]
fn panic_reachability_escalates_reachable_sites_and_spares_unreachable() {
    let worker = "\
pub fn dispatch() {
    decode();
}
fn decode() {
    let v: Option<u32> = None;
    v.unwrap();
}
fn cold_path() {
    let v: Option<u32> = None;
    v.expect(\"never on the request path\");
}
";
    let findings = lint_texts(
        &[
            ("crates/serve/src/event.rs", EVENT_ROOT),
            ("crates/formats/src/codec.rs", worker),
        ],
        None,
    );
    let reach = rule(&findings, "panic-reachability");
    assert_eq!(reach.len(), 1, "{findings:?}");
    assert_eq!(reach[0].path, "crates/formats/src/codec.rs");
    assert_eq!(reach[0].line, 6);
    assert_eq!(reach[0].severity, Severity::Error);
    // The message shows the call chain from the request path.
    assert!(
        reach[0].message.contains("run_loop -> dispatch -> decode"),
        "{}",
        reach[0].message
    );
    // The unreachable site keeps its panic-surface warning only.
    let surface = rule(&findings, "panic-surface");
    assert!(
        surface.iter().any(|f| f.line == 10),
        "cold_path keeps its warning: {findings:?}"
    );
    assert!(reach.iter().all(|f| f.line != 10));
}

#[test]
fn panic_reachability_honors_panic_surface_suppressions() {
    let worker = "\
pub fn dispatch() {
    let v: Option<u32> = None;
    // tbstc-lint: allow(panic-surface) — input validated at the boundary
    v.unwrap();
}
";
    let findings = lint_texts(
        &[
            ("crates/serve/src/event.rs", EVENT_ROOT),
            ("crates/formats/src/codec.rs", worker),
        ],
        None,
    );
    assert!(
        rule(&findings, "panic-reachability").is_empty(),
        "{findings:?}"
    );
    assert!(rule(&findings, "panic-surface").is_empty());
}

#[test]
fn panic_reachability_needs_a_request_path_root() {
    // No event.rs/conn.rs in the set: nothing is reachable.
    let worker = "pub fn dispatch() { x.unwrap(); }\n";
    let findings = lint_texts(&[("crates/formats/src/codec.rs", worker)], None);
    assert!(rule(&findings, "panic-reachability").is_empty());
}
