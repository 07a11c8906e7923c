//! Fixture tests for the structural (workspace-level) analysis:
//! `lock-order` cycle detection.

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
    let findings = lint_texts(&[
        ("crates/serve/src/jobs.rs", CYCLE_A),
        ("crates/serve/src/sweep.rs", CYCLE_B),
    ]);
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
    let findings = lint_texts(&[("crates/serve/src/jobs.rs", consistent)]);
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
    let findings = lint_texts(&[
        ("crates/serve/src/store.rs", a),
        ("crates/serve/src/jobs.rs", b),
    ]);
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
