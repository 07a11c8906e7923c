//! Seeded regressions in the real workspace sources: every rule must
//! catch the regression it exists for. Each case patches the real text
//! of one file in memory, lints the whole workspace and asserts that
//! exactly that rule gains findings. A patch whose anchor text is
//! missing fails the test, so an edit to the anchored code cannot
//! quietly retire a case.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use tbstc_lint::{lint_texts, read_workspace, rules};

/// One seeded regression: the rule that must catch it, the file it is
/// seeded into, and the `(anchor, replacement)` edits, each anchor
/// occurring exactly once in that file.
struct Seed {
    rule: &'static str,
    path: &'static str,
    edits: &'static [(&'static str, &'static str)],
}

const SEEDS: &[Seed] = &[
    // A poisoned condvar wait panics the job controller thread.
    Seed {
        rule: "panic-surface",
        path: "crates/serve/src/jobs.rs",
        edits: &[(
            ".wait_timeout(q, Duration::from_millis(100))\n                .unwrap_or_else(PoisonError::into_inner)",
            ".wait_timeout(q, Duration::from_millis(100))\n                .unwrap()",
        )],
    },
    // The hot tier's map becomes hash-ordered.
    Seed {
        rule: "determinism",
        path: "crates/serve/src/lru.rs",
        edits: &[
            ("use std::collections::BTreeMap;", "use std::collections::HashMap;"),
            (
                "entries: BTreeMap<String, (u64, String)>",
                "entries: HashMap<String, (u64, String)>",
            ),
        ],
    },
    // A poisoned cancel-set lock panics the durable controller at its
    // next `cancel_requested` check.
    Seed {
        rule: "lock-discipline",
        path: "crates/serve/src/jobs.rs",
        edits: &[(
            "            .unwrap_or_else(PoisonError::into_inner)\n            .contains(key)",
            "            .unwrap()\n            .contains(key)",
        )],
    },
    Seed {
        rule: "crate-hygiene",
        path: "crates/dram/src/lib.rs",
        edits: &[("#![forbid(unsafe_code)]\n", "")],
    },
    // The poll(2) call loses its safety justification.
    Seed {
        rule: "unsafe-audit",
        path: "crates/serve/src/event.rs",
        edits: &[("// SAFETY: `fds` is", "// `fds` is")],
    },
    // `BlockPlan::build` grows its per-row counts without reserving.
    Seed {
        rule: "hot-path-alloc",
        path: "crates/sim/src/plan.rs",
        edits: &[(
            "let mut matrix_row_nnz = Vec::with_capacity(rows);",
            "let mut matrix_row_nnz = Vec::new();",
        )],
    },
    // A back-off sleep stalls every connection once per loop turn.
    Seed {
        rule: "blocking-in-event-loop",
        path: "crates/serve/src/event.rs",
        edits: &[(
            "        if poll_fds(&mut fds, tick_ms).is_err() {",
            "        std::thread::sleep(Duration::from_millis(1));\n        if poll_fds(&mut fds, tick_ms).is_err() {",
        )],
    },
    // The cancel marker is written around the store lock.
    Seed {
        rule: "store-lock-discipline",
        path: "crates/serve/src/server.rs",
        edits: &[(
            "if let Err(e) = state.store.request_cancel(key) {",
            "if let Err(e) = std::fs::write(\n                    state.store.dir().join(\"jobs\").join(format!(\"{key}.cancel\")),\n                    b\"cancel\\n\",\n                ) {",
        )],
    },
    // `submit` clears the cancel mark under the queue lock while
    // `request_cancel` dequeues under the cancel lock: queue -> cancels
    // -> queue.
    Seed {
        rule: "lock-order",
        path: "crates/serve/src/jobs.rs",
        edits: &[
            (
                "        q.push_back(key.to_string());\n        drop(q);",
                "        q.push_back(key.to_string());\n        self.clear_cancel(key);\n        drop(q);",
            ),
            (
                "        self.cancels\n            .lock()\n            .unwrap_or_else(PoisonError::into_inner)\n            .insert(key.to_string());",
                "        let mut cancels = self.cancels.lock().unwrap_or_else(PoisonError::into_inner);\n        cancels.insert(key.to_string());\n        self.remove(key);",
            ),
        ],
    },
];

/// Findings per rule (the stale-allow check included).
fn counts(files: &[(String, String)]) -> BTreeMap<&'static str, usize> {
    let texts: Vec<(&str, &str)> = files
        .iter()
        .map(|(path, src)| (path.as_str(), src.as_str()))
        .collect();
    let mut out = BTreeMap::new();
    for f in lint_texts(&texts, None) {
        *out.entry(f.rule).or_insert(0) += 1;
    }
    out
}

#[test]
fn every_rule_catches_its_seeded_regression_in_the_real_workspace() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let files = read_workspace(&root).unwrap();
    // Compared against the tree as it is, so a finding the CI lint step
    // would report anyway does not mask or fake a seed's.
    let before = counts(&files);

    for seed in SEEDS {
        let mut patched = files.clone();
        let (_, src) = patched
            .iter_mut()
            .find(|(path, _)| path == seed.path)
            .unwrap_or_else(|| panic!("{}: no file {}", seed.rule, seed.path));
        for (anchor, replacement) in seed.edits {
            assert_eq!(
                src.matches(anchor).count(),
                1,
                "{}: anchor {anchor:?} must occur exactly once in {}",
                seed.rule,
                seed.path
            );
            *src = src.replacen(anchor, replacement, 1);
        }
        let mut after = counts(&patched);
        let caught = after.remove(seed.rule).unwrap_or(0);
        let mut expected = before.clone();
        let had = expected.remove(seed.rule).unwrap_or(0);
        assert!(caught > had, "{}: the seed is not caught", seed.rule);
        assert_eq!(after, expected, "{}: other rules fired", seed.rule);
    }

    // Every rule the engine runs has earned its place with a seed.
    let seeded: BTreeSet<&str> = SEEDS.iter().map(|s| s.rule).collect();
    assert_eq!(seeded, rules::rule_names().collect::<BTreeSet<_>>());
}
