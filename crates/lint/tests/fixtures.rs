//! Fixture tests: seed one violation of each rule into a source snippet
//! and assert the engine reports it at the right `file:line`, and that
//! suppressions, the stale-allow check, and test-code exclusion behave.

use tbstc_lint::engine::{lint_source_rules, LintOptions};
use tbstc_lint::{lint_source, lint_workspace, Finding, Severity};

fn rules_at(findings: &[Finding], rule: &str) -> Vec<(u32, u32)> {
    findings
        .iter()
        .filter(|f| f.rule == rule)
        .map(|f| (f.line, f.col))
        .collect()
}

// --- panic-surface ------------------------------------------------------

#[test]
fn panic_surface_flags_unwrap_expect_and_macros() {
    let src = "\
fn f(x: Option<u32>) -> u32 {
    let a = x.unwrap();
    let b = x.expect(\"msg\");
    if a == 0 { panic!(\"boom\"); }
    b
}
";
    let fs = lint_source("crates/core/src/f.rs", src);
    assert_eq!(rules_at(&fs, "panic-surface"), [(2, 15), (3, 15), (4, 17)]);
    assert!(fs.iter().all(|f| f.severity == Severity::Warning));
}

#[test]
fn panic_surface_ignores_strings_comments_and_tests() {
    let src = "\
// a comment saying .unwrap() is bad
fn f() -> &'static str {
    \"call .unwrap() here\"
}
/// Docs may say panic! freely.
fn g() {}
#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        Some(1).unwrap();
    }
}
";
    assert!(lint_source("crates/core/src/f.rs", src).is_empty());
}

#[test]
fn panic_surface_indexing_only_fires_in_serve() {
    let src = "\
fn head(buf: &[u8], pos: usize) -> &[u8] {
    &buf[..pos]
}
";
    let serve = lint_source("crates/serve/src/f.rs", src);
    assert_eq!(rules_at(&serve, "panic-surface"), [(2, 9)]);
    assert!(lint_source("crates/core/src/f.rs", src).is_empty());

    // Array literals and attributes are not index expressions.
    let ok = "\
#[derive(Clone)]
struct S;
fn g() -> [u8; 2] {
    let a = [1u8, 2];
    a
}
";
    assert!(lint_source("crates/serve/src/g.rs", ok).is_empty());
}

// --- determinism --------------------------------------------------------

#[test]
fn determinism_flags_hash_containers_and_clock() {
    let src = "\
use std::collections::HashMap;
fn f() {
    let t = std::time::SystemTime::now();
    let _ = (t, HashMap::<u32, u32>::new());
}
";
    let fs = lint_source("crates/runner/src/f.rs", src);
    let lines: Vec<u32> = fs
        .iter()
        .filter(|f| f.rule == "determinism")
        .map(|f| f.line)
        .collect();
    assert_eq!(lines, [1, 3, 4]);
}

// --- lock-discipline ----------------------------------------------------

#[test]
fn lock_discipline_flags_lock_unwrap_as_error() {
    let src = "\
use std::sync::Mutex;
fn f(m: &Mutex<u32>) -> u32 {
    *m.lock().unwrap()
}
";
    let fs = lint_source("crates/core/src/f.rs", src);
    let hits: Vec<&Finding> = fs.iter().filter(|f| f.rule == "lock-discipline").collect();
    assert_eq!(hits.len(), 1);
    assert_eq!((hits[0].line, hits[0].severity), (3, Severity::Error));
    // The unwrap itself is not double-reported by panic-surface.
    assert!(rules_at(&fs, "panic-surface").is_empty());
}

#[test]
fn lock_discipline_flags_guard_across_io_in_serve_only() {
    let src = "\
fn f(m: &std::sync::Mutex<u32>, out: &mut dyn std::io::Write) {
    let g = m.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    out.write_all(b\"x\").ok();
    drop(g);
    out.write_all(b\"y\").ok();
}
";
    let serve = lint_source("crates/serve/src/f.rs", src);
    assert_eq!(rules_at(&serve, "lock-discipline"), [(3, 9)]);
    // Outside serve/runner the guard heuristic is off.
    assert!(rules_at(&lint_source("crates/sim/src/f.rs", src), "lock-discipline").is_empty());
    // Scope exit also releases the guard.
    let scoped = "\
fn f(m: &std::sync::Mutex<u32>, out: &mut dyn std::io::Write) {
    {
        let g = m.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let _ = *g;
    }
    out.write_all(b\"y\").ok();
}
";
    assert!(rules_at(
        &lint_source("crates/serve/src/f.rs", scoped),
        "lock-discipline"
    )
    .is_empty());
}

// --- crate-hygiene ------------------------------------------------------

#[test]
fn crate_hygiene_requires_forbid_unsafe_in_roots() {
    let bare = "pub fn f() {}\n";
    let fs = lint_source("crates/demo/src/lib.rs", bare);
    assert_eq!(rules_at(&fs, "crate-hygiene"), [(1, 1)]);
    // Non-root modules don't need the attribute.
    assert!(lint_source("crates/demo/src/util.rs", bare).is_empty());
    // Either forbid or deny satisfies the rule.
    for attr in ["#![forbid(unsafe_code)]", "#![deny(unsafe_code)]"] {
        let src = format!("{attr}\npub fn f() {{}}\n");
        assert!(lint_source("crates/demo/src/lib.rs", &src).is_empty());
    }
}

// --- unsafe-audit -------------------------------------------------------

#[test]
fn unsafe_audit_requires_safety_comment_in_allowlisted_modules() {
    let bad = "\
#[allow(unsafe_code)]
fn f() {
    unsafe { core::hint::unreachable_unchecked() }
}
";
    // event.rs is allowlisted, so the only finding is the missing
    // SAFETY: justification.
    let fs = lint_source("crates/serve/src/event.rs", bad);
    assert_eq!(rules_at(&fs, "unsafe-audit"), [(3, 5)]);

    let good = "\
#[allow(unsafe_code)]
fn f() {
    // SAFETY: provably unreachable, guarded above.
    unsafe { core::hint::unreachable_unchecked() }
}
";
    let fs = lint_source("crates/serve/src/event.rs", good);
    assert!(rules_at(&fs, "unsafe-audit").is_empty(), "{fs:?}");
}

#[test]
fn unsafe_audit_rejects_unsafe_outside_the_allowlist() {
    let src = "\
#![deny(unsafe_code)]
#[allow(unsafe_code)]
fn f() {
    // SAFETY: justified, but this module is not audited.
    unsafe { core::hint::unreachable_unchecked() }
}
";
    let fs = lint_source("crates/demo/src/lib.rs", src);
    let hits = rules_at(&fs, "unsafe-audit");
    assert_eq!(hits, [(5, 5)], "{fs:?}");
    assert!(fs
        .iter()
        .filter(|f| f.rule == "unsafe-audit")
        .all(|f| f.severity == Severity::Error));
    assert!(fs[0].message.contains("allowlist"), "{fs:?}");
    // The serve syscall shims are all allowlisted.
    for path in [
        "crates/serve/src/event.rs",
        "crates/serve/src/signal.rs",
        "crates/serve/src/store.rs",
    ] {
        let fs = lint_source(path, "// SAFETY: shim.\nfn f() { unsafe { g() } }\n");
        assert!(rules_at(&fs, "unsafe-audit").is_empty(), "{path}: {fs:?}");
    }
}

// --- hot-path-alloc -----------------------------------------------------

#[test]
fn hot_path_alloc_flags_uncapped_push_on_hot_paths_only() {
    let src = "\
fn f(n: usize) -> Vec<u32> {
    let mut v = Vec::new();
    for i in 0..n {
        v.push(i as u32);
    }
    v
}
";
    let hot = lint_source("crates/sim/src/plan.rs", src);
    assert_eq!(rules_at(&hot, "hot-path-alloc"), [(4, 11)]);
    // Off the hot path the same growth is not reported.
    assert!(rules_at(
        &lint_source("crates/sim/src/compute.rs", src),
        "hot-path-alloc"
    )
    .is_empty());
    // A with_capacity binding pushes freely even on the hot path.
    let ok = "\
fn f(n: usize) -> Vec<u32> {
    let mut v = Vec::with_capacity(n);
    for i in 0..n {
        v.push(i as u32);
    }
    v
}
";
    assert!(lint_source("crates/matrix/src/gemm.rs", ok).is_empty());
}

#[test]
fn hot_path_alloc_suppression_carries_reason() {
    let src = "\
fn f(it: impl Iterator<Item = u32>) -> Vec<u32> {
    let mut v = Vec::new();
    for x in it {
        // tbstc-lint: allow(hot-path-alloc) — output length is input-dependent
        v.push(x);
    }
    v
}
";
    let (fs, suppressed) = lint_source_rules("crates/sim/src/plan.rs", src, None);
    assert!(fs.is_empty(), "{fs:?}");
    assert_eq!(suppressed, 1);
}

// --- blocking-in-event-loop ---------------------------------------------

#[test]
fn blocking_in_event_loop_flags_sleep_and_blocking_calls() {
    let src = "\
fn f(s: &mut std::net::TcpStream, rx: &std::sync::mpsc::Receiver<u8>) {
    std::thread::sleep(std::time::Duration::from_millis(15));
    use std::io::Write;
    s.write_all(b\"x\").ok();
    let _ = rx.recv();
}
";
    let fs = lint_source("crates/serve/src/event.rs", src);
    let hits = rules_at(&fs, "blocking-in-event-loop");
    assert_eq!(hits.len(), 3, "sleep + write_all + recv: {fs:?}");
    assert!(fs
        .iter()
        .filter(|f| f.rule == "blocking-in-event-loop")
        .all(|f| f.severity == Severity::Error));
    // The same code is legal outside the event-loop files (server.rs
    // worker paths may block).
    assert!(rules_at(
        &lint_source("crates/serve/src/server.rs", src),
        "blocking-in-event-loop"
    )
    .is_empty());
}

#[test]
fn blocking_in_event_loop_flags_io_under_a_lock_guard() {
    let src = "\
fn f(m: &std::sync::Mutex<u32>, s: &mut std::net::TcpStream) {
    use std::io::Write;
    let g = m.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let _ = s.write(b\"x\");
    drop(g);
    let _ = s.write(b\"y\");
}
";
    let fs = lint_source("crates/serve/src/conn.rs", src);
    assert_eq!(
        rules_at(&fs, "blocking-in-event-loop"),
        [(4, 15)],
        "only the guarded write is an error: {fs:?}"
    );
    // A bare non-blocking-style read/write with no guard is the
    // sanctioned I/O shape.
    let ok = "\
fn f(s: &mut std::net::TcpStream) -> std::io::Result<usize> {
    use std::io::Read;
    let mut buf = [0u8; 16];
    s.read(&mut buf)
}
";
    assert!(lint_source("crates/serve/src/conn.rs", ok).is_empty());
}

#[test]
fn blocking_in_event_loop_skips_test_code() {
    let src = "\
pub fn g() {}
#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
}
";
    assert!(rules_at(
        &lint_source("crates/serve/src/event.rs", src),
        "blocking-in-event-loop"
    )
    .is_empty());
}

// --- suppressions & rule filtering --------------------------------------

#[test]
fn trailing_suppression_silences_its_line_only() {
    let src = "\
fn f(x: Option<u32>) -> u32 {
    let a = x.unwrap(); // tbstc-lint: allow(panic-surface) — fixture
    x.unwrap() + a
}
";
    let fs = lint_source("crates/core/src/f.rs", src);
    assert_eq!(rules_at(&fs, "panic-surface"), [(3, 7)]);
}

#[test]
fn standalone_suppression_covers_next_code_line() {
    let src = "\
fn f(x: Option<u32>) -> u32 {
    // tbstc-lint: allow(panic-surface) — fixture justification
    x.unwrap()
}
";
    assert!(lint_source("crates/core/src/f.rs", src).is_empty());
}

#[test]
fn suppression_must_name_the_right_rule() {
    let src = "\
fn f(x: Option<u32>) -> u32 {
    x.unwrap() // tbstc-lint: allow(determinism) — wrong rule
}
";
    let fs = lint_source("crates/core/src/f.rs", src);
    assert_eq!(rules_at(&fs, "panic-surface").len(), 1);
}

#[test]
fn multi_rule_suppression_and_counting() {
    let src = "\
use std::collections::HashMap;
fn f(m: &HashMap<u32, u32>) -> u32 {
    // tbstc-lint: allow(panic-surface, determinism) — fixture
    *m.get(&0).unwrap()
}
";
    let (fs, suppressed) = lint_source_rules("crates/core/src/f.rs", src, None);
    // The HashMap mentions on lines 1–2 are still flagged; line 4's
    // unwrap is suppressed.
    assert_eq!(rules_at(&fs, "determinism"), [(1, 23), (2, 10)]);
    assert!(rules_at(&fs, "panic-surface").is_empty());
    assert_eq!(suppressed, 1);
}

#[test]
fn rule_filter_restricts_output() {
    let src = "\
use std::collections::HashMap;
fn f(x: Option<u32>) -> u32 { x.unwrap() }
";
    let only = vec!["determinism".to_string()];
    let (fs, _) = lint_source_rules("crates/core/src/f.rs", src, Some(&only));
    assert!(fs.iter().all(|f| f.rule == "determinism"));
    assert_eq!(fs.len(), 1);
}

// --- stale suppressions -------------------------------------------------

#[test]
fn stale_allow_flags_a_suppression_that_silences_nothing() {
    let src = "\
fn f(x: Option<u32>) -> u32 {
    // tbstc-lint: allow(panic-surface) — the unwrap below was fixed
    x.unwrap_or(0)
}
";
    let fs = lint_source("crates/core/src/f.rs", src);
    assert_eq!(rules_at(&fs, "stale-allow"), [(2, 5)], "{fs:?}");
    assert_eq!(fs.len(), 1, "{fs:?}");
    assert_eq!(fs[0].severity, Severity::Warning);
    assert!(fs[0].message.contains("allow(panic-surface)"), "{fs:?}");
}

#[test]
fn stale_allow_flags_an_unknown_rule_name() {
    let src = "\
fn f(x: Option<u32>) -> u32 {
    x.unwrap() // tbstc-lint: allow(panic-surfac) — typo
}
/// Docs may quote `// tbstc-lint: allow(anything)` without suppressing.
fn g() {}
";
    let fs = lint_source("crates/core/src/f.rs", src);
    // The typo suppresses nothing: the unwrap is still reported, and
    // the allow itself is flagged, naming the valid rules.
    assert_eq!(rules_at(&fs, "panic-surface"), [(2, 7)]);
    assert_eq!(rules_at(&fs, "stale-allow"), [(2, 16)], "{fs:?}");
    let stale = fs.iter().find(|f| f.rule == "stale-allow").unwrap();
    assert!(stale.message.contains("allow(panic-surfac)"), "{stale:?}");
    assert!(
        stale.message.contains("valid rules: panic-surface,"),
        "{stale:?}"
    );
}

#[test]
fn rule_filter_reports_stale_entries_only_for_rules_that_ran() {
    let src = "\
fn f(x: Option<u32>) -> u32 {
    // tbstc-lint: allow(panic-surface) — stale
    let a = x.unwrap_or(0);
    // tbstc-lint: allow(determinism) — stale
    let b = a + 1;
    // tbstc-lint: allow(no-such-rule) — unknown
    a + b
}
";
    let stale = |only: Option<&[String]>| {
        let (fs, _) = lint_source_rules("crates/core/src/f.rs", src, only);
        assert!(fs.iter().all(|f| f.rule == "stale-allow"), "{fs:?}");
        fs.iter().map(|f| f.line).collect::<Vec<_>>()
    };
    // Unfiltered, all three allows are stale.
    assert_eq!(stale(None), [2, 4, 6]);
    // Filtered, only the allows naming a rule that ran are checked: the
    // determinism allow matched nothing because its rule was skipped,
    // and an unknown name never runs.
    assert_eq!(stale(Some(&["panic-surface".to_string()])), [2]);
    assert!(stale(Some(&["lock-order".to_string()])).is_empty());
}

// --- workspace driver ---------------------------------------------------

/// A one-file workspace under the temp dir whose only finding is a
/// `panic-surface` warning on line 3 of `crates/demo/src/lib.rs`.
fn demo_workspace(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("tbstc-lint-{tag}-{}", std::process::id()));
    let src_dir = dir.join("crates/demo/src");
    std::fs::create_dir_all(&src_dir).unwrap();
    std::fs::write(
        src_dir.join("lib.rs"),
        "#![forbid(unsafe_code)]\n//! Demo.\npub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n",
    )
    .unwrap();
    dir
}

fn only(rules: &[&str], root: &std::path::Path) -> LintOptions {
    LintOptions {
        root: root.to_path_buf(),
        rules: Some(rules.iter().map(|r| r.to_string()).collect()),
    }
}

#[test]
fn workspace_driver_reports_files_findings_and_failure() {
    let dir = demo_workspace("fixture");
    let all = LintOptions {
        root: dir.clone(),
        rules: None,
    };

    let report = lint_workspace(&all).unwrap();
    assert_eq!(report.files_scanned, 1);
    assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
    assert_eq!(
        (report.findings[0].path.as_str(), report.findings[0].line),
        ("crates/demo/src/lib.rs", 3)
    );
    assert!(report.fails(true));
    assert!(!report.fails(false)); // warnings pass without --deny-warnings

    // An inline suppression with a reason accepts the finding.
    std::fs::write(
        dir.join("crates/demo/src/lib.rs"),
        "#![forbid(unsafe_code)]\n//! Demo.\n\
         // tbstc-lint: allow(panic-surface) — demo\n\
         pub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n",
    )
    .unwrap();
    let report = lint_workspace(&all).unwrap();
    assert!(report.findings.is_empty(), "{:?}", report.findings);
    assert_eq!(report.suppressed, 1);
    assert!(!report.fails(true));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_rule_filter_is_an_error_naming_the_valid_rules() {
    let dir = demo_workspace("filter-typo");
    let err = lint_workspace(&only(&["panic-surface", "panic-surfac"], &dir)).unwrap_err();
    assert!(err.contains("`panic-surfac`"), "{err}");
    for rule in tbstc_lint::rules::rule_names() {
        assert!(err.contains(rule), "{rule} missing from: {err}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn json_output_is_well_formed_enough_to_grep() {
    let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
    let fs = lint_source("crates/core/src/f.rs", src);
    let report = tbstc_lint::LintReport {
        findings: fs,
        ..Default::default()
    };
    let json = tbstc_lint::render_json(&report);
    assert!(json.contains("\"schema\":\"tbstc-lint.v1\""));
    assert!(json.contains("\"rule\":\"panic-surface\""));
    assert!(json.contains("\"line\":1"));
    let human = tbstc_lint::render_human(&report, true);
    assert!(human.contains("crates/core/src/f.rs:1:"));
    assert!(human.contains("warning[panic-surface]"));
}

// --- store-lock-discipline ----------------------------------------------

#[test]
fn store_lock_discipline_flags_direct_store_writes_in_serve() {
    let src = "\
use std::fs::{self, File, OpenOptions};
fn persist(dir: &std::path::Path, body: &str) -> std::io::Result<()> {
    fs::create_dir_all(dir)?;
    fs::write(dir.join(\"memo.jsonl.tmp\"), body)?;
    fs::rename(dir.join(\"memo.jsonl.tmp\"), dir.join(\"memo.jsonl\"))?;
    let _f = File::create(dir.join(\"jobs\").join(\"k.json\"))?;
    let _o = OpenOptions::new().append(true).open(dir.join(\"memo.jsonl\"))?;
    fs::remove_file(dir.join(\"jobs\").join(\"k.cancel\"))?;
    Ok(())
}
";
    let fs = lint_source("crates/serve/src/server.rs", src);
    let hits = rules_at(&fs, "store-lock-discipline");
    assert_eq!(hits.len(), 6, "{fs:?}");
    assert_eq!(hits[0], (3, 9));
    assert!(fs
        .iter()
        .filter(|f| f.rule == "store-lock-discipline")
        .all(|f| f.severity == Severity::Error));
}

#[test]
fn store_lock_discipline_is_scoped_to_serve_outside_store_rs() {
    let src = "\
fn f(p: &std::path::Path) {
    let _ = std::fs::write(p, \"x\");
}
";
    // store.rs itself holds the locked accessors — allowed.
    assert!(lint_source("crates/serve/src/store.rs", src)
        .iter()
        .all(|f| f.rule != "store-lock-discipline"));
    // Other crates manage their own files — out of scope.
    assert!(lint_source("crates/cli/src/commands.rs", src)
        .iter()
        .all(|f| f.rule != "store-lock-discipline"));
    // Serve test code is excluded like every other rule.
    let test_src = "\
#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        let _ = std::fs::remove_dir_all(\"d\");
    }
}
";
    assert!(lint_source("crates/serve/src/server.rs", test_src).is_empty());
}
