//! Fixture tests: seed one violation of each rule into a source snippet
//! and assert the engine reports it at the right `file:line`, and that
//! strings, comments and test code are out of scope. The rules that
//! moved to rustc and clippy keep their tests here, pinning the
//! manifest switch that now enforces each one.

#![allow(
    clippy::unwrap_used,
    reason = "a test fails by panicking, helpers included"
)]

mod common;

use common::{manifest, members, section, workspace_clippy, workspace_warns, OWN_TABLE};
use tbstc_lint::{lint_source, lint_workspace, Finding, Severity};

fn rules_at(findings: &[Finding], rule: &str) -> Vec<(u32, u32)> {
    findings
        .iter()
        .filter(|f| f.rule == rule)
        .map(|f| (f.line, f.col))
        .collect()
}

#[test]
fn rules_ignore_strings_comments_and_tests() {
    let src = "\
// a comment saying fs::write(p, x) would bypass the store lock
fn f() -> &'static str {
    \"call fs::write(p, x) here\"
}
/// Docs may say File::create(p) freely.
fn g() {}
#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        std::fs::write(\"p\", \"x\").ok();
    }
}
";
    assert!(lint_source("crates/serve/src/server.rs", src).is_empty());
}

// --- lock-discipline ----------------------------------------------------

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

// --- workspace driver ---------------------------------------------------

/// The demo source: a guard held across a write, a `lock-discipline`
/// warning on line 3.
const GUARDED_WRITE: &str = "\
fn f(m: &std::sync::Mutex<u32>, out: &mut dyn std::io::Write) {
    let g = m.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    out.write_all(b\"x\").ok();
    drop(g);
}
";

#[test]
fn workspace_driver_reports_files_findings_and_failure() {
    let dir = std::env::temp_dir().join(format!("tbstc-lint-fixture-{}", std::process::id()));
    let write = |rel: &str, src: &str| {
        let path = dir.join(rel);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(path, src).unwrap();
    };
    write("crates/serve/src/lib.rs", GUARDED_WRITE);
    // Integration tests are not read.
    write("crates/serve/tests/t.rs", GUARDED_WRITE);

    let report = lint_workspace(&dir).unwrap();
    assert_eq!(report.files_scanned, 1);
    assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
    assert_eq!(
        (report.findings[0].path.as_str(), report.findings[0].line),
        ("crates/serve/src/lib.rs", 3)
    );
    assert!(report.fails(true));
    assert!(!report.fails(false)); // warnings pass without --deny-warnings

    // Dropping the guard before the write clears the finding.
    write(
        "crates/serve/src/lib.rs",
        &GUARDED_WRITE.replace(
            "    out.write_all(b\"x\").ok();\n    drop(g);",
            "    drop(g);\n    out.write_all(b\"x\").ok();",
        ),
    );
    let report = lint_workspace(&dir).unwrap();
    assert!(report.findings.is_empty(), "{:?}", report.findings);
    assert!(!report.fails(true));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn json_output_is_well_formed_enough_to_grep() {
    let src = "fn f() -> Vec<u8> {\n    let mut v = Vec::new();\n    v.push(1);\n    v\n}\n";
    let fs = lint_source("crates/sim/src/plan.rs", src);
    let report = tbstc_lint::LintReport {
        findings: fs,
        ..Default::default()
    };
    let json = tbstc_lint::render_json(&report);
    assert!(json.contains("\"schema\":\"tbstc-lint.v1\""));
    assert!(json.contains("\"rule\":\"hot-path-alloc\""));
    assert!(json.contains("\"line\":3"));
    let human = tbstc_lint::render_human(&report, true);
    assert!(human.contains("crates/sim/src/plan.rs:3:"));
    assert!(human.contains("warning[hot-path-alloc]"));
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

// --- rules moved to the toolchain ---------------------------------------

#[test]
fn crate_hygiene_requires_forbid_unsafe_in_roots() {
    assert_eq!(
        section(&manifest("."), "workspace.lints.rust"),
        ["unsafe_code = \"forbid\""]
    );
    // A crate with its own table may only relax `forbid` to `deny`, so
    // `unsafe` still needs an `#[allow]` at the site that uses it.
    for name in OWN_TABLE {
        assert_eq!(
            section(&manifest(&format!("crates/{name}")), "lints.rust"),
            ["unsafe_code = \"deny\""],
            "crates/{name}"
        );
    }
}

#[test]
fn panic_surface_flags_unwrap_expect_and_macros() {
    workspace_warns(&["unwrap_used", "expect_used"]);
    workspace_warns(&["panic", "unreachable", "todo", "unimplemented"]);
}

#[test]
fn panic_surface_indexing_only_fires_in_serve() {
    let indexing = "indexing_slicing = \"warn\"".to_string();
    assert!(!workspace_clippy().contains(&indexing));
    for name in members() {
        let own = section(&manifest(&format!("crates/{name}")), "lints.clippy");
        assert_eq!(own.contains(&indexing), name == "serve", "crates/{name}");
    }
}

#[test]
fn lock_discipline_flags_lock_unwrap_as_error() {
    // `.lock().unwrap()` is an `unwrap_used` finding, an error under CI's `-D warnings`.
    workspace_warns(&["unwrap_used"]);
    let ci = std::fs::read_to_string(common::root().join(".github/workflows/ci.yml")).unwrap();
    assert!(ci.contains("run: cargo clippy --all-targets -- -D warnings"));
}

#[test]
fn unsafe_audit_requires_safety_comment_in_allowlisted_modules() {
    workspace_warns(&["undocumented_unsafe_blocks"]);
}
