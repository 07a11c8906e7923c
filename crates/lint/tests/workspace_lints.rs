//! The toolchain half of the workspace policy: rustc and clippy enforce
//! the `unsafe`, panic and determinism rules only where the manifests
//! and `clippy.toml` switch them on, so these tests pin the switches. Every crate
//! inherits the root `[workspace.lints]` table, or repeats its clippy
//! set in its own table, and only the audited shims may opt back in to
//! `unsafe`. The switches that replace former `tbstc-lint` rules are
//! pinned in `fixtures.rs`, under those rules' names.

#![allow(
    clippy::unwrap_used,
    reason = "a test fails by panicking, helpers included"
)]

mod common;

use common::{manifest, members, root, section, workspace_clippy, workspace_warns, OWN_TABLE};
use std::fs;
use std::path::{Path, PathBuf};

/// The only sources that may name `unsafe_code` (to allow it): serve's
/// poll(2), signal(2) and flock(2) shims and the counting allocators of
/// serve's hot-hit and train's steady-state allocation tests.
const UNSAFE_ALLOWED: &[&str] = &[
    "crates/serve/src/event.rs",
    "crates/serve/src/signal.rs",
    "crates/serve/src/store.rs",
    "crates/serve/tests/alloc_hot_hit.rs",
    "crates/train/tests/alloc_steady_state.rs",
];

/// The tests that name `unsafe_code` only to read it out of manifests.
const POLICY_TESTS: &[&str] = &[
    "crates/lint/tests/fixtures.rs",
    "crates/lint/tests/workspace_lints.rs",
];

#[test]
fn every_crate_inherits_the_workspace_lints() {
    let clippy = workspace_clippy();
    for name in members() {
        let manifest = manifest(&format!("crates/{name}"));
        if !OWN_TABLE.contains(&name.as_str()) {
            assert_eq!(
                section(&manifest, "lints"),
                ["workspace = true"],
                "crates/{name}/Cargo.toml must inherit the workspace lints"
            );
            continue;
        }
        let own = section(&manifest, "lints.clippy");
        for lint in &clippy {
            assert!(own.contains(lint), "crates/{name} lacks `{lint}`");
        }
    }
}

#[test]
fn clippy_toml_disallows_hash_containers_and_the_clock() {
    workspace_warns(&["disallowed_types", "disallowed_methods"]);
    let clippy = fs::read_to_string(root().join("clippy.toml")).unwrap();
    for path in [
        "std::collections::HashMap",
        "std::collections::HashSet",
        "std::time::SystemTime::now",
    ] {
        assert!(
            clippy.contains(&format!("{{ path = \"{path}\", reason = ")),
            "{path}"
        );
    }
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for path in fs::read_dir(dir).unwrap().flatten().map(|e| e.path()) {
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn unsafe_code_is_allowed_only_in_the_audited_shims() {
    let root = root();
    let mut files = Vec::with_capacity(256);
    for dir in ["crates", "tests", "examples"] {
        rust_files(&root.join(dir), &mut files);
    }
    let mut opted_in: Vec<String> = files
        .iter()
        // Any mention counts: an attribute may wrap across lines.
        .filter(|p| fs::read_to_string(p).unwrap().contains("unsafe_code"))
        .map(|p| {
            p.strip_prefix(&root)
                .unwrap()
                .to_string_lossy()
                .replace('\\', "/")
        })
        .filter(|rel| !POLICY_TESTS.contains(&rel.as_str()))
        .collect();
    opted_in.sort();
    assert_eq!(opted_in, UNSAFE_ALLOWED);
}
