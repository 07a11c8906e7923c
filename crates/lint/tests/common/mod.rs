//! Readers for the workspace manifests, shared by the lint-policy tests.

use std::fs;
use std::path::{Path, PathBuf};

/// Crates whose own `[lints]` table denies `unsafe` rather than inheriting
/// the workspace's `forbid`, so one of their files can allow it.
pub const OWN_TABLE: &[&str] = &["serve", "train"];

pub fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The text of the `Cargo.toml` in `dir`, relative to the workspace root.
pub fn manifest(dir: &str) -> String {
    fs::read_to_string(root().join(dir).join("Cargo.toml")).unwrap()
}

/// The non-comment, non-blank lines of one TOML `[section]`.
pub fn section(toml: &str, name: &str) -> Vec<String> {
    let header = format!("[{name}]");
    toml.lines()
        .map(str::trim)
        .skip_while(|l| *l != header)
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::to_string)
        .collect()
}

/// The workspace's clippy table: every crate inherits it or repeats it.
pub fn workspace_clippy() -> Vec<String> {
    section(&manifest("."), "workspace.lints.clippy")
}

/// Asserts the workspace clippy table switches on each of `lints`.
pub fn workspace_warns(lints: &[&str]) {
    let clippy = workspace_clippy();
    for lint in lints {
        assert!(clippy.contains(&format!("{lint} = \"warn\"")), "{lint}");
    }
}

/// The name of every workspace member under `crates/`, sorted.
pub fn members() -> Vec<String> {
    let mut names: Vec<String> = fs::read_dir(root().join("crates"))
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.join("Cargo.toml").is_file())
        .map(|p| p.file_name().unwrap().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}
