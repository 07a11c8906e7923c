//! `tbstc-lint` — the workspace's own static-analysis engine.
//!
//! The repo's core guarantees — bit-reproducible results, a panic-free
//! serve request path, contained `unsafe` — were previously enforced by
//! a CI `grep` and convention. This crate replaces both with a real
//! (if small) analyzer: a token-level Rust [`lexer`] that cannot be
//! fooled by raw strings, nested block comments, or `//` inside string
//! literals; a brace-aware [`syntax`] layer that extracts an item tree
//! and per-function facts (calls, lock acquisitions, panic sites); a
//! [`graph`] module building the workspace call graph and the
//! lock-acquisition-order graph; and an [`engine`] that runs ten
//! [`rules`] — eight per-file, two workspace-wide (`lock-order` deadlock
//! cycles, `panic-reachability` escalation) — over every
//! `crates/*/src/**/*.rs` file, producing `file:line:col` diagnostics
//! with severities, inline `// tbstc-lint: allow(<rule>)` suppressions,
//! and a checked-in, count-aware baseline for grandfathered findings.
//!
//! The crate has zero dependencies (it hand-rolls its JSON output) so
//! every other crate — including `tbstc-bench`, which times it — can
//! depend on it without cycles.
//!
//! Run it as `tbstc-cli lint [--deny-warnings] [--json]
//! [--update-baseline] [--rules a,b]`; see DESIGN.md §10 for the
//! rule-authoring guide and §15 for the workspace graphs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod graph;
pub mod lexer;
pub mod rules;
pub mod syntax;

pub use engine::{
    lint_source, lint_texts, lint_workspace, render_human, render_json, update_baseline, Finding,
    LintOptions, LintReport, Severity, BASELINE_FILE,
};
