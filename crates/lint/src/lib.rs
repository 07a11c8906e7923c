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
//! Around the core: [`cache`] makes warm re-runs near-zero via an
//! FNV-keyed per-file result cache, [`sarif`] renders SARIF 2.1.0 for
//! CI annotations, and [`fix`] applies mechanical remediation
//! (suppression insertion, baseline burndown).
//!
//! The crate has zero dependencies (it hand-rolls its JSON output) so
//! every other crate — including `tbstc-bench`, which times it — can
//! depend on it without cycles.
//!
//! Run it as `tbstc-cli lint [--deny-warnings] [--json] [--sarif]
//! [--fix] [--no-cache]`; see DESIGN.md §10 for the rule-authoring
//! guide and §15 for the structural analyses.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod engine;
pub mod fix;
pub mod graph;
pub mod lexer;
pub mod rules;
pub mod sarif;
pub mod syntax;

pub use cache::fnv1a_128;
pub use engine::{
    analyze_source, lint_source, lint_texts, lint_workspace, render_baseline, render_human,
    render_json, FileAnalysis, Finding, LintOptions, LintReport, Severity, BASELINE_FILE,
};
pub use fix::{apply_fixes, FixOutcome};
pub use sarif::render_sarif;
