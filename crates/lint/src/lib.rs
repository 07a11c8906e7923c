//! `tbstc-lint` — the workspace's own static-analysis engine.
//!
//! The repo's core guarantees — bit-reproducible results, a panic-free
//! serve request path, contained `unsafe` — were previously enforced by
//! a CI `grep` and convention. This crate replaces both with a real
//! (if small) analyzer: a token-level Rust [`lexer`] that cannot be
//! fooled by raw strings, nested block comments, or `//` inside string
//! literals; a brace-aware [`syntax`] layer that extracts an item tree
//! and per-function facts (calls and lock acquisitions); a
//! [`graph`] module building the workspace call graph and the
//! lock-acquisition-order graph; and an [`engine`] that runs nine
//! [`rules`] — eight per-file, one workspace-wide (`lock-order` deadlock
//! cycles) — over every `crates/*/src/**/*.rs` file, producing
//! `file:line:col` diagnostics with severities. An inline
//! `// tbstc-lint: allow(<rule>) — reason` suppression is the one way
//! to accept a finding, and one that silences nothing is itself a
//! warning.
//!
//! The crate has zero dependencies (it hand-rolls its JSON output) so
//! every other crate can depend on it without cycles.
//!
//! Run it as `tbstc-cli lint [--deny-warnings] [--json] [--rules a,b]`;
//! see DESIGN.md §10 for the rule-authoring guide and §15 for the
//! workspace graphs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod graph;
pub mod lexer;
pub mod rules;
pub mod syntax;

pub use engine::{
    lint_source, lint_texts, lint_workspace, read_workspace, render_human, render_json, Finding,
    LintOptions, LintReport, Severity,
};
