//! `tbstc-lint` — the workspace's own static-analysis engine.
//!
//! It checks the repo invariants rustc and clippy cannot express: a
//! token-level Rust [`lexer`] that cannot be fooled by raw strings,
//! nested block comments, or `//` inside string literals; a
//! brace-aware [`syntax`] layer that extracts an item tree and
//! per-function facts (calls and lock acquisitions); a [`graph`] module
//! building the workspace call graph and the lock-acquisition-order
//! graph; and an [`engine`] that runs five [`rules`] — four per-file,
//! one workspace-wide (`lock-order` deadlock cycles) — over every
//! `crates/*/src/**/*.rs` file, producing `file:line:col` diagnostics
//! with severities. There is no suppression mechanism: a false positive
//! is fixed in the rule or in the code. The panic, determinism and
//! `unsafe` policies are toolchain lints (the workspace `[lints]` table
//! and `clippy.toml`).
//!
//! The crate has zero dependencies (it hand-rolls its JSON output) so
//! every other crate can depend on it without cycles.
//!
//! Run it as `tbstc-cli lint [--deny-warnings] [--json] [--root DIR]`;
//! see DESIGN.md §10 for the rule-authoring guide and §15 for the
//! workspace graphs.

#![warn(missing_docs)]

pub mod engine;
pub mod graph;
pub mod lexer;
pub mod rules;
pub mod syntax;

pub use engine::{
    lint_source, lint_texts, lint_workspace, read_workspace, render_human, render_json, Finding,
    LintReport, Severity,
};
