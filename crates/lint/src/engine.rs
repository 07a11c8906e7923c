//! The rule engine: file walking, test-code exclusion, the workspace
//! graph pass, and human/JSON rendering.
//!
//! Tokens inside `#[cfg(test)]` items are invisible to every rule
//! (tests may block or allocate freely). Every other finding fails the
//! lint: the five rules have no suppression mechanism, so a false
//! positive is fixed in the rule or in the code it flags.
//!
//! Every run reads and analyzes every file (lexing, per-file rules,
//! fact extraction), then runs the workspace rule (`lock-order`) over
//! all files' facts.

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

use crate::graph::Workspace;
use crate::lexer::{lex, TokKind, Token};
use crate::rules;
use crate::syntax::{self, FileFacts};

/// How severe a finding is. Errors always fail the lint; warnings fail
/// only under `--deny-warnings`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Fails only under `--deny-warnings` (heuristic rules).
    Warning,
    /// Always fails the lint.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// One diagnostic: rule, severity, location, message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The rule that produced this finding (kebab-case name).
    pub rule: &'static str,
    /// Error or warning.
    pub severity: Severity,
    /// Workspace-relative path with forward slashes.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based byte column.
    pub col: u32,
    /// What is wrong and what to do instead.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: {}[{}]: {}",
            self.path, self.line, self.col, self.severity, self.rule, self.message
        )
    }
}

/// The outcome of a workspace lint run.
#[derive(Debug, Clone, Default)]
pub struct LintReport {
    /// Findings outside test code (these fail the build).
    pub findings: Vec<Finding>,
    /// `.rs` files scanned.
    pub files_scanned: usize,
}

impl LintReport {
    /// Errors among the failing findings.
    pub fn errors(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Error)
            .count()
    }

    /// Warnings among the failing findings.
    pub fn warnings(&self) -> usize {
        self.findings.len() - self.errors()
    }

    /// Whether the lint fails under the given warning policy.
    pub fn fails(&self, deny_warnings: bool) -> bool {
        self.errors() > 0 || (deny_warnings && self.warnings() > 0)
    }
}

/// Per-file context handed to every rule.
pub struct FileCtx<'a> {
    /// Workspace-relative path, forward slashes.
    pub rel_path: &'a str,
    /// The crate directory name (`serve` for `crates/serve/src/...`),
    /// empty when the path is not under `crates/`.
    pub crate_name: &'a str,
    /// The file's source text.
    pub src: &'a str,
    /// Code tokens only (comments stripped) — what rules match against.
    pub code: &'a [Token],
}

impl FileCtx<'_> {
    /// The source text of a token.
    pub fn text(&self, t: &Token) -> &str {
        t.text(self.src)
    }

    /// The text of the code token at `i`, or `""` past either end.
    pub fn code_text(&self, i: usize) -> &str {
        self.code.get(i).map_or("", |t| t.text(self.src))
    }

    /// Whether the code token at `i` is an identifier with this text.
    pub fn code_is_ident(&self, i: usize, text: &str) -> bool {
        self.code
            .get(i)
            .is_some_and(|t| t.kind == TokKind::Ident && t.text(self.src) == text)
    }
}

/// Lints one source text as if it lived at `rel_path`, running every
/// rule (the workspace rule sees just this file) with test-code
/// exclusion. This is the entry point the per-file fixture tests drive;
/// see [`lint_texts`] for several files.
pub fn lint_source(rel_path: &str, src: &str) -> Vec<Finding> {
    lint_texts(&[(rel_path, src)])
}

/// Runs the per-file rules and the syntax layer over one source text.
/// Returns the file's `#[cfg(test)]` line ranges, its raw findings and
/// the facts the workspace pass consumes.
fn analyze_source(rel_path: &str, src: &str) -> (Vec<(u32, u32)>, Vec<Finding>, FileFacts) {
    let tokens = lex(src);
    let code: Vec<Token> = tokens.into_iter().filter(|t| !t.is_comment()).collect();
    let crate_name = rel_path
        .strip_prefix("crates/")
        .and_then(|r| r.split('/').next())
        .unwrap_or("");
    let ctx = FileCtx {
        rel_path,
        crate_name,
        src,
        code: &code,
    };
    let mut raw = Vec::with_capacity(16);
    for rule in rules::ALL_RULES {
        (rule.check)(&ctx, &mut raw);
    }
    let test_ranges = test_ranges(src, &code);
    let facts = syntax::extract(rel_path, src, &code, &test_ranges);
    (test_ranges, raw, facts)
}

/// Lints a set of in-memory files together: the per-file rules on each
/// file, then the workspace rule across all of them. A finding inside
/// its file's `#[cfg(test)]` code is dropped. Returns the findings
/// sorted by location. This is the entry point for multi-file fixture
/// tests.
pub fn lint_texts(files: &[(&str, &str)]) -> Vec<Finding> {
    let mut test_code = Vec::with_capacity(files.len());
    let mut facts = Vec::with_capacity(files.len());
    let mut raw = Vec::with_capacity(16);
    for (path, src) in files {
        let (ranges, findings, file_facts) = analyze_source(path, src);
        test_code.push((*path, ranges));
        raw.extend(findings);
        facts.push(file_facts);
    }
    let ws = Workspace::build(&facts);
    for rule in rules::WORKSPACE_RULES {
        (rule.check)(&ws, &mut raw);
    }
    raw.retain(|f| {
        !test_code.iter().any(|(path, ranges)| {
            *path == f.path && ranges.iter().any(|&(lo, hi)| f.line >= lo && f.line <= hi)
        })
    });
    raw.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.col, a.rule).cmp(&(b.path.as_str(), b.line, b.col, b.rule))
    });
    raw
}

/// Line ranges (1-based, inclusive) covered by `#[cfg(test)]` items.
fn test_ranges(src: &str, code: &[Token]) -> Vec<(u32, u32)> {
    let text = |i: usize| code.get(i).map_or("", |t: &Token| t.text(src));
    let mut out = Vec::with_capacity(4);
    let mut i = 0usize;
    while i < code.len() {
        if !(text(i) == "#" && text(i + 1) == "[" && is_cfg_test_attr(src, code, i)) {
            i += 1;
            continue;
        }
        // Skip this and any further attributes to reach the item itself.
        let start_line = code[i].line;
        let mut j = i;
        while text(j) == "#" && text(j + 1) == "[" {
            j = skip_attr(src, code, j);
        }
        let end = item_end(src, code, j);
        let end_line = code.get(end).map_or(start_line, |t| t.line);
        out.push((start_line, end_line));
        i = end + 1;
    }
    out
}

/// Does the attribute group starting at `i` (`#` `[` …) mention both
/// `cfg` and `test`? Catches `#[cfg(test)]` and `#[cfg(all(test, …))]`.
fn is_cfg_test_attr(src: &str, code: &[Token], i: usize) -> bool {
    let end = skip_attr(src, code, i);
    let mut saw_cfg = false;
    let mut saw_test = false;
    for t in &code[i..end.min(code.len())] {
        if t.kind == TokKind::Ident {
            match t.text(src) {
                "cfg" => saw_cfg = true,
                "test" => saw_test = true,
                _ => {}
            }
        }
    }
    saw_cfg && saw_test
}

/// Index one past the closing `]` of the attribute starting at `i`.
fn skip_attr(src: &str, code: &[Token], i: usize) -> usize {
    let text = |i: usize| code.get(i).map_or("", |t: &Token| t.text(src));
    let mut j = i;
    while j < code.len() && text(j) != "[" {
        j += 1;
    }
    let mut depth = 0i32;
    while j < code.len() {
        match text(j) {
            "[" => depth += 1,
            "]" => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            _ => {}
        }
        j += 1;
    }
    code.len()
}

/// Index of the last token of the item starting at `j` (after its
/// attributes): the matching `}` of its first brace block, or the
/// terminating `;` for bodiless items.
fn item_end(src: &str, code: &[Token], j: usize) -> usize {
    let text = |i: usize| code.get(i).map_or("", |t: &Token| t.text(src));
    let mut k = j;
    while k < code.len() {
        match text(k) {
            "{" => {
                let mut depth = 0i32;
                while k < code.len() {
                    match text(k) {
                        "{" => depth += 1,
                        "}" => {
                            depth -= 1;
                            if depth == 0 {
                                return k;
                            }
                        }
                        _ => {}
                    }
                    k += 1;
                }
                return code.len().saturating_sub(1);
            }
            ";" => return k,
            _ => k += 1,
        }
    }
    code.len().saturating_sub(1)
}

// --- workspace driver ---------------------------------------------------

/// Collects every `.rs` file under `dir`, recursively, sorted for
/// deterministic reports.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Lints every `crates/*/src/**/*.rs` under `root` (the directory
/// containing `crates/`): per-file rules, then the workspace rule over
/// all files' facts.
///
/// # Errors
///
/// Returns a message when [`read_workspace`] fails.
pub fn lint_workspace(root: &Path) -> Result<LintReport, String> {
    let texts = read_workspace(root)?;
    let files: Vec<(&str, &str)> = texts
        .iter()
        .map(|(rel, src)| (rel.as_str(), src.as_str()))
        .collect();
    Ok(LintReport {
        findings: lint_texts(&files),
        files_scanned: files.len(),
    })
}

/// Reads every library/binary source, `crates/*/src/**/*.rs` under
/// `root`, as (workspace-relative path, text) pairs sorted by path.
/// Tests, benches, and examples trade rigor for brevity on purpose and
/// are not read.
///
/// # Errors
///
/// Returns a message when the root has no `crates/` directory or a
/// source file cannot be read.
pub fn read_workspace(root: &Path) -> Result<Vec<(String, String)>, String> {
    let crates_dir = root.join("crates");
    if !crates_dir.is_dir() {
        return Err(format!("no crates/ directory under {}", root.display()));
    }
    let mut files = Vec::with_capacity(128);
    rust_files(&crates_dir, &mut files);
    files.retain(|p| {
        p.strip_prefix(root)
            .ok()
            .and_then(|r| r.components().nth(2))
            .is_some_and(|c| c.as_os_str() == "src")
    });
    files
        .iter()
        .map(|path| {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(path)
                .to_string_lossy()
                .replace('\\', "/");
            let src = fs::read_to_string(path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            Ok((rel, src))
        })
        .collect()
}

/// Renders the report as compiler-style text plus a summary line.
pub fn render_human(report: &LintReport, deny_warnings: bool) -> String {
    let mut out = String::new();
    for f in &report.findings {
        out.push_str(&f.to_string());
        out.push('\n');
    }
    out.push_str(&format!(
        "tbstc-lint: {} files scanned; {} error(s), {} warning(s){}",
        report.files_scanned,
        report.errors(),
        report.warnings(),
        if deny_warnings { " (denied)" } else { "" },
    ));
    out.push('\n');
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders the report as one JSON document (`tbstc-lint.v1`).
pub fn render_json(report: &LintReport) -> String {
    let finding = |f: &Finding| {
        format!(
            "{{\"rule\":\"{}\",\"severity\":\"{}\",\"path\":\"{}\",\"line\":{},\"col\":{},\"message\":\"{}\"}}",
            f.rule,
            f.severity,
            json_escape(&f.path),
            f.line,
            f.col,
            json_escape(&f.message)
        )
    };
    let findings: Vec<String> = report.findings.iter().map(finding).collect();
    format!(
        "{{\"schema\":\"tbstc-lint.v1\",\"files_scanned\":{},\"errors\":{},\"warnings\":{},\"findings\":[{}]}}\n",
        report.files_scanned,
        report.errors(),
        report.warnings(),
        findings.join(","),
    )
}
