//! The rule engine: file walking, test-code exclusion, inline
//! suppressions, the workspace graph pass, and human/JSON rendering.
//!
//! A finding travels through two gates before it fails a build:
//!
//! 1. **test-code exclusion** — tokens inside `#[cfg(test)]` items are
//!    invisible to every rule (tests may `unwrap()` freely),
//! 2. **inline suppression** — a `// tbstc-lint: allow(<rule>) — reason`
//!    comment on the same line, or alone on the line above, silences
//!    that rule there (the comment doubles as the justification).
//!
//! A suppression is the one way to accept a finding, so suppressions
//! are checked too: an `allow(...)` that silenced nothing, or that names
//! no rule, is itself a `stale-allow` warning at the comment. Under a
//! `--rules` filter only allows naming a rule that ran are checked.
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

/// Options for a workspace lint run.
#[derive(Debug, Clone, Default)]
pub struct LintOptions {
    /// Workspace root (the directory containing `crates/`).
    pub root: PathBuf,
    /// Only run these rules (by name). `None` = all rules.
    pub rules: Option<Vec<String>>,
}

/// The outcome of a workspace lint run.
#[derive(Debug, Clone, Default)]
pub struct LintReport {
    /// Findings that passed every gate (these fail the build).
    pub findings: Vec<Finding>,
    /// Count of findings silenced by inline `allow(...)` comments.
    pub suppressed: usize,
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
    /// Every token, comments included.
    pub tokens: &'a [Token],
    /// Code tokens only (comments stripped) — what rules match against.
    pub code: &'a [Token],
    /// Whether this file is a crate root (`src/lib.rs` / `src/main.rs`).
    pub is_crate_root: bool,
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

/// The rule name of the check on suppressions themselves: an
/// `allow(...)` that silenced nothing or names no rule.
const STALE_ALLOW: &str = "stale-allow";

/// One rule named by a `// tbstc-lint: allow(...)` comment.
struct Allow {
    /// The rule name as written.
    rule: String,
    /// 1-based line of the comment (where a stale allow is reported).
    line: u32,
    /// 1-based byte column of the comment.
    col: u32,
    /// The code line a standalone comment also covers; `None` for a
    /// trailing comment, which covers only its own line.
    next_line: Option<u32>,
    /// Whether it silenced at least one finding.
    used: bool,
}

/// What the engine learned about one file: its gated per-file findings
/// plus the gates the workspace pass applies to its own findings.
struct FileAnalysis {
    /// Workspace-relative path, forward slashes.
    rel_path: String,
    /// Per-file findings after test exclusion and suppressions.
    findings: Vec<Finding>,
    /// Findings silenced by inline `allow(...)` comments.
    suppressed: usize,
    /// Every rule the file's `allow(...)` comments name.
    allows: Vec<Allow>,
    /// `#[cfg(test)]` line ranges, 1-based inclusive.
    test_ranges: Vec<(u32, u32)>,
}

impl FileAnalysis {
    /// Passes a finding in this file through test exclusion and the
    /// suppressions, marking every allow that covers it as used. Returns
    /// the finding when it survives both gates.
    fn gate(&mut self, f: Finding) -> Option<Finding> {
        if self
            .test_ranges
            .iter()
            .any(|&(lo, hi)| f.line >= lo && f.line <= hi)
        {
            return None; // test code is out of scope, silently
        }
        let mut allowed = false;
        for a in &mut self.allows {
            if a.rule == f.rule && (a.line == f.line || a.next_line == Some(f.line)) {
                a.used = true;
                allowed = true;
            }
        }
        if allowed {
            self.suppressed += 1;
            None
        } else {
            Some(f)
        }
    }

    /// Pushes a `stale-allow` warning for each allow that silenced
    /// nothing, limited to the rules that ran (a name no rule has never
    /// runs, so only an unfiltered run reports it).
    fn stale_allows(&self, only: Option<&[String]>, out: &mut Vec<Finding>) {
        for a in &self.allows {
            if a.used || !enabled(only, &a.rule) {
                continue;
            }
            let message = if rules::rule_names().any(|r| r == a.rule) {
                format!(
                    "allow({}) silences no finding; delete the stale suppression",
                    a.rule
                )
            } else {
                format!(
                    "allow({}) names no lint rule; valid rules: {}",
                    a.rule,
                    rules::rule_names().collect::<Vec<_>>().join(", ")
                )
            };
            out.push(Finding {
                rule: STALE_ALLOW,
                severity: Severity::Warning,
                path: self.rel_path.clone(),
                line: a.line,
                col: a.col,
                message,
            });
        }
    }
}

/// Whether a rule runs under the `--rules` filter `only`.
fn enabled(only: Option<&[String]>, rule: &str) -> bool {
    only.is_none_or(|names| names.iter().any(|n| n == rule))
}

/// Lints one source text as if it lived at `rel_path`, running every
/// rule (the workspace rule sees just this file). Test-code exclusion,
/// inline suppressions and the stale-allow check apply. This is the
/// entry point the per-file fixture tests drive; see [`lint_texts`] for
/// several files.
pub fn lint_source(rel_path: &str, src: &str) -> Vec<Finding> {
    lint_source_rules(rel_path, src, None).0
}

/// [`lint_source`] restricted to a subset of rules; also returns how many
/// findings inline suppressions silenced.
pub fn lint_source_rules(
    rel_path: &str,
    src: &str,
    only: Option<&[String]>,
) -> (Vec<Finding>, usize) {
    lint_files(&[(rel_path, src)], only)
}

/// Runs the per-file rules and the syntax layer over one source text,
/// applying test exclusion and suppressions. Returns the gated analysis
/// and the facts the workspace pass consumes.
fn analyze_source(rel_path: &str, src: &str, only: Option<&[String]>) -> (FileAnalysis, FileFacts) {
    let tokens = lex(src);
    let code: Vec<Token> = tokens.iter().filter(|t| !t.is_comment()).cloned().collect();
    let crate_name = rel_path
        .strip_prefix("crates/")
        .and_then(|r| r.split('/').next())
        .unwrap_or("");
    let ctx = FileCtx {
        rel_path,
        crate_name,
        src,
        tokens: &tokens,
        code: &code,
        is_crate_root: rel_path.ends_with("src/lib.rs") || rel_path.ends_with("src/main.rs"),
    };

    let mut raw = Vec::with_capacity(16);
    for rule in rules::ALL_RULES {
        if enabled(only, rule.name) {
            (rule.check)(&ctx, &mut raw);
        }
    }

    let mut analysis = FileAnalysis {
        rel_path: rel_path.to_string(),
        findings: Vec::with_capacity(raw.len()),
        suppressed: 0,
        allows: suppressions(src, &tokens),
        test_ranges: test_ranges(src, &code),
    };
    for f in raw {
        if let Some(f) = analysis.gate(f) {
            analysis.findings.push(f);
        }
    }
    let facts = syntax::extract(rel_path, src, &code, &analysis.test_ranges);
    (analysis, facts)
}

/// Lints a set of in-memory files together, running the per-file rules
/// on each and the workspace rule across all of them. This is the entry
/// point for multi-file fixture tests.
pub fn lint_texts(files: &[(&str, &str)], only: Option<&[String]>) -> Vec<Finding> {
    lint_files(files, only).0
}

/// The analysis every entry point shares: per-file rules on each file,
/// then the workspace rules across all of them, each finding gated by
/// its file's test ranges and suppressions, then the stale-allow check.
/// Returns the surviving findings sorted by location and the suppressed
/// count.
fn lint_files(files: &[(&str, &str)], only: Option<&[String]>) -> (Vec<Finding>, usize) {
    let (mut analyses, facts): (Vec<FileAnalysis>, Vec<FileFacts>) = files
        .iter()
        .map(|(path, src)| analyze_source(path, src, only))
        .unzip();
    let ws = Workspace::build(&facts);
    let mut raw = Vec::with_capacity(8);
    for rule in rules::WORKSPACE_RULES {
        if enabled(only, rule.name) {
            (rule.check)(&ws, &mut raw);
        }
    }
    let mut out: Vec<Finding> = Vec::with_capacity(raw.len() + files.len());
    for f in raw {
        match analyses.iter_mut().find(|a| a.rel_path == f.path) {
            Some(a) => out.extend(a.gate(f)),
            None => out.push(f),
        }
    }
    let mut suppressed = 0usize;
    for a in analyses {
        suppressed += a.suppressed;
        a.stale_allows(only, &mut out);
        out.extend(a.findings);
    }
    out.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.col, a.rule).cmp(&(b.path.as_str(), b.line, b.col, b.rule))
    });
    (out, suppressed)
}

/// Rejects a `--rules` filter that names a rule the engine does not
/// know: a misspelled filter would otherwise run nothing and pass.
fn check_rule_names(names: &[String]) -> Result<(), String> {
    match names
        .iter()
        .find(|n| !rules::rule_names().any(|r| r == n.as_str()))
    {
        None => Ok(()),
        Some(unknown) => Err(format!(
            "unknown lint rule `{unknown}`; valid rules: {}",
            rules::rule_names().collect::<Vec<_>>().join(", ")
        )),
    }
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

/// Collects the rules named by `// tbstc-lint: allow(rule, rule)`
/// comments. A trailing comment covers its own line; a comment alone on
/// a line covers the next code line too (and consecutive standalone
/// comments all bind to that same code line). Doc comments document;
/// they never suppress.
fn suppressions(src: &str, tokens: &[Token]) -> Vec<Allow> {
    let mut out = Vec::with_capacity(4);
    for (idx, t) in tokens.iter().enumerate() {
        if !t.is_comment() || t.is_doc {
            continue;
        }
        let Some(rules) = parse_allow(t.text(src)) else {
            continue;
        };
        let standalone = !tokens
            .iter()
            .take(idx)
            .any(|p| p.line == t.line && !p.is_comment());
        let next_line = if standalone {
            tokens[idx + 1..]
                .iter()
                .find(|n| !n.is_comment())
                .map(|n| n.line)
        } else {
            None
        };
        out.extend(rules.into_iter().map(|rule| Allow {
            rule,
            line: t.line,
            col: t.col,
            next_line,
            used: false,
        }));
    }
    out
}

/// Extracts the rule list from a `tbstc-lint: allow(a, b) — reason`
/// comment, or `None` when the comment is not a suppression.
fn parse_allow(comment: &str) -> Option<Vec<String>> {
    let rest = comment.split("tbstc-lint:").nth(1)?;
    let rest = rest.trim_start().strip_prefix("allow")?.trim_start();
    let inner = rest.strip_prefix('(')?;
    let end = inner.find(')')?;
    let rules: Vec<String> = inner
        .get(..end)?
        .split(',')
        .map(|r| r.trim().to_string())
        .filter(|r| !r.is_empty())
        .collect();
    (!rules.is_empty()).then_some(rules)
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

/// Lints every `crates/*/src/**/*.rs` under `opts.root`: per-file rules,
/// then the workspace rule over all files' facts.
///
/// # Errors
///
/// Returns a message when `opts.rules` names an unknown rule, or
/// [`read_workspace`] fails.
pub fn lint_workspace(opts: &LintOptions) -> Result<LintReport, String> {
    let only = opts.rules.as_deref();
    if let Some(names) = only {
        check_rule_names(names)?;
    }
    let texts = read_workspace(&opts.root)?;
    let files: Vec<(&str, &str)> = texts
        .iter()
        .map(|(rel, src)| (rel.as_str(), src.as_str()))
        .collect();
    let (findings, suppressed) = lint_files(&files, only);
    Ok(LintReport {
        findings,
        suppressed,
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
        "tbstc-lint: {} files scanned; {} error(s), {} warning(s){}; {} suppressed",
        report.files_scanned,
        report.errors(),
        report.warnings(),
        if deny_warnings { " (denied)" } else { "" },
        report.suppressed,
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
        "{{\"schema\":\"tbstc-lint.v1\",\"files_scanned\":{},\"errors\":{},\"warnings\":{},\"suppressed\":{},\"findings\":[{}]}}\n",
        report.files_scanned,
        report.errors(),
        report.warnings(),
        report.suppressed,
        findings.join(","),
    )
}
