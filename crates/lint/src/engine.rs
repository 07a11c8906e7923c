//! The rule engine: file walking, test-code exclusion, inline
//! suppressions, the grandfathered-findings baseline, the workspace
//! graph pass, and human/JSON rendering.
//!
//! A finding travels through three gates before it fails a build:
//!
//! 1. **test-code exclusion** — tokens inside `#[cfg(test)]` items are
//!    invisible to every rule (tests may `unwrap()` freely),
//! 2. **inline suppression** — `// tbstc-lint: allow(<rule>)` on the
//!    same line, or alone on the line above, silences that rule there
//!    (the comment doubles as the justification). `allow(panic-surface)`
//!    also silences `panic-reachability` at that line: one justified
//!    suppression covers the warning and its escalation,
//! 3. **baseline** — `lint-baseline.txt` at the workspace root lists
//!    grandfathered findings as `rule<TAB>path<TAB>trimmed line text`;
//!    matching findings are reported as baselined, not failing. Entries
//!    are count-aware (two identical lines need two entries); entries
//!    of a rule that ran but no longer match anything are listed as
//!    stale, and `--update-baseline` drops them.
//!
//! Every run reads and analyzes every file (lexing, per-file rules,
//! fact extraction), then runs the workspace rules (`lock-order`,
//! `panic-reachability`) over all files' facts.

use std::collections::BTreeMap;
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
    /// Baseline file. `None` = `<root>/lint-baseline.txt`; a missing
    /// file is an empty baseline.
    pub baseline: Option<PathBuf>,
}

impl LintOptions {
    /// The baseline file this run reads (and `--update-baseline` writes).
    pub fn baseline_path(&self) -> PathBuf {
        self.baseline
            .clone()
            .unwrap_or_else(|| self.root.join(BASELINE_FILE))
    }
}

/// The outcome of a workspace lint run.
#[derive(Debug, Clone, Default)]
pub struct LintReport {
    /// Findings that passed every gate (these fail the build).
    pub findings: Vec<Finding>,
    /// Findings matched by a baseline entry (reported, not failing).
    pub baselined: Vec<Finding>,
    /// Count of findings silenced by inline `allow(...)` comments.
    pub suppressed: usize,
    /// `.rs` files scanned.
    pub files_scanned: usize,
    /// Baseline entries of rules that ran which matched nothing
    /// (candidates for deletion).
    pub stale_baseline: Vec<String>,
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

/// What the engine learned about one file: its gated per-file findings
/// plus the gates the workspace pass applies to its own findings.
struct FileAnalysis {
    /// Workspace-relative path, forward slashes.
    rel_path: String,
    /// Per-file findings after test exclusion and suppressions (the
    /// baseline, a workspace concept, has not been applied).
    findings: Vec<Finding>,
    /// Findings silenced by inline `allow(...)` comments.
    suppressed: usize,
    /// Line → rules allowed there (for gating workspace findings).
    allows: BTreeMap<u32, Vec<String>>,
    /// `#[cfg(test)]` line ranges, 1-based inclusive.
    test_ranges: Vec<(u32, u32)>,
}

/// Whether a rule runs under the `--rules` filter `only`.
fn enabled(only: Option<&[String]>, rule: &str) -> bool {
    only.is_none_or(|names| names.iter().any(|n| n == rule))
}

/// Lints one source text as if it lived at `rel_path`, running all rules.
/// Test-code exclusion and inline suppressions apply; the baseline does
/// not (it is a workspace-level concept). This is the entry point the
/// fixture tests drive. Workspace rules need more than one file; see
/// [`lint_texts`].
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
    let (a, _) = analyze_source(rel_path, src, only);
    (a.findings, a.suppressed)
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

    let test_lines = test_ranges(src, &code);
    let allows = suppressions(src, &tokens);
    let mut findings = Vec::with_capacity(raw.len());
    let mut suppressed = 0usize;
    for f in raw {
        if test_lines.iter().any(|&(a, b)| f.line >= a && f.line <= b) {
            continue; // test code is out of scope, silently
        }
        let allowed = allows
            .get(&f.line)
            .is_some_and(|rules| rules.iter().any(|r| r == f.rule));
        if allowed {
            suppressed += 1;
        } else {
            findings.push(f);
        }
    }
    findings.sort_by(|a, b| (a.line, a.col, a.rule).cmp(&(b.line, b.col, b.rule)));
    let facts = syntax::extract(rel_path, src, &code, &test_lines);
    let analysis = FileAnalysis {
        rel_path: rel_path.to_string(),
        findings,
        suppressed,
        allows,
        test_ranges: test_lines,
    };
    (analysis, facts)
}

/// Runs the workspace rules (`lock-order`, `panic-reachability`) over
/// every file's facts, gating each finding through the target file's
/// test ranges and suppressions. Returns the surviving findings and the
/// suppressed count.
fn workspace_findings(
    analyses: &[FileAnalysis],
    facts: &[FileFacts],
    only: Option<&[String]>,
) -> (Vec<Finding>, usize) {
    let ws = Workspace::build(facts);
    let mut raw = Vec::with_capacity(8);
    for rule in rules::WORKSPACE_RULES {
        if enabled(only, rule.name) {
            (rule.check)(&ws, &mut raw);
        }
    }
    let by_path: BTreeMap<&str, &FileAnalysis> =
        analyses.iter().map(|a| (a.rel_path.as_str(), a)).collect();
    let mut out = Vec::with_capacity(raw.len());
    let mut suppressed = 0usize;
    for f in raw {
        let Some(a) = by_path.get(f.path.as_str()) else {
            out.push(f);
            continue;
        };
        if a.test_ranges
            .iter()
            .any(|&(lo, hi)| f.line >= lo && f.line <= hi)
        {
            continue;
        }
        let allowed = a.allows.get(&f.line).is_some_and(|rules| {
            rules
                .iter()
                .any(|r| r == f.rule || (f.rule == "panic-reachability" && r == "panic-surface"))
        });
        if allowed {
            suppressed += 1;
        } else {
            out.push(f);
        }
    }
    (out, suppressed)
}

/// Lints a set of in-memory files together, running the per-file rules
/// on each and the workspace rules across all of them. No baseline
/// applies. This is the entry point for multi-file fixture tests.
pub fn lint_texts(files: &[(&str, &str)], only: Option<&[String]>) -> Vec<Finding> {
    lint_files(files, only).0
}

/// The analysis every entry point shares: per-file rules on each file,
/// then the workspace rules across all of them. Returns the findings
/// that pass test exclusion and suppressions, sorted by location, and
/// the suppressed count.
fn lint_files(files: &[(&str, &str)], only: Option<&[String]>) -> (Vec<Finding>, usize) {
    let (analyses, facts): (Vec<FileAnalysis>, Vec<FileFacts>) = files
        .iter()
        .map(|(path, src)| analyze_source(path, src, only))
        .unzip();
    let (ws_findings, ws_suppressed) = workspace_findings(&analyses, &facts, only);
    let suppressed = ws_suppressed + analyses.iter().map(|a| a.suppressed).sum::<usize>();
    let mut out: Vec<Finding> = analyses.into_iter().flat_map(|a| a.findings).collect();
    out.extend(ws_findings);
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

/// Parses `// tbstc-lint: allow(rule, rule)` comments into a map from
/// affected line to allowed rules. A trailing comment covers its own
/// line; a comment alone on a line covers the next code line too (and
/// consecutive standalone comments all bind to that same code line).
fn suppressions(src: &str, tokens: &[Token]) -> BTreeMap<u32, Vec<String>> {
    let mut out: BTreeMap<u32, Vec<String>> = BTreeMap::new();
    for (idx, t) in tokens.iter().enumerate() {
        if !t.is_comment() {
            continue;
        }
        let Some(rules) = parse_allow(t.text(src)) else {
            continue;
        };
        let standalone = !tokens
            .iter()
            .take(idx)
            .any(|p| p.line == t.line && !p.is_comment());
        out.entry(t.line).or_default().extend(rules.iter().cloned());
        if standalone {
            if let Some(next) = tokens.iter().skip(idx + 1).find(|n| !n.is_comment()) {
                out.entry(next.line).or_default().extend(rules);
            }
        }
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

/// Default baseline file name at the workspace root.
pub const BASELINE_FILE: &str = "lint-baseline.txt";

/// Lints every `crates/*/src/**/*.rs` under `opts.root`: per-file rules,
/// then the workspace rules over all files' facts, then the baseline.
///
/// # Errors
///
/// Returns a message when `opts.rules` names an unknown rule, the root
/// has no `crates/` directory, or a source file cannot be read.
pub fn lint_workspace(opts: &LintOptions) -> Result<LintReport, String> {
    let only = opts.rules.as_deref();
    if let Some(names) = only {
        check_rule_names(names)?;
    }
    let crates_dir = opts.root.join("crates");
    if !crates_dir.is_dir() {
        return Err(format!(
            "no crates/ directory under {}",
            opts.root.display()
        ));
    }
    let mut files = Vec::with_capacity(128);
    rust_files(&crates_dir, &mut files);
    // Only library/binary sources: crates/<name>/src/**. Tests, benches,
    // and examples trade rigor for brevity on purpose.
    files.retain(|p| {
        p.strip_prefix(&opts.root)
            .ok()
            .and_then(|r| r.components().nth(2))
            .is_some_and(|c| c.as_os_str() == "src")
    });

    let mut texts: Vec<(String, String)> = Vec::with_capacity(files.len());
    for path in &files {
        let rel = path
            .strip_prefix(&opts.root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let src =
            fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        texts.push((rel, src));
    }
    let files: Vec<(&str, &str)> = texts
        .iter()
        .map(|(rel, src)| (rel.as_str(), src.as_str()))
        .collect();
    let sources: BTreeMap<&str, &str> = files.iter().copied().collect();
    let (all, suppressed) = lint_files(&files, only);

    let mut report = LintReport {
        files_scanned: files.len(),
        suppressed,
        ..LintReport::default()
    };
    let mut baseline = load_baseline(&opts.baseline_path());
    for f in all {
        let line_text = sources
            .get(f.path.as_str())
            .and_then(|src| src.lines().nth(f.line as usize - 1))
            .map_or(String::new(), |l| l.trim().to_string());
        let key = (f.rule.to_string(), f.path.clone(), line_text);
        match baseline.get_mut(&key) {
            Some(n) if *n > 0 => {
                *n -= 1;
                report.baselined.push(f);
            }
            _ => report.findings.push(f),
        }
    }
    for ((rule, path, text), n) in baseline {
        // A rule the filter skipped matched nothing, but its entries are
        // not stale.
        if !enabled(only, &rule) {
            continue;
        }
        for _ in 0..n {
            report
                .stale_baseline
                .push(format!("{rule}\t{path}\t{text}"));
        }
    }
    report.stale_baseline.sort();
    Ok(report)
}

/// Rewrites the baseline file to hold exactly the current findings (what
/// `--update-baseline` does): new findings are grandfathered and stale
/// entries dropped. Returns the number of entries written.
///
/// # Errors
///
/// Refuses a rule filter, because the rewrite would drop every entry of
/// the rules that did not run. Also returns [`lint_workspace`]'s errors
/// and a message when the baseline cannot be written.
pub fn update_baseline(opts: &LintOptions) -> Result<usize, String> {
    if opts.rules.is_some() {
        return Err(
            "the baseline cannot be updated under a rule filter: entries of the \
             rules that did not run would be dropped; rerun without --rules"
                .into(),
        );
    }
    let report = lint_workspace(opts)?;
    let text = render_baseline(&report, &opts.root);
    let path = opts.baseline_path();
    fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(report.findings.len() + report.baselined.len())
}

type BaselineKey = (String, String, String);

fn load_baseline(path: &Path) -> BTreeMap<BaselineKey, usize> {
    let mut out: BTreeMap<BaselineKey, usize> = BTreeMap::new();
    let Ok(text) = fs::read_to_string(path) else {
        return out;
    };
    for line in text.lines() {
        let line = line.trim_end();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.splitn(3, '\t');
        let (Some(rule), Some(p), Some(snippet)) = (parts.next(), parts.next(), parts.next())
        else {
            continue;
        };
        *out.entry((rule.to_string(), p.to_string(), snippet.to_string()))
            .or_default() += 1;
    }
    out
}

/// Serializes the failing + baselined findings of `report` into baseline
/// format, reading each finding's line from its file under `root`.
fn render_baseline(report: &LintReport, root: &Path) -> String {
    let mut lines: Vec<String> = Vec::with_capacity(report.findings.len() + report.baselined.len());
    for f in report.findings.iter().chain(&report.baselined) {
        let text = fs::read_to_string(root.join(&f.path))
            .ok()
            .and_then(|src| {
                src.lines()
                    .nth(f.line as usize - 1)
                    .map(|l| l.trim().to_string())
            })
            .unwrap_or_default();
        lines.push(format!("{}\t{}\t{}", f.rule, f.path, text));
    }
    lines.sort();
    // Entries are count-aware: two findings with identical trimmed lines
    // need — and get — two baseline entries, so no dedup here.
    let mut out = String::from(
        "# tbstc-lint baseline: grandfathered findings, one per line as\n\
         # rule<TAB>path<TAB>trimmed source line (count-aware: duplicates\n\
         # are distinct entries). Regenerate with\n\
         # `tbstc-cli lint --update-baseline`; delete lines as code is fixed.\n",
    );
    for l in lines {
        out.push_str(&l);
        out.push('\n');
    }
    out
}

/// Renders the report as compiler-style text plus a summary line.
pub fn render_human(report: &LintReport, deny_warnings: bool) -> String {
    let mut out = String::new();
    for f in &report.findings {
        out.push_str(&f.to_string());
        out.push('\n');
    }
    for s in &report.stale_baseline {
        out.push_str(&format!(
            "stale baseline entry (fixed? delete it): {}\n",
            s.replace('\t', " | ")
        ));
    }
    out.push_str(&format!(
        "tbstc-lint: {} files scanned; {} error(s), {} warning(s){}; {} suppressed, {} baselined, {} stale baseline entr{}",
        report.files_scanned,
        report.errors(),
        report.warnings(),
        if deny_warnings { " (denied)" } else { "" },
        report.suppressed,
        report.baselined.len(),
        report.stale_baseline.len(),
        if report.stale_baseline.len() == 1 { "y" } else { "ies" },
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
    let baselined: Vec<String> = report.baselined.iter().map(finding).collect();
    let stale: Vec<String> = report
        .stale_baseline
        .iter()
        .map(|s| format!("\"{}\"", json_escape(s)))
        .collect();
    format!(
        "{{\"schema\":\"tbstc-lint.v1\",\"files_scanned\":{},\"errors\":{},\"warnings\":{},\"suppressed\":{},\"findings\":[{}],\"baselined\":[{}],\"stale_baseline\":[{}]}}\n",
        report.files_scanned,
        report.errors(),
        report.warnings(),
        report.suppressed,
        findings.join(","),
        baselined.join(","),
        stale.join(","),
    )
}
