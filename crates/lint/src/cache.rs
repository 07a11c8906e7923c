//! The incremental per-file result cache.
//!
//! A warm `lint` run should cost close to nothing: per-file analysis
//! (lexing, per-file rules, fact extraction) is pure in the file's
//! bytes, so its result is cached keyed by an FNV-1a-128 content hash.
//! The workspace pass (`lock-order`, `panic-reachability`) is cross-
//! file, so its (gated) findings are cached too, keyed by one combined
//! hash over every (path, content-hash) pair — touch any file and the
//! graphs rebuild from the cached facts; touch nothing and the whole
//! run is hash-and-replay. Only the baseline match always reruns. A
//! fully-warm run leaves the store untouched on disk ([`LintCache::dirty`]).
//!
//! The store is one text file (default `target/tbstc-lint.cache`), one
//! record per line, tab-separated with `\\`/`\t`/`\n` escapes. Line 1
//! carries a version and a run **fingerprint** (the rule filter); any
//! mismatch, truncation, or unparseable record invalidates exactly the
//! entries it touches — a corrupt cache is a cold cache, never a wrong
//! one.

use std::collections::BTreeMap;
use std::fs;
use std::io::Write;
use std::path::Path;

use crate::engine::{FileAnalysis, Finding, Severity};
use crate::rules::static_rule_name;
use crate::syntax::{CallSite, FnFacts, HeldCall, LockSite, OrderedPair, PanicSite};

/// Bump when the record format or the meaning of a cached analysis
/// changes (new per-file rule, changed fact extraction, …).
pub const CACHE_VERSION: u32 = 2;

/// FNV-1a, 128-bit, as 32 lowercase hex digits. Not cryptographic —
/// it keys a local cache, where accidental collision resistance at
/// 128 bits is plenty.
pub fn fnv1a_128(bytes: &[u8]) -> String {
    const OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
    const PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= u128::from(b);
        h = h.wrapping_mul(PRIME);
    }
    format!("{h:032x}")
}

/// One cached file: the content hash it was computed from plus the
/// full analysis.
#[derive(Debug, Clone)]
struct Entry {
    hash: String,
    analysis: FileAnalysis,
}

/// The cached cross-file pass: the already-gated workspace findings,
/// valid for one combined hash over every (path, content-hash) pair.
#[derive(Debug, Clone)]
struct WsEntry {
    combined: String,
    suppressed: usize,
    findings: Vec<Finding>,
}

/// The cache store: path → entry, plus the fingerprint it is valid for.
#[derive(Debug, Default)]
pub struct LintCache {
    fingerprint: String,
    entries: BTreeMap<String, Entry>,
    workspace: Option<WsEntry>,
    dirty: bool,
}

impl LintCache {
    /// Loads the cache at `path`, returning an empty cache when the
    /// file is missing, the version or `fingerprint` mismatches, or the
    /// header is unreadable. Individually corrupt records drop only
    /// their own file's entry.
    pub fn load(path: &Path, fingerprint: &str) -> LintCache {
        let mut cache = LintCache {
            fingerprint: fingerprint.to_string(),
            ..LintCache::default()
        };
        let Ok(text) = fs::read_to_string(path) else {
            return cache;
        };
        let mut lines = text.lines();
        let Some(header) = lines.next() else {
            return cache;
        };
        let mut h = header.split('\t');
        if h.next() != Some("tbstc-lint-cache")
            || h.next() != Some(&CACHE_VERSION.to_string())
            || h.next().map(unescape) != Some(fingerprint.to_string())
        {
            return cache;
        }
        let mut cur: Option<(String, Entry)> = None;
        let mut poisoned = false;
        for line in lines {
            let mut fields = line.split('\t');
            let tag = fields.next().unwrap_or("");
            if tag == "F" {
                if let Some((path, entry)) = cur.take() {
                    if !poisoned {
                        cache.entries.insert(path, entry);
                    }
                }
                poisoned = false;
                match (fields.next(), fields.next()) {
                    (Some(p), Some(hash)) => {
                        cur = Some((
                            unescape(p),
                            Entry {
                                hash: hash.to_string(),
                                analysis: FileAnalysis {
                                    rel_path: unescape(p),
                                    ..FileAnalysis::default()
                                },
                            },
                        ));
                    }
                    _ => poisoned = true,
                }
                continue;
            }
            if tag == "W" {
                // The workspace entry closes any open file entry; a
                // corrupt W/R record drops only the workspace result.
                if let Some((path, entry)) = cur.take() {
                    if !poisoned {
                        cache.entries.insert(path, entry);
                    }
                }
                poisoned = false;
                cache.workspace = match (fields.next(), fields.next().and_then(|n| n.parse().ok()))
                {
                    (Some(combined), Some(suppressed)) => Some(WsEntry {
                        combined: combined.to_string(),
                        suppressed,
                        findings: Vec::with_capacity(8),
                    }),
                    _ => None,
                };
                continue;
            }
            if tag == "R" {
                let parsed = parse_ws_finding(&mut fields);
                match (cache.workspace.as_mut(), parsed) {
                    (Some(ws), Some(f)) => ws.findings.push(f),
                    _ => cache.workspace = None,
                }
                continue;
            }
            let Some((_, entry)) = cur.as_mut() else {
                continue;
            };
            if poisoned {
                continue;
            }
            if parse_record(tag, &mut fields, &mut entry.analysis).is_none() {
                poisoned = true;
            }
        }
        if let Some((path, entry)) = cur.take() {
            if !poisoned {
                cache.entries.insert(path, entry);
            }
        }
        cache
    }

    /// Number of files with a cached analysis.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no entries at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The cached analysis for `rel_path`, if its content hash matches.
    pub fn get(&self, rel_path: &str, hash: &str) -> Option<&FileAnalysis> {
        self.entries
            .get(rel_path)
            .filter(|e| e.hash == hash)
            .map(|e| &e.analysis)
    }

    /// Records (or replaces) the analysis for one file.
    pub fn put(&mut self, rel_path: String, hash: String, analysis: FileAnalysis) {
        self.entries.insert(rel_path, Entry { hash, analysis });
        self.dirty = true;
    }

    /// The cached (already gated) workspace findings, if `combined` —
    /// the hash over every scanned (path, content-hash) pair — matches.
    pub fn get_workspace(&self, combined: &str) -> Option<(&[Finding], usize)> {
        self.workspace
            .as_ref()
            .filter(|w| w.combined == combined)
            .map(|w| (w.findings.as_slice(), w.suppressed))
    }

    /// Records the workspace-pass result for `combined`.
    pub fn put_workspace(&mut self, combined: String, findings: Vec<Finding>, suppressed: usize) {
        self.workspace = Some(WsEntry {
            combined,
            suppressed,
            findings,
        });
        self.dirty = true;
    }

    /// Drops entries for files no longer in the scan set, so deleted
    /// files cannot accumulate in the store.
    pub fn prune_to(&mut self, keep: &std::collections::BTreeSet<String>) {
        let before = self.entries.len();
        self.entries.retain(|path, _| keep.contains(path));
        if self.entries.len() != before {
            self.dirty = true;
        }
    }

    /// Whether anything changed since load — a fully-warm run skips the
    /// rewrite entirely.
    #[must_use]
    pub fn dirty(&self) -> bool {
        self.dirty
    }

    /// Writes the cache to `path` atomically (tmp + rename).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; callers treat a failed save as a
    /// future cold cache, not a lint failure.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(64 * 1024);
        out.push_str(&format!(
            "tbstc-lint-cache\t{CACHE_VERSION}\t{}\n",
            escape(&self.fingerprint)
        ));
        for (path, e) in &self.entries {
            out.push_str(&format!("F\t{}\t{}\n", escape(path), e.hash));
            render_analysis(&e.analysis, &mut out);
        }
        if let Some(ws) = &self.workspace {
            out.push_str(&format!("W\t{}\t{}\n", ws.combined, ws.suppressed));
            for f in &ws.findings {
                out.push_str(&format!(
                    "R\t{}\t{}\t{}\t{}\t{}\t{}\n",
                    f.rule,
                    f.severity,
                    escape(&f.path),
                    f.line,
                    f.col,
                    escape(&f.message)
                ));
            }
        }
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let tmp = path.with_extension("cache.tmp");
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(out.as_bytes())?;
        }
        fs::rename(&tmp, path)
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out
}

fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('t') => out.push('\t'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some(c) => out.push(c),
            None => {}
        }
    }
    out
}

fn render_analysis(a: &FileAnalysis, out: &mut String) {
    out.push_str(&format!("S\t{}\n", a.suppressed));
    for f in &a.findings {
        out.push_str(&format!(
            "D\t{}\t{}\t{}\t{}\t{}\n",
            f.rule,
            f.severity,
            f.line,
            f.col,
            escape(&f.message)
        ));
    }
    for (line, rules) in &a.allows {
        out.push_str(&format!("A\t{line}\t{}\n", escape(&rules.join(","))));
    }
    for &(lo, hi) in &a.test_ranges {
        out.push_str(&format!("T\t{lo}\t{hi}\n"));
    }
    for f in &a.facts.fns {
        out.push_str(&format!(
            "N\t{}\t{}\t{}\t{}\n",
            escape(&f.name),
            escape(&f.qual),
            f.line,
            f.end_line
        ));
        for c in &f.calls {
            out.push_str(&format!(
                "C\t{}\t{}\t{}\n",
                escape(&c.callee),
                c.line,
                c.col
            ));
        }
        for q in &f.acquires {
            out.push_str(&format!("Q\t{}\t{}\t{}\n", escape(&q.id), q.line, q.col));
        }
        for p in &f.pairs {
            out.push_str(&format!(
                "P\t{}\t{}\t{}\t{}\t{}\t{}\n",
                escape(&p.first.id),
                p.first.line,
                p.first.col,
                escape(&p.second.id),
                p.second.line,
                p.second.col
            ));
        }
        for h in &f.held_calls {
            out.push_str(&format!(
                "H\t{}\t{}\t{}\t{}\t{}\t{}\n",
                escape(&h.lock.id),
                h.lock.line,
                h.lock.col,
                escape(&h.callee),
                h.line,
                h.col
            ));
        }
        for x in &f.panics {
            out.push_str(&format!("X\t{}\t{}\t{}\n", escape(&x.what), x.line, x.col));
        }
    }
}

/// Parses one `R` (cached workspace finding) record; `None` drops the
/// whole workspace entry.
fn parse_ws_finding<'a>(fields: &mut impl Iterator<Item = &'a str>) -> Option<Finding> {
    let rule = static_rule_name(fields.next()?)?;
    let severity = match fields.next()? {
        "error" => Severity::Error,
        "warning" => Severity::Warning,
        _ => return None,
    };
    let path = unescape(fields.next()?);
    let line = fields.next()?.parse().ok()?;
    let col = fields.next()?.parse().ok()?;
    let message = unescape(fields.next()?);
    Some(Finding {
        rule,
        severity,
        path,
        line,
        col,
        message,
    })
}

/// Applies one record line to the analysis under construction. `None`
/// marks the record — and therefore the whole file entry — corrupt.
fn parse_record<'a>(
    tag: &str,
    fields: &mut impl Iterator<Item = &'a str>,
    a: &mut FileAnalysis,
) -> Option<()> {
    let num =
        |fields: &mut dyn Iterator<Item = &'a str>| -> Option<u32> { fields.next()?.parse().ok() };
    match tag {
        "S" => a.suppressed = num(fields)? as usize,
        "D" => {
            let rule = static_rule_name(fields.next()?)?;
            let severity = match fields.next()? {
                "error" => Severity::Error,
                "warning" => Severity::Warning,
                _ => return None,
            };
            let line = num(fields)?;
            let col = num(fields)?;
            let message = unescape(fields.next()?);
            a.findings.push(Finding {
                rule,
                severity,
                path: a.rel_path.clone(),
                line,
                col,
                message,
            });
        }
        "A" => {
            let line = num(fields)?;
            let rules: Vec<String> = unescape(fields.next()?)
                .split(',')
                .filter(|r| !r.is_empty())
                .map(str::to_string)
                .collect();
            a.allows.insert(line, rules);
        }
        "T" => {
            let lo = num(fields)?;
            let hi = num(fields)?;
            a.test_ranges.push((lo, hi));
        }
        "N" => {
            if a.facts.rel_path.is_empty() {
                a.facts.rel_path = a.rel_path.clone();
            }
            let name = unescape(fields.next()?);
            let qual = unescape(fields.next()?);
            let line = num(fields)?;
            let end_line = num(fields)?;
            a.facts.fns.push(FnFacts {
                name,
                qual,
                line,
                end_line,
                ..FnFacts::default()
            });
        }
        "C" => {
            let callee = unescape(fields.next()?);
            let line = num(fields)?;
            let col = num(fields)?;
            a.facts
                .fns
                .last_mut()?
                .calls
                .push(CallSite { callee, line, col });
        }
        "Q" => {
            let id = unescape(fields.next()?);
            let line = num(fields)?;
            let col = num(fields)?;
            a.facts
                .fns
                .last_mut()?
                .acquires
                .push(LockSite { id, line, col });
        }
        "P" => {
            let first = LockSite {
                id: unescape(fields.next()?),
                line: num(fields)?,
                col: num(fields)?,
            };
            let second = LockSite {
                id: unescape(fields.next()?),
                line: num(fields)?,
                col: num(fields)?,
            };
            a.facts
                .fns
                .last_mut()?
                .pairs
                .push(OrderedPair { first, second });
        }
        "H" => {
            let lock = LockSite {
                id: unescape(fields.next()?),
                line: num(fields)?,
                col: num(fields)?,
            };
            let callee = unescape(fields.next()?);
            let line = num(fields)?;
            let col = num(fields)?;
            a.facts.fns.last_mut()?.held_calls.push(HeldCall {
                lock,
                callee,
                line,
                col,
            });
        }
        "X" => {
            let what = unescape(fields.next()?);
            let line = num(fields)?;
            let col = num(fields)?;
            a.facts
                .fns
                .last_mut()?
                .panics
                .push(PanicSite { what, line, col });
        }
        _ => return None,
    }
    // An empty facts path on a file with no functions is fine; fix it
    // up so round-trips compare equal.
    if a.facts.rel_path.is_empty() {
        a.facts.rel_path = a.rel_path.clone();
    }
    Some(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::analyze_source;

    #[test]
    fn fnv_is_stable_and_sensitive() {
        assert_eq!(fnv1a_128(b""), "6c62272e07bb014262b821756295c58d");
        assert_ne!(fnv1a_128(b"a"), fnv1a_128(b"b"));
        assert_eq!(fnv1a_128(b"abc").len(), 32);
    }

    #[test]
    fn round_trip_preserves_an_analysis() {
        let src = "\
fn handler(&self, x: Option<u32>) {
    let g = self.state.lock();
    helper(x);
    // tbstc-lint: allow(panic-surface) — demo suppression
    let v = x.unwrap();
}
fn helper(_x: Option<u32>) { other.lock(); }
";
        let a = analyze_source("crates/serve/src/demo.rs", src, None);
        let hash = fnv1a_128(src.as_bytes());
        let dir =
            std::env::temp_dir().join(format!("tbstc-lint-cache-test-{}", std::process::id()));
        let path = dir.join("cache.txt");
        let mut cache = LintCache::load(&path, "fp");
        cache.put(
            "crates/serve/src/demo.rs".to_string(),
            hash.clone(),
            a.clone(),
        );
        cache.save(&path).unwrap();

        let warm = LintCache::load(&path, "fp");
        let hit = warm.get("crates/serve/src/demo.rs", &hash).unwrap();
        assert_eq!(hit, &a);
        // Wrong hash or wrong fingerprint: a miss.
        assert!(warm.get("crates/serve/src/demo.rs", "0000").is_none());
        assert!(LintCache::load(&path, "other-fp")
            .get("crates/serve/src/demo.rs", &hash)
            .is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn workspace_entry_round_trips_and_tracks_dirtiness() {
        let dir = std::env::temp_dir().join(format!("tbstc-lint-cache-ws-{}", std::process::id()));
        let path = dir.join("cache.txt");
        let mut cache = LintCache::load(&path, "fp");
        assert!(!cache.dirty(), "a fresh load starts clean");
        let finding = Finding {
            rule: "lock-order",
            severity: Severity::Error,
            path: "crates/serve/src/jobs.rs".to_string(),
            line: 4,
            col: 9,
            message: "cycle A -> B -> A\twith a tab".to_string(),
        };
        cache.put_workspace("c0mb1ned".to_string(), vec![finding.clone()], 2);
        assert!(cache.dirty());
        cache.save(&path).unwrap();

        let warm = LintCache::load(&path, "fp");
        assert!(!warm.dirty());
        let (findings, suppressed) = warm.get_workspace("c0mb1ned").unwrap();
        assert_eq!(findings, [finding]);
        assert_eq!(suppressed, 2);
        // A different combined hash (any file changed) is a miss.
        assert!(warm.get_workspace("other").is_none());

        // Pruning to a smaller scan set dirties; pruning to a superset
        // does not.
        let mut warm = warm;
        let keep: std::collections::BTreeSet<String> = ["x".to_string()].into_iter().collect();
        warm.prune_to(&keep);
        assert!(!warm.dirty(), "no file entries existed to prune");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_workspace_records_drop_only_the_workspace_entry() {
        let dir =
            std::env::temp_dir().join(format!("tbstc-lint-cache-wscorrupt-{}", std::process::id()));
        let path = dir.join("cache.txt");
        let a = analyze_source("crates/a/src/lib.rs", "fn ok() {}\n", None);
        let mut cache = LintCache::load(&path, "fp");
        cache.put("crates/a/src/lib.rs".into(), "h1".into(), a);
        cache.put_workspace("cmb".into(), Vec::new(), 0);
        cache.save(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text + "R\tno-such-rule\n").unwrap();
        let warm = LintCache::load(&path, "fp");
        assert!(warm.get_workspace("cmb").is_none());
        assert!(warm.get("crates/a/src/lib.rs", "h1").is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_records_drop_only_their_file() {
        let dir =
            std::env::temp_dir().join(format!("tbstc-lint-cache-corrupt-{}", std::process::id()));
        let path = dir.join("cache.txt");
        let a = analyze_source("crates/a/src/lib.rs", "fn ok() {}\n", None);
        let b = analyze_source("crates/b/src/lib.rs", "fn also_ok() {}\n", None);
        let mut cache = LintCache::load(&path, "fp");
        cache.put("crates/a/src/lib.rs".into(), "h1".into(), a);
        cache.put("crates/b/src/lib.rs".into(), "h2".into(), b);
        cache.save(&path).unwrap();
        // Corrupt one record belonging to crates/a.
        let text = std::fs::read_to_string(&path).unwrap();
        let text = text.replace(
            "F\tcrates/a/src/lib.rs\th1\n",
            "F\tcrates/a/src/lib.rs\th1\nD\tno-such-rule\n",
        );
        std::fs::write(&path, text).unwrap();
        let warm = LintCache::load(&path, "fp");
        assert!(warm.get("crates/a/src/lib.rs", "h1").is_none());
        assert!(warm.get("crates/b/src/lib.rs", "h2").is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
