//! The brace-aware syntax layer: an item tree over the token stream.
//!
//! The lexer knows what is code; this module knows *where* code lives.
//! It walks the code-token stream of one file tracking `mod` / `impl` /
//! `trait` / `fn` nesting and extracts, per function body, the **facts**
//! the workspace-level analyses consume:
//!
//! * **call sites** — `name(...)`, `path::name(...)`, `.name(...)`,
//!   recorded by simple callee name (resolution happens in
//!   [`crate::graph`]);
//! * **lock acquisitions** — `recv.lock()` on a `Mutex` (identified by
//!   the receiver chain, scoped to the surrounding `impl` type or file)
//!   and flock-style named locks (`recv.lock("name", …)` /
//!   `recv.try_lock(…)` with a string-literal name → `flock:<name>`);
//! * **ordered lock pairs** — lock B acquired while lock A's guard is
//!   still live (the edge material for the lock-order graph);
//! * **calls under a held guard** — so the graph pass can propagate
//!   "may acquire" sets interprocedurally.
//!
//! Guard lifetimes reuse the heuristic the per-file rules already trust:
//! a guard bound by `let` lives until its scope closes or it is
//! `drop`ped; a guard acquired as a temporary lives to the end of its
//! statement. Items inside `#[cfg(test)]` ranges are invisible, exactly
//! as they are to the per-file rules.

use crate::lexer::{TokKind, Token};

/// One lock acquisition site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockSite {
    /// Normalized lock identity (see module docs).
    pub id: String,
    /// 1-based line of the `lock` token.
    pub line: u32,
    /// 1-based byte column of the `lock` token.
    pub col: u32,
}

/// Lock `second` acquired while `first`'s guard was live, in one body.
#[derive(Debug)]
pub struct OrderedPair {
    /// The lock already held.
    pub first: LockSite,
    /// The lock acquired under it.
    pub second: LockSite,
}

/// A call made while a lock guard was live.
#[derive(Debug)]
pub struct HeldCall {
    /// The held lock.
    pub lock: LockSite,
    /// Simple callee name.
    pub callee: String,
    /// 1-based line of the call.
    pub line: u32,
    /// 1-based byte column of the call.
    pub col: u32,
}

/// Everything the workspace analyses need to know about one function.
#[derive(Debug, Default)]
pub struct FnFacts {
    /// The function's simple name.
    pub name: String,
    /// `Scope::path::name` — module and impl/trait scopes joined with `::`.
    pub qual: String,
    /// The simple (last-segment) callee name of every call in the body,
    /// in source order.
    pub calls: Vec<String>,
    /// Every lock acquisition in the body, in source order.
    pub acquires: Vec<LockSite>,
    /// Ordered held-pairs (`first` held while `second` acquired).
    pub pairs: Vec<OrderedPair>,
    /// Calls made while a guard was live.
    pub held_calls: Vec<HeldCall>,
}

/// The per-file fact set the graph pass consumes.
#[derive(Debug)]
pub struct FileFacts {
    /// Workspace-relative path, forward slashes.
    pub rel_path: String,
    /// Facts for every non-test function with a body.
    pub fns: Vec<FnFacts>,
}

/// Keywords that look like `name(...)` call heads but are control flow.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "loop", "return", "fn", "let", "in", "as", "move", "ref", "mut",
    "else", "break", "continue", "where", "unsafe", "dyn", "impl", "use", "pub",
];

/// Extracts the item tree and per-function facts from one file's code
/// tokens. `test_ranges` are 1-based inclusive line ranges covered by
/// `#[cfg(test)]` items; functions starting inside one are skipped.
pub fn extract(rel_path: &str, src: &str, code: &[Token], test_ranges: &[(u32, u32)]) -> FileFacts {
    let mut facts = FileFacts {
        rel_path: rel_path.to_string(),
        fns: Vec::with_capacity(16),
    };
    let stem = file_stem(rel_path);
    let mut walker = Walker {
        src,
        code,
        stem,
        test_ranges,
        out: &mut facts,
    };
    walker.items(0, code.len(), &mut Vec::with_capacity(4));
    facts
}

/// `crates/serve/src/event.rs` → `event`.
fn file_stem(rel_path: &str) -> &str {
    rel_path
        .rsplit('/')
        .next()
        .and_then(|f| f.split('.').next())
        .unwrap_or(rel_path)
}

struct Walker<'a> {
    src: &'a str,
    code: &'a [Token],
    stem: &'a str,
    test_ranges: &'a [(u32, u32)],
    out: &'a mut FileFacts,
}

impl Walker<'_> {
    fn text(&self, i: usize) -> &str {
        self.code.get(i).map_or("", |t| t.text(self.src))
    }

    fn is_ident(&self, i: usize) -> bool {
        self.code.get(i).is_some_and(|t| t.kind == TokKind::Ident)
    }

    /// Index of the matching `}` for the `{` at `open`, or the last token.
    fn close_of(&self, open: usize) -> usize {
        let mut depth = 0i32;
        let mut k = open;
        while k < self.code.len() {
            match self.text(k) {
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
        self.code.len().saturating_sub(1)
    }

    /// Walks items in `[i, end)`, `scope` being the enclosing mod/impl path.
    fn items(&mut self, mut i: usize, end: usize, scope: &mut Vec<String>) {
        while i < end {
            match self.text(i) {
                "mod" if self.is_ident(i + 1) && self.text(i + 2) == "{" => {
                    let name = self.text(i + 1).to_string();
                    let close = self.close_of(i + 2);
                    scope.push(name);
                    self.items(i + 3, close, scope);
                    scope.pop();
                    i = close + 1;
                }
                kw @ ("impl" | "trait") => {
                    // Type name: the last ident before the body `{` (after
                    // `for` when present), skipping generics.
                    let mut name = String::new();
                    let mut j = i + 1;
                    let mut angle = 0i32;
                    while j < end {
                        match self.text(j) {
                            "<" => angle += 1,
                            ">" => angle -= 1,
                            "{" if angle <= 0 => break,
                            ";" if angle <= 0 => break, // `impl Trait for T;`-ish
                            "for" => name.clear(),
                            t if self.is_ident(j) && angle <= 0 && t != "where" => {
                                name = t.to_string();
                            }
                            _ => {}
                        }
                        j += 1;
                    }
                    if self.text(j) == "{" {
                        let close = self.close_of(j);
                        scope.push(if name.is_empty() {
                            kw.to_string()
                        } else {
                            name
                        });
                        self.items(j + 1, close, scope);
                        scope.pop();
                        i = close + 1;
                    } else {
                        i = j + 1;
                    }
                }
                "fn" if self.is_ident(i + 1) => {
                    let name = self.text(i + 1).to_string();
                    let fn_line = self.code[i].line;
                    // Body `{` (or `;` for a bodiless declaration). The
                    // signature may contain `(`/`<`; no `{` appears in it.
                    let mut j = i + 2;
                    while j < end && self.text(j) != "{" && self.text(j) != ";" {
                        j += 1;
                    }
                    if self.text(j) == "{" {
                        let close = self.close_of(j);
                        let skip = self
                            .test_ranges
                            .iter()
                            .any(|&(a, b)| fn_line >= a && fn_line <= b);
                        if !skip {
                            let qual = if scope.is_empty() {
                                name.clone()
                            } else {
                                format!("{}::{}", scope.join("::"), name)
                            };
                            let mut f = FnFacts {
                                name,
                                qual,
                                ..FnFacts::default()
                            };
                            self.body_facts(j + 1, close, &mut f);
                            self.out.fns.push(f);
                        }
                        i = close + 1;
                    } else {
                        i = j + 1;
                    }
                }
                _ => i += 1,
            }
        }
    }

    /// The receiver chain ending at the `.` before index `dot` (walking
    /// backwards over `ident . ident …`), e.g. `self.state`. An index
    /// step (`self.shards[i].lock()`) is normalized to `name[_]`, so
    /// every element of a sharded lock array shares one identity.
    fn receiver_chain(&self, dot: usize) -> String {
        let mut parts: Vec<String> = Vec::with_capacity(4);
        let mut k = dot; // index of the `.`
        loop {
            if k == 0 {
                break;
            }
            let mut prev = k - 1;
            let mut suffix = "";
            if self.text(prev) == "]" {
                // Walk back over the `[...]` to the indexed receiver.
                let mut nest = 0i32;
                while prev > 0 {
                    match self.text(prev) {
                        "]" => nest += 1,
                        "[" => {
                            nest -= 1;
                            if nest == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    prev -= 1;
                }
                if prev == 0 {
                    break;
                }
                prev -= 1;
                suffix = "[_]";
            }
            if self.is_ident(prev) {
                parts.push(format!("{}{suffix}", self.text(prev)));
                if prev >= 2 && self.text(prev - 1) == "." {
                    k = prev - 1;
                    continue;
                }
            }
            break;
        }
        parts.reverse();
        parts.join(".")
    }

    /// Normalizes a lock receiver into a lock identity: `self.x` scoped
    /// to the impl type, bare locals scoped to the file stem.
    fn lock_id(&self, chain: &str, scope_ty: &str) -> String {
        if let Some(field) = chain.strip_prefix("self.") {
            let owner = if scope_ty.is_empty() {
                self.stem
            } else {
                scope_ty
            };
            format!("{owner}.{field}")
        } else if chain.is_empty() || chain == "self" {
            format!("{}.<expr>", self.stem)
        } else {
            format!("{}.{chain}", self.stem)
        }
    }

    /// Scans one function body, tracking guards and emitting facts.
    #[allow(clippy::too_many_lines, reason = "one token walk with its guard state")]
    fn body_facts(&mut self, start: usize, end: usize, f: &mut FnFacts) {
        struct Guard {
            name: String, // binding name, or "" for a statement temporary
            depth: i32,
            stmt: bool, // dies at the next `;` at its depth
            site: LockSite,
        }
        let scope_ty = f.qual.rsplit("::").nth(1).unwrap_or("").to_string();
        let mut guards: Vec<Guard> = Vec::with_capacity(4);
        let mut depth = 0i32;
        // The binding name of the `let` statement currently being
        // scanned, consumed by the next `.lock()` in that statement.
        let mut pending_let: Option<String> = None;
        let mut pending_let_depth = 0i32;
        let mut i = start;
        while i < end {
            let text = self.text(i);
            let tok = &self.code[i];
            match text {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    guards.retain(|g| g.depth <= depth);
                    if pending_let.is_some() && depth < pending_let_depth {
                        pending_let = None;
                    }
                }
                ";" => {
                    guards.retain(|g| !(g.stmt && g.depth == depth));
                    pending_let = None;
                }
                "let" if tok.kind == TokKind::Ident => {
                    let mut k = i + 1;
                    if self.text(k) == "mut" {
                        k += 1;
                    }
                    if self.is_ident(k) {
                        pending_let = Some(self.text(k).to_string());
                        pending_let_depth = depth;
                    }
                }
                "drop" if tok.kind == TokKind::Ident && self.text(i + 1) == "(" => {
                    let dropped = self.text(i + 2).to_string();
                    guards.retain(|g| g.name != dropped);
                }
                _ => {}
            }
            if tok.kind == TokKind::Ident {
                let prev_dot = i >= 1 && self.text(i - 1) == ".";
                let next_paren = self.text(i + 1) == "(";

                // Lock acquisitions: `.lock()` (Mutex), `.lock("name",…)` /
                // `.try_lock(…)` (flock-style named locks).
                let is_lock_call = prev_dot && next_paren && (text == "lock" || text == "try_lock");
                if is_lock_call {
                    let id = if self.text(i + 2) == ")" && text == "lock" {
                        // Zero-arg `.lock()`: a Mutex.
                        let chain = self.receiver_chain(i - 1);
                        self.lock_id(&chain, &scope_ty)
                    } else {
                        // Named (flock) lock: identity from the first
                        // string literal in the argument list, with
                        // interpolation holes wildcarded.
                        let mut k = i + 2;
                        let mut nest = 1i32;
                        let mut lit = None;
                        while k < end && nest > 0 {
                            match self.text(k) {
                                "(" => nest += 1,
                                ")" => nest -= 1,
                                _ => {
                                    if lit.is_none() && self.code[k].kind == TokKind::StrLit {
                                        lit = Some(self.text(k).to_string());
                                    }
                                }
                            }
                            k += 1;
                        }
                        match lit {
                            Some(l) => format!("flock:{}", wildcard_holes(l.trim_matches('"'))),
                            None => format!("flock:{}:{}", self.stem, tok.line),
                        }
                    };
                    let site = LockSite {
                        id,
                        line: tok.line,
                        col: tok.col,
                    };
                    for g in &guards {
                        f.pairs.push(OrderedPair {
                            first: g.site.clone(),
                            second: site.clone(),
                        });
                    }
                    f.acquires.push(site.clone());
                    let (name, stmt) = match pending_let.take() {
                        Some(n) => (n, false),
                        None => (String::new(), true),
                    };
                    guards.push(Guard {
                        name,
                        depth,
                        stmt,
                        site,
                    });
                    i += 1;
                    continue;
                }

                // Call sites: `name(` where name is not control flow, not
                // a macro head (`name!`), and not `fn name(`.
                let is_decl = i >= 1 && self.text(i - 1) == "fn";
                if next_paren && !is_decl && !NON_CALL_KEYWORDS.contains(&text) && text != "drop" {
                    f.calls.push(text.to_string());
                    for g in &guards {
                        f.held_calls.push(HeldCall {
                            lock: g.site.clone(),
                            callee: text.to_string(),
                            line: tok.line,
                            col: tok.col,
                        });
                    }
                }
            }
            i += 1;
        }
    }
}

/// `job-{key}` → `job-*`, so every per-job flock shares one identity.
fn wildcard_holes(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    let mut depth = 0usize;
    for c in name.chars() {
        match c {
            '{' => {
                depth += 1;
                if depth == 1 {
                    out.push('*');
                }
            }
            '}' => depth = depth.saturating_sub(1),
            c if depth == 0 => out.push(c),
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn facts(path: &str, src: &str) -> FileFacts {
        let tokens = lex(src);
        let code: Vec<Token> = tokens.iter().filter(|t| !t.is_comment()).cloned().collect();
        extract(path, src, &code, &[])
    }

    #[test]
    fn item_tree_quals_mod_impl_fn() {
        let src = "\
mod inner {
    struct S;
    impl S {
        fn method(&self) { helper(); }
    }
    fn helper() {}
}
fn top() {}
";
        let f = facts("crates/demo/src/lib.rs", src);
        let quals: Vec<&str> = f.fns.iter().map(|f| f.qual.as_str()).collect();
        assert_eq!(quals, ["inner::S::method", "inner::helper", "top"]);
        assert_eq!(f.fns[0].calls.len(), 1);
        assert_eq!(f.fns[0].calls[0], "helper");
    }

    #[test]
    fn impl_trait_for_type_takes_the_type_name() {
        let src = "\
impl<T: Clone> Display for Wrapper<T> {
    fn fmt(&self) { self.m.lock(); }
}
";
        let f = facts("crates/demo/src/x.rs", src);
        assert_eq!(f.fns[0].qual, "Wrapper::fmt");
        assert_eq!(f.fns[0].acquires[0].id, "Wrapper.m");
    }

    #[test]
    fn ordered_pairs_track_guard_lifetimes() {
        let src = "\
fn f(a: &std::sync::Mutex<u32>, b: &std::sync::Mutex<u32>) {
    let g1 = a.lock();
    let g2 = b.lock();
    drop(g1);
    drop(g2);
}
fn scoped(a: &std::sync::Mutex<u32>, b: &std::sync::Mutex<u32>) {
    { let g1 = a.lock(); }
    let g2 = b.lock();
}
";
        let f = facts("crates/demo/src/x.rs", src);
        assert_eq!(f.fns[0].pairs.len(), 1);
        assert_eq!(f.fns[0].pairs[0].first.id, "x.a");
        assert_eq!(f.fns[0].pairs[0].second.id, "x.b");
        // Scope exit released g1 before g2 was acquired.
        assert!(f.fns[1].pairs.is_empty());
    }

    #[test]
    fn statement_temporary_guard_dies_at_semicolon() {
        let src = "\
fn f(&self) {
    self.q.lock().push_back(1);
    let g = self.other.lock();
}
";
        let f = facts("crates/demo/src/x.rs", src);
        // The temporary guard on line 2 is gone by line 3: no pair.
        assert!(f.fns[0].pairs.is_empty(), "{:?}", f.fns[0].pairs);
        assert_eq!(f.fns[0].acquires.len(), 2);
    }

    #[test]
    fn flock_ids_come_from_string_literals_with_holes_wildcarded() {
        let src = "\
fn f(&self, key: &str) {
    let a = self.store.lock(\"store\", &|| false);
    let b = self.store.try_lock(&format!(\"job-{key}\"));
}
";
        let f = facts("crates/serve/src/x.rs", src);
        let ids: Vec<&str> = f.fns[0].acquires.iter().map(|a| a.id.as_str()).collect();
        assert_eq!(ids, ["flock:store", "flock:job-*"]);
        assert_eq!(f.fns[0].pairs.len(), 1);
    }

    #[test]
    fn held_calls_are_recorded() {
        let src = "\
fn f(&self, x: Option<u32>) {
    let g = self.state.lock();
    compute(x);
    drop(g);
    let v = x.unwrap();
    buf[0] = v;
}
";
        let f = facts("crates/serve/src/x.rs", src);
        let hc = &f.fns[0].held_calls;
        assert!(hc.iter().any(|h| h.callee == "compute"));
        // After drop(g) the unwrap is not under the guard.
        assert!(!hc.iter().any(|h| h.callee == "unwrap"));
    }

    #[test]
    fn indexed_receivers_share_one_identity() {
        let src = "\
impl Lru {
    fn get(&self, i: usize, j: usize) {
        let a = self.shards[i].lock();
        drop(a);
        let b = self.shards[j].lock();
    }
}
";
        let f = facts("crates/serve/src/lru.rs", src);
        let ids: Vec<&str> = f.fns[0].acquires.iter().map(|a| a.id.as_str()).collect();
        assert_eq!(ids, ["Lru.shards[_]", "Lru.shards[_]"]);
        assert!(f.fns[0].pairs.is_empty());
    }

    #[test]
    fn test_ranges_exclude_functions() {
        let src = "\
fn live() {}
fn test_like() { x.unwrap(); }
";
        let tokens = lex(src);
        let code: Vec<Token> = tokens.iter().filter(|t| !t.is_comment()).cloned().collect();
        let f = extract("crates/demo/src/x.rs", src, &code, &[(2, 2)]);
        assert_eq!(f.fns.len(), 1);
        assert_eq!(f.fns[0].name, "live");
    }

    #[test]
    fn bodiless_and_nested_items_do_not_derail_the_walk() {
        let src = "\
trait T {
    fn decl(&self);
    fn with_default(&self) { self.decl(); }
}
extern \"C\" {
    fn c_fn(x: i32) -> i32;
}
fn after() {}
";
        let f = facts("crates/demo/src/x.rs", src);
        let names: Vec<&str> = f.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["with_default", "after"]);
        assert_eq!(f.fns[0].qual, "T::with_default");
    }
}
