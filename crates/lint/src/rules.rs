//! The nine workspace rules: eight per-file checks (pure functions over
//! a [`FileCtx`] pushing [`Finding`]s) and one workspace-level check
//! (`lock-order`) that runs over the [`crate::graph::Workspace`] built
//! from every file's [`crate::syntax`] facts. The engine applies
//! test-code exclusion and suppressions afterwards, so rules here
//! report every match they see.

use crate::engine::{FileCtx, Finding, Severity};
use crate::graph::{find_cycles, Workspace};
use crate::lexer::{TokKind, Token};

/// A named per-file check with a fixed severity story (rules may emit
/// both severities; the table's `check` decides per finding).
pub struct Rule {
    /// Kebab-case rule name, used in diagnostics, `allow(...)`, and
    /// `--rules`.
    pub name: &'static str,
    /// The check itself.
    pub check: fn(&FileCtx<'_>, &mut Vec<Finding>),
}

/// A workspace-level check over the call/lock graphs. Findings still
/// point at one file/line, so suppressions apply exactly as for
/// per-file rules.
pub struct WorkspaceRule {
    /// Kebab-case rule name.
    pub name: &'static str,
    /// The check itself.
    pub check: fn(&Workspace<'_>, &mut Vec<Finding>),
}

/// Every per-file rule the engine knows, in reporting order.
pub const ALL_RULES: &[Rule] = &[
    Rule {
        name: "panic-surface",
        check: panic_surface,
    },
    Rule {
        name: "determinism",
        check: determinism,
    },
    Rule {
        name: "lock-discipline",
        check: lock_discipline,
    },
    Rule {
        name: "crate-hygiene",
        check: crate_hygiene,
    },
    Rule {
        name: "unsafe-audit",
        check: unsafe_audit,
    },
    Rule {
        name: "hot-path-alloc",
        check: hot_path_alloc,
    },
    Rule {
        name: "blocking-in-event-loop",
        check: blocking_in_event_loop,
    },
    Rule {
        name: "store-lock-discipline",
        check: store_lock_discipline,
    },
];

/// Every workspace-level rule, in reporting order.
pub const WORKSPACE_RULES: &[WorkspaceRule] = &[WorkspaceRule {
    name: "lock-order",
    check: lock_order,
}];

/// Every rule name, per-file rules first, in reporting order.
pub fn rule_names() -> impl Iterator<Item = &'static str> {
    ALL_RULES
        .iter()
        .map(|r| r.name)
        .chain(WORKSPACE_RULES.iter().map(|r| r.name))
}

fn finding(
    rule: &'static str,
    severity: Severity,
    ctx: &FileCtx<'_>,
    t: &Token,
    message: String,
) -> Finding {
    Finding {
        rule,
        severity,
        path: ctx.rel_path.to_string(),
        line: t.line,
        col: t.col,
        message,
    }
}

// --- panic-surface ------------------------------------------------------

/// Keywords that may legally precede `[` without it being an index
/// expression (array literals and the like).
const PRE_BRACKET_KEYWORDS: &[&str] = &[
    "return", "break", "else", "in", "mut", "ref", "const", "static", "as", "move", "yield",
];

/// `.unwrap()` / `.expect()` / `panic!`-family macros anywhere, plus
/// slice indexing on the serve request path. Warning severity: a site
/// that cannot panic carries a suppression saying why; any other fails
/// `--deny-warnings`.
fn panic_surface(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    let code = ctx.code;
    for (i, t) in code.iter().enumerate() {
        if t.kind == TokKind::Ident {
            let name = ctx.text(t);
            if (name == "unwrap" || name == "expect")
                && i >= 1
                && ctx.code_text(i - 1) == "."
                && ctx.code_text(i + 1) == "("
            {
                // `.lock().unwrap()` belongs to lock-discipline; don't
                // double-report.
                let after_lock = i >= 4
                    && ctx.code_is_ident(i - 4, "lock")
                    && ctx.code_text(i - 3) == "("
                    && ctx.code_text(i - 2) == ")";
                if !after_lock {
                    out.push(finding(
                        "panic-surface",
                        Severity::Warning,
                        ctx,
                        t,
                        format!(
                            ".{name}() can panic; return a typed error, use \
                             unwrap_or_else, or suppress with a reason"
                        ),
                    ));
                }
            }
            if matches!(name, "panic" | "unreachable" | "todo" | "unimplemented")
                && ctx.code_text(i + 1) == "!"
            {
                out.push(finding(
                    "panic-surface",
                    Severity::Warning,
                    ctx,
                    t,
                    format!("{name}! aborts the worker; return a typed error instead"),
                ));
            }
        }
        // Index expressions only on the serve request path: `expr[...]`
        // where the previous code token ends an expression.
        if ctx.crate_name == "serve" && t.kind == TokKind::Punct && ctx.text(t) == "[" && i >= 1 {
            let prev = &code[i - 1];
            let prev_text = ctx.text(prev);
            let indexes = match prev.kind {
                TokKind::Ident => !PRE_BRACKET_KEYWORDS.contains(&prev_text),
                TokKind::Punct => matches!(prev_text, ")" | "]" | "?"),
                _ => false,
            };
            if indexes {
                out.push(finding(
                    "panic-surface",
                    Severity::Warning,
                    ctx,
                    t,
                    "slice indexing can panic on the request path; use .get(..) \
                     and map None to an HTTP error"
                        .to_string(),
                ));
            }
        }
    }
}

// --- determinism --------------------------------------------------------

/// Hash-ordered containers and wall-clock/entropy sources. Warnings:
/// call sites where ordering provably never escapes carry a suppression
/// explaining why.
fn determinism(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    for (i, t) in ctx.code.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        match ctx.text(t) {
            name @ ("HashMap" | "HashSet") => out.push(finding(
                "determinism",
                Severity::Warning,
                ctx,
                t,
                format!(
                    "{name} iteration order is nondeterministic; use BTree{} or \
                     suppress with a reason why ordering never reaches output",
                    &name[4..]
                ),
            )),
            "SystemTime" if ctx.code_text(i + 1) == "::" && ctx.code_is_ident(i + 2, "now") => out
                .push(finding(
                    "determinism",
                    Severity::Warning,
                    ctx,
                    t,
                    "SystemTime::now() makes results time-dependent; thread a \
                     clock or timestamp in from the caller"
                        .to_string(),
                )),
            name @ ("thread_rng" | "from_entropy") => out.push(finding(
                "determinism",
                Severity::Warning,
                ctx,
                t,
                format!("{name} draws unseeded entropy; derive the RNG from an explicit seed"),
            )),
            _ => {}
        }
    }
}

// --- lock-discipline ----------------------------------------------------

/// Blocking calls that must not run while a `MutexGuard` is live.
const IO_IDENTS: &[&str] = &[
    "write_all",
    "write_fmt",
    "flush",
    "read",
    "read_exact",
    "read_to_end",
    "read_to_string",
    "read_line",
    "recv",
    "recv_timeout",
    "sync_all",
    "sync_data",
    "copy",
    "accept",
];

/// (a) `.lock().unwrap()` / `.lock().expect()` anywhere — an error:
/// poisoning must be handled (recover or surface HTTP 500), never
/// propagated as a panic. (b) In `crates/serve`/`crates/runner`, a
/// heuristic: an identifier bound from a `.lock()` call is treated as a
/// live guard until its scope closes or it is `drop`ped; `.`-method I/O
/// or channel calls inside that window are warnings.
fn lock_discipline(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    let code = ctx.code;
    for (i, t) in code.iter().enumerate() {
        if t.kind == TokKind::Ident
            && ctx.text(t) == "lock"
            && i >= 1
            && ctx.code_text(i - 1) == "."
            && ctx.code_text(i + 1) == "("
            && ctx.code_text(i + 2) == ")"
            && ctx.code_text(i + 3) == "."
            && (ctx.code_is_ident(i + 4, "unwrap") || ctx.code_is_ident(i + 4, "expect"))
        {
            out.push(finding(
                "lock-discipline",
                Severity::Error,
                ctx,
                t,
                ".lock().unwrap()/.expect() panics on poison; recover with \
                 unwrap_or_else(PoisonError::into_inner) or map to an error"
                    .to_string(),
            ));
        }
    }

    if ctx.crate_name != "serve" && ctx.crate_name != "runner" {
        return;
    }
    scan_with_guards(ctx, |i, guard| {
        let t = &code[i];
        let text = ctx.text(t);
        let io_call = t.kind == TokKind::Ident
            && IO_IDENTS.contains(&text)
            && i >= 1
            && ctx.code_text(i - 1) == "."
            && ctx.code_text(i + 1) == "(";
        if let (true, Some(guard)) = (io_call, guard) {
            out.push(finding(
                "lock-discipline",
                Severity::Warning,
                ctx,
                t,
                format!(
                    ".{text}() while `{guard}` holds a lock guard blocks every \
                     other thread on that mutex; drop the guard first"
                ),
            ));
        }
    });
}

/// The lock-guard heuristic `lock-discipline` and
/// `blocking-in-event-loop` share. Walks the file's code tokens treating
/// an identifier bound by a `let` statement that calls `.lock()` as a
/// live guard until its scope closes or it is `drop`ped, and calls
/// `visit(i, guard)` for every token that is not a brace, a `let` or a
/// `drop(` call, with the innermost live guard's name.
fn scan_with_guards(ctx: &FileCtx<'_>, mut visit: impl FnMut(usize, Option<&str>)) {
    let code = ctx.code;
    // (binding name, brace depth it was bound at)
    let mut guards: Vec<(String, i32)> = Vec::with_capacity(4);
    let mut depth = 0i32;
    for i in 0..code.len() {
        match ctx.code_text(i) {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                guards.retain(|g| g.1 <= depth);
            }
            "let" if code[i].kind == TokKind::Ident => {
                // Scan the statement for a `.lock()` call; bind the first
                // ident after `let` (skipping `mut`) as a guard if found.
                let k = if ctx.code_is_ident(i + 1, "mut") {
                    i + 2
                } else {
                    i + 1
                };
                let name = code.get(k).filter(|t| t.kind == TokKind::Ident);
                let mut nest = 0i32;
                let mut locks = false;
                for j in i + 1..code.len() {
                    match ctx.code_text(j) {
                        "{" | "(" | "[" => nest += 1,
                        "}" | ")" | "]" => nest -= 1,
                        ";" if nest <= 0 => break,
                        "lock" if ctx.code_text(j - 1) == "." => locks = true,
                        _ => {}
                    }
                }
                if let (true, Some(name)) = (locks, name) {
                    guards.push((ctx.text(name).to_string(), depth));
                }
            }
            "drop" if ctx.code_text(i + 1) == "(" => {
                let dropped = ctx.code_text(i + 2);
                guards.retain(|g| g.0 != dropped);
            }
            _ => visit(i, guards.last().map(|g| g.0.as_str())),
        }
    }
}

// --- crate-hygiene ------------------------------------------------------

/// Crate roots must pin down `unsafe`: `#![forbid(unsafe_code)]` or
/// `#![deny(unsafe_code)]` at the top. (Per-block `unsafe` auditing
/// lives in `unsafe-audit`.)
fn crate_hygiene(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    if ctx.is_crate_root && !has_unsafe_code_attr(ctx) {
        let at = ctx.code.first().cloned().unwrap_or(Token {
            kind: TokKind::Punct,
            start: 0,
            end: 0,
            line: 1,
            col: 1,
            is_doc: false,
        });
        out.push(finding(
            "crate-hygiene",
            Severity::Error,
            ctx,
            &at,
            "crate root lacks #![forbid(unsafe_code)] (or #![deny(unsafe_code)] \
             when a module legitimately needs unsafe)"
                .to_string(),
        ));
    }
}

// --- unsafe-audit -------------------------------------------------------

/// The only modules allowed to contain `unsafe` at all: the serve
/// crate's raw-syscall shims (poll(2), signalfd-style self-pipe,
/// flock(2)). Everything else forbids unsafe_code at the crate root.
const UNSAFE_ALLOWLIST: &[&str] = &[
    "crates/serve/src/event.rs",
    "crates/serve/src/signal.rs",
    "crates/serve/src/store.rs",
];

/// Every `unsafe` keyword must (a) live in an [`UNSAFE_ALLOWLIST`]
/// module and (b) carry a `SAFETY:` comment within the five preceding
/// lines. Both are errors: unsafe outside the audited shims is a policy
/// breach, not debt.
fn unsafe_audit(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    // Comment lines that carry a SAFETY: justification (block comments
    // cover every line they span).
    let mut safety_lines: Vec<u32> = Vec::with_capacity(8);
    for t in ctx.tokens {
        if t.is_comment() && ctx.text(t).contains("SAFETY:") {
            let span = ctx.text(t).matches('\n').count() as u32;
            safety_lines.extend(t.line..=t.line + span);
        }
    }
    let allowlisted = UNSAFE_ALLOWLIST.contains(&ctx.rel_path);
    for t in ctx.code {
        if t.kind != TokKind::Ident || ctx.text(t) != "unsafe" {
            continue;
        }
        if !allowlisted {
            out.push(finding(
                "unsafe-audit",
                Severity::Error,
                ctx,
                t,
                "unsafe outside the audited allowlist (serve's event.rs, \
                 signal.rs, store.rs syscall shims); rewrite safely or \
                 extend the allowlist deliberately"
                    .to_string(),
            ));
        }
        let justified = safety_lines.iter().any(|&l| l <= t.line && l + 5 >= t.line);
        if !justified {
            out.push(finding(
                "unsafe-audit",
                Severity::Error,
                ctx,
                t,
                "unsafe without a SAFETY: comment in the preceding five lines".to_string(),
            ));
        }
    }
}

// --- hot-path-alloc -----------------------------------------------------

/// Files on the simulator's measured hot path, where incremental `Vec`
/// growth shows up directly in the benchmark's per-stage times.
const HOT_PATHS: &[&str] = &["crates/sim/src/plan.rs", "crates/matrix/src/gemm.rs"];

/// In the [`HOT_PATHS`] files only: `.push(...)` onto a local bound
/// from `Vec::new()`, i.e. growth with no reserved capacity. Turbofish
/// spellings (`Vec::<T>::new()`) are not matched; the workspace does not
/// use them.
fn hot_path_alloc(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    if !HOT_PATHS.contains(&ctx.rel_path) {
        return;
    }
    // Locals bound `let [mut] name = Vec::new()` (or reassigned from
    // one); pushes onto these are growth with no up-front reservation.
    let mut uncapped: Vec<String> = Vec::with_capacity(4);
    let code = ctx.code;
    for (i, t) in code.iter().enumerate() {
        if t.kind != TokKind::Ident || i < 2 {
            continue;
        }
        match ctx.text(t) {
            "Vec"
                if ctx.code_text(i + 1) == "::"
                    && ctx.code_is_ident(i + 2, "new")
                    && ctx.code_text(i - 1) == "=" =>
            {
                if let Some(name) = code.get(i - 2).filter(|p| p.kind == TokKind::Ident) {
                    uncapped.push(ctx.text(name).to_string());
                }
            }
            "push" if ctx.code_text(i - 1) == "." && ctx.code_text(i + 1) == "(" => {
                let recv = &code[i - 2];
                if recv.kind == TokKind::Ident && uncapped.iter().any(|n| n == ctx.text(recv)) {
                    out.push(finding(
                        "hot-path-alloc",
                        Severity::Warning,
                        ctx,
                        t,
                        format!(
                            ".push() onto `{}` (bound from Vec::new) may reallocate \
                             on the hot path; reserve with with_capacity first",
                            ctx.text(recv)
                        ),
                    ));
                }
            }
            _ => {}
        }
    }
}

// --- blocking-in-event-loop ---------------------------------------------

/// Files that run on the serve event-loop thread, where one blocking
/// call stalls every connection at once.
const EVENT_LOOP_PATHS: &[&str] = &["crates/serve/src/event.rs", "crates/serve/src/conn.rs"];

/// Method calls that park the calling thread: loop-until-done I/O,
/// channel waits, condvar waits, thread parking/joining.
const EVENT_LOOP_BLOCKING_CALLS: &[&str] = &[
    "write_all",
    "write_fmt",
    "read_exact",
    "read_to_end",
    "read_to_string",
    "read_line",
    "recv",
    "recv_timeout",
    "wait",
    "wait_timeout",
    "park",
    "join",
];

/// In the [`EVENT_LOOP_PATHS`] files only, all errors: `thread::sleep`,
/// any [`EVENT_LOOP_BLOCKING_CALLS`] method call (single non-blocking
/// `.read(..)`/`.write(..)` syscalls after a readiness event are the
/// only sanctioned I/O), and `.read(..)`/`.write(..)` while a lock
/// guard is live (the same guard heuristic as `lock-discipline`, but
/// hardened to an error here: I/O under a lock serializes the loop
/// against the worker threads).
fn blocking_in_event_loop(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    if !EVENT_LOOP_PATHS.contains(&ctx.rel_path) {
        return;
    }
    let code = ctx.code;
    scan_with_guards(ctx, |i, guard| {
        let t = &code[i];
        let text = ctx.text(t);
        if text == "sleep"
            && ctx.code_text(i.wrapping_sub(1)) == "::"
            && ctx.code_is_ident(i.wrapping_sub(2), "thread")
        {
            out.push(finding(
                "blocking-in-event-loop",
                Severity::Error,
                ctx,
                t,
                "thread::sleep stalls every connection on the event loop; \
                 use the poll timeout instead"
                    .to_string(),
            ));
            return;
        }
        let is_method_call = t.kind == TokKind::Ident
            && i >= 1
            && ctx.code_text(i - 1) == "."
            && ctx.code_text(i + 1) == "(";
        if is_method_call && EVENT_LOOP_BLOCKING_CALLS.contains(&text) {
            out.push(finding(
                "blocking-in-event-loop",
                Severity::Error,
                ctx,
                t,
                format!(
                    ".{text}() blocks the event-loop thread; do single \
                     non-blocking reads/writes after a readiness event"
                ),
            ));
        }
        let socket_io = is_method_call && (text == "read" || text == "write");
        if let (true, Some(guard)) = (socket_io, guard) {
            out.push(finding(
                "blocking-in-event-loop",
                Severity::Error,
                ctx,
                t,
                format!(
                    ".{text}() while `{guard}` holds a lock guard serializes \
                     the event loop against the workers; drop the guard \
                     before touching the socket"
                ),
            ));
        }
    });
}

/// Looks for the inner attribute `#![forbid(unsafe_code)]` /
/// `#![deny(unsafe_code)]` anywhere in the file (crate roots put it at
/// the top, but position is not what matters).
fn has_unsafe_code_attr(ctx: &FileCtx<'_>) -> bool {
    let code = ctx.code;
    for i in 0..code.len() {
        if ctx.code_text(i) == "#"
            && ctx.code_text(i + 1) == "!"
            && ctx.code_text(i + 2) == "["
            && (ctx.code_is_ident(i + 3, "forbid") || ctx.code_is_ident(i + 3, "deny"))
            && ctx.code_text(i + 4) == "("
            && ctx.code_is_ident(i + 5, "unsafe_code")
            && ctx.code_text(i + 6) == ")"
            && ctx.code_text(i + 7) == "]"
        {
            return true;
        }
    }
    false
}

// --- store-lock-discipline ----------------------------------------------

/// Filesystem mutations that may only happen inside the locked store
/// accessors (`crates/serve/src/store.rs`).
const STORE_MUTATING_FS_CALLS: &[&str] = &[
    "write",
    "rename",
    "remove_file",
    "remove_dir_all",
    "create_dir_all",
];

/// The shared result store is multi-process: every write to it must go
/// through `ResultStore`'s accessors, which take the flock(2) store lock
/// and use atomic tmp+rename. Any direct `fs::`/`File::`/`OpenOptions`
/// mutation elsewhere in the serve crate can tear `memo.jsonl` or a job
/// status document under a concurrent server, so it is an error.
fn store_lock_discipline(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    if !ctx.rel_path.starts_with("crates/serve/src/") || ctx.rel_path.ends_with("/store.rs") {
        return;
    }
    let code = ctx.code;
    for (i, t) in code.iter().enumerate() {
        if t.kind != TokKind::Ident || i < 2 || ctx.code_text(i - 1) != "::" {
            continue;
        }
        let name = ctx.text(t);
        let owner_is = |what: &str| ctx.code_is_ident(i - 2, what);
        let flagged = (owner_is("fs") && STORE_MUTATING_FS_CALLS.contains(&name))
            || (owner_is("File") && (name == "create" || name == "options"))
            || (owner_is("OpenOptions") && name == "new");
        if flagged {
            let call = format!("{}::{name}", ctx.code_text(i - 2));
            out.push(finding(
                "store-lock-discipline",
                Severity::Error,
                ctx,
                t,
                format!(
                    "{call} outside store.rs bypasses the store lock; route \
                     shared-store writes through a ResultStore accessor"
                ),
            ));
        }
    }
}

// --- lock-order (workspace) ---------------------------------------------

/// Cycle detection over the workspace lock-acquisition graph: an edge
/// A → B means some path acquires B while holding A (directly or via a
/// call whose may-acquire set contains B); any cycle is a deadlock risk
/// once two threads/processes interleave, so it is an error. The
/// finding's message walks the cycle naming every acquisition site.
fn lock_order(ws: &Workspace<'_>, out: &mut Vec<Finding>) {
    let edges = ws.lock_edges();
    for cycle in find_cycles(&edges) {
        let mut order = cycle.locks.join(" -> ");
        order.push_str(" -> ");
        order.push_str(&cycle.locks[0]);
        let mut sites = String::with_capacity(128);
        for e in &cycle.edges {
            let via = if e.site.via_call.is_empty() {
                String::new()
            } else {
                format!(" via call to `{}`", e.site.via_call)
            };
            sites.push_str(&format!(
                "; `{}` taken at {}:{}{} while `{}` held (acquired line {}) in `{}`",
                e.to, e.site.path, e.site.line, via, e.from, e.site.first.line, e.site.qual
            ));
        }
        let first = &cycle.edges[0];
        out.push(Finding {
            rule: "lock-order",
            severity: Severity::Error,
            path: first.site.path.clone(),
            line: first.site.line,
            col: first.site.col,
            message: format!(
                "lock-order cycle {order} risks deadlock{sites}; acquire \
                 these locks in one global order"
            ),
        });
    }
}
