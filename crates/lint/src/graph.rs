//! Workspace-wide graphs over the per-file facts: the call graph and
//! the lock-acquisition-order graph.
//!
//! **Call graph.** Nodes are every function [`crate::syntax`] extracted;
//! edges resolve call sites by *simple name* — a call to `frob` points
//! at every workspace function named `frob`. That over-approximates
//! (two unrelated `new`s alias), which is the right polarity for the
//! lock graph: a spurious edge may report a cycle that is then fixed
//! in the rule or the code, but a real cycle is never missed because
//! resolution was too clever.
//!
//! **Lock graph.** Nodes are normalized lock identities; an edge A → B
//! means some execution path acquires B while holding A — either
//! directly in one body (an ordered pair) or interprocedurally: a call
//! made under A's guard reaches a function whose *may-acquire* set
//! (its own acquisitions plus its callees', to fixpoint) contains B.
//! A cycle in this graph is a deadlock risk across the fleet's mutexes
//! and flock(2) store/job locks, reported with the acquisition sites
//! that close the cycle.

use std::collections::{BTreeMap, BTreeSet};

use crate::syntax::{FileFacts, LockSite};

/// Where a lock edge was introduced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeSite {
    /// Workspace-relative path of the function that closes the edge.
    pub path: String,
    /// Qualified name of that function.
    pub qual: String,
    /// The site of the held (first) lock's acquisition.
    pub first: LockSite,
    /// Line where the second lock is acquired (or the call that reaches
    /// it is made).
    pub line: u32,
    /// Column of that token.
    pub col: u32,
    /// Empty for a direct pair; the callee name for an edge introduced
    /// by a call under the guard.
    pub via_call: String,
}

/// One directed lock-order edge with its first witness site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockEdge {
    /// The held lock.
    pub from: String,
    /// The lock acquired under it.
    pub to: String,
    /// First witness for this edge (reports are deterministic: files
    /// are walked in sorted order).
    pub site: EdgeSite,
}

/// A function node in the workspace call graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnNode {
    /// Workspace-relative path of the defining file.
    pub path: String,
    /// Simple function name.
    pub name: String,
    /// Qualified name (`Scope::path::name`).
    pub qual: String,
    /// Index range into the flattened facts (file index, fn index).
    pub file_idx: usize,
    /// Index of this function within its file's facts.
    pub fn_idx: usize,
}

/// The workspace call graph plus the derived lock graph.
pub struct Workspace<'a> {
    /// The per-file facts, in sorted-path order.
    pub files: &'a [FileFacts],
    /// Flattened function nodes.
    pub fns: Vec<FnNode>,
    /// Simple name → indices into `fns`.
    pub by_name: BTreeMap<&'a str, Vec<usize>>,
    /// Callee indices per function (resolved by simple name).
    pub callees: Vec<Vec<usize>>,
}

impl<'a> Workspace<'a> {
    /// Builds the call graph over `files`.
    pub fn build(files: &'a [FileFacts]) -> Workspace<'a> {
        let total: usize = files.iter().map(|f| f.fns.len()).sum();
        let mut fns = Vec::with_capacity(total);
        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (file_idx, file) in files.iter().enumerate() {
            for (fn_idx, f) in file.fns.iter().enumerate() {
                by_name.entry(f.name.as_str()).or_default().push(fns.len());
                fns.push(FnNode {
                    path: file.rel_path.clone(),
                    name: f.name.clone(),
                    qual: f.qual.clone(),
                    file_idx,
                    fn_idx,
                });
            }
        }
        let mut callees = Vec::with_capacity(fns.len());
        for node in &fns {
            let f = &files[node.file_idx].fns[node.fn_idx];
            let mut out: Vec<usize> = Vec::with_capacity(f.calls.len());
            for callee in &f.calls {
                if let Some(targets) = by_name.get(callee.as_str()) {
                    out.extend_from_slice(targets);
                }
            }
            out.sort_unstable();
            out.dedup();
            callees.push(out);
        }
        Workspace {
            files,
            fns,
            by_name,
            callees,
        }
    }

    /// Per-function may-acquire sets (lock-id indices), to fixpoint over
    /// the call graph.
    fn may_acquire(&self, lock_ids: &BTreeMap<&str, usize>) -> Vec<BTreeSet<usize>> {
        let mut sets: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); self.fns.len()];
        for (i, node) in self.fns.iter().enumerate() {
            let f = &self.files[node.file_idx].fns[node.fn_idx];
            for a in &f.acquires {
                if let Some(&id) = lock_ids.get(a.id.as_str()) {
                    sets[i].insert(id);
                }
            }
        }
        // Reverse-propagate to fixpoint: callers absorb callees' sets.
        let mut changed = true;
        let mut rounds = 0usize;
        while changed && rounds < 64 {
            changed = false;
            rounds += 1;
            for i in 0..self.fns.len() {
                let mut add: Vec<usize> = Vec::with_capacity(4);
                for &c in &self.callees[i] {
                    if c == i {
                        continue;
                    }
                    for &id in &sets[c] {
                        if !sets[i].contains(&id) {
                            add.push(id);
                        }
                    }
                }
                if !add.is_empty() {
                    changed = true;
                    sets[i].extend(add);
                }
            }
        }
        sets
    }

    /// Builds the lock-order edge set: direct in-body pairs plus
    /// call-under-guard edges through may-acquire propagation.
    /// Self-edges (A held while A is re-acquired) are kept only for
    /// direct pairs — interprocedural self-edges are dominated by the
    /// name-based over-approximation, direct ones are a real
    /// double-acquire.
    pub fn lock_edges(&self) -> Vec<LockEdge> {
        // Stable lock-id universe.
        let mut lock_ids: BTreeMap<&str, usize> = BTreeMap::new();
        for file in self.files {
            for f in &file.fns {
                for a in &f.acquires {
                    let next = lock_ids.len();
                    lock_ids.entry(a.id.as_str()).or_insert(next);
                }
            }
        }
        let mut id_names: Vec<&str> = vec![""; lock_ids.len()];
        for (name, &id) in &lock_ids {
            id_names[id] = name;
        }
        let may = self.may_acquire(&lock_ids);
        let mut first_witness: BTreeMap<(String, String), EdgeSite> = BTreeMap::new();

        for node in &self.fns {
            let f = &self.files[node.file_idx].fns[node.fn_idx];
            for p in &f.pairs {
                let key = (p.first.id.clone(), p.second.id.clone());
                first_witness.entry(key).or_insert_with(|| EdgeSite {
                    path: node.path.clone(),
                    qual: node.qual.clone(),
                    first: p.first.clone(),
                    line: p.second.line,
                    col: p.second.col,
                    via_call: String::new(),
                });
            }
            for hc in &f.held_calls {
                let Some(targets) = self.by_name.get(hc.callee.as_str()) else {
                    continue;
                };
                for &t in targets {
                    for &acquired in &may[t] {
                        let to = id_names[acquired];
                        if to == hc.lock.id {
                            continue; // interprocedural self-edge: skip
                        }
                        let key = (hc.lock.id.clone(), to.to_string());
                        first_witness.entry(key).or_insert_with(|| EdgeSite {
                            path: node.path.clone(),
                            qual: node.qual.clone(),
                            first: hc.lock.clone(),
                            line: hc.line,
                            col: hc.col,
                            via_call: hc.callee.clone(),
                        });
                    }
                }
            }
        }
        first_witness
            .into_iter()
            .map(|((from, to), site)| LockEdge { from, to, site })
            .collect()
    }
}

/// One deadlock-risk cycle: the lock ids in order plus the witness edge
/// sites that close it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockCycle {
    /// Lock ids around the cycle (first repeated implicitly).
    pub locks: Vec<String>,
    /// The witness edges, one per hop.
    pub edges: Vec<LockEdge>,
}

/// Finds elementary cycles in the lock-order edge set. Each cycle is
/// reported once, canonicalized to start at its lexicographically
/// smallest lock id.
pub fn find_cycles(edges: &[LockEdge]) -> Vec<LockCycle> {
    let mut adj: BTreeMap<&str, Vec<&LockEdge>> = BTreeMap::new();
    for e in edges {
        adj.entry(e.from.as_str()).or_default().push(e);
    }
    let mut seen: BTreeSet<Vec<String>> = BTreeSet::new();
    let mut out: Vec<LockCycle> = Vec::with_capacity(4);

    // DFS from every node, tracking the path; a back-edge to the path
    // head closes an elementary cycle. Lock graphs here are tiny
    // (tens of nodes), so the simple enumeration is fine.
    fn dfs<'e>(
        node: &str,
        head: &str,
        adj: &BTreeMap<&str, Vec<&'e LockEdge>>,
        path: &mut Vec<&'e LockEdge>,
        on_path: &mut BTreeSet<String>,
        seen: &mut BTreeSet<Vec<String>>,
        out: &mut Vec<LockCycle>,
    ) {
        if path.len() > 16 {
            return;
        }
        let Some(nexts) = adj.get(node) else { return };
        for e in nexts {
            if e.to == head {
                let mut cycle_edges: Vec<LockEdge> = path.iter().map(|p| (*p).clone()).collect();
                cycle_edges.push((*e).clone());
                let mut locks: Vec<String> = cycle_edges.iter().map(|e| e.from.clone()).collect();
                // Canonical rotation for dedup.
                let min_pos = locks
                    .iter()
                    .enumerate()
                    .min_by_key(|&(_, l)| l.clone())
                    .map_or(0, |(i, _)| i);
                locks.rotate_left(min_pos);
                cycle_edges.rotate_left(min_pos);
                if seen.insert(locks.clone()) {
                    out.push(LockCycle {
                        locks,
                        edges: cycle_edges,
                    });
                }
            } else if !on_path.contains(&e.to) {
                on_path.insert(e.to.clone());
                path.push(e);
                dfs(&e.to, head, adj, path, on_path, seen, out);
                path.pop();
                on_path.remove(&e.to);
            }
        }
    }

    let heads: Vec<&str> = adj.keys().copied().collect();
    for head in heads {
        let mut path = Vec::with_capacity(8);
        let mut on_path: BTreeSet<String> = BTreeSet::new();
        on_path.insert(head.to_string());
        dfs(
            head,
            head,
            &adj,
            &mut path,
            &mut on_path,
            &mut seen,
            &mut out,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::syntax::extract;

    fn facts_of(files: &[(&str, &str)]) -> Vec<FileFacts> {
        files
            .iter()
            .map(|(path, src)| {
                let tokens = lex(src);
                let code: Vec<_> = tokens.iter().filter(|t| !t.is_comment()).cloned().collect();
                extract(path, src, &code, &[])
            })
            .collect()
    }

    #[test]
    fn call_graph_resolves_by_simple_name_across_files() {
        let files = facts_of(&[
            ("crates/a/src/lib.rs", "fn entry() { helper(); }\n"),
            (
                "crates/b/src/lib.rs",
                "fn helper() { leaf(); }\nfn leaf() {}\n",
            ),
        ]);
        let ws = Workspace::build(&files);
        let at = |name: &str| ws.fns.iter().position(|f| f.name == name).unwrap();
        assert_eq!(ws.callees[at("entry")], [at("helper")]);
        assert_eq!(ws.callees[at("helper")], [at("leaf")]);
        assert!(ws.callees[at("leaf")].is_empty());
    }

    #[test]
    fn direct_two_lock_cycle_is_found_with_both_sites() {
        let files = facts_of(&[(
            "crates/demo/src/locks.rs",
            "\
fn ab(a: &std::sync::Mutex<u32>, b: &std::sync::Mutex<u32>) {
    let g1 = a.lock();
    let g2 = b.lock();
}
fn ba(a: &std::sync::Mutex<u32>, b: &std::sync::Mutex<u32>) {
    let g2 = b.lock();
    let g1 = a.lock();
}
",
        )]);
        let ws = Workspace::build(&files);
        let edges = ws.lock_edges();
        let cycles = find_cycles(&edges);
        assert_eq!(cycles.len(), 1, "{cycles:?}");
        assert_eq!(cycles[0].locks, ["locks.a", "locks.b"]);
        let lines: Vec<u32> = cycles[0].edges.iter().map(|e| e.site.line).collect();
        assert_eq!(lines, [3, 7]);
    }

    #[test]
    fn interprocedural_edge_through_a_call_under_guard() {
        let files = facts_of(&[(
            "crates/demo/src/locks.rs",
            "\
fn outer(a: &std::sync::Mutex<u32>) {
    let g = a.lock();
    inner();
}
fn inner() {
    let g = B.lock();
}
fn other(a: &std::sync::Mutex<u32>) {
    let g = B.lock();
    let h = a.lock();
}
",
        )]);
        let ws = Workspace::build(&files);
        let edges = ws.lock_edges();
        assert!(
            edges
                .iter()
                .any(|e| e.from == "locks.a" && e.to == "locks.B" && e.site.via_call == "inner"),
            "{edges:?}"
        );
        let cycles = find_cycles(&edges);
        assert_eq!(cycles.len(), 1);
    }

    #[test]
    fn consistent_order_has_no_cycles() {
        let files = facts_of(&[(
            "crates/demo/src/locks.rs",
            "\
fn f1(a: &std::sync::Mutex<u32>, b: &std::sync::Mutex<u32>) {
    let g1 = a.lock();
    let g2 = b.lock();
}
fn f2(a: &std::sync::Mutex<u32>, b: &std::sync::Mutex<u32>) {
    let g1 = a.lock();
    let g2 = b.lock();
}
",
        )]);
        let ws = Workspace::build(&files);
        assert!(find_cycles(&ws.lock_edges()).is_empty());
    }
}
