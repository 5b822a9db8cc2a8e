//! The three interprocedural analyses over the workspace call graph.
//!
//! * [`analyze_reach_panic`] — transitive panic-freedom of the serve
//!   path. Roots (wire/conn dispatch, `quote_*`/`buy_*`/`price_at*`/
//!   `perturb*` entry points, `wal` `recover*`) must not reach any
//!   syntactic panic site or panic-capable std call.
//! * [`analyze_taint`] — determinism taint. Nondeterminism sources
//!   (clock reads, ambient RNG, hash-order iteration, thread ids) must
//!   not flow into the deterministic crates from *any* caller path.
//! * [`analyze_locks`] — lock order. Function summaries of acquired-guard
//!   sets are replayed at every call site; descending stripe acquisition
//!   (nested, or by constant index within one function), reverse walks
//!   over the stripes, stripes taken under the core write guard, and
//!   cycles in the global lock-order graph all fail.
//!
//! Every finding carries its witness: the call chain from a root (or a
//! det-scope function) to the offending site, rendered into the message
//! and exported in the `--graph-out` JSON artifact.

use crate::callgraph::CallGraph;
use crate::source::LockClass;
use crate::symbols::{BodyEvent, FnItem};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// One interprocedural finding. `chain` is the witness path as graph ids
/// (root-first for reachability findings, det-fn-first for taint).
#[derive(Debug, Clone)]
pub struct GraphFinding {
    pub rule: &'static str,
    pub rel_path: String,
    pub line: u32,
    pub col: u32,
    pub msg: String,
    pub chain: Vec<usize>,
}

/// Serve-path roots: the functions adversarial input can drive.
///
/// Name patterns bind at a word boundary — `buy` and `buy_batch_into`
/// are roots, `buyer_population` is not (it is sim-construction code,
/// not a wire entry point).
pub fn is_serve_root(f: &FnItem) -> bool {
    if f.is_test || is_harness(f) {
        return false;
    }
    if matches!(
        f.rel_path.as_str(),
        "crates/serve/src/wire.rs" | "crates/serve/src/conn.rs"
    ) {
        return true;
    }
    if f.rel_path.starts_with("crates/wal/src/") && f.name.starts_with("recover") {
        return true;
    }
    const PATTERNS: &[&str] = &["quote", "buy", "price_at", "perturb"];
    PATTERNS.iter().any(|p| {
        f.name
            .strip_prefix(p)
            .is_some_and(|rest| rest.is_empty() || rest.starts_with('_'))
    })
}

/// Development-harness crates: test oracles, benches (the `loadgen` load
/// generator is one of `mbp-bench`'s binaries), the CLI, and the linter
/// itself. They are dev-dependencies (or separate
/// binaries) that never link into the serving process, and their panics
/// are part of their contract — a test oracle *should* abort loudly on an
/// impossible state. They are excluded from `reach-panic` roots and
/// traversal so oracle assertions do not drown the serve-path report.
pub fn is_harness(f: &FnItem) -> bool {
    const PREFIXES: &[&str] = &[
        "crates/testkit/",
        "crates/bench/",
        "crates/cli/",
        "crates/lint/",
    ];
    PREFIXES.iter().any(|p| f.rel_path.starts_with(p))
}

/// Crates whose outputs must be a pure function of their inputs.
pub fn is_det_scope(f: &FnItem) -> bool {
    const PREFIXES: &[&str] = &[
        "crates/core/src/",
        "crates/randx/src/",
        "crates/optim/src/",
        "crates/ml/src/",
        "crates/linalg/src/",
        "crates/data/src/",
    ];
    PREFIXES.iter().any(|p| f.rel_path.starts_with(p))
}

/// Taint barriers: observability and benches read clocks by design, and
/// their results never flow back into computed values (spans and counters
/// return `()` or guard types consumed for timing only). A function can
/// also declare itself a barrier with `LINT-SCOPE(taint-det)` — used for
/// instrumentation shims whose time reads are provably dead to pricing.
pub fn is_taint_barrier(f: &FnItem) -> bool {
    f.rel_path.starts_with("crates/obs/src/")
        || f.rel_path.starts_with("crates/bench/")
        || f.scope_off.contains("taint-det")
}

/// Shortest-path parents from `roots` over forward edges. `parent[id]`
/// is the caller that first reached `id` (roots map to themselves).
fn bfs_forward(g: &CallGraph, roots: &[usize]) -> BTreeMap<usize, usize> {
    let mut parent: BTreeMap<usize, usize> = BTreeMap::new();
    let mut q = VecDeque::new();
    for &r in roots {
        parent.entry(r).or_insert(r);
        q.push_back(r);
    }
    while let Some(id) = q.pop_front() {
        for e in &g.edges[id] {
            for &t in &e.targets {
                if g.fns[t].is_test || is_harness(&g.fns[t]) {
                    continue;
                }
                parent.entry(t).or_insert_with(|| {
                    q.push_back(t);
                    id
                });
            }
        }
    }
    parent
}

/// Witness chain root → ... → `id` using BFS parents.
fn chain_to(parent: &BTreeMap<usize, usize>, id: usize) -> Vec<usize> {
    let mut chain = vec![id];
    let mut cur = id;
    while let Some(&p) = parent.get(&cur) {
        if p == cur {
            break;
        }
        chain.push(p);
        cur = p;
    }
    chain.reverse();
    chain
}

/// Transitive panic-freedom of the serve path.
pub fn analyze_reach_panic(g: &CallGraph) -> (Vec<GraphFinding>, BTreeSet<usize>) {
    let roots = g.ids_where(is_serve_root);
    let parent = bfs_forward(g, &roots);
    let mut findings = Vec::new();
    let mut flagged = BTreeSet::new();

    for &id in parent.keys() {
        let f = &g.fns[id];
        let chain = chain_to(&parent, id);
        if f.scope_off.contains("reach-panic") {
            // The annotation claims unreachability; reaching it here
            // falsifies the claim. One finding for the function, not one
            // per panic site — fixing reachability fixes them all.
            findings.push(GraphFinding {
                rule: "reach-panic",
                rel_path: f.rel_path.clone(),
                line: f.line,
                col: f.col,
                msg: format!(
                    "`{}` is annotated LINT-SCOPE(reach-panic) but IS reachable from a serve root: {}",
                    f.display(),
                    g.chain(&chain)
                ),
                chain,
            });
            flagged.insert(id);
            continue;
        }
        for p in &f.panics {
            findings.push(GraphFinding {
                rule: "reach-panic",
                rel_path: f.rel_path.clone(),
                line: p.line,
                col: p.col,
                msg: format!(
                    "may-panic site ({}) reachable from serve root: {}",
                    p.what(),
                    g.chain(&chain)
                ),
                chain: chain.clone(),
            });
            flagged.insert(id);
        }
        for e in &g.edges[id] {
            if e.std_panic {
                let call = &f.calls[e.call_idx];
                findings.push(GraphFinding {
                    rule: "reach-panic",
                    rel_path: f.rel_path.clone(),
                    line: call.line,
                    col: call.col,
                    msg: format!(
                        "call to panic-capable std `{}` reachable from serve root: {}",
                        call.name(),
                        g.chain(&chain)
                    ),
                    chain: chain.clone(),
                });
                flagged.insert(id);
            }
        }
    }
    let reachable: BTreeSet<usize> = parent.keys().copied().collect();
    (findings, reachable.union(&flagged).copied().collect())
}

/// Determinism taint: sources must not reach det-scope functions.
///
/// Reported at the det-scope *entry point* — the first det-scope function
/// on the path to the source — so one leak produces one finding, not one
/// per transitive caller.
pub fn analyze_taint(g: &CallGraph) -> (Vec<GraphFinding>, BTreeSet<usize>) {
    // Reverse adjacency.
    let mut radj: Vec<Vec<usize>> = vec![Vec::new(); g.fns.len()];
    for (id, edges) in g.edges.iter().enumerate() {
        for e in edges {
            for &t in &e.targets {
                radj[t].push(id);
            }
        }
    }
    // Seeds: non-test, non-barrier functions with a direct taint site.
    let seeds: Vec<usize> = g
        .fns
        .iter()
        .enumerate()
        .filter(|(_, f)| !f.is_test && !is_taint_barrier(f) && !f.taints.is_empty())
        .map(|(id, _)| id)
        .collect();
    // Propagate taint to callers; next_hop[caller] = callee toward seed.
    let mut next_hop: BTreeMap<usize, usize> = BTreeMap::new();
    let mut q = VecDeque::new();
    for &s in &seeds {
        next_hop.entry(s).or_insert(s);
        q.push_back(s);
    }
    while let Some(id) = q.pop_front() {
        for &caller in &radj[id] {
            let cf = &g.fns[caller];
            if cf.is_test || is_taint_barrier(cf) {
                continue;
            }
            next_hop.entry(caller).or_insert_with(|| {
                q.push_back(caller);
                id
            });
        }
    }

    let mut findings = Vec::new();
    let mut flagged = BTreeSet::new();
    for &id in next_hop.keys() {
        let f = &g.fns[id];
        if f.is_test || !is_det_scope(f) {
            continue;
        }
        // Entry point: directly tainted, or tainted via a non-det callee.
        let via = next_hop[&id];
        let is_entry = via == id || !is_det_scope(&g.fns[via]);
        if !is_entry {
            continue;
        }
        // Chain det fn → ... → seed.
        let mut chain = vec![id];
        let mut cur = id;
        while next_hop[&cur] != cur {
            cur = next_hop[&cur];
            chain.push(cur);
        }
        let seed = &g.fns[*chain.last().unwrap_or(&id)];
        let source = seed
            .taints
            .first()
            .map(|t| format!("{} at {}:{}", t.what(), seed.rel_path, t.line))
            .unwrap_or_else(|| "nondeterminism source".to_string());
        findings.push(GraphFinding {
            rule: "taint-det",
            rel_path: f.rel_path.clone(),
            line: f.line,
            col: f.col,
            msg: format!(
                "det-scope `{}` reaches a nondeterminism source ({}): {}",
                f.display(),
                source,
                g.chain(&chain)
            ),
            chain: chain.clone(),
        });
        flagged.insert(id);
    }
    let tainted: BTreeSet<usize> = next_hop.keys().copied().collect();
    (findings, tainted)
}

/// Lock order, within and across functions.
pub fn analyze_locks(g: &CallGraph) -> Vec<GraphFinding> {
    let n = g.fns.len();

    // --- Fixpoint: transitive acquire summaries -----------------------------
    // summary[f] = lock classes acquired at some point while f runs,
    // including callees. via[f][class] = the callee the class came through
    // (absent for direct acquisition) — used to build witness chains.
    let mut summary: Vec<BTreeSet<LockClass>> = vec![BTreeSet::new(); n];
    let mut via: Vec<BTreeMap<LockClass, usize>> = vec![BTreeMap::new(); n];
    for (id, f) in g.fns.iter().enumerate() {
        for c in &f.acquires {
            summary[id].insert(c.clone());
        }
    }
    let mut changed = true;
    while changed {
        changed = false;
        for id in 0..n {
            if g.fns[id].is_test {
                continue;
            }
            for e in &g.edges[id] {
                for &t in &e.targets {
                    if g.fns[t].is_test {
                        continue;
                    }
                    let classes: Vec<LockClass> = summary[t].iter().cloned().collect();
                    for c in classes {
                        if summary[id].insert(c.clone()) {
                            via[id].insert(c, t);
                            changed = true;
                        }
                    }
                }
            }
        }
    }

    // Witness: fn -> ... -> fn that directly acquires `class`.
    let acquire_chain = |mut id: usize, class: &LockClass| -> Vec<usize> {
        let mut chain = vec![id];
        while let Some(&next) = via[id].get(class) {
            if next == id {
                break;
            }
            chain.push(next);
            id = next;
        }
        chain
    };

    let mut findings = Vec::new();
    // Global lock-order edges between collapsed nodes, with provenance:
    // (held node, acquired node) -> (file, line, col, description).
    let mut order_edges: BTreeMap<(String, String), (String, u32, u32, String)> = BTreeMap::new();

    // --- Replay each body's events against held-guard state -----------------
    for (id, f) in g.fns.iter().enumerate() {
        if f.is_test {
            continue;
        }
        // (class, binding, depth): live guards. depth = block depth at bind
        // time; let-bound guards die when their block closes, temporaries
        // at statement end.
        let mut held: Vec<(LockClass, Option<String>, u32)> = Vec::new();
        let mut depth: u32 = 0;
        // The last constant stripe index this body acquired.
        let mut last_const: Option<i64> = None;
        let finding = |line, col, what: String| GraphFinding {
            rule: "lock-graph",
            rel_path: f.rel_path.clone(),
            line,
            col,
            msg: format!("{what} in `{}`", f.display()),
            chain: vec![id],
        };

        let check =
            |held: &[(LockClass, Option<String>, u32)],
             acquired: &LockClass,
             line: u32,
             col: u32,
             via_chain: Option<&Vec<usize>>,
             findings: &mut Vec<GraphFinding>,
             order_edges: &mut BTreeMap<(String, String), (String, u32, u32, String)>| {
                let suffix = match via_chain {
                    Some(chain) if chain.len() > 1 => format!(" via {}", g.chain(chain)),
                    _ => String::new(),
                };
                for (h, _, _) in held {
                    // Order edge (collapsed); self-edges carry no order info.
                    let (hn, an) = (h.order_node(), acquired.order_node());
                    if hn != an {
                        order_edges.entry((hn.clone(), an.clone())).or_insert((
                            f.rel_path.clone(),
                            line,
                            col,
                            format!("`{}` acquires {an} while holding {hn}{suffix}", f.display()),
                        ));
                    }
                    let violation = match (h, acquired) {
                        (LockClass::CoreWrite, a) if a.is_stripe() => Some(
                            "stripe mutex acquired while the core write guard is held".to_string(),
                        ),
                        (LockClass::StripeConst(i), LockClass::StripeConst(j)) if j <= i => {
                            Some(format!(
                                "stripe {j} acquired while stripe {i} is held (descending order)"
                            ))
                        }
                        (LockClass::StripeConst(_), LockClass::StripeAny) => {
                            Some("nested stripe acquisition with unprovable ordering".to_string())
                        }
                        (LockClass::StripeAny, a2) if a2.is_stripe() => {
                            Some("nested stripe acquisition with unprovable ordering".to_string())
                        }
                        _ => None,
                    };
                    if let Some(v) = violation {
                        let chain = via_chain.cloned().unwrap_or_else(|| vec![id]);
                        findings.push(GraphFinding {
                            rule: "lock-graph",
                            rel_path: f.rel_path.clone(),
                            line,
                            col,
                            msg: format!("{v} in `{}`{suffix}", f.display()),
                            chain,
                        });
                    }
                }
            };

        for ev in &f.events {
            match ev {
                BodyEvent::Open => depth += 1,
                BodyEvent::Close => {
                    depth = depth.saturating_sub(1);
                    held.retain(|(_, _, d)| *d <= depth);
                }
                BodyEvent::StmtEnd => held.retain(|(_, b, _)| b.is_some()),
                BodyEvent::DropName(name) => {
                    held.retain(|(_, b, _)| b.as_deref() != Some(name.as_str()));
                }
                BodyEvent::Acquire {
                    class,
                    binding,
                    line,
                    col,
                } => {
                    let before = findings.len();
                    check(
                        &held,
                        class,
                        *line,
                        *col,
                        None,
                        &mut findings,
                        &mut order_edges,
                    );
                    if let LockClass::StripeConst(idx) = *class {
                        // Constant indices ascend even when the guards do
                        // not overlap; a held-set finding at this site
                        // already covers a nested descent.
                        let unreported = findings.len() == before;
                        if let Some(last) = last_const.filter(|&last| idx < last && unreported) {
                            findings.push(finding(*line, *col, format!(
                                "stripe mutexes must be locked in ascending index order (stripe {idx} after stripe {last})"
                            )));
                        }
                        last_const = Some(idx);
                    }
                    held.push((class.clone(), binding.clone(), depth));
                }
                BodyEvent::ReverseStripes { line, col } => findings.push(finding(
                    *line,
                    *col,
                    "reverse iteration over ledger stripes violates the ascending lock order"
                        .to_string(),
                )),
                BodyEvent::Call(call_idx) => {
                    let call = &f.calls[*call_idx];
                    let e = g.edges[id].iter().find(|e| e.call_idx == *call_idx);
                    let Some(e) = e else { continue };
                    let mut callee_guard: Option<LockClass> = None;
                    for &t in &e.targets {
                        if g.fns[t].is_test {
                            continue;
                        }
                        let classes: Vec<LockClass> = summary[t].iter().cloned().collect();
                        for c in classes {
                            let mut chain = vec![id];
                            chain.extend(acquire_chain(t, &c));
                            check(
                                &held,
                                &c,
                                call.line,
                                call.col,
                                Some(&chain),
                                &mut findings,
                                &mut order_edges,
                            );
                        }
                        if g.fns[t].returns_guard {
                            // The callee hands its guard back to us: the
                            // first class it acquires stays held here.
                            callee_guard = callee_guard
                                .or_else(|| g.fns[t].acquires.first().cloned())
                                .or_else(|| summary[t].iter().next().cloned());
                        }
                    }
                    if let Some(c) = callee_guard {
                        held.push((c, None, depth));
                    }
                }
            }
        }
    }

    // --- Cycles in the global lock-order graph ------------------------------
    findings.extend(order_cycles(&order_edges));
    findings
}

/// DFS cycle detection over the collapsed order graph; one finding per
/// distinct cycle, positioned at the provenance of its closing edge.
fn order_cycles(
    edges: &BTreeMap<(String, String), (String, u32, u32, String)>,
) -> Vec<GraphFinding> {
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (from, to) in edges.keys() {
        adj.entry(from).or_default().push(to);
    }
    let mut findings = Vec::new();
    let mut reported: BTreeSet<BTreeSet<String>> = BTreeSet::new();
    let nodes: Vec<&str> = adj.keys().copied().collect();
    for &start in &nodes {
        // Iterative DFS tracking the path from `start`; a back-edge to
        // `start` closes a cycle.
        let mut stack: Vec<(&str, usize)> = vec![(start, 0)];
        let mut path: Vec<&str> = vec![start];
        let mut on_path: BTreeSet<&str> = [start].into();
        while let Some((node, idx)) = stack.last_mut() {
            let succs = adj.get(*node).map(Vec::as_slice).unwrap_or(&[]);
            if *idx >= succs.len() {
                on_path.remove(*node);
                path.pop();
                stack.pop();
                continue;
            }
            let next = succs[*idx];
            *idx += 1;
            if next == start {
                let key: BTreeSet<String> = path.iter().map(|s| s.to_string()).collect();
                if reported.insert(key) {
                    let closing = &edges[&(path.last().unwrap().to_string(), start.to_string())];
                    let cycle = {
                        let mut c = path.clone();
                        c.push(start);
                        c.join(" -> ")
                    };
                    findings.push(GraphFinding {
                        rule: "lock-graph",
                        rel_path: closing.0.clone(),
                        line: closing.1,
                        col: closing.2,
                        msg: format!("lock-order cycle {cycle}: {}", closing.3),
                        chain: Vec::new(),
                    });
                }
                continue;
            }
            if !on_path.contains(next) {
                on_path.insert(next);
                path.push(next);
                stack.push((next, 0));
            }
        }
    }
    findings
}

/// Run all three analyses; returns findings sorted in report order plus
/// the artifact inputs (interesting node set, flagged nodes, witnesses).
pub struct InterprocResult {
    pub findings: Vec<GraphFinding>,
    pub keep: BTreeSet<usize>,
    pub flagged: BTreeSet<usize>,
    pub witnesses: Vec<(String, String, Vec<usize>)>,
}

pub fn run_analyses(g: &CallGraph) -> InterprocResult {
    let (mut findings, reach_keep) = analyze_reach_panic(g);
    let (taint_findings, taint_keep) = analyze_taint(g);
    findings.extend(taint_findings);
    findings.extend(analyze_locks(g));
    findings.sort_by(|a, b| {
        (&a.rel_path, a.line, a.col, a.rule).cmp(&(&b.rel_path, b.line, b.col, b.rule))
    });

    let mut keep: BTreeSet<usize> = reach_keep;
    keep.extend(taint_keep);
    let mut flagged = BTreeSet::new();
    let mut witnesses = Vec::new();
    for f in &findings {
        if let Some(&last) = f.chain.last() {
            flagged.insert(last);
        }
        keep.extend(f.chain.iter().copied());
        witnesses.push((f.rule.to_string(), f.msg.clone(), f.chain.clone()));
    }
    InterprocResult {
        findings,
        keep,
        flagged,
        witnesses,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbols::parse_file;

    fn graph(files: &[(&str, &str)]) -> CallGraph {
        CallGraph::build(files.iter().map(|(p, s)| parse_file(p, s)).collect())
    }

    #[test]
    fn serve_root_patterns_bind_at_word_boundaries() {
        let g = graph(&[(
            "crates/core/src/market/agents.rs",
            "fn buy() {}\nfn buy_batch_into() {}\nfn buyer_population() {}\nfn quote_one() {}\n",
        )]);
        let roots: Vec<&str> = g
            .ids_where(is_serve_root)
            .into_iter()
            .map(|id| g.fns[id].name.as_str())
            .collect();
        assert_eq!(roots, ["buy", "buy_batch_into", "quote_one"]);
    }

    #[test]
    fn transitive_panic_is_found_with_witness_chain() {
        let g = graph(&[
            (
                "crates/serve/src/conn.rs",
                "fn dispatch(b: &Broker) { helper_a(); }\nfn helper_a() { helper_b(); }\n",
            ),
            (
                "crates/core/src/lookup.rs",
                "fn helper_b() -> f64 { let v = vec![1.0]; *v.last().unwrap() }\n",
            ),
        ]);
        let (findings, _) = analyze_reach_panic(&g);
        let hits: Vec<&GraphFinding> = findings
            .iter()
            .filter(|f| f.msg.contains("unwrap"))
            .collect();
        assert_eq!(hits.len(), 1, "{findings:?}");
        // Every conn.rs fn is itself a root, so the shortest witness
        // starts at `helper_a`, not at `dispatch`.
        assert!(
            hits[0].msg.contains("helper_a -> helper_b"),
            "{}",
            hits[0].msg
        );
        assert_eq!(hits[0].rel_path, "crates/core/src/lookup.rs");
    }

    #[test]
    fn taint_reported_at_det_entry_point_only() {
        let g = graph(&[
            (
                "crates/core/src/pricing.rs",
                "fn outer() -> f64 { inner() }\nfn inner() -> f64 { helper() }\n",
            ),
            (
                "crates/serve/src/server.rs",
                "fn helper() -> f64 { let t = Instant::now(); 1.0 }\n",
            ),
        ]);
        let (findings, _) = analyze_taint(&g);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].msg.contains("`inner`"));
        assert!(findings[0].msg.contains("Instant::now"));
        assert!(findings[0].msg.contains("inner -> helper"));
    }

    #[test]
    fn obs_crate_is_a_taint_barrier() {
        let g = graph(&[
            (
                "crates/core/src/pricing.rs",
                "fn hot() -> f64 { span_enter(); 1.0 }\n",
            ),
            (
                "crates/obs/src/span.rs",
                "fn span_enter() { let t = Instant::now(); }\n",
            ),
        ]);
        let (findings, _) = analyze_taint(&g);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn cross_function_descending_stripes_are_caught() {
        let g = graph(&[(
            "crates/core/src/market/concurrent.rs",
            r#"
fn settle(s: &Shared) {
    let g1 = s.inner.stripes[1].lock();
    flush_low(s);
}
fn flush_low(s: &Shared) {
    let g0 = s.inner.stripes[0].lock();
}
"#,
        )]);
        let findings = analyze_locks(&g);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].msg.contains("descending"));
        assert!(findings[0].msg.contains("settle -> flush_low"));
    }

    /// Lock patterns the broker relies on, each a zero-finding input.
    #[test]
    fn clean_lock_patterns_have_no_findings() {
        let cases = [
            // The `with_broker` idiom: stripe guards drained inside the
            // loop body die at the iteration close; the core write that
            // follows holds no stripe.
            r#"
fn with_broker(s: &Shared) {
    for stripe in s.inner.stripes.iter() {
        let mut guard = stripe.lock();
        guard.clear();
    }
    let mut core = s.inner.core.write();
    core.apply();
}
"#,
            // The same drain through a stripe temporary.
            r#"
fn f(s: &Shared) {
    let mut drained = Vec::new();
    for stripe in s.inner.stripes.iter() {
        drained.append(&mut *stripe.lock());
    }
    let mut core = s.inner.core.write();
    core.settle(drained);
}
"#,
            // A core read guard is not the write guard.
            r#"
fn f(s: &Shared) {
    let core = s.inner.core.read();
    let total: f64 = s.inner.stripes.iter().map(|x| x.lock().len() as f64).sum();
    drop(core);
    let _ = total;
}
"#,
            // The concurrent ledger wraps a contended stripe acquisition in
            // an `mbp.core.lock_wait` span; the RAII span guards must not
            // confuse the ascending-stripe order check.
            r#"
fn f(s: &Shared) {
    let _wait = mbp_obs::span("mbp.core.lock_wait");
    let a = s.inner.stripes[0].lock();
    drop(_wait);
    let _root = mbp_obs::trace_root("mbp.core.buy", "linear_regression", "gaussian");
    let b = s.inner.stripes[1].lock();
    let _ = (a, b);
}
"#,
        ];
        for src in cases {
            let g = graph(&[("crates/core/src/market/concurrent.rs", src)]);
            let findings = analyze_locks(&g);
            assert!(findings.is_empty(), "{src}: {findings:?}");
        }
    }

    #[test]
    fn guard_returning_callee_extends_held_set() {
        let g = graph(&[(
            "crates/core/src/market/concurrent.rs",
            r#"
impl Ledger {
    fn lock_next_stripe(&self) -> MutexGuard<'_, Vec<Tx>> {
        let stripe = &self.inner.stripes[0];
        stripe.lock()
    }
    fn record(&self) {
        let mut guard = self.lock_next_stripe();
        let w = self.inner.core.write();
    }
}
"#,
        )]);
        let findings = analyze_locks(&g);
        // Holding a stripe while taking the core write lock creates the
        // stripe -> core.write order edge; with no reverse edge there is
        // no cycle, and stripe-then-core is not itself a violation.
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn lock_order_cycle_across_functions_is_caught() {
        let g = graph(&[(
            "crates/wal/src/log.rs",
            r#"
fn a(s: &S) {
    let w = s.writer.lock();
    b_inner(s);
}
fn b_inner(s: &S) {
    let f = s.flusher.lock();
}
fn c(s: &S) {
    let f = s.flusher.lock();
    d_inner(s);
}
fn d_inner(s: &S) {
    let w = s.writer.lock();
}
"#,
        )]);
        let findings = analyze_locks(&g);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].msg.contains("lock-order cycle"));
        assert!(
            findings[0].msg.contains("mutex:writer") && findings[0].msg.contains("mutex:flusher")
        );
    }
}
