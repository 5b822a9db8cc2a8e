//! Golden tests for the interprocedural pass: each fixture under
//! `tests/fixtures/graph/` is a miniature workspace with one planted
//! defect that only exists *across* function boundaries — every file is
//! clean under the per-file rules. The expectations pin the exact
//! `(rule, path, line, col)` and the full witness chain, so a resolver
//! regression that silently drops an edge fails loudly here.

use std::path::{Path, PathBuf};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/graph")
        .join(name)
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// One reported finding: `(path, rule, line, col, msg)`.
type Row = (String, String, u32, u32, String);

/// Run the interprocedural pass over a fixture and return the finding
/// rows plus the budget errors.
fn scan(root: &Path) -> (Vec<Row>, Vec<String>) {
    let report = mbp_lint::run_interprocedural(root, None, None).expect("fixture scan");
    let rows = report
        .findings
        .iter()
        .map(|(p, f)| (p.clone(), f.rule.to_string(), f.line, f.col, f.msg.clone()))
        .collect();
    (rows, report.budget_errors)
}

#[test]
fn planted_transitive_panic_chain_is_caught_with_exact_witness() {
    let (rows, budget_errors) = scan(&fixture("panic_chain"));
    assert_eq!(
        rows,
        vec![(
            "crates/core/src/curve_ops.rs".to_string(),
            "reach-panic".to_string(),
            7,
            10,
            "may-panic site (slice indexing) reachable from serve root: \
             dispatch -> price_helper -> deep_index"
                .to_string(),
        )],
    );
    assert_eq!(budget_errors.len(), 1, "{budget_errors:?}");
    assert!(
        budget_errors[0].contains("reach-panic"),
        "{budget_errors:?}"
    );
}

#[test]
fn planted_det_taint_chains_are_caught_at_the_det_scope_entry() {
    let (rows, budget_errors) = scan(&fixture("taint_chain"));
    assert_eq!(
        rows,
        vec![
            (
                "crates/core/src/adjust.rs".to_string(),
                "taint-det".to_string(),
                2,
                8,
                "det-scope `adjusted_price` reaches a nondeterminism source \
                 (Instant::now at crates/serve/src/clock.rs:4): adjusted_price -> wall_jitter"
                    .to_string(),
            ),
            (
                "crates/core/src/adjust.rs".to_string(),
                "taint-det".to_string(),
                6,
                8,
                "det-scope `tie_break` reaches a nondeterminism source \
                 (for-loop over hash-ordered `seen` at crates/serve/src/last_seen.rs:7): \
                 tie_break -> last_seen"
                    .to_string(),
            ),
        ],
    );
    assert_eq!(budget_errors.len(), 1, "{budget_errors:?}");
    assert!(budget_errors[0].contains("taint-det"), "{budget_errors:?}");
}

#[test]
fn planted_cross_function_lock_inversion_is_caught() {
    let (rows, budget_errors) = scan(&fixture("lock_inversion"));
    assert_eq!(
        rows,
        vec![(
            "crates/core/src/market/ledger_ext.rs".to_string(),
            "lock-graph".to_string(),
            12,
            14,
            "stripe 1 acquired while stripe 2 is held (descending order) \
             in `Ledger::settle` via Ledger::settle -> Ledger::tail"
                .to_string(),
        )],
    );
    assert_eq!(budget_errors.len(), 1, "{budget_errors:?}");
    assert!(budget_errors[0].contains("lock-graph"), "{budget_errors:?}");
}

/// The workspace itself must stay clean under the full interprocedural
/// pass with the checked-in baseline: zero graph findings, zero budget
/// errors. This is the self-hosting guarantee — the serve path is
/// transitively panic-free, the det crates are taint-free, and no lock
/// inversion exists across any call chain, as of this commit.
#[test]
fn repository_has_zero_graph_findings_under_checked_in_baseline() {
    let root = workspace_root();
    let baseline = root.join("lint.toml");
    let report = mbp_lint::run_interprocedural(&root, Some(&baseline), None).expect("repo scan");
    let graph_rows: Vec<_> = report
        .findings
        .iter()
        .filter(|(_, f)| mbp_lint::rules::GRAPH_RULE_IDS.contains(&f.rule))
        .collect();
    assert!(graph_rows.is_empty(), "graph findings: {graph_rows:?}");
    assert!(report.is_clean(), "{}", report.render());
}

/// `--graph-out` artifacts must carry the witness chains: the JSON names
/// every flagged function and its chain, the DOT file renders the kept
/// subgraph. Checked against a fixture so the artifact shape is pinned
/// without depending on the (large) repo graph.
#[test]
fn graph_artifacts_contain_witness_chains() {
    let dir = std::env::temp_dir().join("mbp_lint_interproc_artifacts");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let base = dir.join("graph");
    let _ = mbp_lint::run_interprocedural(&fixture("panic_chain"), None, Some(&base))
        .expect("fixture scan");
    let json = std::fs::read_to_string(base.with_extension("json")).expect("json artifact");
    let dot = std::fs::read_to_string(base.with_extension("dot")).expect("dot artifact");
    for name in ["dispatch", "price_helper", "deep_index"] {
        assert!(json.contains(name), "json artifact must mention {name}");
        assert!(dot.contains(name), "dot artifact must mention {name}");
    }
    assert!(
        json.contains("dispatch -> price_helper -> deep_index"),
        "json artifact must carry the witness chain"
    );
}
