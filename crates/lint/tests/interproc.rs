//! Golden tests for the graph rules: each fixture under
//! `tests/fixtures/graph/` is a miniature workspace with planted defects
//! that only the call-graph analyses report — `panic_chain`, `taint_chain`
//! and `lock_inversion` exist only *across* function boundaries, and
//! `lock_order` pins the lock-order cases inside one function. The
//! expectations pin the exact `(rule, path, line, col)` and the full
//! witness chain, so a resolver regression that silently drops an edge
//! fails loudly here.

use mbp_lint::ScopeMode;
use std::path::{Path, PathBuf};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/graph")
        .join(name)
}

/// One reported finding: `(path, rule, line, col, msg)`.
type Row = (String, String, u32, u32, String);

/// Lint a fixture workspace and return the finding rows plus the budget
/// errors.
fn scan(root: &Path) -> (Vec<Row>, Vec<String>) {
    let report = mbp_lint::run(root, None, ScopeMode::Repo, None).expect("fixture scan");
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

/// Lock order inside one function: every case the retired per-file `lock`
/// rule reported, and the stripe aliases it knew that the graph now types
/// as stripes (a loop variable under a held stripe, a let-bound stripe
/// under the core write guard).
#[test]
fn lock_order_cases_are_caught_in_one_function() {
    let (rows, budget_errors) = scan(&fixture("lock_order"));
    let path = "crates/core/src/market/lock_order.rs";
    let row = |line, col, msg: &str| {
        (
            path.to_string(),
            "lock-graph".to_string(),
            line,
            col,
            msg.to_string(),
        )
    };
    assert_eq!(
        rows,
        vec![
            row(
                8,
                13,
                "stripe mutex acquired while the core write guard is held \
                 in `stripe_under_core_write`"
            ),
            row(
                14,
                13,
                "stripe 0 acquired while stripe 1 is held (descending order) \
                 in `descending_stripes`"
            ),
            row(
                21,
                10,
                "stripe mutexes must be locked in ascending index order \
                 (stripe 0 after stripe 1) in `descending_without_overlap`"
            ),
            row(
                25,
                41,
                "reverse iteration over ledger stripes violates the ascending \
                 lock order in `reverse_walk`"
            ),
            row(
                32,
                20,
                "nested stripe acquisition with unprovable ordering \
                 in `loop_under_held_stripe`"
            ),
            row(
                40,
                15,
                "stripe mutex acquired while the core write guard is held \
                 in `let_alias_under_write`"
            ),
        ],
    );
    assert_eq!(budget_errors.len(), 1, "{budget_errors:?}");
    assert!(budget_errors[0].contains("lock-graph"), "{budget_errors:?}");
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
    let _ = mbp_lint::run(&fixture("panic_chain"), None, ScopeMode::Repo, Some(&base))
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
