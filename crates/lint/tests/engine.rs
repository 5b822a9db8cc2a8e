//! Integration tests for the mbp-lint rule engine.
//!
//! Each fixture under `tests/fixtures/` exercises one rule; the assertions
//! pin the exact `(rule, line, col)` triples so any drift in tokenizer or
//! rule logic shows up as a diff, not a silent behavior change. Fixtures
//! are analyzed with [`ScopeMode::AllRules`], the mode the fixtures and
//! unit tests use to sidestep the repo's path-based scoping.

use mbp_lint::{lint_source, FileReport, ScopeMode};
use std::path::Path;

fn lint_fixture(name: &str) -> FileReport {
    let path = format!("{}/tests/fixtures/{name}.rs", env!("CARGO_MANIFEST_DIR"));
    let src =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading fixture {name}: {e}"));
    lint_source(&format!("{name}.rs"), &src, ScopeMode::AllRules)
}

/// The `(rule, line, col)` triples of a report, in emission order.
fn triples(report: &FileReport) -> Vec<(&str, u32, u32)> {
    report
        .findings
        .iter()
        .map(|f| (f.rule, f.line, f.col))
        .collect()
}

#[test]
fn det_fixture_pins_every_nondeterminism_site() {
    let rep = lint_fixture("det");
    assert_eq!(
        triples(&rep),
        vec![
            ("det", 6, 5),   // SystemTime::now()
            ("det", 10, 5),  // Instant::now()
            ("det", 16, 20), // m.iter()
            ("det", 19, 21), // for _ in &m
            ("det", 26, 18), // thread::current().id()
        ]
    );
    assert!(rep.waivers_used.is_empty());
}

#[test]
fn panic_fixture_pins_indexing_unwrap_expect_macro_and_zero_divisor() {
    let rep = lint_fixture("panic");
    assert_eq!(
        triples(&rep),
        vec![
            ("panic", 4, 7),  // xs[0]
            ("panic", 8, 9),  // .unwrap()
            ("panic", 12, 9), // .expect()
            ("panic", 16, 5), // panic!()
            ("panic", 20, 7), // n % 0
        ]
    );
}

#[test]
fn float_fixture_pins_eq_ne_and_partial_cmp_chain() {
    let rep = lint_fixture("float");
    assert_eq!(
        triples(&rep),
        vec![
            ("float", 4, 7),   // a == 0.5
            ("float", 8, 7),   // b != 1.5
            ("float", 12, 7),  // partial_cmp().unwrap()
            ("panic", 12, 23), // the same .unwrap() is also a panic site
        ]
    );
}

/// The branchless quote-kernel idioms — conditional-move selects via
/// arithmetic on `bool`, Eytzinger descent with `usize::from`, checked
/// permutation scatter — must produce zero findings under every rule.
/// This pins the lint's blind spot deliberately: replacing a branch with
/// `usize::from(cond)` arithmetic must never require a waiver.
#[test]
fn branchless_fixture_is_clean_without_waivers() {
    let rep = lint_fixture("branchless");
    assert_eq!(triples(&rep), vec![]);
    assert!(rep.waivers_used.is_empty());
}

#[test]
fn cast_fixture_flags_narrowing_and_skips_widening_and_waived() {
    let rep = lint_fixture("cast");
    assert_eq!(
        triples(&rep),
        vec![
            ("cast", 4, 31), // payload_len as u32
            ("cast", 9, 15), // msg.len() as u16
        ]
    );
    assert_eq!(rep.waivers_used.get("cast"), Some(&1));
}

#[test]
fn safety_fixture_flags_only_the_undocumented_unsafe() {
    let rep = lint_fixture("safety");
    assert_eq!(triples(&rep), vec![("safety", 4, 5)]);
}

#[test]
fn waiver_suppresses_exactly_one_finding() {
    let rep = lint_fixture("waiver");
    // The waiver on line 7 covers the unwrap on line 8 and nothing else:
    // the twin unwrap on line 9 still fires.
    assert_eq!(
        triples(&rep),
        vec![
            ("panic", 9, 20),  // second.unwrap() — NOT covered by the waiver
            ("lint", 14, 5),   // stale waiver with no matching finding
            ("lint", 19, 5),   // malformed waiver (unknown rule id)
            ("panic", 20, 11), // third.unwrap() — malformed waiver waives nothing
        ]
    );
    assert_eq!(rep.waivers_used.get("panic"), Some(&1));
}

/// The workspace itself must lint clean against the checked-in baseline —
/// the same run CI gates on with `cargo run -p mbp-lint`. This is also the
/// self-hosting guarantee of the graph rules: the serve path is
/// transitively panic-free, the det crates are taint-free, and no lock
/// inversion exists across any call chain, as of this commit.
#[test]
fn repository_is_clean_under_checked_in_baseline() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root");
    let baseline = root.join("lint.toml");
    let report =
        mbp_lint::run(&root, Some(&baseline), ScopeMode::Repo, None).expect("scan workspace");
    let graph_rows: Vec<_> = report
        .findings
        .iter()
        .filter(|(_, f)| mbp_lint::rules::GRAPH_RULE_IDS.contains(&f.rule))
        .collect();
    assert!(graph_rows.is_empty(), "graph findings: {graph_rows:?}");
    assert!(
        report.is_clean(),
        "workspace has lint findings:\n{}",
        report.render()
    );
    // The ratchet's hard floor: determinism findings are never waivable,
    // so none may be in use anywhere in the workspace. Lock order is the
    // graph rule `lock-graph`, which no waiver can name.
    assert_eq!(report.waivers_used.get("det"), None);
    assert_eq!(report.waivers_used.get("lock"), None);
}
