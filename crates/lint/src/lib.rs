//! mbp-lint: zero-dependency static analysis for the mbp workspace.
//!
//! The compiler cannot see the invariants this reproduction rests on:
//! arbitrage-freeness proofs assume deterministic replay, the serve path
//! (`quote`/`buy`/`*_into`) must not panic on adversarial input, and the
//! `SharedBroker` settlement protocol is deadlock-free only while stripe
//! mutexes are taken in ascending order and never under the core write
//! lock. `mbp-lint` walks every `.rs` file in the workspace with its own
//! lexer (comment/string/lifetime-aware — see [`lexer`]) and enforces
//! those invariants lexically.
//!
//! ## One run over one lexed file
//!
//! [`run`] reads, tokenizes and masks each file once into a [`Source`].
//! The per-file rules ([`rules`]) check it alone; it is also parsed into a
//! symbol model ([`symbols`]), and the models are linked into a call graph
//! ([`callgraph`]) that `reach-panic`, `taint-det` and `lock-graph` run
//! over ([`dataflow`]). Panic, taint and lock sites have one detector
//! each, in [`source`]: the per-file `panic`/`det` rules report the first
//! two inside their path scopes, and the graph rules start from all
//! three.
//!
//! ## Waivers and the baseline ratchet
//!
//! A finding is suppressed by an inline waiver comment on the same line
//! or the line directly above:
//!
//! ```text
//! // LINT-ALLOW(panic): idx < LEDGER_STRIPES by the modulo above
//! ```
//!
//! Each waiver suppresses **exactly one** finding; a second finding on
//! the same line needs its own waiver, and a waiver with no matching
//! finding is itself an error (so stale waivers cannot linger). The
//! number of live waivers per rule is capped by the `[waivers]` table in
//! `lint.toml` at the workspace root: exceeding a budget fails the run,
//! and unused headroom prints a shrink notice, so the baseline only
//! ratchets downward. Determinism (`det`) findings carry a budget of
//! zero by policy — they must be fixed, never waived — and the graph
//! rules, lock order among them, cannot be waived at all.

pub mod callgraph;
pub mod config;
pub mod dataflow;
pub mod lexer;
pub mod rules;
pub mod source;
pub mod symbols;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub use config::Baseline;
pub use rules::{Finding, ScopeMode};
use source::Source;

/// Outcome of linting one file after waiver application.
#[derive(Debug, Default)]
pub struct FileReport {
    /// Findings not covered by a waiver (includes malformed/unused-waiver
    /// findings under the synthetic `lint` rule).
    pub findings: Vec<Finding>,
    /// Consumed waivers per rule.
    pub waivers_used: BTreeMap<String, usize>,
}

/// Lint a single source string: run the rules, then apply waivers.
pub fn lint_source(rel_path: &str, src: &str, mode: ScopeMode) -> FileReport {
    let toks = lexer::tokenize(src);
    lint_file(&Source::new(rel_path, src, &toks, mode))
}

/// Lint one lexed file: run the rules, then apply its waivers.
///
/// Waiver semantics: findings are processed in (line, col) order; each
/// looks for an unconsumed waiver of its rule on its own line first, then
/// on the line directly above. Leftover waivers become `lint` findings.
fn lint_file(file: &Source) -> FileReport {
    let waivers = &file.waivers;
    let mut consumed = vec![false; waivers.len()];
    let mut report = FileReport::default();

    for f in rules::analyze(file) {
        let mut waived = false;
        for offset in [0u32, 1u32] {
            let want = f.line.saturating_sub(offset);
            if want == 0 || (offset == 1 && want == f.line) {
                continue;
            }
            if let Some(w) = waivers
                .iter()
                .enumerate()
                .find(|(i, w)| !consumed[*i] && w.valid && w.rule == f.rule && w.line == want)
                .map(|(i, _)| i)
            {
                consumed[w] = true;
                *report.waivers_used.entry(f.rule.to_string()).or_insert(0) += 1;
                waived = true;
                break;
            }
        }
        if !waived {
            report.findings.push(f);
        }
    }
    for (i, w) in waivers.iter().enumerate() {
        if !w.valid {
            report.findings.push(Finding {
                rule: "lint",
                line: w.line,
                col: w.col,
                msg: "malformed waiver: expected `LINT-ALLOW(<rule>): <reason>` with a known rule id and a non-empty reason".to_string(),
            });
        } else if !consumed[i] {
            report.findings.push(Finding {
                rule: "lint",
                line: w.line,
                col: w.col,
                msg: format!(
                    "unused LINT-ALLOW({}) waiver — no matching finding on this or the next line; delete it",
                    w.rule
                ),
            });
        }
    }
    report.findings.sort_by_key(|f| (f.line, f.col));
    report
}

/// Aggregate report over a workspace run.
#[derive(Debug, Default)]
pub struct Report {
    /// `(relative path, finding)`, sorted by path then position.
    pub findings: Vec<(String, Finding)>,
    /// Consumed waivers per rule across all files.
    pub waivers_used: BTreeMap<String, usize>,
    /// Budget violations (waivers used > lint.toml budget).
    pub budget_errors: Vec<String>,
    /// Non-fatal notices (e.g. shrinkable budgets).
    pub notices: Vec<String>,
    pub files_scanned: usize,
}

impl Report {
    /// True when the run should exit 0.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty() && self.budget_errors.is_empty()
    }

    /// Render the findings report (the CI artifact format).
    pub fn render(&self) -> String {
        let mut s = String::new();
        for (path, f) in &self.findings {
            let _ = writeln!(s, "{path}:{}:{} [{}] {}", f.line, f.col, f.rule, f.msg);
        }
        for e in &self.budget_errors {
            let _ = writeln!(s, "error: {e}");
        }
        for n in &self.notices {
            let _ = writeln!(s, "note: {n}");
        }
        let used: usize = self.waivers_used.values().sum();
        let _ = writeln!(
            s,
            "mbp-lint: {} finding{}, {} waiver{} in use across {} files",
            self.findings.len(),
            if self.findings.len() == 1 { "" } else { "s" },
            used,
            if used == 1 { "" } else { "s" },
            self.files_scanned,
        );
        s
    }
}

/// Directories never descended into. `fixtures` under a `tests` directory
/// holds deliberately-violating lint fixtures; `corpus` holds testkit
/// counterexample data.
fn skip_dir(name: &str, parent: &str) -> bool {
    matches!(name, "target" | "vendor" | ".git" | "corpus")
        || (name == "fixtures" && parent == "tests")
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<_> = fs::read_dir(dir)?
        .collect::<io::Result<Vec<_>>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            let parent = dir.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if !skip_dir(name, parent) {
                collect_rs_files(&path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn load_baseline(root: &Path, baseline_path: Option<&Path>) -> io::Result<Baseline> {
    let default_baseline = root.join("lint.toml");
    match fs::read_to_string(baseline_path.unwrap_or(&default_baseline)) {
        Ok(text) => config::parse(&text).map_err(io::Error::other),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(Baseline::default()),
        Err(e) => Err(e),
    }
}

/// Walk the tree once: read, tokenize and mask each file once, run the
/// per-file rules on it and check their waiver budgets, report its
/// malformed `LINT-SCOPE` annotations and parse its symbol model from the
/// same [`Source`].
fn scan(
    root: &Path,
    baseline: &Baseline,
    mode: ScopeMode,
) -> io::Result<(Report, Vec<symbols::FileModel>)> {
    let mut files = Vec::new();
    collect_rs_files(root, &mut files)?;

    let mut report = Report {
        files_scanned: files.len(),
        ..Report::default()
    };
    let mut parsed = Vec::new();
    for path in &files {
        let text = fs::read_to_string(path)?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let toks = lexer::tokenize(&text);
        let file = Source::new(&rel, &text, &toks, mode);
        let file_report = lint_file(&file);
        for f in file_report.findings {
            report.findings.push((rel.clone(), f));
        }
        for (rule, n) in file_report.waivers_used {
            *report.waivers_used.entry(rule).or_insert(0) += n;
        }
        for a in file.annotations.iter().filter(|a| !a.valid) {
            report.findings.push((
                rel.clone(),
                Finding {
                    rule: "lint",
                    line: a.line,
                    col: a.col,
                    msg: "malformed scope annotation: expected `LINT-SCOPE(<graph-rule>): <reason>` with a known graph rule id and a non-empty reason".to_string(),
                },
            ));
        }
        parsed.push(symbols::parse(&file));
    }

    for rule in rules::RULE_IDS {
        let used = report.waivers_used.get(*rule).copied().unwrap_or(0);
        let budget = baseline.budget(rule);
        if used > budget {
            report.budget_errors.push(format!(
                "waiver budget exceeded for rule `{rule}`: {used} in use > {budget} allowed by lint.toml — fix the finding instead of waiving it"
            ));
        } else if used < budget {
            report.notices.push(format!(
                "rule `{rule}` uses {used} of {budget} budgeted waivers; shrink lint.toml to {used}"
            ));
        }
    }
    Ok((report, parsed))
}

/// Run the workspace lint rooted at `root`: the per-file rules and their
/// waiver budgets, then the call graph and the `reach-panic` /
/// `taint-det` / `lock-graph` analyses (see [`dataflow`]) with their
/// `[graph]` budgets (pinned at 0). One walk of the tree feeds both: each
/// file is read, tokenized and masked once.
///
/// The baseline is read from `baseline_path` (default `<root>/lint.toml`;
/// a missing file means all budgets are zero). `ScopeMode::AllRules`
/// applies every per-file rule to every scanned file regardless of its
/// path — the mode the fixtures under `crates/lint/tests/fixtures/` are
/// checked with (via the binary's `--all-rules` flag).
///
/// When `graph_out` is given, writes `<graph_out>.json` and
/// `<graph_out>.dot`: the call graph restricted to serve-reachable and
/// tainted nodes, with every finding's witness chain.
pub fn run(
    root: &Path,
    baseline_path: Option<&Path>,
    mode: ScopeMode,
    graph_out: Option<&Path>,
) -> io::Result<Report> {
    let baseline = load_baseline(root, baseline_path)?;
    let (mut report, models) = scan(root, &baseline, mode)?;

    let graph = callgraph::CallGraph::build(models);
    let result = dataflow::run_analyses(&graph);

    let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
    for gf in &result.findings {
        *counts.entry(gf.rule).or_insert(0) += 1;
    }
    for rule in rules::GRAPH_RULE_IDS {
        let found = counts.get(*rule).copied().unwrap_or(0);
        let budget = baseline.graph_budget(rule);
        if found > budget {
            report.budget_errors.push(format!(
                "graph budget exceeded for rule `{rule}`: {found} findings > {budget} allowed by lint.toml — fix along the witness chain, never waive"
            ));
        }
    }
    for gf in result.findings {
        report.findings.push((
            gf.rel_path,
            Finding {
                rule: gf.rule,
                line: gf.line,
                col: gf.col,
                msg: gf.msg,
            },
        ));
    }
    report
        .findings
        .sort_by(|a, b| (&a.0, a.1.line, a.1.col).cmp(&(&b.0, b.1.line, b.1.col)));

    if let Some(base) = graph_out {
        let json = graph.to_json(&result.keep, &result.witnesses);
        let dot = graph.to_dot(&result.keep, &result.flagged);
        fs::write(base.with_extension("json"), json)?;
        fs::write(base.with_extension("dot"), dot)?;
    }
    Ok(report)
}
