//! The `mbp-market` subcommand implementations.
//!
//! Each command returns its report as a `String` (printed by `main`), which
//! keeps the commands unit-testable without capturing stdout.

use crate::args::{ArgError, Args};
use mbp_core::arbitrage::audit;
use mbp_core::market::curves::{DemandCurve, DemandShape, ValueCurve, ValueShape};
use mbp_core::market::simulation::SimulationOutcome;
use mbp_core::pricing::PricingFunction;
use mbp_core::revenue::{affordability, revenue, solve_bv_dp_fair, Baseline, BuyerPoint};
use mbp_data::{catalog, csv, stats, Dataset};
use mbp_linalg::Vector;
use mbp_ml::metrics::{evaluate_classification, evaluate_regression, EvalReport};
use mbp_ml::train::{gradient_descent, newton_logistic, ridge_closed_form, TrainConfig};
use mbp_ml::{LogisticLoss, ModelKind, SmoothedHingeLoss};
use mbp_randx::seeded_rng;
use std::fmt::Write as _;
use std::path::Path;

/// Top-level CLI error.
#[derive(Debug)]
pub enum CliError {
    /// Argument problem.
    Args(ArgError),
    /// I/O or CSV problem.
    Data(String),
    /// Anything the market/trainers raised.
    Market(String),
    /// Unknown subcommand.
    UnknownCommand(String),
    /// Static-analysis findings (the rendered report).
    Lint(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Args(e) => write!(f, "{e}"),
            CliError::Data(e) => write!(f, "{e}"),
            CliError::Market(e) => write!(f, "{e}"),
            CliError::UnknownCommand(c) => {
                write!(f, "unknown command {c:?}; run with no arguments for usage")
            }
            CliError::Lint(report) => write!(f, "{report}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<ArgError> for CliError {
    fn from(e: ArgError) -> Self {
        CliError::Args(e)
    }
}

/// Usage text.
pub fn usage() -> String {
    "\
mbp-market — a model-based pricing marketplace (SIGMOD'19 reproduction)

USAGE: mbp-market <COMMAND> [--flag value ...]

COMMANDS:
  catalog                         print the Table 3 dataset catalog
  summarize --csv F               dataset summary statistics
  train     --csv F --model M     train the optimal model instance
            [--ridge MU] [--eval-csv F2]
  price     --csv F               derive arbitrage-free DP pricing
            [--grid lo,hi,n] [--value SHAPE] [--vmin V] [--vmax V]
            [--demand SHAPE] [--lambda L] [--out PRICES_TSV]
  audit     --prices F            audit a pricing curve (TSV: x<TAB>price)
  attack    --prices F            fuzz a pricing curve for arbitrage
            [--seed S] [--trials N] (monotonicity, subadditivity, budget
            [--bundle K]            round-trips) and cross-check all
            [--corpus F]            evaluators differentially; replays and
                                    extends a regression corpus file
  sell      --csv F --model M     train, price, and release one noisy
            --budget P [--grid lo,hi,n] [--seed S] [--out MODEL_TSV]
                                  instance within budget
  simulate  [--csv F] [--model M] publish the derived arbitrage-free
            [--buyers N] [--jitter J] pricing and run a Monte-Carlo selling
            [--grid lo,hi,n] [--seed S] season against the listing, buyers
            [--ridge MU] [--lambda L]   sharded across worker threads
                                        (deterministic in the seed at any
                                        thread count; synthetic Simulated1
                                        data when no CSV is given)
  trace     [--buyers N] [--seed S] run a traced synthetic selling season
            [--grid lo,hi,n]        and dump the flight recorder: span
            [--slow-threshold-us T] summary, tail-latency exemplars (with
            [--out TRACE_JSON]      replay seeds), and the Chrome
            [--jsonl SPANS_JSONL]   trace_event JSON (inline unless --out)
  predict   --model MODEL_TSV     score a CSV with a saved model instance
            --csv F
  serve     [--port P] [--host H]  boot the TCP marketplace daemon: trains
            [--metrics-port P]     and publishes one listing (synthetic
            [--csv F] [--model M]  data unless --csv; priced 10·√x over
            [--seed S] [--ridge MU] --grid), then serves quote/buy/publish
            [--grid lo,hi,n]       over the length-prefixed wire protocol
            [--queue-limit N]      until a Shutdown frame or SIGTERM
            [--idle-timeout-ms T]  drains it; --metrics-port exposes
            [--no-batch]           GET /metrics (Prometheus); --no-batch
            [--wal DIR]            disables batch admission (baseline);
                                   --wal appends every market mutation to
                                   a durable write-ahead log in DIR and
                                   replays any existing log on boot
  replay    --wal DIR             re-run a captured WAL read-only: fold
            [--curve C1,C2,...]    the surviving history and report
            [--grid lo,hi,n]       counterfactual revenue per pricing
                                   scheme (built-ins sqrt/linear, or a
                                   TSV path) plus a determinism digest;
                                   torn tails truncate, corrupt records
                                   skip with a count, never an error
  lint      [--root DIR]          static-analysis pass over the workspace
            [--baseline FILE]     (determinism, panic-freedom, float
            [--interprocedural]   discipline, lock order, unsafe audit,
            [--graph-out BASE]    narrowing casts); --interprocedural adds
                                  the whole-workspace call-graph analyses
                                  (reach-panic, taint-det, lock-graph) and
                                  --graph-out writes BASE.json/BASE.dot
                                  witness artifacts; exits non-zero on any
                                  finding beyond the lint.toml baseline

GLOBAL FLAGS (every command):
  --threads N          thread-pool size for parallel hot paths (default:
                       MBP_THREADS env var, else the hardware parallelism)
  --metrics-out PATH   write a JSON metrics snapshot after the command
  --trace              enable causal request tracing + the flight recorder
                       for the command, and append debug-level events and
                       the recorded spans (JSON lines with trace, span and
                       parent ids) to the report
  --trace-out PATH     write the flight recorder as Chrome trace_event
                       JSON after the command (implies tracing)
  --slow-threshold-us N  spans at or above N microseconds are kept as
                       tail-latency exemplars with their replay seed and
                       full child tree (default 1000)
  --verbose            record debug-level events as well (including the
                       effective thread-pool size)

MODELS: linreg | logreg | svm
VALUE SHAPES: linear | convex | concave | sigmoid
DEMAND SHAPES: uniform | peak | bimodal | increasing | decreasing
"
    .to_string()
}

/// Dispatches a parsed command line, honoring the global observability
/// flags: `--metrics-out PATH` (JSON snapshot of every `mbp.*` metric),
/// `--trace` (debug-level events and the flight recorder's span records
/// appended to the report), and `--verbose` (debug-level events). Any of
/// them enables the otherwise-inert [`mbp_obs`] registry before the
/// command runs.
pub fn run(args: &Args) -> Result<String, CliError> {
    let trace = args.get_bool("trace");
    let verbose = args.get_bool("verbose");
    let metrics_out = args.get("metrics-out");
    let trace_out = args.get("trace-out");
    if trace || verbose || metrics_out.is_some() || trace_out.is_some() {
        mbp_obs::enable();
        if trace || verbose {
            mbp_obs::set_verbosity(mbp_obs::Verbosity::Debug);
        }
    }
    // `--trace` / `--trace-out` arm causal tracing: every quote/buy/publish
    // gets a span context, and spans at or above `--slow-threshold-us` are
    // kept as replayable exemplars.
    if trace || trace_out.is_some() {
        mbp_obs::set_slow_threshold_micros(args.get_u64("slow-threshold-us", 1_000)?);
        mbp_obs::set_tracing(true);
    }
    // `--threads N` overrides MBP_THREADS (which mbp-par reads itself).
    if let Some(raw) = args.get("threads") {
        let n = mbp_par::parse_threads(Some(raw)).ok_or_else(|| {
            CliError::Args(ArgError::BadValue {
                flag: "threads".into(),
                value: raw.into(),
                expected: "a positive integer",
            })
        })?;
        mbp_par::set_threads(n);
    }
    if verbose {
        mbp_obs::event(
            mbp_obs::Verbosity::Debug,
            "mbp.cli",
            "thread pool configured",
            &[("effective_threads", mbp_par::max_threads().to_string())],
        );
    }
    let mut result = dispatch(args);
    if let Some(path) = trace_out {
        let spans = mbp_obs::recorder_snapshot();
        let json = mbp_obs::recorder_to_chrome_trace(&spans);
        if let Err(e) = std::fs::write(path, json) {
            result = result.and(Err(CliError::Data(format!("writing {path}: {e}"))));
        }
    }
    if let Some(path) = metrics_out {
        let json = mbp_obs::to_json(&mbp_obs::snapshot());
        if let Err(e) = std::fs::write(path, json) {
            result = result.and(Err(CliError::Data(format!("writing {path}: {e}"))));
        }
    }
    if trace || verbose {
        if let Ok(report) = &mut result {
            let events = mbp_obs::drain_events();
            if !events.is_empty() {
                report.push_str("── events ──\n");
                report.push_str(&mbp_obs::events_to_jsonl(&events));
            }
            let spans = mbp_obs::recorder_snapshot();
            if trace && !spans.is_empty() {
                report.push_str("── spans ──\n");
                report.push_str(&mbp_obs::recorder_to_jsonl(&spans));
            }
        }
    }
    result
}

fn dispatch(args: &Args) -> Result<String, CliError> {
    match args.command() {
        None => Ok(usage()),
        Some("catalog") => cmd_catalog(),
        Some("summarize") => cmd_summarize(args),
        Some("train") => cmd_train(args),
        Some("price") => cmd_price(args),
        Some("audit") => cmd_audit(args),
        Some("attack") => cmd_attack(args),
        Some("sell") => cmd_sell(args),
        Some("simulate") => cmd_simulate(args),
        Some("trace") => cmd_trace(args),
        Some("predict") => cmd_predict(args),
        Some("serve") => cmd_serve(args),
        Some("replay") => cmd_replay(args),
        Some("lint") => cmd_lint(args),
        Some(other) => Err(CliError::UnknownCommand(other.to_string())),
    }
}

/// `mbp-market serve`: boot the TCP marketplace daemon.
///
/// Trains and publishes one listing (synthetic Simulated1 data unless
/// `--csv` is given, priced `10·√x` over `--grid`), binds the wire
/// protocol on `--host:--port`, and blocks until a `Shutdown` control
/// frame or SIGTERM triggers the graceful drain. The report printed on
/// exit summarizes connections accepted and requests served.
fn cmd_serve(args: &Args) -> Result<String, CliError> {
    use mbp_core::error::SquareLossTransform;
    use mbp_core::market::concurrent::SharedBroker;
    use mbp_core::market::Broker;

    // A daemon is long-running and its /metrics endpoint serves the live
    // registry, so observability is always on for this command.
    mbp_obs::enable();

    let seed = args.get_u64("seed", 7)?;
    let mut rng = seeded_rng(seed);
    let ds = match args.get("csv") {
        Some(p) => load_csv(p)?,
        None => mbp_data::synth::simulated1(600, 4, 0.5, &mut rng),
    };
    let kind = match args.get("model") {
        Some(raw) => parse_model(raw)?,
        None => mbp_ml::ModelKind::LinearRegression,
    };
    let ridge = args.get_f64("ridge", 1e-6)?;
    let grid = args.get_grid("grid", (1.0, 129.0, 512))?;
    let prices: Vec<f64> = grid.iter().map(|x| 10.0 * x.sqrt()).collect();
    let pricing =
        PricingFunction::from_points(grid, prices).map_err(|e| CliError::Market(e.to_string()))?;

    let tt = ds.split(0.75, &mut rng);
    let mut broker = Broker::new(tt);

    // `--wal DIR` turns on durability: recover the directory into the
    // broker first (bit-identical replay of the surviving log), then
    // attach the live handle as the broker's sink so the recovery itself
    // is not re-recorded. Off by default — serving stays log-free.
    let (shared, wal) = match args.get("wal") {
        Some(dir) => {
            use mbp_core::market::DurabilitySink;
            use std::sync::Arc;
            let (wal, recovery) =
                mbp_wal::Durability::open(Path::new(dir), mbp_wal::WalConfig::default())
                    .map_err(|e| CliError::Data(format!("opening wal {dir}: {e}")))?;
            recovery
                .state
                .apply(&mut broker)
                .map_err(|e| CliError::Market(e.to_string()))?;
            let recovered_listing = recovery.state.published_points(kind).is_some();
            let shared = SharedBroker::with_durability(
                broker,
                Arc::clone(&wal) as Arc<dyn mbp_core::market::DurabilitySink>,
            );
            if recovery.state.support_ridge(kind).is_none() {
                shared
                    .support(kind, ridge)
                    .map_err(|e| CliError::Market(e.to_string()))?;
            }
            if !recovered_listing {
                shared
                    .publish(kind, pricing, Box::new(SquareLossTransform))
                    .map_err(|e| CliError::Market(e.to_string()))?;
            }
            // Pin this process's RNG session so `replay` can see where the
            // recovered history's randomness left off.
            let draws = recovery.state.rng_cursor.map_or(1, |(_, d)| d + 1);
            wal.record_rng_cursor(seed, draws);
            wal.sync()
                .map_err(|e| CliError::Data(format!("syncing wal {dir}: {e}")))?;
            println!(
                "wal: recovered {} record(s) ({} sales, {} skipped, {} torn segment(s)) from {dir}",
                recovery.records,
                recovery.state.sales.len(),
                recovery.records_skipped,
                recovery.truncated_segments,
            );
            (shared, Some(wal))
        }
        None => {
            broker
                .support(kind, ridge)
                .map_err(|e| CliError::Market(e.to_string()))?;
            broker
                .publish(kind, pricing, Box::new(SquareLossTransform))
                .map_err(|e| CliError::Market(e.to_string()))?;
            (SharedBroker::new(broker), None)
        }
    };

    let host = args.get("host").unwrap_or("127.0.0.1");
    let port = args.get_u64("port", 7878)?;
    let metrics_port = args.get_u64("metrics-port", 0)?;
    let cfg = mbp_serve::ServerConfig {
        addr: format!("{host}:{port}"),
        metrics_addr: (metrics_port != 0).then(|| format!("{host}:{metrics_port}")),
        io_threads: 0, // resolved from --threads / MBP_THREADS by mbp-par
        batch_admission: !args.get_bool("no-batch"),
        queue_limit: args.get_usize("queue-limit", 1024)?,
        idle_timeout: std::time::Duration::from_millis(args.get_u64("idle-timeout-ms", 30_000)?),
        handle_sigterm: true,
    };
    let handle = mbp_serve::start(shared, cfg).map_err(|e| CliError::Market(e.to_string()))?;
    println!(
        "mbp-serve listening on {} (model {})",
        handle.addr(),
        kind.name()
    );
    if let Some(maddr) = handle.metrics_addr() {
        println!("metrics on http://{maddr}/metrics");
    }
    let stats = handle.wait();
    let mut out = String::new();
    writeln!(out, "drained after graceful shutdown").unwrap();
    writeln!(out, "connections\t{}", stats.connections).unwrap();
    writeln!(out, "requests\t{}", stats.requests).unwrap();
    if let Some(wal) = &wal {
        // Final durability point: everything the daemon settled is on disk
        // before the report claims a clean drain.
        wal.sync()
            .map_err(|e| CliError::Data(format!("final wal sync: {e}")))?;
        writeln!(out, "wal_dir\t{}", wal.dir().display()).unwrap();
        writeln!(out, "wal_segment\t{}", wal.segment()).unwrap();
        writeln!(out, "wal_sales_logged\t{}", wal.sales_logged()).unwrap();
        writeln!(out, "wal_io_errors\t{}", wal.io_error_count()).unwrap();
    }
    Ok(out)
}

/// `mbp-market replay`: deterministic record/replay backtesting over a
/// captured WAL.
///
/// Read-only: scans `--wal DIR` (torn tails truncated, corrupt-but-framed
/// records skipped with a count — never an error), folds the surviving
/// history, and re-prices every recorded sale under each `--curve` scheme
/// (at the same `price_at(1/ncp)` coordinate the mechanism charged) to
/// report counterfactual revenue next to what the log actually earned.
/// Curve specs are the built-ins `sqrt` (10·√x) and `linear` (0.75·x)
/// over `--grid`, or a path to an `x<TAB>price` TSV as written by
/// `price --out`. The whole pipeline runs twice and the report carries a
/// determinism digest over the folded state and every revenue figure. An
/// empty or missing WAL is a clean empty report, not an error.
fn cmd_replay(args: &Args) -> Result<String, CliError> {
    use mbp_serve::wire::{digest_bytes, DIGEST_SEED};

    let dir = args.require("wal")?;
    let grid = args.get_grid("grid", (1.0, 129.0, 512))?;
    let specs: Vec<String> = args
        .get("curve")
        .unwrap_or("sqrt,linear")
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect();
    if specs.is_empty() {
        return Err(CliError::Args(ArgError::BadValue {
            flag: "curve".into(),
            value: args.get("curve").unwrap_or_default().into(),
            expected: "a comma-separated list of schemes (sqrt, linear, or a TSV path)",
        }));
    }
    let mut curves: Vec<(String, PricingFunction)> = Vec::new();
    for spec in &specs {
        let curve = match spec.as_str() {
            "sqrt" => {
                let prices = grid.iter().map(|x| 10.0 * x.sqrt()).collect();
                PricingFunction::from_points(grid.clone(), prices)
                    .map_err(|e| CliError::Market(e.to_string()))?
            }
            "linear" => {
                let prices = grid.iter().map(|x| 0.75 * x).collect();
                PricingFunction::from_points(grid.clone(), prices)
                    .map_err(|e| CliError::Market(e.to_string()))?
            }
            path => load_prices_tsv(path)?,
        };
        curves.push((spec.clone(), curve));
    }

    // One full pass: scan, fold, re-price. The pipeline runs twice and the
    // digests must agree — that is the record/replay determinism contract.
    let pass = || -> Result<(mbp_wal::DirRecovery, mbp_wal::RecoveredState, Vec<f64>), CliError> {
        let path = Path::new(dir);
        let scanned = if path.exists() {
            mbp_wal::recover_dir(path)
                .map_err(|e| CliError::Data(format!("scanning wal {dir}: {e}")))?
        } else {
            // Satellite pin: a WAL that never existed is an empty history.
            mbp_wal::DirRecovery::default()
        };
        let state = mbp_wal::RecoveredState::from_events(&scanned.events);
        let revenues = curves
            .iter()
            .map(|(_, curve)| {
                state
                    .sales
                    .iter()
                    // Guarded like `price_at` itself: a non-positive NCP
                    // clamps to a free (zero-price) counterfactual rather
                    // than panicking on a hostile log.
                    .map(|tx| {
                        let x = if tx.ncp > 0.0 && tx.ncp.is_finite() {
                            1.0 / tx.ncp
                        } else {
                            0.0
                        };
                        curve.price_at(x)
                    })
                    // An explicit zero seed: the empty-sum identity is -0.0,
                    // which would print as "-0.000000" for an empty log.
                    .fold(0.0, |a, b| a + b)
            })
            .collect();
        Ok((scanned, state, revenues))
    };
    let digest_of = |state: &mbp_wal::RecoveredState, revenues: &[f64]| {
        let mut h = digest_bytes(DIGEST_SEED, &state.digest().to_le_bytes());
        for r in revenues {
            h = digest_bytes(h, &r.to_bits().to_le_bytes());
        }
        h
    };

    let (scanned, state, revenues) = pass()?;
    let first = digest_of(&state, &revenues);
    let (_, state2, revenues2) = pass()?;
    let second = digest_of(&state2, &revenues2);

    let recorded: f64 = state
        .sales
        .iter()
        .map(|tx| tx.price)
        .fold(0.0, |a, b| a + b);
    let mut out = String::new();
    writeln!(out, "replayed wal {dir}").unwrap();
    writeln!(out, "segments\t{}", scanned.segments).unwrap();
    writeln!(out, "records\t{}", scanned.events.len()).unwrap();
    writeln!(out, "records_skipped\t{}", scanned.records_skipped).unwrap();
    writeln!(out, "truncated_segments\t{}", scanned.truncated_segments).unwrap();
    writeln!(out, "sales\t{}", state.sales.len()).unwrap();
    writeln!(out, "epoch\t{}", state.epoch).unwrap();
    writeln!(out, "recorded_revenue\t{recorded:.6}").unwrap();
    for ((name, _), rev) in curves.iter().zip(&revenues) {
        writeln!(
            out,
            "scheme\t{name}\trevenue\t{rev:.6}\tdelta\t{:+.6}",
            rev - recorded
        )
        .unwrap();
    }
    writeln!(out, "replay_digest\t{first:016x}").unwrap();
    writeln!(out, "deterministic\t{}", first == second).unwrap();
    Ok(out)
}

/// `mbp-market lint`: run the workspace static-analysis pass.
///
/// Scans every `.rs` file under `--root` (default: the current directory)
/// against the determinism / panic-freedom / float / lock-order / unsafe /
/// cast rules, honoring the `--baseline` waiver budget (default:
/// `lint.toml` under the root when present). With `--interprocedural` the
/// whole-workspace call graph is built as well and the `reach-panic` /
/// `taint-det` / `lock-graph` analyses run over it; `--graph-out BASE`
/// additionally writes `BASE.json` and `BASE.dot` witness artifacts.
/// Findings are returned as an error so the process exits non-zero, which
/// is what lets CI gate on this command.
fn cmd_lint(args: &Args) -> Result<String, CliError> {
    let root = Path::new(args.get("root").unwrap_or("."));
    let default_baseline = root.join("lint.toml");
    let baseline = match args.get("baseline") {
        Some(p) => Some(Path::new(p).to_path_buf()),
        None => default_baseline.exists().then_some(default_baseline),
    };
    let graph_out = args.get("graph-out").filter(|v| !v.is_empty());
    let report = if args.get_bool("interprocedural") || graph_out.is_some() {
        mbp_lint::run_interprocedural(root, baseline.as_deref(), graph_out.map(Path::new))
    } else {
        mbp_lint::run(root, baseline.as_deref())
    }
    .map_err(|e| CliError::Data(format!("scanning {}: {e}", root.display())))?;
    if report.is_clean() {
        Ok(report.render())
    } else {
        Err(CliError::Lint(report.render()))
    }
}

fn load_csv(path: &str) -> Result<Dataset, CliError> {
    csv::read_dataset_path(Path::new(path))
        .map_err(|e| CliError::Data(format!("reading {path}: {e}")))
}

fn parse_model(raw: &str) -> Result<ModelKind, CliError> {
    match raw {
        "linreg" => Ok(ModelKind::LinearRegression),
        "logreg" => Ok(ModelKind::LogisticRegression),
        "svm" => Ok(ModelKind::LinearSvm),
        other => Err(CliError::Market(format!(
            "unknown model {other:?} (expected linreg|logreg|svm)"
        ))),
    }
}

fn train_weights(kind: ModelKind, ds: &Dataset, ridge: f64) -> Result<Vector, CliError> {
    match kind {
        ModelKind::LinearRegression => {
            ridge_closed_form(ds, ridge).map_err(|e| CliError::Market(e.to_string()))
        }
        ModelKind::LogisticRegression => {
            Ok(newton_logistic(&LogisticLoss::ridge(ridge), ds, TrainConfig::default()).weights)
        }
        ModelKind::LinearSvm => {
            let mu = if ridge > 0.0 { ridge } else { 1e-3 };
            Ok(
                gradient_descent(&SmoothedHingeLoss::new(mu, 0.5), ds, TrainConfig::default())
                    .weights,
            )
        }
    }
}

fn cmd_catalog() -> Result<String, CliError> {
    let mut out = String::from("dataset\ttask\tpaper_n1\tpaper_n2\td\n");
    for spec in &catalog::TABLE3 {
        let task = match spec.task {
            catalog::Task::Regression => "regression",
            catalog::Task::Classification => "classification",
        };
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}",
            spec.name, task, spec.paper_n_train, spec.paper_n_test, spec.d
        )
        .expect("string write");
    }
    Ok(out)
}

fn cmd_summarize(args: &Args) -> Result<String, CliError> {
    let ds = load_csv(args.require("csv")?)?;
    let s = stats::summarize(&ds);
    let mut out = String::new();
    writeln!(out, "rows\t{}", s.n).unwrap();
    writeln!(out, "features\t{}", s.d).unwrap();
    writeln!(out, "target_mean\t{:.6}", s.target_mean).unwrap();
    writeln!(out, "target_sd\t{:.6}", s.target_sd).unwrap();
    if let Some(p) = s.positive_rate {
        writeln!(out, "positive_rate\t{p:.4}").unwrap();
    }
    for (j, (m, sd)) in s.feature_means.iter().zip(&s.feature_sds).enumerate() {
        writeln!(out, "feature_{j}\tmean {m:.4}\tsd {sd:.4}").unwrap();
    }
    Ok(out)
}

fn cmd_train(args: &Args) -> Result<String, CliError> {
    let ds = load_csv(args.require("csv")?)?;
    let kind = parse_model(args.require("model")?)?;
    let ridge = args.get_f64("ridge", 1e-6)?;
    let w = train_weights(kind, &ds, ridge)?;
    let mut out = String::new();
    writeln!(out, "model\t{}", kind.name()).unwrap();
    for (j, wj) in w.as_slice().iter().enumerate() {
        writeln!(out, "w{j}\t{wj:.10}").unwrap();
    }
    let eval_ds = match args.get("eval-csv") {
        Some(p) => load_csv(p)?,
        None => ds,
    };
    match kind {
        ModelKind::LinearRegression => {
            if let EvalReport::Regression { mse, rmse, r2 } = evaluate_regression(&w, &eval_ds) {
                writeln!(out, "mse\t{mse:.6}\nrmse\t{rmse:.6}\nr2\t{r2:.6}").unwrap();
            }
        }
        _ => {
            if let EvalReport::Classification {
                accuracy,
                precision,
                recall,
                f1,
                ..
            } = evaluate_classification(&w, &eval_ds)
            {
                writeln!(
                    out,
                    "accuracy\t{accuracy:.4}\nprecision\t{precision:.4}\nrecall\t{recall:.4}\nf1\t{f1:.4}"
                )
                .unwrap();
            }
        }
    }
    Ok(out)
}

fn parse_value_curve(args: &Args) -> Result<ValueCurve, CliError> {
    let vmin = args.get_f64("vmin", 2.0)?;
    let vmax = args.get_f64("vmax", 100.0)?;
    let shape = match args.get("value").unwrap_or("concave") {
        "linear" => ValueShape::Linear,
        "convex" => ValueShape::Convex { power: 2.5 },
        "concave" => ValueShape::Concave { power: 2.5 },
        "sigmoid" => ValueShape::Sigmoid { steepness: 8.0 },
        other => return Err(CliError::Market(format!("unknown value shape {other:?}"))),
    };
    Ok(ValueCurve::new(shape, vmin, vmax))
}

fn parse_demand_curve(args: &Args) -> Result<DemandCurve, CliError> {
    let shape = match args.get("demand").unwrap_or("uniform") {
        "uniform" => DemandShape::Uniform,
        "peak" => DemandShape::Peak {
            center: 0.5,
            width: 0.25,
        },
        "bimodal" => DemandShape::Bimodal { width: 0.15 },
        "increasing" => DemandShape::Increasing,
        "decreasing" => DemandShape::Decreasing,
        other => return Err(CliError::Market(format!("unknown demand shape {other:?}"))),
    };
    Ok(DemandCurve::new(shape))
}

fn derive_pricing(args: &Args) -> Result<(Vec<f64>, Vec<BuyerPoint>, PricingFunction), CliError> {
    let grid = args.get_grid("grid", (10.0, 100.0, 10))?;
    let value = parse_value_curve(args)?;
    let demand = parse_demand_curve(args)?;
    let buyers = mbp_core::market::curves::buyer_points(&grid, &value, &demand)
        .map_err(|e| CliError::Data(e.to_string()))?;
    let lambda = args.get_f64("lambda", 0.0)?;
    let sol = solve_bv_dp_fair(&buyers, lambda);
    Ok((grid, buyers, sol.pricing))
}

fn cmd_price(args: &Args) -> Result<String, CliError> {
    // The CSV is loaded to bind the listing to a concrete dataset (and to
    // fail early on a bad path); pricing itself depends on the curves.
    let _ds = load_csv(args.require("csv")?)?;
    let (grid, buyers, pricing) = derive_pricing(args)?;
    if let Some(out_path) = args.get("out") {
        // Emit the curve in the TSV dialect `audit --prices` consumes, so
        // `price --out F` composes with `audit --prices F`.
        let mut text = String::from("# x price\n");
        for (x, p) in pricing.grid().iter().zip(pricing.prices()) {
            text.push_str(&format!("{x} {p}\n"));
        }
        std::fs::write(out_path, text)
            .map_err(|e| CliError::Data(format!("writing {out_path}: {e}")))?;
    }
    let mut out = String::from("x\tvaluation\tdemand\tprice\n");
    for (p, b) in pricing.prices().iter().zip(&buyers) {
        writeln!(
            out,
            "{:.2}\t{:.3}\t{:.4}\t{:.4}",
            b.a, b.valuation, b.demand, p
        )
        .unwrap();
    }
    writeln!(out, "revenue\t{:.4}", revenue(&pricing, &buyers)).unwrap();
    writeln!(
        out,
        "affordability\t{:.4}",
        affordability(&pricing, &buyers)
    )
    .unwrap();
    for baseline in Baseline::ALL {
        let pf = baseline.pricing(&buyers);
        writeln!(
            out,
            "baseline_{}\trevenue {:.4}\taffordability {:.4}",
            baseline.name(),
            revenue(&pf, &buyers),
            affordability(&pf, &buyers)
        )
        .unwrap();
    }
    let clean = audit(&pricing, &grid, 10, 1e-6).is_clean();
    writeln!(out, "arbitrage_free\t{clean}").unwrap();
    Ok(out)
}

/// Loads a `x<TAB>price` TSV (as written by `price --out`) into a
/// validated pricing function. Shared by `audit` and `attack`.
fn load_prices_tsv(path: &str) -> Result<PricingFunction, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::Data(format!("reading {path}: {e}")))?;
    let mut grid = Vec::new();
    let mut prices = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let (Some(x), Some(p)) = (parts.next(), parts.next()) else {
            return Err(CliError::Data(format!(
                "line {}: expected `x price`",
                i + 1
            )));
        };
        let x: f64 = x
            .parse()
            .map_err(|_| CliError::Data(format!("line {}: bad x {x:?}", i + 1)))?;
        let p: f64 = p
            .parse()
            .map_err(|_| CliError::Data(format!("line {}: bad price {p:?}", i + 1)))?;
        grid.push(x);
        prices.push(p);
    }
    PricingFunction::from_points(grid, prices).map_err(|e| CliError::Data(e.to_string()))
}

fn cmd_audit(args: &Args) -> Result<String, CliError> {
    let pf = load_prices_tsv(args.require("prices")?)?;
    let report = audit(&pf, pf.grid(), 10, 1e-6);
    let mut out = String::new();
    writeln!(
        out,
        "monotonicity_violations\t{}",
        report.monotonicity_violations.len()
    )
    .unwrap();
    for (a, b) in &report.monotonicity_violations {
        writeln!(out, "  price({a}) > price({b})").unwrap();
    }
    writeln!(out, "arbitrage_opportunities\t{}", report.arbitrage.len()).unwrap();
    for f in &report.arbitrage {
        writeln!(
            out,
            "  target x={} list={:.4} bundle={:?} costs {:.4} (margin {:.4})",
            f.target_precision,
            f.list_price,
            f.bundle,
            f.bundle_price,
            f.margin()
        )
        .unwrap();
    }
    writeln!(
        out,
        "verdict\t{}",
        if report.is_clean() {
            "CLEAN"
        } else {
            "ARBITRAGE"
        }
    )
    .unwrap();
    Ok(out)
}

fn cmd_attack(args: &Args) -> Result<String, CliError> {
    use mbp_testkit::{attack_curve, check_pricing, AttackConfig, Case, Corpus, OracleConfig};

    let pf = load_prices_tsv(args.require("prices")?)?;
    let seed = args.get_u64("seed", 42)?;
    let trials = args.get_u64("trials", 20_000)?;
    let bundle = args.get_usize("bundle", 5)?;
    let cfg = AttackConfig {
        seed,
        trials,
        max_bundle: bundle,
        ..AttackConfig::default()
    };
    let mut out = String::new();

    // Regression corpus replays before randomized search.
    let corpus_path = args.get("corpus").map(std::path::PathBuf::from);
    let mut corpus = match &corpus_path {
        Some(p) => Corpus::load(p).map_err(|e| CliError::Data(format!("corpus: {e}")))?,
        None => Corpus::default(),
    };
    let regressions = corpus.replay(&pf, cfg.tol);
    writeln!(out, "corpus_cases\t{}", corpus.cases().len()).unwrap();
    writeln!(out, "corpus_regressions\t{}", regressions.len()).unwrap();
    for v in &regressions {
        writeln!(out, "  {v}").unwrap();
    }

    let report = attack_curve(&pf, &cfg);
    writeln!(out, "seed\t{seed}").unwrap();
    writeln!(out, "trials\t{}", report.trials).unwrap();
    writeln!(out, "checks\t{}", report.checks).unwrap();
    writeln!(out, "violations\t{}", report.violations.len()).unwrap();
    for c in &report.violations {
        writeln!(out, "  trial {}: {}", c.trial, c.violation).unwrap();
    }

    let oracle = check_pricing(
        &pf,
        &OracleConfig {
            seed,
            ..OracleConfig::default()
        },
    );
    writeln!(out, "oracle_comparisons\t{}", oracle.comparisons).unwrap();
    writeln!(out, "oracle_max_divergence\t{:.3e}", oracle.max_divergence).unwrap();
    for d in &oracle.divergences {
        writeln!(out, "  {d}").unwrap();
    }

    // Persist fresh counterexamples so the defect can never silently return.
    if let Some(path) = &corpus_path {
        let mut added = 0;
        for c in &report.violations {
            if let Some(case) = Case::from_violation(&c.violation) {
                if corpus.add(case) {
                    added += 1;
                }
            }
        }
        if added > 0 {
            corpus
                .save(path)
                .map_err(|e| CliError::Data(format!("saving corpus: {e}")))?;
        }
        writeln!(out, "corpus_added\t{added}").unwrap();
    }

    let clean = report.is_clean() && regressions.is_empty() && oracle.is_clean();
    writeln!(
        out,
        "verdict\t{}",
        if clean { "CLEAN" } else { "EXPLOITABLE" }
    )
    .unwrap();
    Ok(out)
}

fn cmd_sell(args: &Args) -> Result<String, CliError> {
    use mbp_core::error::SquareLossTransform;
    use mbp_core::market::{Broker, PurchaseRequest};

    let ds = load_csv(args.require("csv")?)?;
    let kind = parse_model(args.require("model")?)?;
    let budget = args.get_f64("budget", f64::NAN)?;
    if !budget.is_finite() || budget < 0.0 {
        return Err(CliError::Args(ArgError::Required("budget".into())));
    }
    let seed = args.get_u64("seed", 7)?;
    let mut rng = seeded_rng(seed);
    let tt = ds.split(0.75, &mut rng);
    let (_, _, pricing) = derive_pricing(args)?;
    let mut broker = Broker::new(tt);
    broker
        .support(kind, args.get_f64("ridge", 1e-3)?)
        .map_err(|e| CliError::Market(e.to_string()))?;
    broker
        .publish(kind, pricing, Box::new(SquareLossTransform))
        .map_err(|e| CliError::Market(e.to_string()))?;
    let sale = broker
        .buy_listed(kind, PurchaseRequest::PriceBudget(budget), &mut rng)
        .map_err(|e| CliError::Market(e.to_string()))?;
    let mut out = String::new();
    writeln!(out, "model\t{}", kind.name()).unwrap();
    writeln!(out, "price\t{:.4}", sale.price).unwrap();
    writeln!(out, "ncp\t{:.6}", sale.ncp).unwrap();
    writeln!(out, "expected_error\t{:.6}", sale.expected_error).unwrap();
    for (j, wj) in sale.model.weights().as_slice().iter().enumerate() {
        writeln!(out, "w{j}\t{wj:.10}").unwrap();
    }
    if let Some(path) = args.get("out") {
        let mut buf = Vec::new();
        mbp_ml::persist::write_model(&sale.model, &mut buf)
            .map_err(|e| CliError::Data(e.to_string()))?;
        std::fs::write(path, buf).map_err(|e| CliError::Data(format!("writing {path}: {e}")))?;
        writeln!(out, "saved\t{path}").unwrap();
    }
    Ok(out)
}

/// The selling season `simulate` and `trace` run: the seller's research
/// curves from the flags over `tt`, a broker trained on `tt` that lists
/// `kind` at the DP pricing with fairness weight `lambda`, then `buyers`
/// buyers against that listing from the seed stream `seed ^ 0x5a4d`,
/// decorrelated from the stream that split `tt`.
fn run_season(
    args: &Args,
    tt: mbp_data::TrainTest,
    kind: ModelKind,
    buyers: usize,
    lambda: f64,
    seed: u64,
) -> Result<(mbp_core::market::Broker, SimulationOutcome), CliError> {
    use mbp_core::error::SquareLossTransform;
    use mbp_core::market::simulation::{simulate_market, SimulationConfig};
    use mbp_core::market::{Broker, Seller};

    if buyers == 0 {
        return Err(CliError::Args(ArgError::BadValue {
            flag: "buyers".into(),
            value: "0".into(),
            expected: "a positive integer",
        }));
    }
    let cfg = SimulationConfig {
        n_buyers: buyers,
        valuation_jitter: args.get_f64("jitter", 0.0)?,
    };
    let ridge = args.get_f64("ridge", 1e-6)?;
    let grid = args.get_grid("grid", (10.0, 100.0, 10))?;
    let seller = Seller::new(
        tt.clone(),
        grid,
        parse_value_curve(args)?,
        parse_demand_curve(args)?,
    );
    let mut broker = Broker::new(tt);
    broker
        .support(kind, ridge)
        .map_err(|e| CliError::Market(e.to_string()))?;
    let pricing = solve_bv_dp_fair(&seller.buyer_population(), lambda).pricing;
    broker
        .publish(kind, pricing, Box::new(SquareLossTransform))
        .map_err(|e| CliError::Market(e.to_string()))?;
    let outcome = simulate_market(&mut broker, &seller, kind, cfg, seed ^ 0x5a4d)
        .map_err(|e| CliError::Market(e.to_string()))?;
    Ok((broker, outcome))
}

fn cmd_simulate(args: &Args) -> Result<String, CliError> {
    let seed = args.get_u64("seed", 7)?;
    let mut rng = seeded_rng(seed);
    let ds = match args.get("csv") {
        Some(p) => load_csv(p)?,
        // Default season: the paper's Simulated1 process, small enough to
        // run in well under a second.
        None => mbp_data::synth::simulated1(600, 4, 0.5, &mut rng),
    };
    let kind = match args.get("model") {
        Some(raw) => parse_model(raw)?,
        None => ModelKind::LinearRegression,
    };
    let buyers = args.get_usize("buyers", 1000)?;
    // λ = 0 reduces to the plain Theorem 10 revenue maximization that
    // `price_from_research` performs.
    let lambda = args.get_f64("lambda", 0.0)?;
    let tt = ds.split(0.75, &mut rng);
    let (broker, outcome) = run_season(args, tt, kind, buyers, lambda, seed)?;
    let mut out = String::new();
    writeln!(out, "model\t{}", kind.name()).unwrap();
    writeln!(out, "buyers\t{buyers}").unwrap();
    writeln!(out, "served\t{}", outcome.served).unwrap();
    writeln!(out, "declined\t{}", outcome.declined).unwrap();
    writeln!(
        out,
        "predicted_revenue_per_buyer\t{:.4}",
        outcome.predicted_revenue_per_buyer
    )
    .unwrap();
    writeln!(
        out,
        "realized_revenue_per_buyer\t{:.4}",
        outcome.realized_revenue_per_buyer
    )
    .unwrap();
    writeln!(
        out,
        "predicted_affordability\t{:.4}",
        outcome.predicted_affordability
    )
    .unwrap();
    writeln!(
        out,
        "realized_affordability\t{:.4}",
        outcome.realized_affordability()
    )
    .unwrap();
    writeln!(out, "broker_revenue\t{:.4}", broker.total_revenue()).unwrap();
    Ok(out)
}

/// `mbp-market trace`: run a deterministic synthetic selling season with
/// causal tracing armed and dump the flight recorder.
///
/// The season is the same Monte-Carlo market `simulate` runs (its shards
/// cross `mbp-par` worker threads, and so do their span contexts), with the
/// slow threshold applied so tail-latency purchase batches are kept as
/// exemplars carrying their replay seed. The report lists the span/trace counts and every
/// exemplar; the full recorder dump is emitted as Chrome trace_event JSON
/// (inline, or to `--out`) and optionally as JSONL (`--jsonl`).
fn cmd_trace(args: &Args) -> Result<String, CliError> {
    let seed = args.get_u64("seed", 7)?;
    let buyers = args.get_usize("buyers", 300)?;
    let threshold_us = args.get_u64("slow-threshold-us", 1_000)?;
    let kind = match args.get("model") {
        Some(raw) => parse_model(raw)?,
        None => ModelKind::LinearRegression,
    };
    mbp_obs::enable();
    mbp_obs::set_slow_threshold_micros(threshold_us);
    mbp_obs::set_tracing(true);

    let mut rng = seeded_rng(seed);
    let ds = mbp_data::synth::simulated1(600, 4, 0.5, &mut rng);
    let (_, outcome) = run_season(args, ds.split(0.75, &mut rng), kind, buyers, 0.0, seed)?;

    let spans = mbp_obs::recorder_snapshot();
    let exemplars = mbp_obs::exemplars();
    let quote_traces: std::collections::BTreeSet<u32> = spans
        .iter()
        .filter(|s| s.name == "mbp.core.buy")
        .map(|s| s.trace)
        .collect();

    let mut out = String::new();
    writeln!(out, "buyers\t{buyers}").unwrap();
    writeln!(out, "served\t{}", outcome.served).unwrap();
    writeln!(out, "declined\t{}", outcome.declined).unwrap();
    writeln!(out, "spans\t{}", spans.len()).unwrap();
    writeln!(out, "quote_traces\t{}", quote_traces.len()).unwrap();
    writeln!(out, "slow_threshold_us\t{threshold_us}").unwrap();
    writeln!(out, "exemplars\t{}", exemplars.len()).unwrap();
    for ex in &exemplars {
        writeln!(
            out,
            "  exemplar\tseed={}\tdur_us={:.1}\t{}({},{})\tchildren={}",
            ex.root.seed,
            ex.root.dur_nanos as f64 / 1_000.0,
            ex.root.name,
            ex.root.listing,
            ex.root.mechanism,
            ex.children.len()
        )
        .unwrap();
    }

    if let Some(path) = args.get("jsonl") {
        std::fs::write(path, mbp_obs::recorder_to_jsonl(&spans))
            .map_err(|e| CliError::Data(format!("writing {path}: {e}")))?;
        writeln!(out, "jsonl_out\t{path}").unwrap();
    }
    let chrome = mbp_obs::recorder_to_chrome_trace(&spans);
    match args.get("out") {
        Some(path) => {
            std::fs::write(path, chrome)
                .map_err(|e| CliError::Data(format!("writing {path}: {e}")))?;
            writeln!(out, "trace_out\t{path}").unwrap();
        }
        None => {
            out.push_str("── chrome-trace ──\n");
            out.push_str(&chrome);
        }
    }
    Ok(out)
}

fn cmd_predict(args: &Args) -> Result<String, CliError> {
    let model_path = args.require("model")?;
    let file = std::fs::File::open(model_path)
        .map_err(|e| CliError::Data(format!("opening {model_path}: {e}")))?;
    let model = mbp_ml::persist::read_model(file).map_err(|e| CliError::Data(e.to_string()))?;
    let ds = load_csv(args.require("csv")?)?;
    if ds.d() != model.dim() {
        return Err(CliError::Data(format!(
            "model expects {} features but the CSV has {}",
            model.dim(),
            ds.d()
        )));
    }
    let mut out = String::from("row\tprediction\ttarget\n");
    for i in 0..ds.n() {
        let (x, y) = ds.example(i);
        let pred = if model.kind().is_classifier() {
            model.classify(x)
        } else {
            model.predict(x)
        };
        writeln!(out, "{i}\t{pred}\t{y}").unwrap();
    }
    let report = if model.kind().is_classifier() {
        evaluate_classification(model.weights(), &ds)
    } else {
        evaluate_regression(model.weights(), &ds)
    };
    match report {
        EvalReport::Regression { mse, rmse, r2 } => {
            writeln!(out, "mse\t{mse:.6}\nrmse\t{rmse:.6}\nr2\t{r2:.6}").unwrap();
        }
        EvalReport::Classification { accuracy, f1, .. } => {
            writeln!(out, "accuracy\t{accuracy:.4}\nf1\t{f1:.4}").unwrap();
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that drain the process-global obs event buffer, so
    /// concurrently running tests cannot steal each other's events.
    static EVENTS_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn argv(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from)).unwrap()
    }

    fn temp_csv(name: &str, rows: usize, classify: bool) -> std::path::PathBuf {
        let mut rng = seeded_rng(9);
        let ds = if classify {
            mbp_data::synth::simulated2(rows, 3, 0.95, &mut rng)
        } else {
            mbp_data::synth::simulated1(rows, 3, 0.2, &mut rng)
        };
        let dir = std::env::temp_dir().join("mbp-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let mut buf = Vec::new();
        csv::write_dataset(&ds, &mut buf).unwrap();
        std::fs::write(&path, buf).unwrap();
        path
    }

    #[test]
    fn no_command_prints_usage() {
        let out = run(&Args::parse(Vec::<String>::new()).unwrap()).unwrap();
        assert!(out.contains("USAGE"));
    }

    #[test]
    fn unknown_command_errors() {
        let err = run(&argv("frobnicate")).unwrap_err();
        assert!(matches!(err, CliError::UnknownCommand(_)));
    }

    #[test]
    fn catalog_lists_table3() {
        let out = run(&argv("catalog")).unwrap();
        assert!(out.contains("YearMSD"));
        assert!(out.contains("SUSY"));
        assert_eq!(out.lines().count(), 7); // header + 6 rows
    }

    #[test]
    fn summarize_reports_stats() {
        let path = temp_csv("sum.csv", 200, true);
        let out = run(&argv(&format!("summarize --csv {}", path.display()))).unwrap();
        assert!(out.contains("rows\t200"));
        assert!(out.contains("positive_rate"));
    }

    #[test]
    fn train_linreg_reports_fit() {
        let path = temp_csv("train.csv", 300, false);
        let out = run(&argv(&format!(
            "train --csv {} --model linreg",
            path.display()
        )))
        .unwrap();
        assert!(out.contains("Lin. reg."));
        assert!(out.contains("r2"));
        // Noiseless-ish signal: R² should be high.
        let r2: f64 = out
            .lines()
            .find(|l| l.starts_with("r2"))
            .and_then(|l| l.split('\t').nth(1))
            .unwrap()
            .parse()
            .unwrap();
        assert!(r2 > 0.9, "r2 {r2}");
    }

    #[test]
    fn train_logreg_reports_accuracy() {
        let path = temp_csv("clf.csv", 400, true);
        let out = run(&argv(&format!(
            "train --csv {} --model logreg --ridge 0.001",
            path.display()
        )))
        .unwrap();
        assert!(out.contains("accuracy"));
        assert!(out.contains("f1"));
    }

    #[test]
    fn price_outputs_curve_and_dominates_baselines() {
        let path = temp_csv("price.csv", 100, false);
        let out = run(&argv(&format!(
            "price --csv {} --grid 20,100,9 --value convex --demand peak",
            path.display()
        )))
        .unwrap();
        assert!(out.contains("arbitrage_free\ttrue"));
        let rev: f64 = out
            .lines()
            .find(|l| l.starts_with("revenue"))
            .and_then(|l| l.split('\t').nth(1))
            .unwrap()
            .parse()
            .unwrap();
        assert!(rev > 0.0);
    }

    #[test]
    fn audit_flags_convex_prices() {
        let dir = std::env::temp_dir().join("mbp-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("prices.tsv");
        let mut text = String::from("# x price\n");
        for i in 1..=8 {
            text.push_str(&format!("{i} {}\n", i * i));
        }
        std::fs::write(&path, text).unwrap();
        let out = run(&argv(&format!("audit --prices {}", path.display()))).unwrap();
        assert!(out.contains("verdict\tARBITRAGE"), "{out}");
    }

    #[test]
    fn attack_breaks_convex_prices_and_clears_concave_ones() {
        let dir = std::env::temp_dir().join("mbp-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        // Convex (superlinear) prices: bundling beats the list price.
        let bad = dir.join("attack-bad.tsv");
        let mut text = String::from("# x price\n");
        for i in 1..=8 {
            text.push_str(&format!("{i} {}\n", i * i));
        }
        std::fs::write(&bad, text).unwrap();
        let out = run(&argv(&format!(
            "attack --prices {} --seed 3 --trials 2000",
            bad.display()
        )))
        .unwrap();
        assert!(out.contains("verdict\tEXPLOITABLE"), "{out}");
        assert!(out.contains("violations\t"), "{out}");
        // Concave-through-origin prices survive the same search.
        let good = dir.join("attack-good.tsv");
        let mut text = String::from("# x price\n");
        for i in 1..=8 {
            text.push_str(&format!("{i} {}\n", 10.0 * (i as f64).sqrt()));
        }
        std::fs::write(&good, text).unwrap();
        let out = run(&argv(&format!(
            "attack --prices {} --seed 3 --trials 2000",
            good.display()
        )))
        .unwrap();
        assert!(out.contains("verdict\tCLEAN"), "{out}");
        assert!(out.contains("oracle_comparisons\t"), "{out}");
    }

    #[test]
    fn attack_persists_counterexamples_to_a_corpus() {
        let dir = std::env::temp_dir().join("mbp-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let bad = dir.join("attack-corpus-bad.tsv");
        let mut text = String::from("# x price\n");
        for i in 1..=6 {
            text.push_str(&format!("{i} {}\n", i * i * 2));
        }
        std::fs::write(&bad, text).unwrap();
        let corpus = dir.join("attack-corpus.txt");
        std::fs::remove_file(&corpus).ok();
        let out = run(&argv(&format!(
            "attack --prices {} --seed 5 --trials 2000 --corpus {}",
            bad.display(),
            corpus.display()
        )))
        .unwrap();
        assert!(out.contains("verdict\tEXPLOITABLE"), "{out}");
        assert!(corpus.exists(), "corpus file should be written");
        // Re-running replays the persisted cases as regressions.
        let out = run(&argv(&format!(
            "attack --prices {} --seed 5 --trials 100 --corpus {}",
            bad.display(),
            corpus.display()
        )))
        .unwrap();
        assert!(!out.contains("corpus_regressions\t0"), "{out}");
        std::fs::remove_file(&corpus).ok();
    }

    #[test]
    fn sell_then_predict_roundtrip() {
        let csv = temp_csv("sellout.csv", 300, false);
        let dir = std::env::temp_dir().join("mbp-cli-tests");
        let model_path = dir.join("bought.model.tsv");
        let out = run(&argv(&format!(
            "sell --csv {} --model linreg --budget 90 --grid 10,100,10 --out {}",
            csv.display(),
            model_path.display()
        )))
        .unwrap();
        assert!(out.contains("saved"));
        let pred_out = run(&argv(&format!(
            "predict --model {} --csv {}",
            model_path.display(),
            csv.display()
        )))
        .unwrap();
        assert!(pred_out.contains("r2"), "{pred_out}");
        // The noisy instance still explains most of the variance.
        let r2: f64 = pred_out
            .lines()
            .find(|l| l.starts_with("r2"))
            .and_then(|l| l.split('\t').nth(1))
            .unwrap()
            .parse()
            .unwrap();
        assert!(r2 > 0.0, "r2 {r2}");
    }

    #[test]
    fn predict_rejects_dimension_mismatch() {
        let csv3 = temp_csv("dim3.csv", 50, false); // 3 features
        let dir = std::env::temp_dir().join("mbp-cli-tests");
        let model_path = dir.join("dim2.model.tsv");
        let model =
            mbp_ml::LinearModel::new(ModelKind::LinearRegression, mbp_linalg::Vector::zeros(2));
        let mut buf = Vec::new();
        mbp_ml::persist::write_model(&model, &mut buf).unwrap();
        std::fs::write(&model_path, buf).unwrap();
        let err = run(&argv(&format!(
            "predict --model {} --csv {}",
            model_path.display(),
            csv3.display()
        )))
        .unwrap_err();
        assert!(err.to_string().contains("features"));
    }

    #[test]
    fn price_out_composes_with_audit() {
        let csv = temp_csv("compose.csv", 80, false);
        let dir = std::env::temp_dir().join("mbp-cli-tests");
        let out = dir.join("dp_prices.tsv");
        run(&argv(&format!(
            "price --csv {} --grid 20,100,9 --value concave --out {}",
            csv.display(),
            out.display()
        )))
        .unwrap();
        let audit_out = run(&argv(&format!("audit --prices {}", out.display()))).unwrap();
        assert!(audit_out.contains("verdict\tCLEAN"), "{audit_out}");
    }

    #[test]
    fn metrics_out_writes_acceptance_metrics() {
        let dir = std::env::temp_dir().join("mbp-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("metrics.json");
        run(&argv(&format!(
            "simulate --buyers 150 --seed 12 --metrics-out {}",
            path.display()
        )))
        .unwrap();
        let json = std::fs::read_to_string(&path).unwrap();
        assert!(json.contains("\"mbp.core.buy.count\""), "{json}");
        assert!(json.contains("\"mbp.core.buy_batch.seconds\""), "{json}");
        assert!(json.contains("\"p99\""), "{json}");
        assert!(json.contains("\"mbp.optim.revenue.iterations\""), "{json}");
    }

    #[test]
    fn trace_appends_events_to_report() {
        let _guard = EVENTS_LOCK.lock().unwrap();
        let out = run(&argv("simulate --buyers 50 --seed 13 --trace")).unwrap();
        mbp_obs::set_tracing(false);
        assert!(out.contains("── events ──"), "{out}");
        assert!(out.contains("\"target\""), "{out}");
        // The flight recorder's span records follow, with their ids.
        let spans = out.split("── spans ──\n").nth(1).expect("a spans section");
        assert!(spans.contains("\"name\": \"mbp.core.buy\""), "{spans}");
        assert!(
            spans
                .lines()
                .any(|l| l.contains("\"name\": \"mbp.core.buy_batch\"")
                    && !l.contains("\"parent\": 0,")),
            "{spans}"
        );
    }

    #[test]
    fn trace_command_emits_chrome_trace_and_exemplars() {
        let _guard = EVENTS_LOCK.lock().unwrap();
        let out = run(&argv("trace --buyers 60 --seed 19 --slow-threshold-us 0")).unwrap();
        mbp_obs::set_tracing(false);
        mbp_obs::set_slow_threshold_micros(1_000);
        assert!(out.contains("quote_traces\t"), "{out}");
        let quote_traces: usize = out
            .lines()
            .find(|l| l.starts_with("quote_traces"))
            .and_then(|l| l.split('\t').nth(1))
            .unwrap()
            .parse()
            .unwrap();
        assert!(quote_traces > 0, "{out}");
        // Threshold zero plants every root as slow: exemplars carry seeds.
        assert!(out.contains("exemplar\tseed="), "{out}");
        // The inline dump is Chrome trace_event JSON.
        assert!(out.contains("── chrome-trace ──"), "{out}");
        assert!(out.contains("\"traceEvents\""), "{out}");
        assert!(out.contains("\"ph\": \"X\""), "{out}");
        assert!(out.contains("mbp.core.buy"), "{out}");
    }

    #[test]
    fn trace_out_flag_writes_chrome_trace_file() {
        let _guard = EVENTS_LOCK.lock().unwrap();
        let dir = std::env::temp_dir().join("mbp-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("season-trace.json");
        std::fs::remove_file(&path).ok();
        run(&argv(&format!(
            "simulate --buyers 40 --seed 29 --trace --trace-out {}",
            path.display()
        )))
        .unwrap();
        mbp_obs::set_tracing(false);
        mbp_obs::set_slow_threshold_micros(1_000);
        let json = std::fs::read_to_string(&path).unwrap();
        assert!(json.contains("\"traceEvents\""), "{json}");
        assert!(json.contains("mbp.core.buy"), "{json}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn threads_flag_validates_and_configures_pool() {
        for bad in ["zero", "0", "-2"] {
            let err = run(&argv(&format!("catalog --threads {bad}"))).unwrap_err();
            assert!(
                matches!(err, CliError::Args(ArgError::BadValue { .. })),
                "--threads {bad} should be rejected"
            );
        }
        let out = run(&argv("catalog --threads 3")).unwrap();
        assert!(out.contains("YearMSD"));
        assert_eq!(mbp_par::default_threads(), 3);
        mbp_par::set_threads(0); // restore the process default for other tests
    }

    #[test]
    fn verbose_reports_effective_thread_pool() {
        let _guard = EVENTS_LOCK.lock().unwrap();
        let out = run(&argv("simulate --buyers 30 --seed 17 --verbose")).unwrap();
        assert!(out.contains("thread pool configured"), "{out}");
        assert!(out.contains("effective_threads"), "{out}");
    }

    /// A season is a pure function of its flags: the same seed prints the
    /// same report, every buyer is either served or declined, and another
    /// seed draws another season.
    #[test]
    fn simulate_is_deterministic_in_the_seed() {
        let a = run(&argv("simulate --buyers 700 --seed 21 --jitter 0.05")).unwrap();
        let b = run(&argv("simulate --buyers 700 --seed 21 --jitter 0.05")).unwrap();
        assert_eq!(a, b, "a season must be a pure function of --seed");
        let count = |report: &str, key: &str| -> usize {
            report
                .lines()
                .find(|l| l.starts_with(key))
                .and_then(|l| l.split('\t').nth(1))
                .unwrap()
                .parse()
                .unwrap()
        };
        assert!(count(&a, "served") > 0, "{a}");
        assert_eq!(count(&a, "served") + count(&a, "declined"), 700);
        assert!(a.contains("realized_revenue_per_buyer\t"), "{a}");
        let other = run(&argv("simulate --buyers 700 --seed 22 --jitter 0.05")).unwrap();
        assert_ne!(a, other, "another seed must draw another season");
    }

    #[test]
    fn sell_within_budget() {
        let path = temp_csv("sell.csv", 300, false);
        let out = run(&argv(&format!(
            "sell --csv {} --model linreg --budget 30 --grid 10,100,10",
            path.display()
        )))
        .unwrap();
        let price: f64 = out
            .lines()
            .find(|l| l.starts_with("price"))
            .and_then(|l| l.split('\t').nth(1))
            .unwrap()
            .parse()
            .unwrap();
        assert!(price <= 30.0 + 1e-9);
        assert!(out.contains("w0"));
    }

    /// `sell` publishes its curve and buys against the listing; its report
    /// for a fixed CSV, seed and budget is pinned byte for byte (one
    /// interior budget, one above the saturation price).
    #[test]
    fn sell_report_is_pinned() {
        let path = temp_csv("sell-pin.csv", 300, false);
        let pins = [
            (
                "30",
                "model\tLin. reg.\nprice\t30.0000\nncp\t0.071156\n\
                 expected_error\t0.071156\nw0\t-2.2724904506\nw1\t2.1528764478\n\
                 w2\t-0.5566226585\n",
            ),
            (
                "1000",
                "model\tLin. reg.\nprice\t100.0000\nncp\t0.010000\n\
                 expected_error\t0.010000\nw0\t-2.1660977640\nw1\t2.1257960008\n\
                 w2\t-0.4390392979\n",
            ),
        ];
        for (budget, expected) in pins {
            let out = run(&argv(&format!(
                "sell --csv {} --model linreg --budget {budget} --grid 10,100,10 --seed 5",
                path.display()
            )))
            .unwrap();
            assert_eq!(out, expected, "budget {budget}");
        }
    }

    /// Satellite pin: replaying a WAL directory that does not exist (or
    /// exists but holds no segments) is a clean empty report, not an error.
    #[test]
    fn replay_of_missing_or_empty_wal_is_a_clean_empty_report() {
        let base = std::env::temp_dir().join("mbp-cli-tests");
        std::fs::create_dir_all(&base).unwrap();
        let missing = base.join("wal-never-created");
        let _ = std::fs::remove_dir_all(&missing);
        let out = run(&argv(&format!("replay --wal {}", missing.display()))).unwrap();
        assert!(out.contains("records\t0"), "{out}");
        assert!(out.contains("sales\t0"), "{out}");
        assert!(out.contains("recorded_revenue\t0.000000"), "{out}");
        assert!(out.contains("deterministic\ttrue"), "{out}");

        // Present-but-empty directory: identical contract.
        let empty = base.join("wal-empty-dir");
        let _ = std::fs::remove_dir_all(&empty);
        std::fs::create_dir_all(&empty).unwrap();
        let out = run(&argv(&format!("replay --wal {}", empty.display()))).unwrap();
        assert!(out.contains("segments\t0"), "{out}");
        assert!(out.contains("records\t0"), "{out}");
        assert!(out.contains("deterministic\ttrue"), "{out}");
    }

    /// `replay --curve` re-prices a captured history under ≥2 alternative
    /// schemes, reports counterfactual revenue for each, and the two-run
    /// determinism digest holds across separate CLI invocations.
    #[test]
    fn replay_reports_counterfactual_revenue_per_scheme_deterministically() {
        use mbp_core::market::DurabilitySink;

        let dir = std::env::temp_dir().join("mbp-cli-tests/wal-replay");
        let _ = std::fs::remove_dir_all(&dir);
        let (wal, recovery) =
            mbp_wal::Durability::open(&dir, mbp_wal::WalConfig::default()).unwrap();
        assert!(recovery.state.is_empty());
        wal.record_support(ModelKind::LinearRegression, 1e-6);
        let grid: Vec<f64> = (1..=8).map(|i| i as f64).collect();
        let prices: Vec<f64> = grid.iter().map(|x| 10.0 * x.sqrt()).collect();
        wal.record_publish(ModelKind::LinearRegression, &grid, &prices);
        for i in 0..20 {
            // NCPs chosen so every 1/ncp lands inside the default replay
            // grid [1, 129] rather than on the origin-ray clamp.
            let ncp = 0.1 + 0.04 * i as f64;
            wal.record_sale(&mbp_core::market::Transaction {
                kind: ModelKind::LinearRegression,
                ncp,
                price: 10.0 * (1.0 / ncp).sqrt(),
            });
        }
        wal.sync().unwrap();

        let cmd = format!("replay --wal {} --curve sqrt,linear", dir.display());
        let out = run(&argv(&cmd)).unwrap();
        assert!(out.contains("records\t22"), "{out}");
        assert!(out.contains("sales\t20"), "{out}");
        assert!(out.contains("scheme\tsqrt\trevenue\t"), "{out}");
        assert!(out.contains("scheme\tlinear\trevenue\t"), "{out}");
        assert!(out.contains("deterministic\ttrue"), "{out}");
        // The sqrt scheme is the same family the recorded prices came from
        // (the replay curve piecewise-linearly interpolates it over the
        // default grid), so its counterfactual revenue tracks the recorded
        // revenue closely; the linear scheme must genuinely differ.
        let field = |tag: &str, col: usize| -> f64 {
            out.lines()
                .find(|l| l.starts_with(tag))
                .and_then(|l| l.split('\t').nth(col))
                .unwrap()
                .parse()
                .unwrap()
        };
        let recorded = field("recorded_revenue", 1);
        let sqrt_rev = field("scheme\tsqrt", 3);
        let linear_rev = field("scheme\tlinear", 3);
        assert!(
            (recorded - sqrt_rev).abs() < 0.02 * recorded,
            "{recorded} vs {sqrt_rev}"
        );
        assert!(
            (sqrt_rev - linear_rev).abs() > 1.0,
            "schemes should price differently: {sqrt_rev} vs {linear_rev}"
        );

        // Cross-invocation determinism: a fresh run prints the same report.
        let again = run(&argv(&cmd)).unwrap();
        assert_eq!(out, again, "replay must be bit-stable across runs");
    }

    /// The usage screen advertises both halves of the durability surface.
    #[test]
    fn usage_mentions_wal_and_replay() {
        let out = usage();
        assert!(out.contains("--wal DIR"), "serve --wal missing from usage");
        assert!(out.contains("replay"), "replay missing from usage");
    }
}
