//! End-to-end benchmark of the `mbp-market serve` daemon.
//!
//! One run launches the release daemon as a child process on a loopback
//! ephemeral port (`--threads` = `nproc`), drives it from this process
//! with at most `nproc` threads and connections, checks every response
//! against an in-process reference, and reports end-to-end metrics for
//! one workload (all closed-loop):
//!
//! * `quote-buy-rr` — 1 connection at depth 1 alternating `Quote` and
//!   `Buy`; WAL off. Every request pays socket → IO loop → dispatch →
//!   write alone and batches stay at size 1, so batch-kernel changes
//!   should not show here.
//! * `buy-burst` — 2 connections of pipelined 64-buy bursts; WAL off.
//!   Bursts coalesce into whole batches, so time goes to the core batch
//!   kernel (Gaussian noise at d = 90) and the serve write path.
//! * `durable-reprice` — `--wal` on a fresh directory; 1 buyer connection
//!   sending depth-1 buys beside a seller connection that, once per
//!   selling season of buyer requests (`EpochConfig::buyers_per_epoch`,
//!   the repo's adaptive repricing market), re-solves `solve_bv_dp` over
//!   512 jittered buyer points and publishes the curve. Every sale goes
//!   through the WAL and every publish takes the core write lock and
//!   rebuilds the table between buys; after the drain the WAL must
//!   recover exactly the acknowledged sales and publishes.
//!
//! `BENCHMARK.json` lists `quote-buy-rr` and `durable-reprice`: their
//! depth-1 latency is set mostly by the daemon's IO-loop wake-ups and
//! repeats from run to run. `buy-burst` is CPU-bound, and on a shared
//! 2-vCPU VM its latency follows the CPU the host grants, which swings by
//! tens of percent over minutes; it stays runnable and smoke-tested.
//!
//! Buyer throughput and latency are medians over the window's 100 ms
//! slices; the report also gives whole-window percentiles with their
//! sample counts, and the seller's reprice times.
//!
//! A traced run (`--trace 1`) repeats the workload untraced, then traced:
//! it scrapes the daemon's `/metrics` side port around the window, records
//! spans around the benchmark's calls into each layer, times single layers
//! in-process, and reports per-layer metrics plus the tracing overhead.

pub mod check;
pub mod daemon;
pub mod drive;
pub mod inputs;
pub mod layers;
pub mod stats;

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use mbp_serve::Client;

use daemon::{Daemon, Launch, Scrape};
use drive::{BuyerLog, CurveClock, Gate, Pattern, Phases, SellerLog};
use layers::{Layers, SpanLog};
use stats::Samples;

/// The workloads, by the names `--workload` takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Depth-1 alternating quote/buy on 1 connection, WAL off.
    QuoteBuyRr,
    /// Pipelined buy bursts on 2 connections, WAL off.
    BuyBurst,
    /// Depth-1 buys beside a repricing seller, WAL on.
    DurableReprice,
}

impl Workload {
    /// All workloads.
    pub const ALL: [Workload; 3] = [
        Workload::QuoteBuyRr,
        Workload::BuyBurst,
        Workload::DurableReprice,
    ];

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::QuoteBuyRr => "quote-buy-rr",
            Workload::BuyBurst => "buy-burst",
            Workload::DurableReprice => "durable-reprice",
        }
    }

    fn durable(self) -> bool {
        self == Workload::DurableReprice
    }
}

/// Sizes that differ between a measuring run and the smoke self-test.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Rows of the Simulated1 CSV.
    pub rows: usize,
    /// Daemon launches timed per pass; set-up reports their median and
    /// the last one serves the workload.
    pub setups: usize,
    /// Unmeasured traffic before the window.
    pub warmup: Duration,
    /// Buyer requests per reprice.
    pub season: u64,
    /// Spans kept in full per thread for the trace file.
    pub span_cap: usize,
    /// NCPs timed through `perturb_into` in-process.
    pub perturb_cap: usize,
    /// Buys replayed in-process through the timed WAL sink.
    pub wal_replay_cap: usize,
}

impl Scale {
    /// The measuring configuration.
    pub fn full() -> Scale {
        Scale {
            rows: 20_000,
            setups: 7,
            warmup: Duration::from_secs(1),
            season: mbp_core::market::epochs::EpochConfig::default().buyers_per_epoch as u64,
            span_cap: 100_000,
            perturb_cap: 100_000,
            wal_replay_cap: 200_000,
        }
    }

    /// The smoke self-test's configuration.
    pub fn smoke() -> Scale {
        Scale {
            rows: 400,
            setups: 2,
            warmup: Duration::from_millis(50),
            season: 128,
            span_cap: 1000,
            perturb_cap: 1000,
            wal_replay_cap: 2000,
        }
    }
}

/// One invocation.
#[derive(Debug, Clone)]
pub struct Config {
    /// Root of the checkout (holds `crates/`).
    pub root: PathBuf,
    /// Workload to run.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    /// Sizes.
    pub scale: Scale,
}

/// One pass over the workload: its end-to-end figures, checks and, when
/// traced, its per-layer metrics.
pub struct Pass {
    /// Set-up time of every launch, seconds.
    pub setup_s: Vec<f64>,
    /// Acknowledged buyer requests per second (median over 100 ms slices).
    pub ops_per_s: f64,
    /// Median request latency, µs (median over 100 ms slices).
    pub req_p50_us: f64,
    /// p90 request latency, µs (median over 100 ms slices).
    pub req_p90_us: f64,
    /// Per-request latency over the whole window, µs.
    pub req_us: Samples,
    /// Requests sent (stream requests and publishes).
    pub attempted: u64,
    /// Requests answered wrongly or with an error, plus failed checks.
    pub failed: u64,
    /// Per-layer metrics (traced passes only).
    pub layers: Layers,
    /// Human-readable report lines.
    pub notes: Vec<String>,
}

impl Pass {
    /// Median set-up time.
    pub fn setup_median(&self) -> f64 {
        stats::median(&self.setup_s)
    }
}

/// Where this run's scratch files live: inside the cargo target
/// directory, keyed by workload, seed and process.
pub fn work_dir(cfg: &Config) -> PathBuf {
    daemon::target_dir(&cfg.root)
        .join("marketbench")
        .join(format!(
            "{}-s{}-p{}",
            cfg.workload.name(),
            cfg.seed,
            std::process::id()
        ))
}

/// The window's end-to-end buyer figures, each the median over the
/// window's 100 ms slices of that slice's value: a stall of the shared
/// machine drags down the slices it hits, not the figure.
struct Sliced {
    ops_per_s: f64,
    p50_us: f64,
    p90_us: f64,
    thin_slices: usize,
}

fn sliced(logs: &[BuyerLog], seconds: f64) -> Sliced {
    let n = ((seconds * 10.0).round() as usize).max(1);
    let len = seconds / n as f64;
    let mut slices: Vec<Vec<f64>> = vec![Vec::new(); n];
    for &(t, lat) in logs.iter().flat_map(|l| l.samples.iter()) {
        if let Some(s) = slices.get_mut((f64::from(t) / len) as usize) {
            s.push(f64::from(lat));
        }
    }
    let thin_slices = slices.iter().filter(|s| s.len() < 100).count();
    let mut ops = Vec::with_capacity(n);
    let mut p50 = Vec::with_capacity(n);
    let mut p90 = Vec::with_capacity(n);
    for s in slices {
        ops.push(s.len() as f64 / len);
        let s = Samples::new(s);
        p50.push(s.pct(50.0));
        p90.push(s.pct(90.0));
    }
    Sliced {
        ops_per_s: stats::median(&ops),
        p50_us: stats::median(&p50),
        p90_us: stats::median(&p90),
        thin_slices,
    }
}

/// Runs one pass of `cfg.workload` on the daemon `exe`, with its inputs
/// in `work` (the CSV already written there).
pub fn run_pass(cfg: &Config, exe: &Path, work: &Path, traced: bool) -> Result<Pass, String> {
    let wl = cfg.workload;
    let tag = if traced { "traced" } else { "plain" };
    let threads = nproc();
    let csv = work.join("simulated1.csv");
    let mut setup_s = Vec::new();
    let mut daemon = None;
    let mut wal_dir = None;
    for i in 0..cfg.scale.setups.max(1) {
        // Each launch is timed alone: the previous one is gone first.
        if let Some(prev) = daemon.take() {
            Daemon::shutdown(prev)?;
        }
        let wal = wl.durable().then(|| work.join(format!("wal-{tag}-{i}")));
        let d = Daemon::start(&Launch {
            exe: exe.to_path_buf(),
            csv: csv.clone(),
            split_seed: inputs::split_seed(cfg.seed),
            threads,
            wal: wal.clone(),
            metrics: traced,
        })?;
        setup_s.push(d.setup_s);
        daemon = Some(d);
        wal_dir = wal;
    }
    let daemon = daemon.ok_or("no daemon launched")?;
    let addr = daemon.addr;

    let origin = Instant::now();
    let cap = cfg.scale.span_cap;
    let window = Duration::from_secs_f64(cfg.seconds);
    let clients = if wl == Workload::QuoteBuyRr { 1 } else { 2 };
    let phases = Phases {
        warmup: cfg.scale.warmup,
        window,
        gate: Gate::new(clients),
    };
    let clock = CurveClock::default();
    let mut before: Option<Scrape> = None;
    let scrape_before = || -> Option<Scrape> {
        let m = daemon.metrics_addr?;
        daemon::scrape(m)
            .map_err(|e| eprintln!("marketbench: {e}"))
            .ok()
    };
    let connect = || Client::connect(addr).map_err(|e| format!("connect: {e}"));
    let mut spans0 = SpanLog::new(origin, traced, cap);
    let mut spans1 = SpanLog::new(origin, traced, cap);
    let mut seller_spans = SpanLog::new(origin, traced, cap);
    let (logs, seller_log): (Vec<BuyerLog>, Option<SellerLog>) = match wl {
        Workload::BuyBurst => {
            let (mut c0, mut c1) = (connect()?, connect()?);
            let (a, b) = std::thread::scope(|s| {
                let other = s.spawn(|| {
                    drive::buyer(
                        &mut c1,
                        cfg.seed,
                        1,
                        Pattern::Bursts,
                        &phases,
                        None,
                        &mut spans1,
                        || {},
                    )
                });
                let mine = drive::buyer(
                    &mut c0,
                    cfg.seed,
                    0,
                    Pattern::Bursts,
                    &phases,
                    None,
                    &mut spans0,
                    || before = scrape_before(),
                );
                (mine, other.join().expect("buyer thread panicked"))
            });
            (vec![a?, b?], None)
        }
        Workload::QuoteBuyRr => {
            let mut c0 = connect()?;
            let a = drive::buyer(
                &mut c0,
                cfg.seed,
                0,
                Pattern::QuoteBuy,
                &phases,
                None,
                &mut spans0,
                || before = scrape_before(),
            )?;
            (vec![a], None)
        }
        Workload::DurableReprice => {
            let (mut c0, mut c1) = (connect()?, connect()?);
            let (a, b) = std::thread::scope(|s| {
                let seller = s.spawn(|| {
                    let r = phases
                        .gate
                        .wait()
                        .and_then(|()| phases.gate.wait())
                        .and_then(|()| {
                            drive::seller(
                                &mut c1,
                                cfg.seed,
                                cfg.scale.season,
                                window,
                                &clock,
                                &mut seller_spans,
                            )
                        });
                    // Release the buyer even when the seller failed.
                    clock
                        .seller_done
                        .store(true, std::sync::atomic::Ordering::SeqCst);
                    r
                });
                let mine = drive::buyer(
                    &mut c0,
                    cfg.seed,
                    0,
                    Pattern::Buys,
                    &phases,
                    Some(&clock),
                    &mut spans0,
                    || before = scrape_before(),
                );
                (mine, seller.join().expect("seller thread panicked"))
            });
            (vec![a?], Some(b?))
        }
    };
    let after = match daemon.metrics_addr {
        Some(m) => Some(daemon::scrape(m)?),
        None => None,
    };
    let seller_log = seller_log.unwrap_or_default();
    let report = daemon.shutdown()?;

    let mut notes = Vec::new();
    let mut failed = seller_log.errors + logs.iter().map(|l| l.errors).sum::<u64>();
    let attempted = seller_log.reprice_ms.len() as u64 + logs.iter().map(|l| l.sent).sum::<u64>();

    // Output checks against the in-process reference.
    let (mut reference, csv_load_s) = check::reference(&csv, inputs::split_seed(cfg.seed))?;
    let check_failed: u64 = if wl.durable() {
        let mut curves = vec![inputs::initial_curve()];
        curves.extend(seller_log.published.iter().cloned());
        let log = &logs[0];
        let mut f = check::replay_repriced(&mut reference, cfg.seed, log, &curves);
        if let Some(dir) = wal_dir.as_deref() {
            let acked: Vec<(f64, f64)> = log
                .sales
                .iter()
                .copied()
                .filter(|(n, _)| !n.is_nan())
                .collect();
            f += check::recover_wal(dir, &acked, &seller_log.published);
            if !report.contains("wal_io_errors\t0") {
                notes.push("daemon reported WAL I/O errors".into());
                f += 1;
            }
        }
        f
    } else {
        let pattern = if wl == Workload::QuoteBuyRr {
            Pattern::QuoteBuy
        } else {
            Pattern::Bursts
        };
        let reference = &reference;
        std::thread::scope(|s| {
            let handles: Vec<_> = logs
                .iter()
                .map(|log| {
                    s.spawn(move || check::replay_connection(reference, cfg.seed, log, pattern))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("replay thread panicked"))
                .sum()
        })
    };
    if check_failed > 0 {
        notes.push(format!(
            "{check_failed} request(s) failed the output checks"
        ));
    }
    failed += check_failed;

    let slices = sliced(&logs, cfg.seconds);
    if slices.thin_slices > 0 {
        notes.push(format!(
            "{} slice(s) of 100 ms held under 100 responses",
            slices.thin_slices
        ));
    }
    let req_us = Samples::new(
        logs.iter()
            .flat_map(|l| l.samples.iter().map(|s| f64::from(s.1)))
            .collect(),
    );
    let reprice_ms = Samples::new(seller_log.reprice_ms.clone());
    let window_requests: u64 = logs.iter().map(|l| l.window_requests).sum();
    notes.push(format!(
        "window: {window_requests} buyer requests, mean {:.1}/s; medians over 100 ms slices: \
         {:.1}/s, p50 {:.3} us, p90 {:.3} us",
        window_requests as f64 / cfg.seconds,
        slices.ops_per_s,
        slices.p50_us,
        slices.p90_us,
    ));
    notes.push(req_us.describe("req_us", "us", 90.0));
    if !reprice_ms.is_empty() {
        notes.push(reprice_ms.describe("reprice_ms", "ms", 90.0));
    }
    notes.push(format!(
        "setup_s: n={} median={:.4} values={:?}",
        setup_s.len(),
        stats::median(&setup_s),
        setup_s
    ));

    let mut layers_out = Layers::new();
    if traced {
        let (before, after) = match (before, after) {
            (Some(b), Some(a)) => (b, a),
            _ => return Err("the traced pass could not scrape /metrics".into()),
        };
        let mut buyer_spans = SpanLog::new(origin, false, 0);
        buyer_spans.absorb_totals(&spans0);
        buyer_spans.absorb_totals(&spans1);
        let quotes = logs.iter().map(|l| l.window_quotes).sum();
        layers_out = layers::from_scrapes(
            &before,
            &after,
            &layers::ClientSide {
                mean_latency_us: req_us.mean(),
                quotes,
                buyer: &buyer_spans,
                seller: &seller_spans,
            },
        );
        let ncps: Vec<f64> = logs[0]
            .sales
            .iter()
            .map(|s| s.0)
            .filter(|n| !n.is_nan())
            .take(cfg.scale.perturb_cap)
            .collect();
        let h_star = reference
            .optimal_model(drive::KIND)
            .map(|m| m.weights().clone())
            .ok_or("reference has no model")?;
        layers_out.push((
            "core.mechanism.perturb_ns_per_coord",
            layers::perturb_ns_per_coord(&h_star, &ncps),
            "ns",
        ));
        let buys = logs[0].sales.len().min(cfg.scale.wal_replay_cap) as u64;
        let (fresh, _) = check::reference(&csv, inputs::split_seed(cfg.seed))?;
        layers_out.extend(layers::wal_replay(
            fresh,
            &work.join(format!("wal-replay-{tag}")),
            cfg.seed,
            buys,
        )?);
        layers_out.push(("data.csv_load_s", csv_load_s, "s"));

        let mut jsonl = String::new();
        spans0.write_jsonl("buyer-0", &mut jsonl);
        spans1.write_jsonl("buyer-1", &mut jsonl);
        seller_spans.write_jsonl("seller", &mut jsonl);
        let path =
            work.parent()
                .unwrap_or(work)
                .join(format!("trace-{}-s{}.jsonl", wl.name(), cfg.seed));
        std::fs::write(&path, jsonl).map_err(|e| format!("writing {}: {e}", path.display()))?;
        notes.push(format!("spans written to {}", path.display()));
    }

    Ok(Pass {
        setup_s,
        ops_per_s: slices.ops_per_s,
        req_p50_us: slices.p50_us,
        req_p90_us: slices.p90_us,
        req_us,
        attempted,
        failed,
        layers: layers_out,
        notes,
    })
}

/// `nproc`: the daemon's `--threads` and the client's thread bound.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The end-to-end metrics of a pass: name → (value, unit).
pub fn end_to_end(p: &Pass) -> Vec<(&'static str, f64, &'static str)> {
    vec![
        ("setup_s", p.setup_median(), "s"),
        ("req_p50_us", p.req_p50_us, "us"),
    ]
}

/// Everything one invocation prints before its result line.
pub struct Outcome {
    /// Report lines.
    pub notes: Vec<String>,
    /// Requests attempted over all passes.
    pub attempted: u64,
    /// Failures over all passes.
    pub failed: u64,
    /// The metrics of the result line.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

/// Runs one invocation: the untraced pass, and with `trace` the traced
/// pass after it.
pub fn run(cfg: &Config, trace: bool) -> Result<Outcome, String> {
    let exe = daemon::build(&cfg.root)?;
    let work = work_dir(cfg);
    std::fs::create_dir_all(&work).map_err(|e| format!("creating {}: {e}", work.display()))?;
    let result = run_in(cfg, trace, &exe, &work);
    let _ = std::fs::remove_dir_all(&work);
    result
}

fn run_in(cfg: &Config, trace: bool, exe: &Path, work: &Path) -> Result<Outcome, String> {
    inputs::write_csv(&work.join("simulated1.csv"), cfg.seed, cfg.scale.rows)
        .map_err(|e| format!("writing the csv: {e}"))?;
    let mut notes = vec![provenance(cfg, work)];
    let plain = run_pass(cfg, exe, work, false)?;
    notes.extend(plain.notes.iter().map(|n| format!("[untraced] {n}")));
    let mut attempted = plain.attempted;
    let mut failed = plain.failed;
    let metrics = if trace {
        let traced = run_pass(cfg, exe, work, true)?;
        notes.extend(traced.notes.iter().map(|n| format!("[traced] {n}")));
        attempted += traced.attempted;
        failed += traced.failed;
        // The overhead covers every buyer figure, not only the gated ones.
        let figures = |p: &Pass| {
            [
                ("setup_s", p.setup_median(), "s"),
                ("ops_per_s", p.ops_per_s, "1/s"),
                ("req_p50_us", p.req_p50_us, "us"),
                ("req_p90_us", p.req_p90_us, "us"),
            ]
        };
        let (base, with) = (figures(&plain), figures(&traced));
        for ((name, b, unit), (_, t, _)) in base.iter().zip(with.iter()) {
            notes.push(format!(
                "tracing overhead: {name} untraced {b:.4} traced {t:.4} {unit} (ratio {:.4})",
                t / b
            ));
        }
        let ratio = |i: usize| with[i].1 / base[i].1;
        let mut m = traced.layers;
        m.push(("trace.ops_per_s_ratio", ratio(1), "ratio"));
        m.push(("trace.req_p50_us_ratio", ratio(2), "ratio"));
        let get = |n: &str| m.iter().find(|l| l.0 == n).map_or(0.0, |l| l.1);
        notes.push(format!(
            "attribution: client mean latency {:.2} us = daemon spans {:.2} us + unattributed {:.2} us",
            traced.req_us.mean(),
            get("serve.daemon_spans_us_per_req"),
            get("serve.unattributed_us_per_req"),
        ));
        for (name, value, unit) in &m {
            notes.push(format!("layer {name:<40} {value:>14.4} {unit}"));
        }
        m
    } else {
        end_to_end(&plain)
    };
    Ok(Outcome {
        notes,
        attempted,
        failed,
        metrics,
    })
}

/// Provenance of every result: commit, `nproc`, the daemon's threads, its
/// `WalConfig` and the filesystem of the WAL directory.
fn provenance(cfg: &Config, work: &Path) -> String {
    let commit = std::env::var("MBP_BENCH_COMMIT").unwrap_or_else(|_| "unknown".into());
    let wal = if cfg.workload.durable() {
        let c = mbp_wal::WalConfig::default();
        format!(
            "{{\"group_commit\": {}, \"fsync_interval\": {}}}, \"wal_fs\": \"{}\", \
             \"reprice_every_buyer_requests\": {}",
            c.group_commit,
            c.fsync_interval,
            daemon::filesystem_of(work),
            cfg.scale.season
        )
    } else {
        "null, \"wal_fs\": null".into()
    };
    format!(
        "provenance: {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"commit\": \"{commit}\", \
         \"nproc\": {}, \"daemon_threads\": {}, \"client_threads_max\": {}, \"rows\": {}, \"dim\": {}, \
         \"wal_config\": {wal}}}",
        cfg.workload.name(),
        cfg.seed,
        cfg.seconds,
        nproc(),
        nproc(),
        2,
        cfg.scale.rows,
        inputs::DIM,
    )
}
