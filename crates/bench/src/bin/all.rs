//! Runs the entire experiment suite — every paper table/figure plus the
//! extension experiments — and prints one combined report.
//!
//! `cargo run -p mbp-bench --release --bin all` regenerates everything
//! EXPERIMENTS.md records. The run is observability-instrumented: every
//! phase executes with the `mbp-obs` registry enabled, its wall time and
//! metrics snapshot are collected, and a combined JSON artifact is written
//! next to the report (`experiments/metrics.json`, overridable with
//! `MBP_METRICS_OUT`).

use mbp_bench::experiments::{
    adaptive_experiment, fairness_sweep, fig10, fig5, fig6, fig7, fig8, fig9,
    simulation_experiment, table3,
};
use mbp_bench::report::{fmt, fmt_secs, print_metrics, print_table};
use mbp_bench::Config;
use std::time::Instant;

/// One executed phase: its label, wall time, and the metrics it recorded.
struct PhaseRecord {
    name: &'static str,
    secs: f64,
    snapshot: mbp_obs::Snapshot,
}

/// Runs `f` with a clean metrics registry and captures its per-phase
/// snapshot (the registry is reset first, so each record holds only the
/// metrics that phase produced).
fn run_phase(records: &mut Vec<PhaseRecord>, name: &'static str, f: impl FnOnce()) {
    mbp_obs::reset();
    let t0 = Instant::now();
    f();
    records.push(PhaseRecord {
        name,
        secs: t0.elapsed().as_secs_f64(),
        snapshot: mbp_obs::snapshot(),
    });
}

/// Serializes the phase records as one JSON document.
fn phases_to_json(records: &[PhaseRecord]) -> String {
    let mut out = String::from("{\n  \"phases\": [\n");
    for (i, r) in records.iter().enumerate() {
        let metrics = mbp_obs::to_json(&r.snapshot)
            .lines()
            .collect::<Vec<_>>()
            .join("\n      ");
        out.push_str(&format!(
            "    {{\n      \"name\": \"{}\",\n      \"seconds\": {:.6},\n      \"metrics\": {}\n    }}{}\n",
            r.name,
            r.secs,
            metrics,
            if i + 1 == records.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let cfg = Config::from_env();
    mbp_obs::enable();
    println!(
        "# MBP full experiment suite (scale={}, reps={}, max_n={}, seed={})\n",
        cfg.scale, cfg.reps, cfg.max_n, cfg.seed
    );

    let mut phases: Vec<PhaseRecord> = Vec::new();

    run_phase(&mut phases, "table3", || {
        print_table(
            "Table 3: dataset statistics",
            &[
                "dataset", "task", "paper_n1", "paper_n2", "our_n1", "our_n2", "d",
            ],
            &table3(&cfg)
                .iter()
                .map(|r| {
                    vec![
                        r.name.clone(),
                        r.task.to_string(),
                        r.paper_n1.to_string(),
                        r.paper_n2.to_string(),
                        r.our_n1.to_string(),
                        r.our_n2.to_string(),
                        r.d.to_string(),
                    ]
                })
                .collect::<Vec<_>>(),
        );
    });

    run_phase(&mut phases, "fig5", || {
        print_table(
            "Figure 5: pricing approaches on the worked example",
            &[
                "approach",
                "p(1)",
                "p(2)",
                "p(3)",
                "p(4)",
                "revenue",
                "afford",
                "arbitrage?",
            ],
            &fig5()
                .iter()
                .map(|r| {
                    let mut row = vec![r.approach.to_string()];
                    row.extend(r.prices.iter().map(|&p| fmt(p)));
                    row.push(fmt(r.revenue));
                    row.push(fmt(r.affordability));
                    row.push(if r.has_arbitrage { "YES" } else { "no" }.into());
                    row
                })
                .collect::<Vec<_>>(),
        );
    });

    run_phase(&mut phases, "fig6", || {
        print_table(
            "Figure 6: expected test error vs 1/NCP",
            &["dataset", "error", "1/NCP", "expected_error"],
            &fig6(&cfg)
                .iter()
                .map(|p| {
                    vec![
                        p.dataset.clone(),
                        p.error_kind.to_string(),
                        fmt(p.inv_ncp),
                        fmt(p.expected_error),
                    ]
                })
                .collect::<Vec<_>>(),
        );
    });

    run_phase(&mut phases, "fig7-8", || {
        for scenario in fig7(&cfg).into_iter().chain(fig8(&cfg)) {
            print_table(
                &scenario.label,
                &["method", "revenue", "affordability"],
                &scenario
                    .outcomes
                    .iter()
                    .map(|o| vec![o.method.to_string(), fmt(o.revenue), fmt(o.affordability)])
                    .collect::<Vec<_>>(),
            );
        }
    });

    run_phase(&mut phases, "fig9-10", || {
        for scenario in fig9(&cfg).into_iter().chain(fig10(&cfg)) {
            print_table(
                &scenario.label,
                &["n", "method", "runtime", "revenue", "affordability"],
                &scenario
                    .rows
                    .iter()
                    .map(|r| {
                        vec![
                            r.n.to_string(),
                            r.method.to_string(),
                            fmt_secs(r.runtime_s),
                            fmt(r.revenue),
                            fmt(r.affordability),
                        ]
                    })
                    .collect::<Vec<_>>(),
            );
        }
    });

    run_phase(&mut phases, "fairness", || {
        print_table(
            "Extension: revenue vs affordability (fairness weight sweep)",
            &["lambda", "revenue", "affordability"],
            &fairness_sweep(&cfg)
                .iter()
                .map(|r| vec![fmt(r.lambda), fmt(r.revenue), fmt(r.affordability)])
                .collect::<Vec<_>>(),
        );
    });

    run_phase(&mut phases, "simulation", || {
        print_table(
            "Extension: simulated selling season",
            &[
                "pricing",
                "predicted_rev",
                "realized_rev",
                "predicted_aff",
                "realized_aff",
                "served",
            ],
            &simulation_experiment(&cfg)
                .iter()
                .map(|r| {
                    vec![
                        r.label.clone(),
                        fmt(r.predicted_revenue),
                        fmt(r.realized_revenue),
                        fmt(r.predicted_affordability),
                        fmt(r.realized_affordability),
                        r.served.to_string(),
                    ]
                })
                .collect::<Vec<_>>(),
        );
    });

    run_phase(&mut phases, "adaptive", || {
        let (rows, oracle) = adaptive_experiment(&cfg);
        print_table(
            &format!(
                "Extension: adaptive pricing (oracle revenue/buyer = {})",
                fmt(oracle)
            ),
            &["epoch", "revenue/buyer", "acceptance", "estimate_rmse"],
            &rows
                .iter()
                .map(|r| {
                    vec![
                        r.epoch.to_string(),
                        fmt(r.revenue_per_buyer),
                        fmt(r.acceptance_rate),
                        fmt(r.estimate_rmse),
                    ]
                })
                .collect::<Vec<_>>(),
        );
    });

    // Speedup baseline for the parallel hot paths: times each parallelized
    // phase at 1/2/4 threads and writes BENCH_parallel.json (overridable
    // with MBP_BENCH_OUT; repetitions with MBP_PAR_REPS).
    run_phase(&mut phases, "parallel-baseline", || {
        let reps = std::env::var("MBP_PAR_REPS")
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
            .filter(|&r| r >= 1)
            .unwrap_or(3);
        let baseline = mbp_bench::parbench::run(reps);
        print_table(
            &format!(
                "Parallel baseline (hardware threads: {}, pool default: {}, min of {} reps)",
                baseline.meta.hardware_threads, baseline.default_threads, baseline.reps
            ),
            &[
                "phase",
                "t1",
                "t2",
                "t4",
                "speedup_2",
                "speedup_4",
                "deterministic",
            ],
            &baseline
                .phases
                .iter()
                .map(|p| {
                    vec![
                        p.name.to_string(),
                        fmt_secs(p.seconds[0]),
                        fmt_secs(p.seconds[1]),
                        fmt_secs(p.seconds[2]),
                        fmt(p.speedup_at(2)),
                        fmt(p.speedup_at(4)),
                        p.deterministic.to_string(),
                    ]
                })
                .collect::<Vec<_>>(),
        );
        let bench_out =
            std::env::var("MBP_BENCH_OUT").unwrap_or_else(|_| "BENCH_parallel.json".to_string());
        match std::fs::write(&bench_out, baseline.to_json()) {
            Ok(()) => println!("parallel baseline written to {bench_out}"),
            Err(e) => eprintln!("could not write parallel baseline {bench_out}: {e}"),
        }
    });

    // Quote-serving baseline: compiled-table vs scan pricing, batched and
    // zero-allocation purchase paths, and the ridge factorization cache.
    // Writes BENCH_serving.json (overridable with MBP_SERVING_OUT; quote
    // count with MBP_SERVE_QUOTES).
    run_phase(&mut phases, "serving-baseline", || {
        let quotes = std::env::var("MBP_SERVE_QUOTES")
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
            .filter(|&q| q >= 64)
            .unwrap_or(20_000);
        let baseline = mbp_bench::servebench::run(quotes);
        print_table(
            &format!(
                "Serving baseline ({} quotes, {}-knot grid, table speedup {:.2}x, factor-cache speedup {:.2}x)",
                quotes,
                baseline.grid_points,
                baseline.table_speedup_vs_scan,
                baseline.factor_cache_speedup
            ),
            &[
                "workload",
                "quotes",
                "quotes/sec",
                "p50_us",
                "p99_us",
                "deterministic",
            ],
            &baseline
                .workloads
                .iter()
                .map(|w| {
                    vec![
                        w.name.to_string(),
                        w.quotes.to_string(),
                        fmt(w.quotes_per_sec),
                        fmt(w.p50_micros),
                        fmt(w.p99_micros),
                        w.deterministic.to_string(),
                    ]
                })
                .collect::<Vec<_>>(),
        );
        let out =
            std::env::var("MBP_SERVING_OUT").unwrap_or_else(|_| "BENCH_serving.json".to_string());
        match std::fs::write(&out, baseline.to_json()) {
            Ok(()) => println!("serving baseline written to {out}"),
            Err(e) => eprintln!("could not write serving baseline {out}: {e}"),
        }
    });

    // Lookup-kernel baseline: partition_point vs the compiled SegmentIndex
    // grid layout at 16/512/8192 knots. Writes
    // BENCH_kernel.json (overridable with MBP_KERNEL_OUT; lookup count with
    // MBP_KERNEL_LOOKUPS).
    run_phase(&mut phases, "kernel-baseline", || {
        let lookups = std::env::var("MBP_KERNEL_LOOKUPS")
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
            .filter(|&n| n >= 1024)
            .unwrap_or(2_000_000);
        let baseline = mbp_bench::kernelbench::run(lookups);
        print_table(
            &format!(
                "Lookup kernel baseline ({} lookups/workload, consistent: {}, deterministic: {})",
                lookups, baseline.consistent, baseline.deterministic
            ),
            &["workload", "knots", "layout", "lookups/sec"],
            &baseline
                .workloads
                .iter()
                .map(|w| {
                    vec![
                        w.name.clone(),
                        w.knots.to_string(),
                        w.layout.to_string(),
                        fmt(w.lookups_per_sec),
                    ]
                })
                .collect::<Vec<_>>(),
        );
        print_table(
            "Lookup kernel speedups vs partition_point",
            &["ratio", "value"],
            &baseline
                .speedups
                .iter()
                .map(|s| vec![s.name.clone(), fmt(s.value)])
                .collect::<Vec<_>>(),
        );
        let out =
            std::env::var("MBP_KERNEL_OUT").unwrap_or_else(|_| "BENCH_kernel.json".to_string());
        match std::fs::write(&out, baseline.to_json()) {
            Ok(()) => println!("kernel baseline written to {out}"),
            Err(e) => eprintln!("could not write kernel baseline {out}: {e}"),
        }
    });

    // Durability baseline: WAL append throughput, the fsync-interval
    // price curve, and recovery speed (with the recovery-vs-ingest
    // speedup the ratchet hard-floors at 1.0). Writes BENCH_wal.json
    // (overridable with MBP_WAL_OUT; record count with MBP_WAL_RECORDS).
    run_phase(&mut phases, "wal-baseline", || {
        let records = std::env::var("MBP_WAL_RECORDS")
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
            .filter(|&n| n >= 1_000)
            .unwrap_or(200_000);
        let baseline = mbp_bench::walbench::run(records);
        print_table(
            &format!(
                "WAL durability baseline ({} records/workload, deterministic: {})",
                records, baseline.recovery.deterministic
            ),
            &["workload", "fsync_interval", "records/sec", "fsyncs"],
            &baseline
                .workloads
                .iter()
                .map(|w| {
                    vec![
                        w.name.clone(),
                        w.fsync_interval.to_string(),
                        fmt(w.records_per_sec),
                        w.syncs.to_string(),
                    ]
                })
                .collect::<Vec<_>>(),
        );
        print_table(
            "WAL recovery",
            &["records", "seconds", "records/sec", "replay speedup"],
            &[vec![
                baseline.recovery.records.to_string(),
                fmt_secs(baseline.recovery.seconds),
                fmt(baseline.recovery.records_per_sec),
                fmt(baseline.recovery_replay_speedup),
            ]],
        );
        let out = std::env::var("MBP_WAL_OUT").unwrap_or_else(|_| "BENCH_wal.json".to_string());
        match std::fs::write(&out, baseline.to_json()) {
            Ok(()) => println!("wal baseline written to {out}"),
            Err(e) => eprintln!("could not write wal baseline {out}: {e}"),
        }
    });

    // Verification baseline: arbitrage attack, differential oracle, and
    // schedule-exploration throughput from mbp-testkit. Writes
    // BENCH_testkit.json (overridable with MBP_TESTKIT_OUT; trial count
    // with MBP_ATTACK_TRIALS).
    run_phase(&mut phases, "testkit-baseline", || {
        let trials = std::env::var("MBP_ATTACK_TRIALS")
            .ok()
            .and_then(|s| s.parse::<u64>().ok())
            .filter(|&t| t >= 1_000)
            .unwrap_or(20_000);
        let baseline = mbp_bench::attackbench::run(trials);
        print_table(
            &format!(
                "Verification baseline ({} attack trials, clean: {}, deterministic: {})",
                baseline.trials, baseline.clean, baseline.deterministic
            ),
            &["phase", "units", "units/sec", "findings", "deterministic"],
            &baseline
                .phases
                .iter()
                .map(|p| {
                    vec![
                        p.name.to_string(),
                        p.units.to_string(),
                        fmt(p.units_per_sec),
                        p.findings.to_string(),
                        p.deterministic.to_string(),
                    ]
                })
                .collect::<Vec<_>>(),
        );
        let out =
            std::env::var("MBP_TESTKIT_OUT").unwrap_or_else(|_| "BENCH_testkit.json".to_string());
        match std::fs::write(&out, baseline.to_json()) {
            Ok(()) => println!("verification baseline written to {out}"),
            Err(e) => eprintln!("could not write verification baseline {out}: {e}"),
        }
    });

    // Tracing-overhead baseline: what mbp-obs causal tracing costs on the
    // serve path, against its ≤2% (disabled) / ≤10% (enabled) budgets.
    // Writes BENCH_trace.json (overridable with MBP_TRACE_OUT; quote count
    // with MBP_TRACE_QUOTES).
    run_phase(&mut phases, "trace-overhead", || {
        let quotes = std::env::var("MBP_TRACE_QUOTES")
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
            .filter(|&q| q >= 256)
            .unwrap_or(20_000);
        let baseline = mbp_bench::tracebench::run(quotes);
        print_table(
            &format!(
                "Tracing overhead ({} quotes, dim {}, disabled {:+.2}%, enabled {:+.2}%, {} spans, {} exemplars)",
                baseline.quotes,
                baseline.model_dim,
                baseline.overhead_disabled * 100.0,
                baseline.overhead_enabled * 100.0,
                baseline.spans_recorded,
                baseline.exemplars
            ),
            &["workload", "quotes", "quotes/sec", "deterministic"],
            &baseline
                .workloads
                .iter()
                .map(|w| {
                    vec![
                        w.name.to_string(),
                        w.quotes.to_string(),
                        fmt(w.quotes_per_sec),
                        w.deterministic.to_string(),
                    ]
                })
                .collect::<Vec<_>>(),
        );
        let out = std::env::var("MBP_TRACE_OUT").unwrap_or_else(|_| "BENCH_trace.json".to_string());
        match std::fs::write(&out, baseline.to_json()) {
            Ok(()) => println!("tracing baseline written to {out}"),
            Err(e) => eprintln!("could not write tracing baseline {out}: {e}"),
        }
    });

    // Static-analysis timing: the per-file rule pass and the full
    // interprocedural pass (workspace call graph + reach-panic /
    // taint-det / lock-graph) over this workspace, so an analyzer
    // slowdown shows up in the same ratchet as every other phase. Both
    // passes must come back clean against the checked-in baseline.
    run_phase(&mut phases, "lintbench", || {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let baseline = root.join("lint.toml");
        let rows: Vec<(&str, Result<mbp_lint::Report, std::io::Error>, f64)> =
            [("per-file rules", false), ("interprocedural", true)]
                .into_iter()
                .map(|(name, interproc)| {
                    let t0 = std::time::Instant::now();
                    let report = if interproc {
                        mbp_lint::run_interprocedural(&root, Some(&baseline), None)
                    } else {
                        mbp_lint::run(&root, Some(&baseline))
                    };
                    (name, report, t0.elapsed().as_secs_f64())
                })
                .collect();
        print_table(
            "Static analysis (mbp-lint over this workspace)",
            &["pass", "files", "findings", "clean", "runtime"],
            &rows
                .iter()
                .map(|(name, report, secs)| match report {
                    Ok(r) => vec![
                        name.to_string(),
                        r.files_scanned.to_string(),
                        r.findings.len().to_string(),
                        r.is_clean().to_string(),
                        fmt_secs(*secs),
                    ],
                    Err(e) => vec![
                        name.to_string(),
                        "-".to_string(),
                        format!("error: {e}"),
                        "false".to_string(),
                        fmt_secs(*secs),
                    ],
                })
                .collect::<Vec<_>>(),
        );
    });

    // Per-phase wall times and metric volume.
    print_table(
        "Observability: phase timings",
        &["phase", "runtime", "counters", "gauges", "histograms"],
        &phases
            .iter()
            .map(|r| {
                vec![
                    r.name.to_string(),
                    fmt_secs(r.secs),
                    r.snapshot.counters.len().to_string(),
                    r.snapshot.gauges.len().to_string(),
                    r.snapshot.histograms.len().to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    );
    for r in &phases {
        if !r.snapshot.is_empty() {
            print_metrics(&format!("Metrics: {}", r.name), &r.snapshot);
        }
    }

    // Machine-readable artifact next to the report.
    let out_path =
        std::env::var("MBP_METRICS_OUT").unwrap_or_else(|_| "experiments/metrics.json".to_string());
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        if !dir.as_os_str().is_empty() {
            let _ = std::fs::create_dir_all(dir);
        }
    }
    match std::fs::write(&out_path, phases_to_json(&phases)) {
        Ok(()) => println!("metrics artifact written to {out_path}"),
        Err(e) => eprintln!("could not write metrics artifact {out_path}: {e}"),
    }
}
