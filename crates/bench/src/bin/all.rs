//! Runs the entire experiment suite — every paper table/figure plus the
//! extension experiments, in the order of
//! [`mbp_bench::experiments::EXPERIMENTS`] — and prints one combined report.
//!
//! `cargo run -p mbp-bench --release --bin all` regenerates every table
//! and figure EXPERIMENTS.md records; each is a `## ` section of the
//! report. The run is observability-instrumented: every phase executes
//! with the `mbp-obs` registry enabled, its wall time and metrics snapshot
//! are collected, and a combined JSON artifact is written next to the
//! report (`experiments/metrics.json`, overridable with `MBP_METRICS_OUT`);
//! a run that cannot write it exits 1, and so does a run whose
//! `lintbench` phase finds either `mbp-lint` pass failed or unclean. The
//! `BENCH_*.json` records, EXPERIMENTS.md's solver and noise timings among
//! them, are the `ratchet` binary's.

use mbp_bench::experiments::EXPERIMENTS;
use mbp_bench::report::{fmt_secs, print_metrics, Table};
use mbp_bench::Config;
use std::path::Path;
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

    for e in EXPERIMENTS {
        run_phase(&mut phases, e.name, || {
            for table in (e.tables)(&cfg) {
                table.print();
            }
        });
    }

    // Static-analysis timing: the per-file rule pass and the full
    // interprocedural pass (workspace call graph + reach-panic /
    // taint-det / lock-graph) over this workspace, so an analyzer
    // slowdown shows up in the phase timings beside the experiments. Both
    // passes must come back clean against the checked-in baseline: a pass
    // that errors or is not clean fails the run once the report is out.
    let mut unclean_passes: Vec<&str> = Vec::new();
    run_phase(&mut phases, "lintbench", || {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let baseline = root.join("lint.toml");
        let rows: Vec<(&str, Result<mbp_lint::Report, std::io::Error>, f64)> =
            [("per-file rules", false), ("interprocedural", true)]
                .into_iter()
                .map(|(name, interproc)| {
                    let t0 = Instant::now();
                    let report = if interproc {
                        mbp_lint::run_interprocedural(&root, Some(&baseline), None)
                    } else {
                        mbp_lint::run(&root, Some(&baseline))
                    };
                    (name, report, t0.elapsed().as_secs_f64())
                })
                .collect();
        unclean_passes.extend(
            rows.iter()
                .filter(|(_, report, _)| !report.as_ref().is_ok_and(|r| r.is_clean()))
                .map(|(name, _, _)| *name),
        );
        Table::new(
            "Static analysis (mbp-lint over this workspace)",
            &["pass", "files", "findings", "clean", "runtime"],
            rows.iter()
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
                .collect(),
        )
        .print();
    });

    // Per-phase wall times and metric volume.
    Table::new(
        "Observability: phase timings",
        &["phase", "runtime", "counters", "gauges", "histograms"],
        phases
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
            .collect(),
    )
    .print();
    for r in &phases {
        if !r.snapshot.is_empty() {
            print_metrics(&format!("Metrics: {}", r.name), &r.snapshot);
        }
    }

    // Machine-readable artifact next to the report.
    let out_path =
        std::env::var("MBP_METRICS_OUT").unwrap_or_else(|_| "experiments/metrics.json".to_string());
    if let Err(e) = write_artifact(Path::new(&out_path), &phases_to_json(&phases)) {
        eprintln!("error: could not write metrics artifact {out_path}: {e}");
        std::process::exit(1);
    }
    println!("metrics artifact written to {out_path}");
    if !unclean_passes.is_empty() {
        eprintln!(
            "error: lintbench: the {} pass{} did not come back clean (see \"Static analysis\" above)",
            unclean_passes.join(" and "),
            if unclean_passes.len() == 1 { "" } else { "es" }
        );
        std::process::exit(1);
    }
}

/// Writes `json` to `path`, creating its parent directory first.
fn write_artifact(path: &Path, json: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, json)
}
