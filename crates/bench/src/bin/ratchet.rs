//! Bench ratchet entry point for CI: re-measures every ratcheted baseline
//! (serving, network serving, lookup kernel, durability, testkit and
//! tracing overhead), diffs each fresh record against the committed
//! `BENCH_*.json` with [`mbp_bench::ratchet::compare`], prints every
//! check, and exits non-zero when any failed.
//!
//! Each fresh run takes its sizes from the committed record's `params`, so
//! it is measured at the scale it is compared with. Knobs:
//! `MBP_BASELINE_DIR` (where the committed records live, default `.`),
//! `MBP_RATCHET_TOL` / `MBP_RATCHET_RATIO_TOL` (widen the
//! latency/throughput and ratio bands for slow or shared runners), and
//! `MBP_TRACE_BUDGET_DISABLED` / `MBP_TRACE_BUDGET_ENABLED` (fresh-run
//! overhead budgets; the committed record is always held to the strict
//! 2% / 10%). `BENCH_parallel.json` is not ratcheted: two noisy vCPUs
//! cannot show its speedups.

use mbp_bench::ratchet::{compare, RatchetConfig};
use mbp_bench::record::Record;
use mbp_bench::{attackbench, kernelbench, netbench, servebench, tracebench, walbench};

/// A ratcheted baseline: its label, committed file, and the fresh run at
/// the committed record's sizes.
type Bench = (
    &'static str,
    &'static str,
    fn(&Record) -> Result<Record, String>,
);

const BENCHES: [Bench; 6] = [
    ("serving", "BENCH_serving.json", |c| {
        Ok(servebench::run(c.size("quotes")?))
    }),
    ("serve-net", "BENCH_serve_net.json", |c| {
        Ok(netbench::run(c.size("requests_per_conn")?))
    }),
    ("kernel", "BENCH_kernel.json", |c| {
        Ok(kernelbench::run(c.size("lookups")?))
    }),
    ("wal", "BENCH_wal.json", |c| {
        Ok(walbench::run(c.size("records")?))
    }),
    ("testkit", "BENCH_testkit.json", |c| {
        Ok(attackbench::run(c.size("trials")? as u64))
    }),
    ("trace", "BENCH_trace.json", |c| {
        Ok(tracebench::run_with_dim(
            c.size("quotes")?,
            c.size("model_dim")?,
        ))
    }),
];

fn main() {
    let dir = std::env::var("MBP_BASELINE_DIR").unwrap_or_else(|_| ".".to_string());
    let cfg = RatchetConfig::from_env();
    let mut failed = false;

    mbp_obs::enable();

    for (label, file, fresh_run) in BENCHES {
        let path = std::path::Path::new(&dir).join(file);
        let verdict = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))
            .and_then(|text| Record::parse(&text).map_err(|e| format!("{file}: {e}")))
            .and_then(|committed| {
                println!(
                    "measuring {label} at the committed {:?}...",
                    committed.params
                );
                Ok(compare(&committed, &fresh_run(&committed)?, &cfg))
            });
        match verdict {
            Ok(report) => {
                println!("[{label}] {}", report.render().trim_end());
                failed |= !report.pass();
            }
            Err(e) => {
                println!("[{label}] ERROR: {e}");
                failed = true;
            }
        }
    }

    if failed {
        println!("ratchet: FAIL");
        std::process::exit(1);
    }
    println!("ratchet: pass");
}
