//! Bench ratchet: the one driver for the `BENCH_*.json` records. For every
//! record in [`mbp_bench::ratchet::BENCHES`] it measures a fresh run at the
//! committed record's `params`, writes it to `target/bench/<file>`, diffs
//! it against the committed file with [`mbp_bench::ratchet::compare`],
//! prints every check, and exits non-zero when any check failed or any
//! record could not be read, measured or written.
//!
//! Knobs: `MBP_BASELINE_DIR` (where the committed records live, default
//! `.`) and `MBP_RATCHET_TOL` / `MBP_RATCHET_RATIO_TOL` (widen the
//! latency/throughput and ratio bands for slow or shared runners). To
//! regenerate a committed record, run with `MBP_BENCH_COMMIT` and
//! `MBP_BENCH_TIME` set and copy its file from `target/bench/`.

use mbp_bench::ratchet::{RatchetConfig, BENCHES, FRESH_DIR};
use std::path::Path;

fn main() {
    let dir = std::env::var("MBP_BASELINE_DIR").unwrap_or_else(|_| ".".to_string());
    let cfg = RatchetConfig::from_env();
    let mut failed = false;

    mbp_obs::enable();

    for bench in BENCHES {
        match bench.check(Path::new(&dir), Path::new(FRESH_DIR), &cfg) {
            Ok(report) => {
                println!("[{}] {}", bench.label, report.render().trim_end());
                failed |= !report.pass();
            }
            Err(e) => {
                println!("[{}] ERROR: {e}", bench.label);
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
