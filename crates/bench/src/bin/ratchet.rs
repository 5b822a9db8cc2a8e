//! Bench ratchet entry point for CI: re-measures the serving, testkit,
//! and tracing baselines at smoke scale, diffs them against the committed
//! `BENCH_*.json` artifacts, and exits non-zero when any metric stopped
//! improving beyond its tolerance band.
//!
//! Knobs: `MBP_BASELINE_DIR` (where the committed artifacts live, default
//! `.`), `MBP_RATCHET_TOL` / `MBP_RATCHET_RATIO_TOL` (widen the
//! absolute-latency and ratio bands for slow or shared runners),
//! `MBP_SERVE_QUOTES` / `MBP_NET_REQUESTS` / `MBP_KERNEL_LOOKUPS` /
//! `MBP_ATTACK_TRIALS` / `MBP_TRACE_QUOTES` (fresh-run sizes), and
//! `MBP_TRACE_BUDGET_DISABLED` / `MBP_TRACE_BUDGET_ENABLED` (fresh-run
//! overhead budgets; the committed artifact is always held to the strict
//! 2% / 10% contract). The durability run takes its record count from the
//! committed `BENCH_wal.json`, so its ingest/recovery ratio is measured at
//! the scale it is compared with.

use mbp_bench::ratchet::{
    check_trace_overhead, compare_kernel, compare_serve_net, compare_serving, compare_testkit,
    compare_wal, parse_json, Json, RatchetConfig, RatchetReport,
};

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .unwrap_or(default)
}

fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|v| v.is_finite() && *v >= 0.0)
        .unwrap_or(default)
}

fn read_baseline(dir: &str, file: &str) -> Result<String, String> {
    let path = std::path::Path::new(dir).join(file);
    std::fs::read_to_string(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

fn check(label: &str, result: Result<RatchetReport, String>, failed: &mut bool) {
    match result {
        Ok(report) => {
            println!("[{label}] {}", report.render().trim_end());
            if !report.pass() {
                *failed = true;
            }
        }
        Err(e) => {
            println!("[{label}] ERROR: {e}");
            *failed = true;
        }
    }
}

fn main() {
    let dir = std::env::var("MBP_BASELINE_DIR").unwrap_or_else(|_| ".".to_string());
    let cfg = RatchetConfig::from_env();
    let mut failed = false;

    mbp_obs::enable();

    // 1. The committed tracing artifact must meet the strict budgets: the
    // serve path costs ≤2% with tracing compiled in but disabled, ≤10%
    // with tracing on.
    match read_baseline(&dir, "BENCH_trace.json") {
        Ok(committed) => check(
            "trace-budgets(committed)",
            check_trace_overhead(&committed, 0.02, 0.10),
            &mut failed,
        ),
        Err(e) => {
            println!("[trace-budgets(committed)] ERROR: {e}");
            failed = true;
        }
    }

    // 2. Fresh smoke measurements against the committed baselines.
    match read_baseline(&dir, "BENCH_serving.json") {
        Ok(committed) => {
            let quotes = env_usize("MBP_SERVE_QUOTES", 4_000);
            println!("measuring serving baseline ({quotes} quotes)...");
            let fresh = mbp_bench::servebench::run(quotes).to_json();
            check(
                "serving",
                compare_serving(&committed, &fresh, &cfg),
                &mut failed,
            );
        }
        Err(e) => {
            println!("[serving] ERROR: {e}");
            failed = true;
        }
    }

    match read_baseline(&dir, "BENCH_serve_net.json") {
        Ok(committed) => {
            let per_conn = env_usize("MBP_NET_REQUESTS", 512);
            println!("measuring network serving baseline ({per_conn} requests/conn)...");
            let fresh = mbp_bench::netbench::run(per_conn).to_json();
            check(
                "serve-net",
                compare_serve_net(&committed, &fresh, &cfg),
                &mut failed,
            );
        }
        Err(e) => {
            println!("[serve-net] ERROR: {e}");
            failed = true;
        }
    }

    match read_baseline(&dir, "BENCH_kernel.json") {
        Ok(committed) => {
            let lookups = env_usize("MBP_KERNEL_LOOKUPS", 200_000);
            println!("measuring lookup-kernel baseline ({lookups} lookups/workload)...");
            let fresh = mbp_bench::kernelbench::run(lookups).to_json();
            check(
                "kernel",
                compare_kernel(&committed, &fresh, &cfg),
                &mut failed,
            );
        }
        Err(e) => {
            println!("[kernel] ERROR: {e}");
            failed = true;
        }
    }

    match read_baseline(&dir, "BENCH_wal.json") {
        Ok(committed) => {
            let records = parse_json(&committed)
                .ok()
                .and_then(|doc| doc.get("records").and_then(Json::as_f64));
            if let Some(records) = records {
                let records = records as usize;
                println!("measuring durability baseline ({records} records/workload)...");
                let fresh = mbp_bench::walbench::run(records).to_json();
                check("wal", compare_wal(&committed, &fresh, &cfg), &mut failed);
            } else {
                println!("[wal] ERROR: committed BENCH_wal.json has no numeric 'records'");
                failed = true;
            }
        }
        Err(e) => {
            println!("[wal] ERROR: {e}");
            failed = true;
        }
    }

    match read_baseline(&dir, "BENCH_testkit.json") {
        Ok(committed) => {
            let trials = env_usize("MBP_ATTACK_TRIALS", 2_000) as u64;
            println!("measuring testkit baseline ({trials} trials)...");
            let fresh = mbp_bench::attackbench::run(trials).to_json();
            check(
                "testkit",
                compare_testkit(&committed, &fresh, &cfg),
                &mut failed,
            );
        }
        Err(e) => {
            println!("[testkit] ERROR: {e}");
            failed = true;
        }
    }

    // 3. Fresh tracing overhead, with runner-adjustable budgets. Shared or
    // single-core machines time the floor-vs-disabled delta very noisily,
    // so the fresh re-measurement is a gross-regression guard (catching
    // e.g. an accidental syscall or allocation on the disabled path); the
    // committed artifact already carries the strict 2%/10% verdict.
    {
        let quotes = env_usize("MBP_TRACE_QUOTES", 12_000);
        let disabled_budget = env_f64("MBP_TRACE_BUDGET_DISABLED", 0.25);
        let enabled_budget = env_f64("MBP_TRACE_BUDGET_ENABLED", 0.50);
        println!("measuring tracing overhead ({quotes} quotes)...");
        let fresh = mbp_bench::tracebench::run(quotes).to_json();
        check(
            "trace-overhead(fresh)",
            check_trace_overhead(&fresh, disabled_budget, enabled_budget),
            &mut failed,
        );
    }

    if failed {
        println!("ratchet: FAIL");
        std::process::exit(1);
    }
    println!("ratchet: pass");
}
