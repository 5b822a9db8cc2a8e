//! Experiment harness regenerating every table and figure of the MBP paper.
//!
//! Each `fn fig*` / `fn table3` returns structured rows that the
//! corresponding binary (`cargo run -p mbp-bench --bin fig6 --release`, …)
//! prints as TSV, and that the integration tests assert shape properties
//! on (monotone error curves, MBP revenue dominance, exponential-vs-
//! polynomial runtime growth).
//!
//! Knobs (environment variables, read by [`Config::from_env`]):
//!
//! * `MBP_SCALE` — fraction of the paper's dataset sizes to materialize
//!   (default `0.002`; set `1.0` to reproduce Table 3 sizes exactly);
//! * `MBP_REPS` — noisy models per NCP grid point for Figure 6
//!   (default `200`; the paper uses `2000`);
//! * `MBP_MAX_N` — largest number of price points for Figures 9–10
//!   (default `10`, like the paper).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attackbench;
pub mod experiments;
pub mod kernelbench;
pub mod netbench;
pub mod parbench;
pub mod ratchet;
pub mod record;
pub mod report;
pub mod servebench;
pub mod tracebench;
pub mod walbench;

/// Provenance stamped into every `BENCH_*.json` artifact: the machine's
/// hardware thread count plus a commit-ish and run timestamp *passed in by
/// the caller* (via `MBP_BENCH_COMMIT` / `MBP_BENCH_TIME`). The baselines
/// never read `SystemTime::now` themselves, so regenerating a baseline is
/// a pure function of its inputs and the stamped environment.
#[derive(Debug, Clone, PartialEq)]
pub struct RunMeta {
    /// `std::thread::available_parallelism()` on the generating machine.
    pub hardware_threads: usize,
    /// Commit-ish the artifact was generated from (`"unknown"` when unset).
    pub commit: String,
    /// Caller-supplied run timestamp (`"unknown"` when unset).
    pub generated_at: String,
}

/// Keeps a stamped string JSON-safe without an escaping pass: only commit
/// hashes, refs, and RFC-3339-style timestamps survive.
fn sanitize_stamp(s: &str) -> String {
    let cleaned: String = s
        .chars()
        .filter(|c| c.is_ascii_alphanumeric() || "-_.:+TZ ".contains(*c))
        .take(64)
        .collect();
    if cleaned.is_empty() {
        "unknown".to_string()
    } else {
        cleaned
    }
}

impl RunMeta {
    /// Reads the stamp from `MBP_BENCH_COMMIT` and `MBP_BENCH_TIME`.
    pub fn from_env() -> Self {
        RunMeta {
            hardware_threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            commit: sanitize_stamp(&std::env::var("MBP_BENCH_COMMIT").unwrap_or_default()),
            generated_at: sanitize_stamp(&std::env::var("MBP_BENCH_TIME").unwrap_or_default()),
        }
    }
}

/// Experiment-scale configuration.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Dataset scale relative to the paper's Table 3 sizes.
    pub scale: f64,
    /// Monte-Carlo replicas per NCP for the error-transformation curves.
    pub reps: usize,
    /// Largest price-point count for the runtime sweeps.
    pub max_n: usize,
    /// Master seed.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            scale: 0.002,
            reps: 200,
            max_n: 10,
            seed: 20190630, // SIGMOD '19 opening day
        }
    }
}

impl Config {
    /// Reads the config from `MBP_SCALE` / `MBP_REPS` / `MBP_MAX_N`
    /// environment variables, falling back to defaults.
    pub fn from_env() -> Self {
        let mut cfg = Config::default();
        if let Ok(s) = std::env::var("MBP_SCALE") {
            if let Ok(v) = s.parse::<f64>() {
                assert!(v > 0.0 && v <= 1.0, "MBP_SCALE must be in (0, 1]");
                cfg.scale = v;
            }
        }
        if let Ok(s) = std::env::var("MBP_REPS") {
            if let Ok(v) = s.parse::<usize>() {
                assert!(v > 0, "MBP_REPS must be positive");
                cfg.reps = v;
            }
        }
        if let Ok(s) = std::env::var("MBP_MAX_N") {
            if let Ok(v) = s.parse::<usize>() {
                assert!(v >= 2, "MBP_MAX_N must be at least 2");
                cfg.max_n = v;
            }
        }
        cfg
    }
}
