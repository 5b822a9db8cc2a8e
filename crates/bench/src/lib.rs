//! Experiment harness regenerating every table and figure of the MBP paper.
//!
//! Each experiment function in [`experiments`] (`fn table3`, `fn fig*`, the
//! extensions) returns structured rows that the integration tests assert
//! shape properties on (monotone error curves, MBP revenue dominance,
//! exponential-vs-polynomial runtime growth). [`experiments::EXPERIMENTS`]
//! renders each experiment's rows as its tables, once, and
//! `cargo run -p mbp-bench --release --bin all` prints them as one report
//! with a `## ` section per table.
//!
//! Knobs (environment variables, read by [`Config::from_env`]):
//!
//! * `MBP_SCALE` — fraction of the paper's dataset sizes to materialize
//!   (default `0.002`; set `1.0` to reproduce Table 3 sizes exactly);
//! * `MBP_REPS` — noisy models per NCP grid point for Figure 6
//!   (default `200`; the paper uses `2000`);
//! * `MBP_MAX_N` — largest number of price points for Figures 9–10
//!   (default `10`, like the paper).
//!
//! A malformed or out-of-range value is an error naming the variable.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attackbench;
pub mod experiments;
pub mod kernelbench;
pub mod netbench;
pub mod ratchet;
pub mod record;
pub mod report;
pub mod servebench;
pub mod tracebench;
pub mod walbench;

use mbp_core::error::SquareLossTransform;
use mbp_core::market::{Broker, PurchaseRequest};
use mbp_core::PricingFunction;
use mbp_ml::ModelKind;

/// Knots of [`dense_pricing`].
pub const DENSE_KNOTS: usize = 512;

/// The serving baselines' curve: `p̄(x) = 10·√x` on [`DENSE_KNOTS`]
/// knots `1.25, 1.5, …` (monotone and subadditive).
pub fn dense_pricing() -> PricingFunction {
    let grid: Vec<f64> = (1..=DENSE_KNOTS).map(|i| 1.0 + i as f64 * 0.25).collect();
    let prices: Vec<f64> = grid.iter().map(|x| 10.0 * x.sqrt()).collect();
    PricingFunction::from_points(grid, prices).expect("curve is arbitrage-free")
}

/// The serving baselines' purchase stream: all three request kinds, all
/// satisfiable against [`dense_pricing`] with the square-loss transform.
/// Request `i` takes its kind from `offset + i` and its value from `i`, so
/// streams at different offsets (one per daemon connection) differ.
pub fn request_stream(offset: usize, n: usize) -> Vec<PurchaseRequest> {
    (0..n)
        .map(|i| match (offset + i) % 3 {
            0 => PurchaseRequest::AtNcp(0.1 + (i % 37) as f64 * 0.05),
            1 => PurchaseRequest::ErrorBudget(0.5 + (i % 23) as f64 * 0.1),
            _ => PurchaseRequest::PriceBudget(12.0 + (i % 50) as f64),
        })
        .collect()
}

/// A broker serving [`dense_pricing`] with the square-loss transform for
/// a linear regression trained on 400 seeded `simulated1` rows of
/// dimension `dim`. Rows may be fewer than `dim`: the ridge keeps the Gram
/// positive definite, and the serving baselines depend only on the
/// model's dimension.
pub fn listed_broker(dim: usize) -> Broker {
    let mut rng = mbp_randx::seeded_rng(0xA11);
    let data = mbp_data::synth::simulated1(400, dim, 0.5, &mut rng).split(0.75, &mut rng);
    let mut broker = Broker::new(data);
    broker
        .support(ModelKind::LinearRegression, 1e-6)
        .expect("training failed");
    broker
        .publish(
            ModelKind::LinearRegression,
            dense_pricing(),
            Box::new(SquareLossTransform),
        )
        .expect("listing accepted");
    broker
}

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

/// Reads knob `name` through `get`: `None` when it is unset, otherwise its
/// value parsed as `T` if `valid` accepts it, and an error naming the
/// variable and what it must be (`expect`) when it does not parse or is
/// out of range.
pub(crate) fn knob<T: std::str::FromStr + Copy>(
    get: &dyn Fn(&str) -> Option<String>,
    name: &str,
    expect: &str,
    valid: fn(T) -> bool,
) -> Result<Option<T>, String> {
    let Some(raw) = get(name) else {
        return Ok(None);
    };
    match raw.trim().parse::<T>() {
        Ok(v) if valid(v) => Ok(Some(v)),
        _ => Err(format!("{name} must be {expect}, got {raw:?}")),
    }
}

/// The process environment as a knob source for [`knob`].
pub(crate) fn env_var(name: &str) -> Option<String> {
    std::env::var_os(name).map(|v| v.to_string_lossy().into_owned())
}

/// Unwraps a knob result, or prints `error: ...` and exits 1.
pub(crate) fn or_exit<T>(r: Result<T, String>) -> T {
    r.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1)
    })
}

impl Config {
    /// Reads the config from the `MBP_SCALE` / `MBP_REPS` / `MBP_MAX_N`
    /// knobs in `get`, falling back to defaults for unset ones.
    pub fn parse(get: &dyn Fn(&str) -> Option<String>) -> Result<Self, String> {
        let d = Config::default();
        Ok(Config {
            scale: knob(get, "MBP_SCALE", "a number in (0, 1]", |v: f64| {
                v > 0.0 && v <= 1.0
            })?
            .unwrap_or(d.scale),
            reps: knob(get, "MBP_REPS", "a positive integer", |v: usize| v > 0)?.unwrap_or(d.reps),
            max_n: knob(get, "MBP_MAX_N", "an integer of at least 2", |v: usize| {
                v >= 2
            })?
            .unwrap_or(d.max_n),
            seed: d.seed,
        })
    }

    /// [`Config::parse`] over the process environment; a malformed or
    /// out-of-range value exits the process with an error naming it.
    pub fn from_env() -> Self {
        or_exit(Config::parse(&env_var))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_reads_every_knob_and_defaults_the_rest() {
        let get = |n: &str| match n {
            "MBP_SCALE" => Some("0.5".to_string()),
            "MBP_MAX_N" => Some(" 6".to_string()),
            _ => None,
        };
        let cfg = Config::parse(&get).expect("valid");
        assert_eq!((cfg.scale, cfg.reps, cfg.max_n), (0.5, 200, 6));
    }

    #[test]
    fn bad_config_values_are_errors_naming_the_variable() {
        for (name, raw) in [
            ("MBP_SCALE", "abc"),
            ("MBP_SCALE", "0"),
            ("MBP_SCALE", "1.5"),
            ("MBP_SCALE", "NaN"),
            ("MBP_REPS", "0"),
            ("MBP_REPS", "-3"),
            ("MBP_REPS", "2.5"),
            ("MBP_MAX_N", "1"),
            ("MBP_MAX_N", ""),
        ] {
            let get = |n: &str| (n == name).then(|| raw.to_string());
            let err = Config::parse(&get).expect_err(raw);
            assert!(err.starts_with(name), "{name}={raw:?}: {err}");
        }
    }
}
