//! Speedup baseline for the `mbp-par` parallel hot paths.
//!
//! Times each parallelized phase of the workspace — Gram/matmul kernels,
//! training-loss gradients, revenue/welfare population evaluation, Gaussian
//! noise sampling, and the sharded market simulation — at 1, 2, and 4
//! threads (via [`mbp_par::with_threads`], so one process measures all
//! three), and records per-phase speedups plus a determinism digest. The
//! `all` binary serializes the result to `BENCH_parallel.json`.
//!
//! Speedups are hardware-dependent: on a single-core container every
//! configuration multiplexes onto one CPU and speedups hover around 1.0
//! (the `hardware_threads` field records what the box offered), while on a
//! multi-core machine the chunked phases scale with the thread count.

use mbp_core::market::curves::{grid, DemandCurve, DemandShape, ValueCurve, ValueShape};
use mbp_core::market::simulation::{simulate_market, SimulationConfig};
use mbp_core::market::{Broker, Seller};
use mbp_core::mechanism::{GaussianMechanism, NoiseMechanism};
use mbp_core::revenue::{solve_bv_dp, welfare, BuyerPoint};
use mbp_linalg::{Matrix, Vector};
use mbp_ml::{LogisticLoss, ModelKind, Objective};
use mbp_randx::seeded_rng;
use std::time::Instant;

/// The thread counts every phase is measured at.
pub const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

/// One measured phase: wall seconds per thread count, plus a determinism
/// check (the phase's output digest compared across thread counts).
#[derive(Debug, Clone)]
pub struct PhaseResult {
    /// Phase label.
    pub name: &'static str,
    /// Min-of-reps wall seconds, aligned with [`THREAD_COUNTS`].
    pub seconds: Vec<f64>,
    /// Output digest per thread count (order-insensitive scalar summary).
    pub digests: Vec<f64>,
    /// Whether the digests agree across thread counts (relative 1e-9).
    pub deterministic: bool,
}

impl PhaseResult {
    /// Speedup of the `threads`-way run over the 1-thread run (1.0 when the
    /// measurement is degenerate).
    pub fn speedup_at(&self, threads: usize) -> f64 {
        let i = THREAD_COUNTS.iter().position(|&t| t == threads);
        match i {
            Some(i) if self.seconds[i] > 0.0 => self.seconds[0] / self.seconds[i],
            _ => 1.0,
        }
    }
}

/// The full baseline: environment description plus per-phase results.
#[derive(Debug, Clone)]
pub struct ParallelBaseline {
    /// Thread counts measured (always [`THREAD_COUNTS`]).
    pub threads: Vec<usize>,
    /// Provenance: the hardware thread count (speedups above 1.0 are only
    /// physically possible up to it), commit and run time.
    pub meta: crate::RunMeta,
    /// The pool size the process would use absent overrides
    /// (`--threads` / `MBP_THREADS` / hardware).
    pub default_threads: usize,
    /// Timing repetitions per (phase, thread count); min is recorded.
    pub reps: usize,
    /// Per-phase measurements.
    pub phases: Vec<PhaseResult>,
}

fn digests_agree(digests: &[f64]) -> bool {
    let d0 = digests[0];
    digests
        .iter()
        .all(|&d| (d - d0).abs() <= 1e-9 * d0.abs().max(1.0))
}

/// Times `work` at every [`THREAD_COUNTS`] entry, `reps` times each,
/// recording the minimum wall time and the first run's digest.
fn measure(name: &'static str, reps: usize, work: &dyn Fn() -> f64) -> PhaseResult {
    let mut seconds = Vec::with_capacity(THREAD_COUNTS.len());
    let mut digests = Vec::with_capacity(THREAD_COUNTS.len());
    for &t in &THREAD_COUNTS {
        mbp_par::with_threads(t, || {
            let mut best = f64::INFINITY;
            let mut digest = 0.0;
            for rep in 0..reps.max(1) {
                let t0 = Instant::now();
                let d = work();
                best = best.min(t0.elapsed().as_secs_f64());
                if rep == 0 {
                    digest = d;
                }
            }
            seconds.push(best);
            digests.push(digest);
        });
    }
    let deterministic = digests_agree(&digests);
    PhaseResult {
        name,
        seconds,
        digests,
        deterministic,
    }
}

/// Deterministic pseudo-data without touching any RNG stream: a dense
/// matrix whose entries cycle through a fixed rational pattern.
fn patterned_matrix(rows: usize, cols: usize) -> Matrix {
    let data: Vec<f64> = (0..rows * cols)
        .map(|i| ((i * 31 + 7) % 101) as f64 / 101.0 - 0.5)
        .collect();
    Matrix::from_vec(rows, cols, data).expect("shape is consistent")
}

/// Runs the full baseline: five phases, each at 1/2/4 threads.
pub fn run(reps: usize) -> ParallelBaseline {
    let _span = mbp_obs::span("mbp.bench.parbench");

    // Phase inputs are built once, outside the timed sections. The gram
    // input (4096×96) sits *below* the parallel work grain on purpose: it
    // is the size class that regressed under the earlier 500k grain
    // (0.70× at 4 threads), so the phase now certifies that mid-size
    // inputs take the serial path at every thread count (speedup ≈ 1.0)
    // instead of paying the fork/join handoff.
    let gram_input = patterned_matrix(4096, 96);
    let matmul_a = patterned_matrix(384, 320);
    let matmul_b = patterned_matrix(320, 384);

    let mut rng = seeded_rng(0x9a11);
    let clf = mbp_data::synth::simulated2(24_000, 24, 0.9, &mut rng);
    let loss = LogisticLoss::ridge(1e-4);
    let w0 = Vector::from_vec(vec![0.05; 24]);

    let g = grid(10.0, 100.0, 12);
    let value = ValueCurve::new(ValueShape::Concave { power: 2.0 }, 5.0, 100.0);
    let demand = DemandCurve::new(DemandShape::Peak {
        center: 0.5,
        width: 0.3,
    });
    let seed_buyers =
        mbp_core::market::curves::buyer_points(&g, &value, &demand).expect("bench grid is valid");
    let pricing = solve_bv_dp(&seed_buyers).pricing;
    // A large synthetic population on the same grid for the welfare phase.
    let population: Vec<BuyerPoint> = (0..150_000)
        .map(|i| {
            let t = (i % 1000) as f64 / 999.0;
            let a = 10.0 + 90.0 * t;
            BuyerPoint::new(a, value.value_at_unit(t), 1.0 / 150_000.0)
        })
        .collect();

    let noise_dim = 1 << 16;
    let noise_model = Vector::from_vec(vec![0.25; noise_dim]);

    let mut rng = seeded_rng(0x51ab);
    let sim_data = mbp_data::synth::simulated1(1200, 4, 0.5, &mut rng).split(0.75, &mut rng);
    let seller = Seller::new(sim_data.clone(), g.clone(), value, demand);
    let sim_pricing = pricing.clone();

    let phases = vec![
        measure("linalg-gram", reps, &|| {
            gram_input.gram().as_slice().iter().sum()
        }),
        measure("linalg-matmul", reps, &|| {
            matmul_a
                .matmul(&matmul_b)
                .expect("shapes agree")
                .as_slice()
                .iter()
                .sum()
        }),
        measure("ml-gradient", reps, &|| {
            let mut acc = 0.0;
            for _ in 0..6 {
                acc += loss.gradient(&w0, &clf).as_slice().iter().sum::<f64>();
            }
            acc
        }),
        measure("revenue-welfare", reps, &|| {
            let w = welfare(&pricing, &population);
            w.revenue + w.buyer_surplus + w.affordability
        }),
        measure("mechanism-noise", reps, &|| {
            let mut rng = seeded_rng(0x4e01);
            let released = GaussianMechanism.perturb(&noise_model, 2.0, &mut rng);
            released.as_slice().iter().sum()
        }),
        measure("market-simulate", reps, &|| {
            let mut broker = Broker::new(sim_data.clone());
            broker
                .support(ModelKind::LinearRegression, 1e-6)
                .expect("training failed");
            broker
                .publish(
                    ModelKind::LinearRegression,
                    sim_pricing.clone(),
                    Box::new(mbp_core::error::SquareLossTransform),
                )
                .expect("linear regression is on the menu");
            let out = simulate_market(
                &mut broker,
                &seller,
                ModelKind::LinearRegression,
                SimulationConfig {
                    n_buyers: 4000,
                    valuation_jitter: 0.05,
                },
                0x5ea5,
            )
            .expect("simulation failed");
            out.realized_revenue_per_buyer * out.served as f64
        }),
    ];

    ParallelBaseline {
        threads: THREAD_COUNTS.to_vec(),
        meta: crate::RunMeta::from_env(),
        default_threads: mbp_par::default_threads(),
        reps,
        phases,
    }
}

impl ParallelBaseline {
    /// Serializes the baseline as a standalone JSON document
    /// (`BENCH_parallel.json`).
    pub fn to_json(&self) -> String {
        let list = |v: &[f64]| {
            v.iter()
                .map(|x| format!("{x:.6}"))
                .collect::<Vec<_>>()
                .join(", ")
        };
        let mut out = String::from("{\n");
        out.push_str(&format!(
            "  \"threads\": [{}],\n",
            self.threads
                .iter()
                .map(usize::to_string)
                .collect::<Vec<_>>()
                .join(", ")
        ));
        out.push_str(&self.meta.json_fields());
        out.push_str(&format!(
            "  \"default_threads\": {},\n",
            self.default_threads
        ));
        out.push_str(&format!("  \"reps\": {},\n", self.reps));
        out.push_str("  \"phases\": [\n");
        for (i, p) in self.phases.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"seconds\": [{}], \"speedup_2\": {:.4}, \"speedup_4\": {:.4}, \"deterministic\": {}}}{}\n",
                p.name,
                list(&p.seconds),
                p.speedup_at(2),
                p.speedup_at(4),
                p.deterministic,
                if i + 1 == self.phases.len() { "" } else { "," }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_baseline() -> ParallelBaseline {
        ParallelBaseline {
            threads: THREAD_COUNTS.to_vec(),
            meta: crate::RunMeta {
                hardware_threads: 1,
                commit: "abc123".to_string(),
                generated_at: "2026-01-01T00:00:00Z".to_string(),
            },
            default_threads: 1,
            reps: 1,
            phases: vec![PhaseResult {
                name: "unit",
                seconds: vec![0.4, 0.21, 0.1],
                digests: vec![1.0, 1.0, 1.0],
                deterministic: true,
            }],
        }
    }

    #[test]
    fn speedups_derive_from_recorded_seconds() {
        let b = tiny_baseline();
        let p = &b.phases[0];
        assert!((p.speedup_at(2) - 0.4 / 0.21).abs() < 1e-12);
        assert!((p.speedup_at(4) - 4.0).abs() < 1e-12);
        assert_eq!(p.speedup_at(3), 1.0); // unmeasured count
    }

    #[test]
    fn json_artifact_has_required_fields() {
        let json = tiny_baseline().to_json();
        for key in [
            "\"threads\"",
            "\"hardware_threads\"",
            "\"commit\": \"abc123\"",
            "\"generated_at\": \"2026-01-01T00:00:00Z\"",
            "\"default_threads\"",
            "\"phases\"",
            "\"speedup_2\"",
            "\"speedup_4\"",
            "\"deterministic\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert!(json.trim_start().starts_with('{') && json.trim_end().ends_with('}'));
    }

    #[test]
    fn digest_agreement_uses_relative_tolerance() {
        assert!(digests_agree(&[1e9, 1e9 + 0.5]));
        assert!(!digests_agree(&[1.0, 1.1]));
    }
}
