//! Speedup baseline for the `mbp-par` parallel hot paths.
//!
//! Times each parallelized phase of the workspace — Gram/matmul kernels,
//! training-loss gradients, revenue/welfare population evaluation, Gaussian
//! noise sampling, and the sharded market simulation — at 1, 2, and 4
//! threads (via [`mbp_par::with_threads`], so one process measures all
//! three), and records per-phase wall times and speedups (median, min and
//! max over the repeats) plus an invariant that the phase's output digest
//! agrees across thread counts. The ratchet writes the record as
//! `BENCH_parallel.json`.
//!
//! Speedups are hardware-dependent: on a single-core container every
//! configuration multiplexes onto one CPU and speedups hover around 1.0
//! (the `hardware_threads` field records what the box offered), while on a
//! multi-core machine the chunked phases scale with the thread count. Two
//! noisy vCPUs cannot show them either, so the ratchet holds this record's
//! timings to no band: only its invariants and the record checks apply.

use crate::record::{quotient, repeat, Record, Spread};
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

/// One measured phase: wall seconds per repeat at each thread count, plus
/// a determinism check (the phase's output digest compared across thread
/// counts).
#[derive(Debug, Clone)]
pub struct PhaseResult {
    /// Phase label.
    pub name: &'static str,
    /// Wall seconds of every repeat, one list per [`THREAD_COUNTS`] entry.
    pub seconds: Vec<Vec<f64>>,
    /// Whether the first repeat's digests agree across thread counts
    /// (relative 1e-9).
    pub deterministic: bool,
}

impl PhaseResult {
    /// Speedup of the `threads`-way run over the 1-thread run, repeat by
    /// repeat (1.0 where a measurement is degenerate).
    pub fn speedup_at(&self, threads: usize) -> Spread {
        let Some(i) = THREAD_COUNTS.iter().position(|&t| t == threads) else {
            return Spread::of([1.0]);
        };
        Spread::of(
            self.seconds[0]
                .iter()
                .zip(&self.seconds[i])
                .map(|(&one, &t)| quotient(one, t)),
        )
    }

    /// Adds the phase's per-thread-count times, speedups and determinism
    /// invariant to `rec`.
    fn push_to(&self, rec: &mut Record) {
        for (t, secs) in THREAD_COUNTS.iter().zip(&self.seconds) {
            let name = format!("{}.t{t}_s", self.name);
            rec.latency(name, "s", Spread::of(secs.iter().copied()));
        }
        for t in &THREAD_COUNTS[1..] {
            let name = format!("{}.speedup_{t}", self.name);
            rec.ratio(name, true, self.speedup_at(*t));
        }
        rec.invariant(format!("{}.deterministic", self.name), self.deterministic);
    }
}

fn digests_agree(digests: &[f64]) -> bool {
    let d0 = digests[0];
    digests
        .iter()
        .all(|&d| (d - d0).abs() <= 1e-9 * d0.abs().max(1.0))
}

/// Times `work` at every [`THREAD_COUNTS`] entry, `reps` times each,
/// recording every wall time and the first run's digest.
fn measure(name: &'static str, reps: usize, work: &dyn Fn() -> f64) -> PhaseResult {
    let mut seconds = Vec::with_capacity(THREAD_COUNTS.len());
    let mut digests = Vec::with_capacity(THREAD_COUNTS.len());
    for &t in &THREAD_COUNTS {
        mbp_par::with_threads(t, || {
            let runs = repeat(reps, |_| {
                let t0 = Instant::now();
                let d = work();
                (t0.elapsed().as_secs_f64(), d)
            });
            digests.push(runs[0].1);
            seconds.push(runs.iter().map(|r| r.0).collect());
        });
    }
    PhaseResult {
        name,
        seconds,
        deterministic: digests_agree(&digests),
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

/// Runs the full baseline: six phases, each at 1/2/4 threads, `reps`
/// repeats per thread count.
pub fn run(reps: usize) -> Record {
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

    record(&phases, reps)
}

/// The record of measured `phases`.
fn record(phases: &[PhaseResult], reps: usize) -> Record {
    let mut rec = Record::new(&[
        ("repeats", reps.max(1) as f64),
        ("default_threads", mbp_par::default_threads() as f64),
    ]);
    for p in phases {
        p.push_to(&mut rec);
    }
    rec
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_phase() -> PhaseResult {
        PhaseResult {
            name: "unit",
            seconds: vec![vec![0.5, 0.75], vec![0.25, 0.375], vec![0.125, 0.25]],
            deterministic: true,
        }
    }

    #[test]
    fn speedups_derive_from_recorded_seconds() {
        let p = unit_phase();
        assert_eq!(p.speedup_at(2), Spread::of([2.0, 2.0]));
        assert_eq!(p.speedup_at(4), Spread::of([4.0, 3.0]));
        assert_eq!(p.speedup_at(3), Spread::of([1.0])); // unmeasured count
    }

    #[test]
    fn record_names_the_committed_metrics_for_every_phase() {
        let names = [
            "linalg-gram",
            "linalg-matmul",
            "ml-gradient",
            "revenue-welfare",
            "mechanism-noise",
            "market-simulate",
        ];
        let phases: Vec<PhaseResult> = names
            .iter()
            .map(|&name| PhaseResult {
                name,
                ..unit_phase()
            })
            .collect();
        let rec = record(&phases, 2);
        crate::record::assert_same_metrics(&rec, "BENCH_parallel.json");
        assert_eq!(rec.median("ml-gradient.t4_s"), Some(0.1875));
        assert!(rec.holds("market-simulate.deterministic"));
    }

    #[test]
    fn digest_agreement_uses_relative_tolerance() {
        assert!(digests_agree(&[1e9, 1e9 + 0.5]));
        assert!(!digests_agree(&[1.0, 1.1]));
    }
}
