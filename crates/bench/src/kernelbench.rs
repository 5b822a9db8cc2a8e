//! Kernel microbenches: the quote path's segment lookup, the sale's noise
//! draw, and the seller's revenue solvers.
//!
//! **Lookup.** For each knot count (16 / 512 / 8192) the same query stream
//! over a uniform knot grid is resolved two ways:
//!
//! * **pp-uniform** — `slice::partition_point` (what the index answers
//!   for non-uniform keys);
//! * **grid** — the fixed-stride grid layout the index compiles for
//!   near-uniform knots (one multiply + two arithmetic fixups, no
//!   data-dependent branch).
//!
//! Before any timing, every query is cross-checked: the grid must return
//! *exactly* `partition_point`'s answer (`consistent`). Each repeat times
//! both layouts back to back from identical state, so the speedup is
//! taken run by run.
//!
//! **Noise.** A sale is one Gaussian release `h* + N(0, δ/d·I)` (§6: the
//! model is trained once, each sale only adds noise). `perturb@{d}` times
//! [`GaussianMechanism::perturb_into`] into a reused buffer at d = 16, 90
//! (the serving benchmarks' model) and 1024, `coords` coordinates per
//! dimension, and reports nanoseconds per coordinate.
//!
//! **Revenue** (Figures 9–10). `dp@{n}` and `exact@{n}` time
//! [`solve_bv_dp`] and [`solve_bv_exact`] per solve at n = 4 and 12 price
//! points; `exact_vs_dp@12` is their run-by-run quotient, the
//! polynomial-vs-exponential gap.
//!
//! Every repeat must reproduce its lookup and noise digests
//! (`deterministic`). Each metric is the median over [`REPEATS`] runs.

use crate::record::{per_sec, quotient, repeat, Record, Spread};
use mbp_core::market::curves::{
    buyer_points, grid, DemandCurve, DemandShape, ValueCurve, ValueShape,
};
use mbp_core::mechanism::{GaussianMechanism, NoiseMechanism};
use mbp_core::revenue::{solve_bv_dp, solve_bv_exact, BuyerPoint};
use mbp_core::SegmentIndex;
use mbp_linalg::Vector;
use mbp_randx::seeded_rng;
use std::hint::black_box;
use std::time::Instant;

/// Knot counts exercised by the sweep.
pub const SIZES: [usize; 3] = [16, 512, 8192];

/// Model dimensions the noise draw is timed at.
pub const DIMS: [usize; 3] = [16, 90, 1024];

/// Price-point counts and solves per repeat of the DP and the exact
/// solver: `(n, dp, exact)`. The exact solver's cost grows exponentially
/// in `n`, so it runs fewer times where each solve takes milliseconds.
pub const SOLVES: [(usize, usize, usize); 2] = [(4, 2000, 400), (12, 2000, 8)];

/// Runs of every workload; each metric is the median over them.
pub const REPEATS: usize = 3;

/// Near-uniform keys: `1.0 + i·0.25`, eligible for the grid layout.
fn uniform_keys(n: usize) -> Vec<f64> {
    (0..n).map(|i| 1.0 + i as f64 * 0.25).collect()
}

/// The deterministic query stream: a golden-ratio walk over a band 20%
/// wider than the key range (so below-first and above-last clamps are
/// exercised), with every seventh probe landing exactly on a knot.
fn queries(keys: &[f64], lookups: usize) -> Vec<f64> {
    let lo = keys.first().copied().unwrap_or(0.0);
    let hi = keys.last().copied().unwrap_or(1.0);
    let span = (hi - lo).max(1.0);
    (0..lookups)
        .map(|i| {
            if i % 7 == 0 {
                keys[i % keys.len()]
            } else {
                let frac = (i as f64 * 0.618_033_988_749_894_9).fract();
                lo - 0.1 * span + 1.2 * span * frac
            }
        })
        .collect()
}

/// One pass of `work` over the query stream: wall seconds and the
/// index-sum digest.
fn timed(xs: &[f64], work: impl Fn(f64) -> usize) -> (f64, u64) {
    let t0 = Instant::now();
    let mut digest = 0u64;
    for &x in xs {
        digest = digest.wrapping_add(work(x) as u64);
    }
    (t0.elapsed().as_secs_f64(), digest)
}

/// The Figure 9–10 buyer population on an `n`-point grid.
fn population(n: usize) -> Vec<BuyerPoint> {
    buyer_points(
        &grid(20.0, 100.0, n),
        &ValueCurve::new(ValueShape::Concave { power: 2.5 }, 2.0, 100.0),
        &DemandCurve::new(DemandShape::Peak {
            center: 0.5,
            width: 0.25,
        }),
    )
    .expect("bench grid is valid")
}

/// Wall seconds per call of `solve`, over `calls` calls.
fn per_call(calls: usize, solve: impl Fn() -> f64) -> f64 {
    let t0 = Instant::now();
    for _ in 0..calls {
        black_box(solve());
    }
    t0.elapsed().as_secs_f64() / calls as f64
}

/// Runs every kernel: `lookups` queries per lookup workload and `coords`
/// noise coordinates per dimension.
pub fn run(lookups: usize, coords: usize) -> Record {
    let _span = mbp_obs::span("mbp.bench.kernelbench");
    let lookups = lookups.max(1024);
    let coords = coords.max(1024);
    let mut rec = Record::new(&[
        ("lookups", lookups as f64),
        ("coords", coords as f64),
        ("repeats", REPEATS as f64),
    ]);
    let mut consistent = true;
    let mut deterministic = true;
    let reproduced = |runs: &[(f64, u64)]| runs.iter().all(|r| r.1 == runs[0].1);

    for n in SIZES {
        let uniform = uniform_keys(n);
        let grid_idx = SegmentIndex::new(&uniform);
        assert!(grid_idx.is_grid(), "uniform keys must compile to the grid");

        let qs = queries(&uniform, lookups);
        // Exactness cross-check on every query, outside the timed runs.
        consistent &= qs
            .iter()
            .all(|&x| grid_idx.upper_bound(&uniform, x) == uniform.partition_point(|&k| k <= x));

        let (pp, grid): (Vec<_>, Vec<_>) = repeat(REPEATS, |_| {
            let pp = timed(&qs, |x| uniform.partition_point(|&k| k <= x));
            (pp, timed(&qs, |x| grid_idx.upper_bound(&uniform, x)))
        })
        .into_iter()
        .unzip();
        deterministic &= reproduced(&pp) && reproduced(&grid);
        let qps = |runs: &[(f64, u64)]| Spread::of(runs.iter().map(|r| per_sec(lookups, r.0)));
        rec.throughput(
            format!("pp-uniform@{n}.lookups_per_sec"),
            "lookups/s",
            qps(&pp),
        );
        rec.throughput(format!("grid@{n}.lookups_per_sec"), "lookups/s", qps(&grid));
        // Lookups per second scale as 1 / seconds: grid over pp.
        let speedup = pp.iter().zip(&grid).map(|(p, g)| quotient(p.0, g.0));
        rec.ratio(format!("grid_vs_pp@{n}"), true, Spread::of(speedup));
    }

    for d in DIMS {
        let h: Vector = (0..d).map(|i| (i as f64 * 0.37).sin() * 3.0).collect();
        let draws = coords.div_ceil(d);
        let runs = repeat(REPEATS, |_| {
            let mut rng = seeded_rng(0x6e01);
            let mut out = Vector::zeros(d);
            let mut digest = 0u64;
            let t0 = Instant::now();
            for _ in 0..draws {
                GaussianMechanism.perturb_into(black_box(&h), 1.0, &mut rng, &mut out);
                digest = digest.wrapping_add(out.as_slice()[d - 1].to_bits());
            }
            (t0.elapsed().as_secs_f64(), digest)
        });
        deterministic &= reproduced(&runs);
        let ns = runs.iter().map(|r| r.0 * 1e9 / (draws * d) as f64);
        rec.latency(format!("perturb@{d}.ns_per_coord"), "ns", Spread::of(ns));
    }

    for (n, dp_solves, exact_solves) in SOLVES {
        let pts = population(n);
        let (dp, exact): (Vec<f64>, Vec<f64>) = repeat(REPEATS, |_| {
            let dp = per_call(dp_solves, || solve_bv_dp(black_box(&pts)).objective);
            let exact = per_call(exact_solves, || {
                solve_bv_exact(black_box(&pts), 2.0).objective
            });
            (dp, exact)
        })
        .into_iter()
        .unzip();
        let us = |secs: &[f64]| Spread::of(secs.iter().map(|s| s * 1e6));
        rec.latency(format!("dp@{n}.us_per_solve"), "us", us(&dp));
        rec.latency(format!("exact@{n}.us_per_solve"), "us", us(&exact));
        if n == 12 {
            let gap = exact.iter().zip(&dp).map(|(e, d)| quotient(*e, *d));
            rec.ratio("exact_vs_dp@12", true, Spread::of(gap));
        }
    }

    rec.invariant("consistent", consistent);
    rec.invariant("deterministic", deterministic);
    rec
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_is_consistent_and_complete() {
        let rec = run(2048, 2048);
        crate::record::assert_same_metrics(&rec, "BENCH_kernel.json");
        assert!(
            rec.holds("consistent"),
            "the grid layout diverged from partition_point"
        );
        assert!(
            rec.holds("deterministic"),
            "a workload failed to reproduce its digest"
        );
        // Positive medians and ordered spreads: the record checks.
        Record::parse(&rec.to_json()).expect("passes the record checks");
    }
}
