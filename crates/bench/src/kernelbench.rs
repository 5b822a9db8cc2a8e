//! Segment-lookup microbench: branchy `partition_point` vs the compiled
//! [`SegmentIndex`] grid layout.
//!
//! For each knot count (16 / 512 / 8192) the same query stream over a
//! uniform knot grid is resolved two ways:
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
//! taken run by run; every run must reproduce its layout's digest
//! (`deterministic`). Each metric is the median over [`REPEATS`] runs.
//! The `all` binary writes the record to `BENCH_kernel.json`; the ratchet
//! diffs per-layout throughput and the grid-vs-partition-point speedup
//! ratios against the committed record.

use crate::record::{per_sec, quotient, repeat, Record, Spread};
use mbp_core::SegmentIndex;
use std::time::Instant;

/// Knot counts exercised by the sweep.
pub const SIZES: [usize; 3] = [16, 512, 8192];

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
fn timed(xs: &[f64], work: impl Fn(f64) -> usize) -> (f64, usize) {
    let t0 = Instant::now();
    let mut digest = 0usize;
    for &x in xs {
        digest = digest.wrapping_add(work(x));
    }
    (t0.elapsed().as_secs_f64(), digest)
}

/// Runs the full lookup sweep with `lookups` queries per workload.
pub fn run(lookups: usize) -> Record {
    let _span = mbp_obs::span("mbp.bench.kernelbench");
    let lookups = lookups.max(1024);
    let mut rec = Record::new(&[("lookups", lookups as f64), ("repeats", REPEATS as f64)]);
    let mut consistent = true;
    let mut deterministic = true;

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
        let reproduced = |runs: &[(f64, usize)]| runs.iter().all(|r| r.1 == runs[0].1);
        deterministic &= reproduced(&pp) && reproduced(&grid);
        let qps = |runs: &[(f64, usize)]| Spread::of(runs.iter().map(|r| per_sec(lookups, r.0)));
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

    rec.invariant("consistent", consistent);
    rec.invariant("deterministic", deterministic);
    rec
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_is_consistent_and_complete() {
        let rec = run(2048);
        crate::record::assert_same_metrics(&rec, include_str!("../../../BENCH_kernel.json"));
        assert!(
            rec.holds("consistent"),
            "the grid layout diverged from partition_point"
        );
        assert!(
            rec.holds("deterministic"),
            "a workload failed to reproduce its digest"
        );
        for m in &rec.metrics {
            if let Some(v) = rec.median(&m.name) {
                assert!(v > 0.0, "{}: {v}", m.name);
            }
        }
    }
}
