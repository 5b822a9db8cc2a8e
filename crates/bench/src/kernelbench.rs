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
//! *exactly* `partition_point`'s answer (`consistent`). Each workload runs
//! twice from identical state and must reproduce its digest
//! (`deterministic`). The `all` binary serializes the result to
//! `BENCH_kernel.json`; the ratchet diffs per-layout throughput and the
//! grid-vs-partition-point speedup ratios against the committed baseline.

use mbp_core::SegmentIndex;
use std::time::Instant;

/// Knot counts exercised by the sweep.
pub const SIZES: [usize; 3] = [16, 512, 8192];

/// One measured lookup workload.
#[derive(Debug, Clone)]
pub struct KernelWorkload {
    /// Workload label, `layout@knots`.
    pub name: String,
    /// Knots in the searched array.
    pub knots: usize,
    /// Lookup implementation: `partition_point` or `grid`.
    pub layout: &'static str,
    /// Lookups per run.
    pub lookups: usize,
    /// Wall seconds for the faster of the two runs.
    pub seconds: f64,
    /// Throughput derived from `seconds`.
    pub lookups_per_sec: f64,
    /// Index-sum digest of the first run.
    pub digest: f64,
    /// Whether the second run reproduced `digest` exactly.
    pub deterministic: bool,
}

/// A same-process throughput ratio (machine-independent).
#[derive(Debug, Clone)]
pub struct KernelSpeedup {
    /// Ratio label, e.g. `grid_vs_pp@512`.
    pub name: String,
    /// Index throughput ÷ `partition_point` throughput on the same keys.
    pub value: f64,
}

/// The full lookup-kernel baseline.
#[derive(Debug, Clone)]
pub struct KernelBaseline {
    /// Machine + commit + timestamp provenance stamp.
    pub meta: crate::RunMeta,
    /// Per-workload measurements.
    pub workloads: Vec<KernelWorkload>,
    /// Grid speedups over `partition_point`, per knot count.
    pub speedups: Vec<KernelSpeedup>,
    /// The grid layout answered every query exactly like
    /// `partition_point` (checked outside the timed sections).
    pub consistent: bool,
    /// Every workload reproduced its digest on the second run.
    pub deterministic: bool,
}

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

/// Times `work` twice over the query stream; keeps the faster run.
fn measure(
    name: String,
    knots: usize,
    layout: &'static str,
    xs: &[f64],
    mut work: impl FnMut(f64) -> usize,
) -> KernelWorkload {
    let mut run = |xs: &[f64]| -> (f64, f64) {
        let t0 = Instant::now();
        let mut digest = 0usize;
        for &x in xs {
            digest = digest.wrapping_add(work(x));
        }
        (t0.elapsed().as_secs_f64(), digest as f64)
    };
    let (sec_a, digest_a) = run(xs);
    let (sec_b, digest_b) = run(xs);
    let seconds = sec_a.min(sec_b);
    KernelWorkload {
        name,
        knots,
        layout,
        lookups: xs.len(),
        seconds,
        lookups_per_sec: if seconds > 0.0 {
            xs.len() as f64 / seconds
        } else {
            0.0
        },
        digest: digest_a,
        deterministic: digest_a == digest_b,
    }
}

/// Runs the full lookup sweep with `lookups` queries per workload.
pub fn run(lookups: usize) -> KernelBaseline {
    let _span = mbp_obs::span("mbp.bench.kernelbench");
    let lookups = lookups.max(1024);
    let mut workloads = Vec::new();
    let mut speedups = Vec::new();
    let mut consistent = true;

    for n in SIZES {
        let uniform = uniform_keys(n);
        let grid_idx = SegmentIndex::new(&uniform);
        assert!(grid_idx.is_grid(), "uniform keys must compile to the grid");

        let qs_uniform = queries(&uniform, lookups);
        // Exactness cross-check on every query, outside the timed runs.
        consistent &= qs_uniform
            .iter()
            .all(|&x| grid_idx.upper_bound(&uniform, x) == uniform.partition_point(|&k| k <= x));

        let pp_uniform = measure(
            format!("pp-uniform@{n}"),
            n,
            "partition_point",
            &qs_uniform,
            |x| uniform.partition_point(|&k| k <= x),
        );
        let grid = measure(format!("grid@{n}"), n, "grid", &qs_uniform, |x| {
            grid_idx.upper_bound(&uniform, x)
        });

        let ratio = |num: &KernelWorkload, den: &KernelWorkload| {
            if den.lookups_per_sec > 0.0 {
                num.lookups_per_sec / den.lookups_per_sec
            } else {
                1.0
            }
        };
        speedups.push(KernelSpeedup {
            name: format!("grid_vs_pp@{n}"),
            value: ratio(&grid, &pp_uniform),
        });
        workloads.extend([pp_uniform, grid]);
    }

    let deterministic = workloads.iter().all(|w| w.deterministic);
    KernelBaseline {
        meta: crate::RunMeta::from_env(),
        workloads,
        speedups,
        consistent,
        deterministic,
    }
}

impl KernelBaseline {
    /// Serializes the baseline as a standalone JSON document
    /// (`BENCH_kernel.json`).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&self.meta.json_fields());
        out.push_str(&format!(
            "  \"sizes\": [{}],\n",
            SIZES.map(|n| n.to_string()).join(", ")
        ));
        out.push_str(&format!("  \"consistent\": {},\n", self.consistent));
        out.push_str(&format!("  \"deterministic\": {},\n", self.deterministic));
        out.push_str("  \"speedups\": [\n");
        for (i, s) in self.speedups.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"value\": {:.4}}}{}\n",
                s.name,
                s.value,
                if i + 1 == self.speedups.len() {
                    ""
                } else {
                    ","
                }
            ));
        }
        out.push_str("  ],\n  \"workloads\": [\n");
        for (i, w) in self.workloads.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"knots\": {}, \"layout\": \"{}\", \"lookups\": {}, \"seconds\": {:.6}, \"lookups_per_sec\": {:.1}, \"digest\": {:.1}, \"deterministic\": {}}}{}\n",
                w.name,
                w.knots,
                w.layout,
                w.lookups,
                w.seconds,
                w.lookups_per_sec,
                w.digest,
                w.deterministic,
                if i + 1 == self.workloads.len() { "" } else { "," }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_is_consistent_and_complete() {
        let b = run(2048);
        assert_eq!(b.workloads.len(), 2 * SIZES.len());
        assert_eq!(b.speedups.len(), SIZES.len());
        assert!(
            b.consistent,
            "the grid layout diverged from partition_point"
        );
        assert!(b.deterministic, "a workload failed to reproduce its digest");
        assert!(b.workloads.iter().all(|w| w.lookups_per_sec > 0.0));
        assert!(b.speedups.iter().all(|s| s.value > 0.0));
    }

    #[test]
    fn json_artifact_has_required_fields() {
        let b = run(1024);
        let json = b.to_json();
        for key in [
            "\"hardware_threads\"",
            "\"sizes\"",
            "\"consistent\"",
            "\"deterministic\"",
            "\"speedups\"",
            "\"lookups_per_sec\"",
            "\"grid_vs_pp@512\"",
            "\"grid_vs_pp@8192\"",
            "\"pp-uniform@16\"",
        ] {
            assert!(json.contains(key), "missing {key}");
        }
        assert!(json.trim_start().starts_with('{') && json.trim_end().ends_with('}'));
        // The artifact must round-trip through the ratchet's parser.
        let doc = crate::ratchet::parse_json(&json).expect("artifact parses");
        assert_eq!(
            doc.get("workloads")
                .and_then(crate::ratchet::Json::as_arr)
                .map(<[_]>::len),
            Some(2 * SIZES.len())
        );
    }
}
