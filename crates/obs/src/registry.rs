//! The global metrics registry: counters, gauges, and log-bucketed
//! histograms, all updated with relaxed atomics behind a read-mostly map.

use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Bumped by every [`reset`], so handles cached outside the registry
/// (the span layer's per-thread histogram cache) know to re-resolve.
static EPOCH: AtomicU64 = AtomicU64::new(0);

/// Total histogram buckets: one underflow, 48 log-spaced (four per decade
/// across 1e-9 .. 1e3), one overflow.
pub const BUCKETS: usize = 50;

/// Maximum distinct label sets per labeled metric name. Once a metric has
/// this many series, further label combinations collapse into a single
/// overflow series whose label values are all [`OVERFLOW_LABEL`], bounding
/// registry cardinality no matter how many listings a market carries.
pub const MAX_LABEL_SETS: usize = 64;

/// Label value used for the collapsed overflow series.
pub const OVERFLOW_LABEL: &str = "<other>";

const LOG_BUCKETS: usize = BUCKETS - 2;
const LOW: f64 = 1e-9;
const HIGH: f64 = 1e3;
const PER_DECADE: f64 = 4.0;

#[derive(Debug, Default)]
pub(crate) struct Counter {
    value: AtomicU64,
}

impl Counter {
    pub(crate) fn add(&self, n: u64) {
        // fetch_add on AtomicU64 wraps, which is the behaviour we document.
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

#[derive(Debug, Default)]
pub(crate) struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    pub(crate) fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    pub(crate) fn add(&self, d: f64) {
        let mut cur = self.bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + d).to_bits();
            match self
                .bits
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

pub(crate) struct Histogram {
    counts: [AtomicU64; BUCKETS],
    sum_bits: AtomicU64,
    min_bits: AtomicU64,
    max_bits: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_bits: AtomicU64::new(0f64.to_bits()),
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
        }
    }
}

/// Bucket index for an observed value. Buckets are half-open `[lo, hi)`;
/// the small epsilon in index space (~1e-6 of a bucket, i.e. a relative
/// value error around 6e-7) keeps exact decade boundaries like `1e-6` from
/// falling one bucket low due to `log10` rounding.
pub(crate) fn bucket_index(v: f64) -> usize {
    if v < LOW {
        return 0;
    }
    if v >= HIGH {
        return BUCKETS - 1;
    }
    let pos = ((v.log10() - LOW.log10()) * PER_DECADE + 1e-6).floor() as isize;
    (pos.clamp(0, LOG_BUCKETS as isize - 1) + 1) as usize
}

/// Lower/upper bounds of bucket `i`. The underflow bucket spans `[0, 1e-9)`
/// and the overflow bucket `[1e3, +inf)`.
pub(crate) fn bucket_bounds(i: usize) -> (f64, f64) {
    if i == 0 {
        (0.0, LOW)
    } else if i == BUCKETS - 1 {
        (HIGH, f64::INFINITY)
    } else {
        let exp = |k: usize| 10f64.powf(LOW.log10() + (k as f64 - 1.0) / PER_DECADE);
        (exp(i), exp(i + 1))
    }
}

impl Histogram {
    pub(crate) fn observe(&self, v: f64) {
        if !v.is_finite() || v < 0.0 {
            return;
        }
        // `bucket_index` clamps into range; `get` keeps the accessor total
        // so a future bucket-layout change cannot abort a serve thread.
        if let Some(slot) = self.counts.get(bucket_index(v)) {
            slot.fetch_add(1, Ordering::Relaxed);
        }
        cas_f64(&self.sum_bits, |s| s + v);
        cas_f64(&self.min_bits, |m| m.min(v));
        cas_f64(&self.max_bits, |m| m.max(v));
    }

    fn snapshot(&self, name: &str) -> HistogramSnapshot {
        let counts: Vec<u64> = self
            .counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        let count: u64 = counts.iter().sum();
        let min = f64::from_bits(self.min_bits.load(Ordering::Relaxed));
        let max = f64::from_bits(self.max_bits.load(Ordering::Relaxed));
        let q = |p: f64| quantile(&counts, count, min, max, p);
        HistogramSnapshot {
            name: name.to_string(),
            count,
            sum: f64::from_bits(self.sum_bits.load(Ordering::Relaxed)),
            min: if count == 0 { 0.0 } else { min },
            max: if count == 0 { 0.0 } else { max },
            p50: q(0.50),
            p90: q(0.90),
            p99: q(0.99),
        }
    }
}

fn cas_f64(bits: &AtomicU64, f: impl Fn(f64) -> f64) {
    let mut cur = bits.load(Ordering::Relaxed);
    loop {
        let next = f(f64::from_bits(cur)).to_bits();
        // Most observations leave min and max alone: skip the locked
        // read-modify-write then.
        if next == cur {
            return;
        }
        match bits.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

/// Quantile estimate by linear interpolation inside the bucket where the
/// cumulative count crosses `q * count`, clamped to the observed range.
fn quantile(counts: &[u64], count: u64, min: f64, max: f64, q: f64) -> Option<f64> {
    if count == 0 {
        return None;
    }
    let target = q * count as f64;
    let mut cum = 0u64;
    for (i, &c) in counts.iter().enumerate() {
        if c == 0 {
            continue;
        }
        let prev = cum as f64;
        cum += c;
        if cum as f64 >= target {
            let (lo, hi) = bucket_bounds(i);
            let hi = if hi.is_finite() { hi } else { max.max(lo) };
            let frac = ((target - prev) / c as f64).clamp(0.0, 1.0);
            return Some((lo + frac * (hi - lo)).clamp(min, max));
        }
    }
    Some(max)
}

/// Point-in-time copy of every registered metric, sorted by name.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Counter `(name, value)` pairs.
    pub counters: Vec<(String, u64)>,
    /// Gauge `(name, value)` pairs.
    pub gauges: Vec<(String, f64)>,
    /// Histogram summaries.
    pub histograms: Vec<HistogramSnapshot>,
    /// Labeled histogram series, sorted by `(name, labels)`.
    pub labeled: Vec<LabeledSeriesSnapshot>,
}

impl Snapshot {
    /// True when no metric of any kind has been registered.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
            && self.labeled.is_empty()
    }

    /// Value of the counter `name`, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Value of the gauge `name`, if registered.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Summary of the histogram `name`, if registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Summary of the labeled series `name` with exactly `labels`, if
    /// registered. Label order must match the recording site's order.
    pub fn labeled(&self, name: &str, labels: &[(&str, &str)]) -> Option<&LabeledSeriesSnapshot> {
        self.labeled.iter().find(|s| {
            s.name == name
                && s.labels.len() == labels.len()
                && s.labels
                    .iter()
                    .zip(labels)
                    .all(|((k, v), (ek, ev))| k == ek && v == ev)
        })
    }
}

/// One series of a labeled histogram: the base metric name, the label
/// key/value pairs identifying the series, and its histogram summary.
#[derive(Debug, Clone)]
pub struct LabeledSeriesSnapshot {
    /// Base metric name (without labels).
    pub name: String,
    /// Label `(key, value)` pairs in recording-site order.
    pub labels: Vec<(String, String)>,
    /// Histogram summary for this series.
    pub hist: HistogramSnapshot,
}

/// Summary of one histogram: totals, observed range, and interpolated
/// quantiles (`None` when the histogram is empty).
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    /// Metric name.
    pub name: String,
    /// Number of recorded observations.
    pub count: u64,
    /// Sum of all observations.
    pub sum: f64,
    /// Smallest observation (0 when empty).
    pub min: f64,
    /// Largest observation (0 when empty).
    pub max: f64,
    /// Estimated median.
    pub p50: Option<f64>,
    /// Estimated 90th percentile.
    pub p90: Option<f64>,
    /// Estimated 99th percentile.
    pub p99: Option<f64>,
}

impl HistogramSnapshot {
    /// Mean observation, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

// BTreeMap keeps registration storage name-ordered, so snapshots and
// exports are deterministic by construction (hash-order iteration here
// would reorder JSON/Prometheus output run to run).
type LabeledFamily = BTreeMap<Vec<(String, String)>, Arc<Histogram>>;

#[derive(Default)]
struct Inner {
    counters: BTreeMap<String, Arc<Counter>>,
    gauges: BTreeMap<String, Arc<Gauge>>,
    histograms: BTreeMap<String, Arc<Histogram>>,
    labeled: BTreeMap<String, LabeledFamily>,
}

fn registry() -> &'static RwLock<Inner> {
    static REGISTRY: OnceLock<RwLock<Inner>> = OnceLock::new();
    REGISTRY.get_or_init(|| RwLock::new(Inner::default()))
}

macro_rules! getter {
    ($fn_name:ident, $field:ident, $ty:ty) => {
        pub(crate) fn $fn_name(name: &str) -> Arc<$ty> {
            if let Some(m) = registry().read().$field.get(name) {
                return m.clone();
            }
            registry()
                .write()
                .$field
                .entry(name.to_string())
                .or_default()
                .clone()
        }
    };
}

getter!(counter, counters, Counter);
getter!(gauge, gauges, Gauge);
getter!(histogram, histograms, Histogram);

/// Handle to the labeled histogram series `name{labels}`. Callers are
/// expected to cache the returned `Arc` (the trace layer resolves a series
/// once per `(listing, mechanism)` pair, not once per observation): the
/// miss path allocates the key and may take the write lock.
///
/// Cardinality is bounded: past [`MAX_LABEL_SETS`] series for one name,
/// new label combinations all share the collapsed overflow series whose
/// values are [`OVERFLOW_LABEL`].
pub(crate) fn labeled_histogram(name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
    let key: Vec<(String, String)> = labels
        .iter()
        .map(|&(k, v)| (k.to_string(), v.to_string()))
        .collect();
    if let Some(series) = registry().read().labeled.get(name) {
        if let Some(h) = series.get(&key) {
            return h.clone();
        }
    }
    let mut inner = registry().write();
    let series = inner.labeled.entry(name.to_string()).or_default();
    if series.contains_key(&key) || series.len() < MAX_LABEL_SETS {
        return series.entry(key).or_default().clone();
    }
    let overflow: Vec<(String, String)> = labels
        .iter()
        .map(|&(k, _)| (k.to_string(), OVERFLOW_LABEL.to_string()))
        .collect();
    series.entry(overflow).or_default().clone()
}

pub(crate) fn snapshot() -> Snapshot {
    let inner = registry().read();
    let counters: Vec<(String, u64)> = inner
        .counters
        .iter()
        .map(|(n, c)| (n.clone(), c.get()))
        .collect();
    let gauges: Vec<(String, f64)> = inner
        .gauges
        .iter()
        .map(|(n, g)| (n.clone(), g.get()))
        .collect();
    let histograms: Vec<HistogramSnapshot> = inner
        .histograms
        .iter()
        .map(|(n, h)| h.snapshot(n))
        .collect();
    let labeled: Vec<LabeledSeriesSnapshot> = inner
        .labeled
        .iter()
        .flat_map(|(n, series)| {
            series.iter().map(|(labels, h)| LabeledSeriesSnapshot {
                name: n.clone(),
                labels: labels.clone(),
                hist: h.snapshot(n),
            })
        })
        .collect();
    Snapshot {
        counters,
        gauges,
        histograms,
        labeled,
    }
}

/// The registry's reset epoch. Read it *before* resolving a handle to
/// cache: a reset racing the lookup then leaves the cached handle tagged
/// with the old epoch, and the next use re-resolves it.
pub(crate) fn epoch() -> u64 {
    EPOCH.load(Ordering::Acquire)
}

pub(crate) fn reset() {
    let mut inner = registry().write();
    inner.counters.clear();
    inner.gauges.clear();
    inner.histograms.clear();
    inner.labeled.clear();
    EPOCH.fetch_add(1, Ordering::Release);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_half_open() {
        // Exact decade boundaries land in the bucket whose lower bound they
        // are, despite log10 rounding.
        for (v, expect_lower_bound) in [
            (1e-9, 1e-9),
            (1e-6, 1e-6),
            (1e-3, 1e-3),
            (1.0, 1.0),
            (10.0, 10.0),
        ] {
            let i = bucket_index(v);
            let (lo, hi) = bucket_bounds(i);
            assert!(
                lo <= v && v < hi,
                "{v} mapped to bucket {i} with bounds [{lo}, {hi})"
            );
            assert!(
                (lo - expect_lower_bound).abs() / expect_lower_bound < 1e-9,
                "{v}: bucket lower bound {lo}, expected {expect_lower_bound}"
            );
        }
    }

    #[test]
    fn bucket_index_covers_extremes() {
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(5e-10), 0);
        assert_eq!(bucket_index(1e3), BUCKETS - 1);
        assert_eq!(bucket_index(1e9), BUCKETS - 1);
        // Just below the top of the log range stays out of overflow.
        assert_eq!(bucket_index(999.0), BUCKETS - 2);
    }

    #[test]
    fn buckets_tile_the_range() {
        // Consecutive buckets share a boundary and are monotone.
        for i in 0..BUCKETS - 1 {
            let (_, hi) = bucket_bounds(i);
            let (lo_next, _) = bucket_bounds(i + 1);
            assert!(
                (hi - lo_next).abs() / lo_next.max(1e-300) < 1e-9,
                "gap between bucket {i} (hi={hi}) and {} (lo={lo_next})",
                i + 1
            );
        }
    }

    #[test]
    fn quantiles_interpolate_within_a_bucket() {
        let h = Histogram::default();
        // 100 identical values in one bucket: every quantile must clamp to
        // the observed point value, not the bucket bounds.
        for _ in 0..100 {
            h.observe(0.0125);
        }
        let s = h.snapshot("t");
        assert_eq!(s.count, 100);
        assert_eq!(s.p50, Some(0.0125));
        assert_eq!(s.p99, Some(0.0125));
        assert_eq!(s.min, 0.0125);
        assert_eq!(s.max, 0.0125);
    }

    #[test]
    fn quantiles_order_across_buckets() {
        let h = Histogram::default();
        // Spread across several decades: quantiles must be monotone and lie
        // inside the observed range, with the median near the low mass.
        for _ in 0..90 {
            h.observe(1e-4);
        }
        for _ in 0..10 {
            h.observe(1.0);
        }
        let s = h.snapshot("t");
        let (p50, p90, p99) = (s.p50.unwrap(), s.p90.unwrap(), s.p99.unwrap());
        assert!(p50 <= p90 && p90 <= p99, "{p50} {p90} {p99}");
        assert!(s.min <= p50 && p99 <= s.max);
        assert!(p50 < 1e-3, "median {p50} should sit in the low cluster");
        assert!(p99 >= 0.5, "p99 {p99} should reach the high cluster");
    }

    #[test]
    fn ignores_non_finite_and_negative() {
        let h = Histogram::default();
        h.observe(f64::NAN);
        h.observe(f64::INFINITY);
        h.observe(-1.0);
        assert_eq!(h.snapshot("t").count, 0);
        assert_eq!(h.snapshot("t").p50, None);
    }

    #[test]
    fn labeled_series_cardinality_is_bounded() {
        let _g = crate::test_support::serial();
        reset();
        let name = "mbp.test.labeled.seconds";
        for i in 0..MAX_LABEL_SETS + 10 {
            let listing = format!("l{i}");
            let h = labeled_histogram(name, &[("listing", &listing), ("phase", "lookup")]);
            h.observe(0.001);
        }
        let snap = snapshot();
        let series: Vec<_> = snap.labeled.iter().filter(|s| s.name == name).collect();
        assert!(
            series.len() <= MAX_LABEL_SETS + 1,
            "cardinality cap breached: {} series",
            series.len()
        );
        let overflow = snap
            .labeled(
                name,
                &[("listing", OVERFLOW_LABEL), ("phase", OVERFLOW_LABEL)],
            )
            .expect("overflow series exists");
        assert_eq!(overflow.hist.count, 10);
        // Re-resolving an existing series returns the same accumulator.
        let again = labeled_histogram(name, &[("listing", "l0"), ("phase", "lookup")]);
        again.observe(0.002);
        let snap = snapshot();
        let s = snap
            .labeled(name, &[("listing", "l0"), ("phase", "lookup")])
            .expect("series l0");
        assert_eq!(s.hist.count, 2);
        reset();
    }

    #[test]
    fn gauge_add_is_atomic_under_contention() {
        let g = std::sync::Arc::new(Gauge::default());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let g = g.clone();
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        g.add(1.0);
                    }
                })
            })
            .collect();
        for t in handles {
            t.join().unwrap();
        }
        assert_eq!(g.get(), 40_000.0);
    }
}
