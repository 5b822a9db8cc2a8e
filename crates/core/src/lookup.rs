//! Sorted-array segment lookup for the quote-serving fast path.
//!
//! Every hot quote ends in "find the segment containing `x`" over a small
//! sorted array (pricing knots, knot prices, empirical-transform NCPs).
//! [`SegmentIndex`] picks one of two answers once, when the table is
//! compiled:
//!
//! * **Grid** — when the keys are near-uniform (within `1e-9·h` of the
//!   lattice `x0 + i·h`), the segment is a multiply + truncate plus two
//!   arithmetic ±1 fix-ups: `O(1)`, no search and no data-dependent
//!   branch. Knots on a uniform precision grid take this path.
//! * **`partition_point`** — otherwise (knot prices on a concave curve,
//!   irregular knots), the standard library's binary search over the
//!   caller's slice. A branchless Eytzinger layout measured no faster
//!   than it at the grid sizes in use (median 0.99× at 512 knots).
//!
//! Both answer **exactly** — the same index `partition_point` returns,
//! for every input including duplicate-adjacent keys, denormal gaps,
//! single keys, `NaN`, and infinities. Exactness (not 1e-12 closeness) is
//! what lets the compiled pricing table reproduce the reference scan
//! bit-for-bit; debug builds cross-check every grid lookup against
//! `partition_point` to keep it that way.

/// Relative lattice tolerance under which a key set counts as uniform:
/// each key may deviate from `x0 + i·h` by at most this fraction of the
/// stride `h`. The slack keeps the provisional cell within one of the true
/// segment, which the ±1 fix-ups then resolve exactly.
const GRID_UNIFORM_TOL: f64 = 1e-9;

/// Lookup layout selected when the index is built.
#[derive(Debug, Clone)]
enum Layout {
    /// Near-uniform keys: provisional cell `⌊(x − x0)·inv_h⌋` plus ±1
    /// arithmetic fix-ups against the caller's key slice.
    Grid {
        /// First key (lattice origin).
        x0: f64,
        /// Reciprocal stride `1/h`.
        inv_h: f64,
    },
    /// General case: `partition_point` over the caller's key slice.
    Search,
}

/// A compiled lookup structure over one sorted `f64` slice.
///
/// Built once (at pricing-table compile time), queried on every quote.
/// Callers pass the *same sorted slice the index was built from* to each
/// query — the grid layout uses it for its fix-ups, and keeping a single
/// canonical copy avoids duplicating the knot array.
///
/// ```
/// use mbp_core::lookup::SegmentIndex;
///
/// let knots = [1.0, 2.0, 4.0, 8.0];
/// let idx = SegmentIndex::new(&knots);
/// assert_eq!(idx.upper_bound(&knots, 3.0), knots.partition_point(|&k| k <= 3.0));
/// assert_eq!(idx.lower_bound(&knots, 4.0), knots.partition_point(|&k| k < 4.0));
/// ```
#[derive(Debug, Clone)]
pub struct SegmentIndex {
    layout: Layout,
}

impl SegmentIndex {
    /// Builds the index for `keys`, picking the grid layout when the keys
    /// are near-uniform and `partition_point` otherwise.
    ///
    /// `keys` must be sorted ascending (ties allowed) — the same
    /// precondition `partition_point` carries.
    pub fn new(keys: &[f64]) -> Self {
        SegmentIndex {
            layout: try_grid(keys).unwrap_or(Layout::Search),
        }
    }

    /// `true` when the fixed-stride grid layout was selected.
    pub fn is_grid(&self) -> bool {
        matches!(self.layout, Layout::Grid { .. })
    }

    /// First index whose key is `> x` — exactly
    /// `keys.partition_point(|&k| k <= x)`.
    #[inline]
    pub fn upper_bound(&self, keys: &[f64], x: f64) -> usize {
        let idx = match &self.layout {
            Layout::Grid { x0, inv_h } => grid_bound(keys, *x0, *inv_h, x, true),
            Layout::Search => keys.partition_point(|&k| k <= x),
        };
        debug_assert_eq!(
            idx,
            keys.partition_point(|&k| k <= x),
            "upper_bound diverged from partition_point at x={x}"
        );
        idx
    }

    /// First index whose key is `≥ x` — exactly
    /// `keys.partition_point(|&k| k < x)`.
    #[inline]
    pub fn lower_bound(&self, keys: &[f64], x: f64) -> usize {
        let idx = match &self.layout {
            Layout::Grid { x0, inv_h } => grid_bound(keys, *x0, *inv_h, x, false),
            Layout::Search => keys.partition_point(|&k| k < x),
        };
        debug_assert_eq!(
            idx,
            keys.partition_point(|&k| k < x),
            "lower_bound diverged from partition_point at x={x}"
        );
        idx
    }
}

/// Grid eligibility: at least two finite, strictly ascending keys, every
/// one within [`GRID_UNIFORM_TOL`]`·h` of the lattice `x0 + i·h`.
fn try_grid(keys: &[f64]) -> Option<Layout> {
    let n = keys.len();
    if n < 2 {
        return None;
    }
    let (&first, &last) = (keys.first()?, keys.last()?);
    if !(first.is_finite() && last.is_finite() && last > first) {
        return None;
    }
    let h = (last - first) / (n - 1) as f64;
    if !(h > 0.0 && h.is_finite()) {
        return None;
    }
    let tol = GRID_UNIFORM_TOL * h;
    let mut prev = f64::NEG_INFINITY;
    for (i, &k) in keys.iter().enumerate() {
        let lattice = first + i as f64 * h;
        if !(k.is_finite() && k > prev && (k - lattice).abs() <= tol) {
            return None;
        }
        prev = k;
    }
    Some(Layout::Grid {
        x0: first,
        inv_h: 1.0 / h,
    })
}

/// Grid lookup: provisional cell by one multiply, then two arithmetic ±1
/// fix-ups (cmov-style select via `usize::from(bool)`, no data-dependent
/// branch). The provisional cell is within one of the true segment by the
/// construction-time uniformity bound, so a single increment candidate and
/// a single boundary test resolve the exact partition point.
#[inline]
fn grid_bound(keys: &[f64], x0: f64, inv_h: f64, x: f64, upper: bool) -> usize {
    let t = (x - x0) * inv_h;
    // `as usize` saturates: negative and NaN land on 0, +∞ on the clamp.
    let i = (t as usize).min(keys.len().saturating_sub(1));
    if upper {
        let i = i + usize::from(keys.get(i + 1).is_some_and(|&k| k <= x));
        i + usize::from(keys.get(i).is_some_and(|&k| k <= x))
    } else {
        let i = i + usize::from(keys.get(i + 1).is_some_and(|&k| k < x));
        i + usize::from(keys.get(i).is_some_and(|&k| k < x))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbp_randx::seeded_rng;
    use rand::{Rng, RngCore};

    /// Exhaustive probe battery around a key set: every key, every
    /// midpoint, both tails, ±1 ulp around each key, NaN, and infinities.
    fn probes(keys: &[f64]) -> Vec<f64> {
        let mut xs = vec![
            f64::NAN,
            f64::NEG_INFINITY,
            f64::INFINITY,
            -1.0,
            0.0,
            f64::MIN_POSITIVE,
        ];
        for w in keys.windows(2) {
            xs.push((w[0] + w[1]) * 0.5);
        }
        for &k in keys {
            xs.push(k);
            xs.push(f64::from_bits(k.to_bits().wrapping_add(1)));
            xs.push(f64::from_bits(k.to_bits().wrapping_sub(1)));
            xs.push(k - 1.0);
            xs.push(k + 1.0);
        }
        if let (Some(&lo), Some(&hi)) = (keys.first(), keys.last()) {
            xs.push(lo - 1e30);
            xs.push(hi + 1e30);
        }
        xs
    }

    fn check_exact(keys: &[f64]) {
        let idx = SegmentIndex::new(keys);
        for x in probes(keys) {
            assert_eq!(
                idx.upper_bound(keys, x),
                keys.partition_point(|&k| k <= x),
                "upper_bound(x={x}) on {keys:?} (grid={})",
                idx.is_grid()
            );
            assert_eq!(
                idx.lower_bound(keys, x),
                keys.partition_point(|&k| k < x),
                "lower_bound(x={x}) on {keys:?} (grid={})",
                idx.is_grid()
            );
        }
    }

    #[test]
    fn uniform_keys_select_grid_and_match_partition_point() {
        let keys: Vec<f64> = (0..512).map(|i| 1.0 + i as f64 * 0.25).collect();
        let idx = SegmentIndex::new(&keys);
        assert!(idx.is_grid(), "exactly uniform keys must pick the grid");
        check_exact(&keys);
    }

    #[test]
    fn non_uniform_keys_fall_back_to_partition_point() {
        let keys = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0];
        let idx = SegmentIndex::new(&keys);
        assert!(!idx.is_grid(), "geometric keys must not pick the grid");
        check_exact(&keys);
    }

    #[test]
    fn single_knot_and_empty() {
        check_exact(&[3.5]);
        check_exact(&[]);
        let idx = SegmentIndex::new(&[]);
        assert_eq!(idx.upper_bound(&[], 1.0), 0);
        assert_eq!(idx.lower_bound(&[], f64::NAN), 0);
    }

    #[test]
    fn duplicate_adjacent_keys_match_partition_point() {
        check_exact(&[5.0, 5.0, 9.0]);
        check_exact(&[1.0, 1.0, 1.0, 1.0]);
        check_exact(&[0.5, 2.0, 2.0, 2.0, 7.0, 7.0]);
    }

    #[test]
    fn denormal_gaps_match_partition_point() {
        let d = f64::MIN_POSITIVE; // smallest normal; gaps below are denormal
        let tiny = f64::from_bits(1); // smallest subnormal
        check_exact(&[0.0, tiny, 2.0 * tiny, d, 1.0]);
        check_exact(&[1.0, 1.0 + f64::EPSILON, 1.0 + 2.0 * f64::EPSILON]);
    }

    #[test]
    fn saturation_band_probes_clamp_exactly() {
        let keys: Vec<f64> = (0..64).map(|i| 1.0 + i as f64 * 0.5).collect();
        let idx = SegmentIndex::new(&keys);
        let last = *keys.last().unwrap();
        for i in 0..200 {
            let x = last + i as f64 * 13.37;
            assert_eq!(idx.upper_bound(&keys, x), keys.len());
        }
        assert_eq!(idx.upper_bound(&keys, f64::INFINITY), keys.len());
        assert_eq!(idx.upper_bound(&keys, f64::NAN), 0);
    }

    /// Randomized adversarial spacings: uniform-with-jitter (some runs
    /// land inside the grid tolerance, some out), geometric, clustered
    /// duplicates, and mixed-magnitude keys, each probed densely against
    /// `partition_point`.
    #[test]
    fn random_adversarial_spacings_match_partition_point() {
        let mut rng = seeded_rng(0x5e61005);
        for trial in 0..200 {
            let n = 1 + (rng.next_u64() % 96) as usize;
            let style = trial % 4;
            let mut keys = Vec::with_capacity(n);
            let mut cur = rng.gen_range(-100.0..100.0);
            for _ in 0..n {
                let step = match style {
                    0 => 0.25 + 1e-12 * rng.gen_range(-1.0..1.0), // near-uniform
                    1 => rng.gen_range(0.0..2.0),                 // random gaps (ties allowed)
                    2 => {
                        // clustered: long runs of exact duplicates
                        if rng.next_u64().is_multiple_of(3) {
                            rng.gen_range(0.5..2.0)
                        } else {
                            0.0
                        }
                    }
                    _ => rng.gen_range(0.0..1.0) * 10f64.powi((rng.next_u64() % 9) as i32 - 4),
                };
                cur += step;
                keys.push(cur);
            }
            check_exact(&keys);
        }
    }

    /// The grid tolerance is a real gate: jitter beyond `1e-9·h` must fall
    /// back to `partition_point` (where exactness needs no uniformity),
    /// jitter within it may keep the grid, and both stay exact either way.
    #[test]
    fn grid_eligibility_respects_tolerance() {
        let uniform: Vec<f64> = (0..100).map(|i| i as f64).collect();
        assert!(SegmentIndex::new(&uniform).is_grid());
        let mut jittered = uniform.clone();
        jittered[50] += 0.1; // 0.1·h — far outside tolerance
        assert!(!SegmentIndex::new(&jittered).is_grid());
        check_exact(&jittered);
    }
}
