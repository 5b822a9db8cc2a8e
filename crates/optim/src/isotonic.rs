//! Isotonic regression and projection onto the relaxed arbitrage-free set.
//!
//! Problem (4) of the paper constrains the price vector `z` to the cone
//!
//! ```text
//! C = { z ≥ 0 : z₁ ≤ z₂ ≤ … ≤ z_n,  z₁/a₁ ≥ z₂/a₂ ≥ … ≥ z_n/a_n }
//! ```
//!
//! (for `a` sorted ascending). The `T²_pi` price-interpolation objective is
//! the Euclidean projection of the target prices onto `C`, which we compute
//! with Dykstra's alternating projections; each sub-projection is a weighted
//! pool-adjacent-violators (PAVA) pass:
//!
//! * projection onto `{z non-decreasing}` is plain PAVA;
//! * projection onto `{z_j/a_j non-increasing}` is PAVA on `u_j = z_j/a_j`
//!   with weights `a_j²` (substitute and expand the square);
//! * projection onto `{z ≥ 0}` is a clamp.
//!
//! Dykstra (unlike naive alternating projection) converges to the *exact*
//! projection onto the intersection of convex sets.

/// Weighted isotonic regression: minimizes `Σ wᵢ (zᵢ − yᵢ)²` subject to
/// `z` non-decreasing, via pool-adjacent-violators.
///
/// ```
/// use mbp_optim::isotonic::pava_non_decreasing;
///
/// let fitted = pava_non_decreasing(&[1.0, 3.0, 2.0], &[1.0, 1.0, 1.0]);
/// assert_eq!(fitted, vec![1.0, 2.5, 2.5]); // violating pair pooled
/// ```
///
/// # Panics
/// Panics when `y.len() != w.len()` or any weight is non-positive.
pub fn pava_non_decreasing(y: &[f64], w: &[f64]) -> Vec<f64> {
    assert_eq!(y.len(), w.len(), "values and weights must align");
    assert!(w.iter().all(|&x| x > 0.0), "weights must be positive");
    let n = y.len();
    if n == 0 {
        return Vec::new();
    }
    // Blocks of pooled indices: (mean, weight, count).
    let mut means: Vec<f64> = Vec::with_capacity(n);
    let mut weights: Vec<f64> = Vec::with_capacity(n);
    let mut counts: Vec<usize> = Vec::with_capacity(n);
    for i in 0..n {
        means.push(y[i]);
        weights.push(w[i]);
        counts.push(1);
        // Merge backwards while order is violated.
        while means.len() >= 2 {
            let m = means.len();
            if means[m - 2] <= means[m - 1] {
                break;
            }
            let wt = weights[m - 2] + weights[m - 1];
            let mean = (means[m - 2] * weights[m - 2] + means[m - 1] * weights[m - 1]) / wt;
            means[m - 2] = mean;
            weights[m - 2] = wt;
            counts[m - 2] += counts[m - 1];
            means.pop();
            weights.pop();
            counts.pop();
        }
    }
    let mut out = Vec::with_capacity(n);
    for (m, c) in means.iter().zip(&counts) {
        out.extend(std::iter::repeat_n(*m, *c));
    }
    out
}

/// Weighted antitonic regression: minimizes `Σ wᵢ (zᵢ − yᵢ)²` subject to
/// `z` non-increasing.
pub fn pava_non_increasing(y: &[f64], w: &[f64]) -> Vec<f64> {
    let neg: Vec<f64> = y.iter().map(|v| -v).collect();
    pava_non_decreasing(&neg, w)
        .into_iter()
        .map(|v| -v)
        .collect()
}

/// Euclidean projection of `y` onto `{z : z_j/a_j non-increasing}`.
///
/// Substituting `u_j = z_j/a_j` turns `‖z − y‖²` into
/// `Σ a_j² (u_j − y_j/a_j)²`, a weighted antitonic regression.
pub fn project_ratio_non_increasing(y: &[f64], a: &[f64]) -> Vec<f64> {
    assert_eq!(y.len(), a.len());
    assert!(a.iter().all(|&x| x > 0.0), "grid points must be positive");
    let u: Vec<f64> = y.iter().zip(a).map(|(v, ai)| v / ai).collect();
    let w: Vec<f64> = a.iter().map(|ai| ai * ai).collect();
    pava_non_increasing(&u, &w)
        .into_iter()
        .zip(a)
        .map(|(ui, ai)| ui * ai)
        .collect()
}

/// Result of [`project_relaxed_cone`].
#[derive(Debug, Clone)]
pub struct Projection {
    /// The projected point.
    pub z: Vec<f64>,
    /// Number of Dykstra sweeps used.
    pub iterations: usize,
    /// Max constraint violation of the returned point.
    pub residual: f64,
}

/// Projects `y` onto the relaxed arbitrage-free cone `C` (see module docs)
/// with Dykstra's algorithm.
///
/// `a` must be strictly positive and sorted ascending. The returned point is
/// feasible up to `tol` and is the Euclidean projection up to the stopping
/// tolerance; 200 sweeps are ample for the `n ≤ 1000` instances the
/// marketplace generates.
///
/// # Panics
/// Panics when inputs misalign or `a` is not positive ascending.
pub fn project_relaxed_cone(y: &[f64], a: &[f64], tol: f64) -> Projection {
    assert_eq!(y.len(), a.len());
    assert!(
        a.windows(2).all(|w| w[0] <= w[1]) && a.iter().all(|&x| x > 0.0),
        "grid must be positive and ascending"
    );
    let n = y.len();
    if n == 0 {
        return Projection {
            z: Vec::new(),
            iterations: 0,
            residual: 0.0,
        };
    }
    let ones = vec![1.0; n];
    let mut z = y.to_vec();
    // Dykstra correction terms, one per constraint set.
    let mut p = vec![0.0; n]; // for the monotone cone
    let mut q = vec![0.0; n]; // for the ratio cone
    let mut r = vec![0.0; n]; // for the non-negative orthant
    let mut iterations = 0;
    let max_sweeps = 500;
    for sweep in 0..max_sweeps {
        iterations = sweep + 1;
        let prev = z.clone();

        // Set 1: monotone non-decreasing.
        let input: Vec<f64> = z.iter().zip(&p).map(|(zi, pi)| zi + pi).collect();
        let proj = pava_non_decreasing(&input, &ones);
        for i in 0..n {
            p[i] = input[i] - proj[i];
        }
        z = proj;

        // Set 2: ratio non-increasing.
        let input: Vec<f64> = z.iter().zip(&q).map(|(zi, qi)| zi + qi).collect();
        let proj = project_ratio_non_increasing(&input, a);
        for i in 0..n {
            q[i] = input[i] - proj[i];
        }
        z = proj;

        // Set 3: non-negativity.
        let input: Vec<f64> = z.iter().zip(&r).map(|(zi, ri)| zi + ri).collect();
        let proj: Vec<f64> = input.iter().map(|v| v.max(0.0)).collect();
        for i in 0..n {
            r[i] = input[i] - proj[i];
        }
        z = proj;

        let delta: f64 = z
            .iter()
            .zip(&prev)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        if delta < tol * 1e-2 && relaxed_cone_residual(&z, a) <= tol {
            break;
        }
    }
    let residual = relaxed_cone_residual(&z, a);
    mbp_obs::counter_add("mbp.optim.isotonic.sweeps", iterations as u64);
    Projection {
        z,
        iterations,
        residual,
    }
}

/// Maximum violation of the relaxed-cone constraints at `z`
/// (0 means feasible).
pub fn relaxed_cone_residual(z: &[f64], a: &[f64]) -> f64 {
    let negative = z.iter().map(|&zi| -zi); // z ≥ 0
    let knots = z.iter().zip(a);
    let steps = knots
        .clone()
        .zip(knots.skip(1))
        .flat_map(|((&z0, &a0), (&z1, &a1))| {
            [z0 - z1, z1 / a1 - z0 / a0] // monotone, ratio
        });
    negative.chain(steps).fold(0.0, f64::max)
}

/// `true` when `z` satisfies the relaxed constraints of problem (4) within
/// `tol`.
pub fn is_relaxed_feasible(z: &[f64], a: &[f64], tol: f64) -> bool {
    relaxed_cone_residual(z, a) <= tol
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pava_identity_on_sorted_input() {
        let y = [1.0, 2.0, 3.0];
        let w = [1.0, 1.0, 1.0];
        assert_eq!(pava_non_decreasing(&y, &w), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn pava_pools_violations() {
        let y = [3.0, 1.0];
        let w = [1.0, 1.0];
        assert_eq!(pava_non_decreasing(&y, &w), vec![2.0, 2.0]);
    }

    #[test]
    fn pava_weighted_pooling() {
        // Heavier first point pulls the pooled mean toward it.
        let y = [3.0, 1.0];
        let w = [3.0, 1.0];
        let out = pava_non_decreasing(&y, &w);
        assert!((out[0] - 2.5).abs() < 1e-12);
        assert_eq!(out[0], out[1]);
    }

    #[test]
    fn pava_cascading_merge() {
        let y = [1.0, 4.0, 3.0, 2.0];
        let w = [1.0; 4];
        let out = pava_non_decreasing(&y, &w);
        assert_eq!(out, vec![1.0, 3.0, 3.0, 3.0]);
    }

    #[test]
    fn antitonic_is_mirrored() {
        let y = [1.0, 3.0];
        let w = [1.0, 1.0];
        assert_eq!(pava_non_increasing(&y, &w), vec![2.0, 2.0]);
    }

    #[test]
    fn ratio_projection_feasible_and_optimal_on_feasible_input() {
        let a = [1.0, 2.0, 4.0];
        let y = [2.0, 3.0, 5.0]; // ratios 2, 1.5, 1.25 already non-increasing
        let z = project_ratio_non_increasing(&y, &a);
        for (zi, yi) in z.iter().zip(&y) {
            assert!((zi - yi).abs() < 1e-12);
        }
    }

    #[test]
    fn projection_returns_feasible_point() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let y = [5.0, 1.0, 9.0, 2.0];
        let proj = project_relaxed_cone(&y, &a, 1e-9);
        assert!(
            is_relaxed_feasible(&proj.z, &a, 1e-8),
            "residual {}",
            proj.residual
        );
    }

    #[test]
    fn projection_is_identity_on_feasible_input() {
        let a = [1.0, 2.0, 4.0];
        let y = [2.0, 3.0, 5.0]; // monotone and ratio-decreasing
        let proj = project_relaxed_cone(&y, &a, 1e-10);
        for (zi, yi) in proj.z.iter().zip(&y) {
            assert!((zi - yi).abs() < 1e-8);
        }
    }

    /// Verify Dykstra against a brute-force grid search on a 2-point case.
    #[test]
    fn projection_matches_grid_search() {
        let a = [1.0, 2.0];
        let y = [0.2, 3.0]; // violates ratio? ratios 0.2 vs 1.5 → yes
        let proj = project_relaxed_cone(&y, &a, 1e-10);
        // Grid search the feasible set.
        let mut best = (f64::INFINITY, 0.0, 0.0);
        let step = 0.002;
        let mut z1 = 0.0;
        while z1 <= 4.0 {
            let mut z2 = z1;
            let hi = 2.0 * z1; // ratio constraint: z2/2 ≤ z1
            let mut zz2 = z2;
            while zz2 <= hi + 1e-12 {
                let dist = (z1 - y[0]).powi(2) + (zz2 - y[1]).powi(2);
                if dist < best.0 {
                    best = (dist, z1, zz2);
                }
                zz2 += step;
            }
            z2 = zz2;
            let _ = z2;
            z1 += step;
        }
        assert!(
            (proj.z[0] - best.1).abs() < 0.01,
            "{} vs {}",
            proj.z[0],
            best.1
        );
        assert!(
            (proj.z[1] - best.2).abs() < 0.01,
            "{} vs {}",
            proj.z[1],
            best.2
        );
    }

    #[test]
    fn residual_detects_each_violation() {
        let a = [1.0, 2.0];
        assert!(relaxed_cone_residual(&[0.0, 0.0], &a) == 0.0);
        assert!(relaxed_cone_residual(&[-1.0, 0.0], &a) >= 1.0); // negativity
        assert!(relaxed_cone_residual(&[2.0, 1.0], &a) >= 1.0); // monotone
        assert!(relaxed_cone_residual(&[1.0, 3.0], &a) >= 0.49); // ratio
    }

    #[test]
    fn empty_input_is_ok() {
        let proj = project_relaxed_cone(&[], &[], 1e-9);
        assert!(proj.z.is_empty());
        assert!(pava_non_decreasing(&[], &[]).is_empty());
    }
}
