use mbp_data::Dataset;
use mbp_linalg::{Matrix, Vector};

/// A differentiable training objective `λ(h, D)` over linear hypotheses.
///
/// All objectives are averaged over examples (the paper's Table 2 footnote)
/// and carry an optional L2 ridge term `(μ/2)‖h‖²`. With `μ > 0` every
/// objective here is strictly convex, which is the paper's stated scope
/// (Section 3.4) and what Theorem 4 needs.
pub trait Objective {
    /// Objective value at `h`.
    fn value(&self, h: &Vector, ds: &Dataset) -> f64;

    /// Gradient `∇_h λ(h, D)`.
    fn gradient(&self, h: &Vector, ds: &Dataset) -> Vector;

    /// The ridge coefficient `μ` (0 when unregularized).
    fn ridge(&self) -> f64;
}

/// Examples per chunk in loss/gradient accumulation. Every sum over
/// examples adds fixed chunks of this many, each summed left to right,
/// in chunk order: one summation order per dataset size. A dataset of at
/// most one chunk is the plain left-to-right sum.
pub(crate) const EXAMPLE_GRAIN: usize = 1024;

/// The chunks `0..n` splits into under [`EXAMPLE_GRAIN`].
fn chunks(n: usize) -> impl Iterator<Item = std::ops::Range<usize>> {
    (0..n)
        .step_by(EXAMPLE_GRAIN)
        .map(move |start| start..(start + EXAMPLE_GRAIN).min(n))
}

/// Sum of `term(i)` over all examples: per-chunk sums, added in chunk
/// order.
fn accumulate_scalar(n: usize, term: impl Fn(usize) -> f64) -> f64 {
    chunks(n).fold(0.0, |acc, r| acc + r.map(&term).sum::<f64>())
}

/// Dense accumulator of per-example updates into a `d`-vector: each chunk
/// builds its own partial from zero, and the partials are added into the
/// result in chunk order.
fn accumulate_dense(d: usize, n: usize, add_example: impl Fn(&mut [f64], usize)) -> Vec<f64> {
    let mut out = vec![0.0; d];
    let mut partial = vec![0.0; d];
    for r in chunks(n) {
        partial.fill(0.0);
        for i in r {
            add_example(&mut partial, i);
        }
        for (o, p) in out.iter_mut().zip(&partial) {
            *o += p;
        }
    }
    out
}

fn ridge_value(mu: f64, h: &Vector) -> f64 {
    if mu > 0.0 {
        0.5 * mu * h.norm2_squared()
    } else {
        0.0
    }
}

fn add_ridge_grad(mu: f64, h: &Vector, grad: &mut Vector) {
    if mu > 0.0 {
        grad.axpy(mu, h).expect("same dimension");
    }
}

/// Least-squares loss `(1/2n) Σ (hᵀx − y)² [+ (μ/2)‖h‖²]` — linear
/// regression, the first row of the paper's Table 2.
#[derive(Debug, Clone, Copy)]
pub struct SquaredLoss {
    mu: f64,
}

impl SquaredLoss {
    /// Unregularized least squares.
    pub fn plain() -> Self {
        SquaredLoss { mu: 0.0 }
    }

    /// Ridge regression with coefficient `mu ≥ 0`.
    pub fn ridge(mu: f64) -> Self {
        assert!(
            mu >= 0.0 && mu.is_finite(),
            "ridge mu must be >= 0, got {mu}"
        );
        SquaredLoss { mu }
    }
}

impl Objective for SquaredLoss {
    fn value(&self, h: &Vector, ds: &Dataset) -> f64 {
        let n = ds.n().max(1) as f64;
        let sum = accumulate_scalar(ds.n(), |i| {
            let (x, y) = ds.example(i);
            let r = dot(h.as_slice(), x) - y;
            r * r
        });
        sum / (2.0 * n) + ridge_value(self.mu, h)
    }

    fn gradient(&self, h: &Vector, ds: &Dataset) -> Vector {
        let n = ds.n().max(1) as f64;
        let sums = accumulate_dense(h.len(), ds.n(), |acc, i| {
            let (x, y) = ds.example(i);
            let r = dot(h.as_slice(), x) - y;
            for (gj, xj) in acc.iter_mut().zip(x) {
                *gj += r * xj;
            }
        });
        let mut g = Vector::from_vec(sums);
        g.scale_in_place(1.0 / n);
        add_ridge_grad(self.mu, h, &mut g);
        g
    }

    fn ridge(&self) -> f64 {
        self.mu
    }
}

/// Logistic loss `(1/n) Σ log(1 + e^{−y·hᵀx}) [+ (μ/2)‖h‖²]` with labels
/// `y ∈ {−1, +1}` — logistic regression, the second row of Table 2.
#[derive(Debug, Clone, Copy)]
pub struct LogisticLoss {
    mu: f64,
}

impl LogisticLoss {
    /// Unregularized logistic loss.
    pub fn plain() -> Self {
        LogisticLoss { mu: 0.0 }
    }

    /// L2-regularized logistic loss with coefficient `mu ≥ 0`.
    pub fn ridge(mu: f64) -> Self {
        assert!(
            mu >= 0.0 && mu.is_finite(),
            "ridge mu must be >= 0, got {mu}"
        );
        LogisticLoss { mu }
    }

    /// The Hessian `∇²λ = (1/n) Xᵀ S X + μI` with `Sᵢᵢ = σ(mᵢ)(1 − σ(mᵢ))`,
    /// used by the Newton trainer.
    // Indexed loops keep the symmetric rank-1 update readable.
    #[allow(clippy::needless_range_loop)]
    pub fn hessian(&self, h: &Vector, ds: &Dataset) -> Matrix {
        let n = ds.n().max(1) as f64;
        let d = h.len();
        let upper = accumulate_dense(d * d, ds.n(), |acc, i| {
            let (x, y) = ds.example(i);
            let m = y * dot(h.as_slice(), x);
            let s = sigmoid(m);
            let w = s * (1.0 - s) / n;
            // LINT-ALLOW(float): exact-zero weight from sigmoid underflow.
            if w == 0.0 {
                return;
            }
            for j in 0..d {
                let xj = x[j];
                // LINT-ALLOW(float): exact-zero skip exploits input sparsity.
                if xj == 0.0 {
                    continue;
                }
                for k in j..d {
                    acc[j * d + k] += w * xj * x[k];
                }
            }
        });
        let mut hess = Matrix::from_vec(d, d, upper).expect("square buffer");
        for j in 0..d {
            for k in (j + 1)..d {
                hess.set(k, j, hess.get(j, k));
            }
        }
        if self.mu > 0.0 {
            hess.add_diagonal(self.mu).expect("square");
        }
        hess
    }
}

impl Objective for LogisticLoss {
    fn value(&self, h: &Vector, ds: &Dataset) -> f64 {
        let n = ds.n().max(1) as f64;
        let sum = accumulate_scalar(ds.n(), |i| {
            let (x, y) = ds.example(i);
            log1p_exp(-y * dot(h.as_slice(), x))
        });
        sum / n + ridge_value(self.mu, h)
    }

    fn gradient(&self, h: &Vector, ds: &Dataset) -> Vector {
        let n = ds.n().max(1) as f64;
        let sums = accumulate_dense(h.len(), ds.n(), |acc, i| {
            let (x, y) = ds.example(i);
            let m = y * dot(h.as_slice(), x);
            // d/dm log(1+e^{-m}) = -σ(-m); chain rule brings y·x.
            let coeff = -y * sigmoid(-m);
            for (gj, xj) in acc.iter_mut().zip(x) {
                *gj += coeff * xj;
            }
        });
        let mut g = Vector::from_vec(sums);
        g.scale_in_place(1.0 / n);
        add_ridge_grad(self.mu, h, &mut g);
        g
    }

    fn ridge(&self) -> f64 {
        self.mu
    }
}

/// Quadratically smoothed hinge loss (Huberized SVM) with mandatory L2 term:
/// `(1/n) Σ ℓ(y·hᵀx) + (μ/2)‖h‖²` where
///
/// ```text
///        ⎧ 0                 m ≥ 1
/// ℓ(m) = ⎨ (1 − m)²/(2γ)     1 − γ < m < 1
///        ⎩ 1 − m − γ/2       m ≤ 1 − γ
/// ```
///
/// As `γ → 0` this converges to the standard hinge; the smoothing keeps the
/// objective differentiable so one gradient-descent trainer serves all
/// three menu models.
#[derive(Debug, Clone, Copy)]
pub struct SmoothedHingeLoss {
    mu: f64,
    gamma: f64,
}

impl SmoothedHingeLoss {
    /// Creates the loss. The paper's L2 SVM requires `mu > 0`; `gamma`
    /// controls the smoothing window (default idiom: `0.5`).
    pub fn new(mu: f64, gamma: f64) -> Self {
        assert!(
            mu > 0.0 && mu.is_finite(),
            "L2 SVM requires mu > 0, got {mu}"
        );
        assert!(
            gamma > 0.0 && gamma.is_finite(),
            "smoothing gamma must be > 0, got {gamma}"
        );
        SmoothedHingeLoss { mu, gamma }
    }

    fn phi(&self, m: f64) -> f64 {
        if m >= 1.0 {
            0.0
        } else if m > 1.0 - self.gamma {
            let t = 1.0 - m;
            t * t / (2.0 * self.gamma)
        } else {
            1.0 - m - self.gamma / 2.0
        }
    }

    fn dphi(&self, m: f64) -> f64 {
        if m >= 1.0 {
            0.0
        } else if m > 1.0 - self.gamma {
            (m - 1.0) / self.gamma
        } else {
            -1.0
        }
    }
}

impl Objective for SmoothedHingeLoss {
    fn value(&self, h: &Vector, ds: &Dataset) -> f64 {
        let n = ds.n().max(1) as f64;
        let sum = accumulate_scalar(ds.n(), |i| {
            let (x, y) = ds.example(i);
            self.phi(y * dot(h.as_slice(), x))
        });
        sum / n + ridge_value(self.mu, h)
    }

    fn gradient(&self, h: &Vector, ds: &Dataset) -> Vector {
        let n = ds.n().max(1) as f64;
        let sums = accumulate_dense(h.len(), ds.n(), |acc, i| {
            let (x, y) = ds.example(i);
            let coeff = y * self.dphi(y * dot(h.as_slice(), x));
            // LINT-ALLOW(float): exact-zero gradient coefficient skip.
            if coeff == 0.0 {
                return;
            }
            for (gj, xj) in acc.iter_mut().zip(x) {
                *gj += coeff * xj;
            }
        });
        let mut g = Vector::from_vec(sums);
        g.scale_in_place(1.0 / n);
        add_ridge_grad(self.mu, h, &mut g);
        g
    }

    fn ridge(&self) -> f64 {
        self.mu
    }
}

/// Numerically stable `log(1 + e^t)`.
pub(crate) fn log1p_exp(t: f64) -> f64 {
    if t > 30.0 {
        t
    } else if t < -30.0 {
        t.exp()
    } else {
        t.exp().ln_1p()
    }
}

/// Numerically stable logistic sigmoid.
pub(crate) fn sigmoid(t: f64) -> f64 {
    if t >= 0.0 {
        1.0 / (1.0 + (-t).exp())
    } else {
        let e = t.exp();
        e / (1.0 + e)
    }
}

pub(crate) fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbp_linalg::Matrix;

    fn tiny_reg() -> Dataset {
        // y = 2x exactly.
        let x = Matrix::from_vec(3, 1, vec![1.0, 2.0, 3.0]).unwrap();
        let y = Vector::from_vec(vec![2.0, 4.0, 6.0]);
        Dataset::new(x, y)
    }

    fn tiny_clf() -> Dataset {
        let x = Matrix::from_vec(4, 2, vec![1.0, 0.5, 2.0, -0.3, -1.0, 0.2, -2.0, -0.7]).unwrap();
        let y = Vector::from_vec(vec![1.0, 1.0, -1.0, -1.0]);
        Dataset::new(x, y)
    }

    /// Central-difference check of a gradient.
    fn check_gradient(obj: &impl Objective, h: &Vector, ds: &Dataset) {
        let g = obj.gradient(h, ds);
        let eps = 1e-6;
        for j in 0..h.len() {
            let mut hp = h.clone();
            hp[j] += eps;
            let mut hm = h.clone();
            hm[j] -= eps;
            let fd = (obj.value(&hp, ds) - obj.value(&hm, ds)) / (2.0 * eps);
            assert!(
                (fd - g[j]).abs() < 1e-5 * (1.0 + fd.abs()),
                "coord {j}: finite diff {fd} vs grad {}",
                g[j]
            );
        }
    }

    #[test]
    fn squared_loss_zero_at_truth() {
        let ds = tiny_reg();
        let loss = SquaredLoss::plain();
        assert!(loss.value(&Vector::from_vec(vec![2.0]), &ds).abs() < 1e-12);
        assert!(loss.value(&Vector::from_vec(vec![1.0]), &ds) > 0.0);
    }

    #[test]
    fn squared_gradient_matches_finite_difference() {
        let ds = tiny_reg();
        check_gradient(&SquaredLoss::ridge(0.3), &Vector::from_vec(vec![0.7]), &ds);
    }

    #[test]
    fn logistic_gradient_matches_finite_difference() {
        let ds = tiny_clf();
        check_gradient(
            &LogisticLoss::ridge(0.1),
            &Vector::from_vec(vec![0.4, -0.2]),
            &ds,
        );
    }

    #[test]
    fn hinge_gradient_matches_finite_difference() {
        let ds = tiny_clf();
        check_gradient(
            &SmoothedHingeLoss::new(0.2, 0.5),
            &Vector::from_vec(vec![0.4, -0.2]),
            &ds,
        );
    }

    #[test]
    fn logistic_hessian_matches_gradient_differences() {
        let ds = tiny_clf();
        let loss = LogisticLoss::ridge(0.1);
        let h = Vector::from_vec(vec![0.3, 0.6]);
        let hess = loss.hessian(&h, &ds);
        let eps = 1e-6;
        for j in 0..2 {
            let mut hp = h.clone();
            hp[j] += eps;
            let mut hm = h.clone();
            hm[j] -= eps;
            let gp = loss.gradient(&hp, &ds);
            let gm = loss.gradient(&hm, &ds);
            for k in 0..2 {
                let fd = (gp[k] - gm[k]) / (2.0 * eps);
                assert!(
                    (fd - hess.get(k, j)).abs() < 1e-5,
                    "H[{k}][{j}]: fd {fd} vs {}",
                    hess.get(k, j)
                );
            }
        }
    }

    #[test]
    fn smoothed_hinge_piecewise_values() {
        let l = SmoothedHingeLoss::new(1.0, 0.5);
        assert_eq!(l.phi(2.0), 0.0); // well classified
        assert!((l.phi(0.75) - 0.0625).abs() < 1e-12); // quadratic zone
        assert!((l.phi(-1.0) - (2.0 - 0.25)).abs() < 1e-12); // linear zone
    }

    #[test]
    fn stable_helpers() {
        assert!((log1p_exp(100.0) - 100.0).abs() < 1e-9);
        assert!(log1p_exp(-100.0) < 1e-40);
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-15);
        assert!(sigmoid(-800.0) >= 0.0);
        assert!(sigmoid(800.0) <= 1.0);
    }

    /// One order per size: up to one chunk the plain left-to-right sum,
    /// beyond it per-chunk sums added in chunk order.
    #[test]
    fn sums_add_fixed_chunks_in_chunk_order() {
        let term = |i: usize| ((i as f64) * 0.61).sin() / 3.0;
        let plain = |r: std::ops::Range<usize>| r.map(term).sum::<f64>();
        for n in [1, 7, EXAMPLE_GRAIN] {
            assert_eq!(accumulate_scalar(n, term).to_bits(), plain(0..n).to_bits());
        }
        let n = 2 * EXAMPLE_GRAIN + 452;
        let chunked = plain(0..1024) + plain(1024..2048) + plain(2048..n);
        assert_eq!(accumulate_scalar(n, term).to_bits(), chunked.to_bits());
        assert_ne!(
            chunked.to_bits(),
            plain(0..n).to_bits(),
            "the orders differ here"
        );
        let dense = accumulate_dense(2, n, |acc, i| {
            acc[0] += term(i);
            acc[1] -= term(i);
        });
        assert_eq!(dense[0].to_bits(), chunked.to_bits());
        assert_eq!(dense[1].to_bits(), (-chunked).to_bits());
    }

    #[test]
    fn ridge_increases_value_away_from_origin() {
        let ds = tiny_reg();
        let h = Vector::from_vec(vec![2.0]);
        let plain = SquaredLoss::plain().value(&h, &ds);
        let ridged = SquaredLoss::ridge(1.0).value(&h, &ds);
        assert!((ridged - plain - 2.0).abs() < 1e-12); // (1/2)·1·‖2‖² = 2
    }
}
