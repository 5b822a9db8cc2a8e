//! Buyer-facing test error functions `ε(h, D)`.
//!
//! The paper's Table 2 lists the `ε` choices per model: the training loss
//! itself (square loss for regression, logistic loss for classification) and
//! the 0/1 misclassification rate. These are the three row-panels of
//! Figure 6. The *model-space* square loss `ε_s(h) = ‖h − h*‖²` (Section
//! 4.1) is the canonical strictly convex error that makes `E[ε_s] = δ` exact
//! (Lemma 3); it lives here too since it is just another error function.

use crate::loss::{dot, log1p_exp};
use mbp_data::Dataset;
use mbp_linalg::Vector;

/// The buyer-selectable error function `ε` (Table 2, lower half).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TestError {
    /// Mean squared residual `(1/2n) Σ (hᵀx − y)²` (regression).
    SquareLoss,
    /// Mean logistic loss `(1/n) Σ log(1 + e^{−y hᵀx})` (classification).
    LogisticLoss,
    /// Misclassification rate `(1/n) Σ 1[y ≠ sign(hᵀx)]` (classification).
    ZeroOne,
}

impl TestError {
    /// Human-readable name used in experiment output.
    pub fn name(&self) -> &'static str {
        match self {
            TestError::SquareLoss => "square loss",
            TestError::LogisticLoss => "logistic loss",
            TestError::ZeroOne => "0-1 loss",
        }
    }

    /// `true` for errors that are convex in the hypothesis `h` (Theorem 4
    /// applies); the 0/1 loss is not convex, which is exactly the case the
    /// paper studies empirically in Figure 6.
    pub fn is_convex(&self) -> bool {
        !matches!(self, TestError::ZeroOne)
    }

    /// Evaluates the error of hypothesis `h` on `ds`.
    pub fn evaluate(&self, h: &Vector, ds: &Dataset) -> f64 {
        let n = ds.n().max(1) as f64;
        match self {
            TestError::SquareLoss => {
                let mut sum = 0.0;
                for i in 0..ds.n() {
                    let (x, y) = ds.example(i);
                    let r = dot(h.as_slice(), x) - y;
                    sum += r * r;
                }
                sum / (2.0 * n)
            }
            TestError::LogisticLoss => {
                let mut sum = 0.0;
                for i in 0..ds.n() {
                    let (x, y) = ds.example(i);
                    sum += log1p_exp(-y * dot(h.as_slice(), x));
                }
                sum / n
            }
            TestError::ZeroOne => {
                let mut errs = 0usize;
                for i in 0..ds.n() {
                    let (x, y) = ds.example(i);
                    let pred = if dot(h.as_slice(), x) >= 0.0 {
                        1.0
                    } else {
                        -1.0
                    };
                    if pred != y {
                        errs += 1;
                    }
                }
                errs as f64 / n
            }
        }
    }
}

/// A full evaluation report for a model instance on a dataset — what a
/// buyer inspects after a purchase (beyond the single error number the
/// market prices on).
#[derive(Debug, Clone, PartialEq)]
pub enum EvalReport {
    /// Regression metrics.
    Regression {
        /// Mean squared error (unhalved, for familiarity).
        mse: f64,
        /// Root mean squared error.
        rmse: f64,
        /// Coefficient of determination `R²` (can be negative for models
        /// worse than predicting the mean).
        r2: f64,
    },
    /// Binary-classification metrics with labels in `{−1, +1}`.
    Classification {
        /// Fraction classified correctly.
        accuracy: f64,
        /// True positives / false positives / true negatives / false
        /// negatives.
        confusion: [usize; 4],
        /// Precision `tp / (tp + fp)` (1.0 when no positives predicted).
        precision: f64,
        /// Recall `tp / (tp + fn)` (1.0 when no positive labels).
        recall: f64,
        /// Harmonic mean of precision and recall.
        f1: f64,
    },
}

/// Evaluates a hypothesis as a regressor.
pub fn evaluate_regression(h: &Vector, ds: &Dataset) -> EvalReport {
    let n = ds.n().max(1) as f64;
    let mut sse = 0.0;
    for i in 0..ds.n() {
        let (x, y) = ds.example(i);
        let r = dot(h.as_slice(), x) - y;
        sse += r * r;
    }
    let mean_y = ds.y.mean();
    let sst: f64 =
        ds.y.as_slice()
            .iter()
            .map(|y| (y - mean_y) * (y - mean_y))
            .sum();
    let mse = sse / n;
    EvalReport::Regression {
        mse,
        rmse: mse.sqrt(),
        r2: if sst > 0.0 { 1.0 - sse / sst } else { 0.0 },
    }
}

/// Evaluates a hypothesis as a `{−1, +1}` classifier (threshold at 0).
pub fn evaluate_classification(h: &Vector, ds: &Dataset) -> EvalReport {
    let (mut tp, mut fp, mut tn, mut fng) = (0usize, 0usize, 0usize, 0usize);
    for i in 0..ds.n() {
        let (x, y) = ds.example(i);
        let pred = dot(h.as_slice(), x) >= 0.0;
        let actual = y > 0.0;
        match (pred, actual) {
            (true, true) => tp += 1,
            (true, false) => fp += 1,
            (false, false) => tn += 1,
            (false, true) => fng += 1,
        }
    }
    let n = ds.n().max(1) as f64;
    let precision = if tp + fp > 0 {
        tp as f64 / (tp + fp) as f64
    } else {
        1.0
    };
    let recall = if tp + fng > 0 {
        tp as f64 / (tp + fng) as f64
    } else {
        1.0
    };
    let f1 = if precision + recall > 0.0 {
        2.0 * precision * recall / (precision + recall)
    } else {
        0.0
    };
    EvalReport::Classification {
        accuracy: (tp + tn) as f64 / n,
        confusion: [tp, fp, tn, fng],
        precision,
        recall,
        f1,
    }
}

/// The paper's model-space square loss `ε_s(h) = ‖h − h*‖²` (Section 4.1).
///
/// Under the Gaussian mechanism, `E[ε_s(ĥ_δ)] = δ` exactly (Lemma 3), so
/// this error needs no empirical transformation at all; the purchase
/// kernel audits that live on every sale. It allocates nothing, and four
/// partial sums keep the `d` adds from waiting on each other. Hypotheses
/// of different dimension compare their common prefix.
pub fn model_space_square_loss(h: &Vector, h_star: &Vector) -> f64 {
    let (mut a, mut b) = (
        h.as_slice().chunks_exact(4),
        h_star.as_slice().chunks_exact(4),
    );
    let mut sums = [0.0; 4];
    for (x, y) in (&mut a).zip(&mut b) {
        for ((s, xi), yi) in sums.iter_mut().zip(x).zip(y) {
            let d = xi - yi;
            *s += d * d;
        }
    }
    let tail: f64 = a
        .remainder()
        .iter()
        .zip(b.remainder())
        .map(|(x, y)| (x - y) * (x - y))
        .sum();
    sums.iter().sum::<f64>() + tail
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbp_linalg::Matrix;

    fn clf() -> Dataset {
        let x = Matrix::from_vec(4, 1, vec![1.0, 2.0, -1.0, -2.0]).unwrap();
        let y = Vector::from_vec(vec![1.0, 1.0, -1.0, 1.0]); // last is misfit
        Dataset::new(x, y)
    }

    #[test]
    fn zero_one_counts_mistakes() {
        let ds = clf();
        let h = Vector::from_vec(vec![1.0]);
        assert!((TestError::ZeroOne.evaluate(&h, &ds) - 0.25).abs() < 1e-15);
    }

    #[test]
    fn square_loss_zero_on_perfect_fit() {
        let x = Matrix::from_vec(2, 1, vec![1.0, 2.0]).unwrap();
        let y = Vector::from_vec(vec![3.0, 6.0]);
        let ds = Dataset::new(x, y);
        let h = Vector::from_vec(vec![3.0]);
        assert_eq!(TestError::SquareLoss.evaluate(&h, &ds), 0.0);
    }

    #[test]
    fn logistic_loss_decreases_with_margin() {
        // On a consistently labeled dataset, scaling the separator up
        // increases every margin and strictly lowers the logistic loss.
        let x = Matrix::from_vec(3, 1, vec![1.0, 2.0, -1.5]).unwrap();
        let y = Vector::from_vec(vec![1.0, 1.0, -1.0]);
        let ds = Dataset::new(x, y);
        let small = TestError::LogisticLoss.evaluate(&Vector::from_vec(vec![0.1]), &ds);
        let big = TestError::LogisticLoss.evaluate(&Vector::from_vec(vec![5.0]), &ds);
        assert!(big < small);
    }

    #[test]
    fn model_space_loss_is_squared_distance() {
        let a = Vector::from_vec(vec![1.0, 2.0]);
        let b = Vector::from_vec(vec![4.0, 6.0]);
        assert_eq!(model_space_square_loss(&a, &b), 25.0);
        assert_eq!(model_space_square_loss(&a, &a), 0.0);
        // Every split between the four-lane body and the tail.
        for d in [0, 1, 3, 4, 5, 90] {
            let a = Vector::from_vec((0..d).map(|i| i as f64 * 0.37 - 1.0).collect());
            let b = Vector::from_vec((0..d).map(|i| (i as f64).sin()).collect());
            let want = a.sub(&b).expect("same length").norm2_squared();
            let got = model_space_square_loss(&a, &b);
            assert!((got - want).abs() <= 1e-12 * want.max(1.0), "d = {d}");
        }
    }

    #[test]
    fn convexity_flags() {
        assert!(TestError::SquareLoss.is_convex());
        assert!(TestError::LogisticLoss.is_convex());
        assert!(!TestError::ZeroOne.is_convex());
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(TestError::ZeroOne.name(), "0-1 loss");
    }

    #[test]
    fn regression_report_on_perfect_fit() {
        let x = Matrix::from_vec(3, 1, vec![1.0, 2.0, 3.0]).unwrap();
        let y = Vector::from_vec(vec![2.0, 4.0, 6.0]);
        let ds = Dataset::new(x, y);
        let EvalReport::Regression { mse, rmse, r2 } =
            evaluate_regression(&Vector::from_vec(vec![2.0]), &ds)
        else {
            panic!("wrong variant")
        };
        assert_eq!(mse, 0.0);
        assert_eq!(rmse, 0.0);
        assert_eq!(r2, 1.0);
    }

    #[test]
    fn regression_r2_negative_for_bad_model() {
        let x = Matrix::from_vec(2, 1, vec![1.0, 2.0]).unwrap();
        let y = Vector::from_vec(vec![1.0, -1.0]);
        let ds = Dataset::new(x, y);
        // Slope 10 is far worse than predicting the mean (0).
        let EvalReport::Regression { r2, .. } =
            evaluate_regression(&Vector::from_vec(vec![10.0]), &ds)
        else {
            panic!("wrong variant")
        };
        assert!(r2 < 0.0);
    }

    #[test]
    fn classification_report_confusion_counts() {
        let ds = clf(); // predictions with h = 1: (+,+,−,−); labels (+,+,−,+)
        let EvalReport::Classification {
            accuracy,
            confusion,
            precision,
            recall,
            f1,
        } = evaluate_classification(&Vector::from_vec(vec![1.0]), &ds)
        else {
            panic!("wrong variant")
        };
        assert_eq!(confusion, [2, 0, 1, 1]);
        assert!((accuracy - 0.75).abs() < 1e-12);
        assert_eq!(precision, 1.0);
        assert!((recall - 2.0 / 3.0).abs() < 1e-12);
        assert!((f1 - 0.8).abs() < 1e-12);
    }

    #[test]
    fn classification_degenerate_no_positive_predictions() {
        let x = Matrix::from_vec(2, 1, vec![-1.0, -2.0]).unwrap();
        let y = Vector::from_vec(vec![-1.0, -1.0]);
        let ds = Dataset::new(x, y);
        let EvalReport::Classification {
            precision, recall, ..
        } = evaluate_classification(&Vector::from_vec(vec![1.0]), &ds)
        else {
            panic!("wrong variant")
        };
        assert_eq!(precision, 1.0); // no predicted positives
        assert_eq!(recall, 1.0); // no actual positives
    }
}
