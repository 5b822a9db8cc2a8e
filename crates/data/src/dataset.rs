use mbp_linalg::{Matrix, Vector};
use mbp_randx::MbpRng;
use rand::seq::SliceRandom;

/// A table of labeled examples: feature matrix `x` (one example per row) and
/// target vector `y`.
///
/// For regression `y` is real-valued; for binary classification `y ∈ {−1, +1}`
/// (the convention the paper's logistic/hinge losses use).
#[derive(Debug, Clone)]
pub struct Dataset {
    /// `n × d` feature matrix.
    pub x: Matrix,
    /// Length-`n` target vector.
    pub y: Vector,
}

impl Dataset {
    /// Creates a dataset, checking that `x` and `y` agree on `n`.
    ///
    /// # Panics
    /// Panics when `x.rows() != y.len()` — constructing a ragged dataset is a
    /// programming error.
    pub fn new(x: Matrix, y: Vector) -> Self {
        assert_eq!(
            x.rows(),
            y.len(),
            "dataset is ragged: {} feature rows vs {} targets",
            x.rows(),
            y.len()
        );
        Dataset { x, y }
    }

    /// Number of examples `n`.
    pub fn n(&self) -> usize {
        self.x.rows()
    }

    /// Number of features `d`.
    pub fn d(&self) -> usize {
        self.x.cols()
    }

    /// Returns the example at `i` as `(features, target)`.
    pub fn example(&self, i: usize) -> (&[f64], f64) {
        (self.x.row(i), self.y[i])
    }

    /// Returns a new dataset containing the rows selected by `idx`.
    pub fn select(&self, idx: &[usize]) -> Dataset {
        let d = self.d();
        let mut data = Vec::with_capacity(idx.len() * d);
        let mut y = Vec::with_capacity(idx.len());
        for &i in idx {
            data.extend_from_slice(self.x.row(i));
            y.push(self.y[i]);
        }
        Dataset::new(
            Matrix::from_vec(idx.len(), d, data).expect("selection preserves width"),
            Vector::from_vec(y),
        )
    }

    /// Splits into train/test with the given train fraction, shuffling with
    /// `rng`. Matches the paper's 75/25 convention when `train_frac = 0.75`.
    ///
    /// For one shuffled index `idx`, train row `k` is row `idx[k]` and test
    /// row `k` is row `idx[n₁ + k]`. The rows are permuted in place, the
    /// larger half first, so the only copy made is the smaller half; a
    /// caller that keeps the dataset splits a clone. With observability on,
    /// each call records an `mbp.data.split` span.
    ///
    /// # Panics
    /// Panics unless `0 < train_frac < 1`.
    pub fn split(self, train_frac: f64, rng: &mut MbpRng) -> TrainTest {
        assert!(
            train_frac > 0.0 && train_frac < 1.0,
            "train_frac must be in (0, 1), got {train_frac}"
        );
        let _span = mbp_obs::span("mbp.data.split");
        let (n, d) = (self.n(), self.d());
        let mut idx: Vec<usize> = (0..n).collect();
        idx.shuffle(rng);
        let n_train = ((n as f64) * train_frac).round() as usize;
        let n_train = n_train.clamp(1, n.saturating_sub(1).max(1)).min(n);
        // Lead with the larger half, so that `split_off` copies the smaller.
        let train_first = 2 * n_train >= n;
        if !train_first {
            idx.rotate_left(n_train);
        }
        let head = if train_first { n_train } else { n - n_train };
        let mut x = self.x.into_vec();
        let mut y = self.y.into_vec();
        permute_rows(&mut x, &mut y, d, &idx);
        let (x_tail, y_tail) = (x.split_off(head * d), y.split_off(head));
        let part = |rows, x, y| {
            Dataset::new(
                Matrix::from_vec(rows, d, x).expect("split preserves width"),
                Vector::from_vec(y),
            )
        };
        let (first, second) = (part(head, x, y), part(n - head, x_tail, y_tail));
        let (train, test) = if train_first {
            (first, second)
        } else {
            (second, first)
        };
        TrainTest { train, test }
    }
}

/// Reorders the rows of `x` (width `d`) and of `y` in place so that row
/// `k` becomes the old row `order[k]`. Each cycle of the permutation is
/// followed once: its first row waits in a spare row while every other
/// row moves straight into its slot.
fn permute_rows(x: &mut [f64], y: &mut [f64], d: usize, order: &[usize]) {
    let mut placed = vec![false; order.len()];
    let mut spare = vec![0.0; d];
    for start in 0..order.len() {
        if placed[start] {
            continue;
        }
        spare.copy_from_slice(&x[start * d..(start + 1) * d]);
        let spare_y = y[start];
        let mut k = start;
        loop {
            placed[k] = true;
            let src = order[k];
            if src == start {
                break;
            }
            x.copy_within(src * d..(src + 1) * d, k * d);
            y[k] = y[src];
            k = src;
        }
        x[k * d..(k + 1) * d].copy_from_slice(&spare);
        y[k] = spare_y;
    }
}

/// The paper's `D = (D_train, D_test)` pair (Table 1: `n₁`/`n₂` samples).
#[derive(Debug, Clone)]
pub struct TrainTest {
    /// The train split `D_train` (the loss `λ` is evaluated here).
    pub train: Dataset,
    /// The test split `D_test` (the buyer-facing error `ε` defaults to here).
    pub test: Dataset,
}

impl TrainTest {
    /// Number of features `d` (identical across splits).
    pub fn d(&self) -> usize {
        self.train.d()
    }

    /// `(n₁, n₂)`: train and test sizes.
    pub fn sizes(&self) -> (usize, usize) {
        (self.train.n(), self.test.n())
    }
}

/// Per-feature affine standardization fitted on a training split.
///
/// Maps feature `j` to `(x_j − mean_j) / sd_j`, guarding `sd_j = 0` (constant
/// columns pass through centered but unscaled). Standardizing with train-set
/// statistics and applying them to the test set avoids leakage.
#[derive(Debug, Clone)]
pub struct Standardizer {
    means: Vec<f64>,
    sds: Vec<f64>,
}

impl Standardizer {
    /// Fits means and standard deviations on `data`'s feature columns.
    pub fn fit(data: &Dataset) -> Self {
        let n = data.n().max(1) as f64;
        let d = data.d();
        let mut means = vec![0.0; d];
        for i in 0..data.n() {
            for (m, v) in means.iter_mut().zip(data.x.row(i)) {
                *m += v;
            }
        }
        for m in &mut means {
            *m /= n;
        }
        let mut vars = vec![0.0; d];
        for i in 0..data.n() {
            for ((v, m), x) in vars.iter_mut().zip(&means).zip(data.x.row(i)) {
                let c = x - m;
                *v += c * c;
            }
        }
        let sds = vars
            .into_iter()
            .map(|v| {
                let sd = (v / n).sqrt();
                if sd > 1e-12 {
                    sd
                } else {
                    1.0
                }
            })
            .collect();
        Standardizer { means, sds }
    }

    /// Applies the fitted transform, returning a standardized copy.
    pub fn apply(&self, data: &Dataset) -> Dataset {
        assert_eq!(
            data.d(),
            self.means.len(),
            "standardizer fitted on d={} applied to d={}",
            self.means.len(),
            data.d()
        );
        let x = Matrix::from_fn(data.n(), data.d(), |i, j| {
            (data.x.get(i, j) - self.means[j]) / self.sds[j]
        });
        Dataset::new(x, data.y.clone())
    }

    /// Fits on `tt.train` and applies to both splits.
    pub fn fit_apply(tt: &TrainTest) -> TrainTest {
        let s = Standardizer::fit(&tt.train);
        TrainTest {
            train: s.apply(&tt.train),
            test: s.apply(&tt.test),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbp_randx::seeded_rng;

    fn toy(n: usize) -> Dataset {
        let x = Matrix::from_fn(n, 2, |i, j| (i * 2 + j) as f64);
        let y = (0..n).map(|i| i as f64).collect();
        Dataset::new(x, y)
    }

    #[test]
    fn split_partitions_rows() {
        let ds = toy(100);
        let mut rng = seeded_rng(1);
        let tt = ds.split(0.75, &mut rng);
        assert_eq!(tt.sizes(), (75, 25));
        assert_eq!(tt.d(), 2);
        // Each original target appears exactly once across the two splits.
        let mut seen: Vec<f64> = tt
            .train
            .y
            .as_slice()
            .iter()
            .chain(tt.test.y.as_slice())
            .copied()
            .collect();
        seen.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let expect: Vec<f64> = (0..100).map(|i| i as f64).collect();
        assert_eq!(seen, expect);
    }

    #[test]
    fn split_is_seed_deterministic() {
        let ds = toy(40);
        let a = ds.clone().split(0.5, &mut seeded_rng(9));
        let b = ds.split(0.5, &mut seeded_rng(9));
        assert_eq!(a.train.y.as_slice(), b.train.y.as_slice());
    }

    /// The split before it permuted in place, kept as the oracle: shuffle
    /// the index, then gather each half into a fresh dataset.
    fn gathered_split(ds: &Dataset, train_frac: f64, rng: &mut MbpRng) -> TrainTest {
        let n = ds.n();
        let mut idx: Vec<usize> = (0..n).collect();
        idx.shuffle(rng);
        let n_train = ((n as f64) * train_frac).round() as usize;
        let n_train = n_train.clamp(1, n.saturating_sub(1).max(1));
        let (tr, te) = idx.split_at(n_train.min(n));
        TrainTest {
            train: ds.select(tr),
            test: ds.select(te),
        }
    }

    /// In-place splitting gives the gathered halves bit for bit, whichever
    /// half is larger, including a one-row half.
    #[test]
    fn split_in_place_matches_the_gather() {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for n in [2, 3, 101, 20_000] {
            let x = Matrix::from_fn(n, 3, |i, j| ((i * 3 + j) as f64 * 0.37).sin());
            let ds = Dataset::new(x, (0..n).map(|i| i as f64 - 0.5).collect());
            for frac in [0.75, 0.5, 0.25, 0.01, 0.99] {
                let want = gathered_split(&ds, frac, &mut seeded_rng(n as u64));
                let got = ds.clone().split(frac, &mut seeded_rng(n as u64));
                assert_eq!(got.sizes(), want.sizes(), "n {n}, frac {frac}");
                for (g, w) in [(&got.train, &want.train), (&got.test, &want.test)] {
                    assert_eq!(g.d(), 3);
                    assert_eq!(bits(g.x.as_slice()), bits(w.x.as_slice()), "n {n}");
                    assert_eq!(bits(g.y.as_slice()), bits(w.y.as_slice()), "n {n}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "train_frac")]
    fn split_rejects_bad_fraction() {
        toy(10).split(1.0, &mut seeded_rng(0));
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn new_rejects_ragged() {
        Dataset::new(Matrix::zeros(3, 2), Vector::zeros(2));
    }

    #[test]
    fn select_keeps_pairs_together() {
        let ds = toy(5);
        let sel = ds.select(&[4, 0]);
        assert_eq!(sel.y.as_slice(), &[4.0, 0.0]);
        assert_eq!(sel.x.row(0), &[8.0, 9.0]);
    }

    #[test]
    fn standardizer_zero_mean_unit_var() {
        let ds = toy(50);
        let s = Standardizer::fit(&ds);
        let out = s.apply(&ds);
        for j in 0..2 {
            let col = out.x.col(j).unwrap();
            assert!(col.mean().abs() < 1e-10);
            let var = col.map(|v| v * v).mean();
            assert!((var - 1.0).abs() < 1e-10, "var {var}");
        }
    }

    #[test]
    fn standardizer_constant_column_is_safe() {
        let x = Matrix::from_fn(10, 1, |_, _| 3.0);
        let ds = Dataset::new(x, Vector::zeros(10));
        let out = Standardizer::fit(&ds).apply(&ds);
        assert!(out.x.as_slice().iter().all(|v| v.abs() < 1e-12));
        assert!(out.x.as_slice().iter().all(|v| v.is_finite()));
    }
}
