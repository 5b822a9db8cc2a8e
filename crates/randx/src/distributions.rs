use rand::Rng;

/// A sampleable scalar or vector distribution.
///
/// Mirrors `rand_distr::Distribution` but is implemented locally: the
/// approved dependency list carries only the `rand` core, so the actual
/// distributions (normal, Laplace, …) are hand-rolled here.
pub trait Distribution<T> {
    /// Draws one sample using `rng` as the bit source.
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> T;
}

/// The standard normal distribution `N(0, 1)`, drawn by a 128-layer
/// ziggurat at full 53-bit resolution (Doornik's ZIGNOR) with an exact
/// tail beyond `R ≈ 3.4426`.
///
/// About 97% of draws cost one `u64`, one table read, one multiply and
/// one compare; the rest go through an `exp` rejection test in a layer's
/// wedge or Marsaglia's tail sampler. The sampler is stateless, so it is
/// shared freely across threads. Every Gaussian in the workspace draws
/// through it: [`Normal`], [`IsotropicGaussian`], the Gaussian mechanism
/// and the synthetic datasets.
#[derive(Debug, Clone, Copy, Default)]
pub struct StandardNormal;

impl Distribution<f64> for StandardNormal {
    #[inline]
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        crate::ziggurat::standard_normal(rng)
    }
}

/// The normal distribution `N(mean, sd²)`.
#[derive(Debug, Clone, Copy)]
pub struct Normal {
    mean: f64,
    sd: f64,
}

impl Normal {
    /// Creates `N(mean, sd²)`.
    ///
    /// # Panics
    /// Panics when `sd` is negative or non-finite — a negative standard
    /// deviation is a programming error, not a recoverable condition.
    pub fn new(mean: f64, sd: f64) -> Self {
        assert!(
            sd >= 0.0 && sd.is_finite() && mean.is_finite(),
            "Normal requires finite mean and sd >= 0, got mean={mean}, sd={sd}"
        );
        Normal { mean, sd }
    }

    /// The mean parameter.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// The standard-deviation parameter.
    pub fn sd(&self) -> f64 {
        self.sd
    }
}

impl Distribution<f64> for Normal {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.mean + self.sd * StandardNormal.sample(rng)
    }
}

/// The zero-mean Laplace distribution with scale `b` (variance `2b²`).
///
/// Example 2 of the paper notes Laplace noise as an alternative unbiased
/// mechanism; sampling is by inverse CDF.
#[derive(Debug, Clone, Copy)]
pub struct Laplace {
    scale: f64,
}

impl Laplace {
    /// Creates a Laplace distribution with the given scale.
    ///
    /// # Panics
    /// Panics when `scale` is not strictly positive and finite.
    pub fn new(scale: f64) -> Self {
        assert!(
            scale > 0.0 && scale.is_finite(),
            "Laplace requires scale > 0, got {scale}"
        );
        Laplace { scale }
    }

    /// The scale parameter `b`.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// The variance `2b²`.
    pub fn variance(&self) -> f64 {
        2.0 * self.scale * self.scale
    }
}

impl Distribution<f64> for Laplace {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // Inverse CDF: u ~ U(-1/2, 1/2); x = -b·sgn(u)·ln(1 - 2|u|).
        let u: f64 = rng.gen_range(-0.5..0.5);
        -self.scale * u.signum() * (1.0 - 2.0 * u.abs()).ln()
    }
}

/// The continuous uniform distribution on `[lo, hi)`.
#[derive(Debug, Clone, Copy)]
pub struct UniformRange {
    lo: f64,
    hi: f64,
}

impl UniformRange {
    /// Creates `U[lo, hi)`.
    ///
    /// # Panics
    /// Panics when `lo >= hi` or either bound is non-finite.
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(
            lo < hi && lo.is_finite() && hi.is_finite(),
            "UniformRange requires finite lo < hi, got [{lo}, {hi})"
        );
        UniformRange { lo, hi }
    }

    /// The mean `(lo + hi) / 2`.
    pub fn mean(&self) -> f64 {
        0.5 * (self.lo + self.hi)
    }

    /// The variance `(hi − lo)² / 12`.
    pub fn variance(&self) -> f64 {
        let w = self.hi - self.lo;
        w * w / 12.0
    }
}

impl Distribution<f64> for UniformRange {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        rng.gen_range(self.lo..self.hi)
    }
}

/// The paper's noise law `W_δ = N(0, (δ/d)·I_d)` (Section 4.1, Figure 4):
/// a `d`-dimensional isotropic Gaussian whose *total* expected squared norm
/// is `E[‖w‖²] = d · (δ/d) = δ`.
#[derive(Debug, Clone, Copy)]
pub struct IsotropicGaussian {
    dim: usize,
    per_coord_variance: f64,
}

impl IsotropicGaussian {
    /// Creates the paper's `W_δ` for a `d`-dimensional hypothesis space:
    /// each coordinate is `N(0, δ/d)`.
    ///
    /// # Panics
    /// Panics when `dim == 0` or `ncp` (the noise control parameter δ) is
    /// negative or non-finite. `ncp == 0` is allowed and yields the
    /// degenerate point mass at the origin (the noiseless optimal model).
    pub fn from_ncp(dim: usize, ncp: f64) -> Self {
        assert!(dim > 0, "IsotropicGaussian requires dim > 0");
        assert!(
            ncp >= 0.0 && ncp.is_finite(),
            "IsotropicGaussian requires ncp >= 0, got {ncp}"
        );
        IsotropicGaussian {
            dim,
            per_coord_variance: ncp / dim as f64,
        }
    }

    /// Creates an isotropic Gaussian with a given per-coordinate variance.
    pub fn per_coordinate(dim: usize, variance: f64) -> Self {
        assert!(dim > 0, "IsotropicGaussian requires dim > 0");
        assert!(
            variance >= 0.0 && variance.is_finite(),
            "variance must be >= 0, got {variance}"
        );
        IsotropicGaussian {
            dim,
            per_coord_variance: variance,
        }
    }

    /// The dimension `d`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The per-coordinate variance `δ/d`.
    pub fn per_coord_variance(&self) -> f64 {
        self.per_coord_variance
    }

    /// The total expected squared norm `E[‖w‖²] = δ`.
    pub fn expected_squared_norm(&self) -> f64 {
        self.per_coord_variance * self.dim as f64
    }
}

impl Distribution<Vec<f64>> for IsotropicGaussian {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<f64> {
        let sd = self.per_coord_variance.sqrt();
        (0..self.dim)
            .map(|_| sd * StandardNormal.sample(rng))
            .collect()
    }
}

/// A categorical distribution over `0..k` with arbitrary non-negative
/// weights — buyer-arrival sampling in the market simulators.
///
/// Sampling is by inverse CDF with a precomputed **guide table**: the
/// `[0, total)` axis is cut into `k` equal buckets and each bucket stores
/// the first cumulative-weight index its draws can land in, so a draw costs
/// one table load plus a short forward scan (O(1) expected for non-adversarial
/// weights) instead of a branchy `partition_point` over the whole CDF.
///
/// A Walker alias table would also be O(1) but maps the uniform draw to a
/// *different* category than the CDF walk does, changing every sampled
/// sequence; the guide table keeps the draw (`gen_range(0.0..total)`) and
/// the acceptance predicate (`cumulative[i] <= u`) identical, so streams
/// are bit-for-bit what the `partition_point` sampler produced (pinned by
/// `categorical_guide_table_matches_partition_point_sequence`).
#[derive(Debug, Clone)]
pub struct Categorical {
    cumulative: Vec<f64>,
    /// `guide[b]` = `partition_point(|c| c <= total·b/k)`: the first index a
    /// draw in bucket `b` can resolve to. `guide[k]` = `len - 1` caps the
    /// clamp bucket.
    guide: Vec<u32>,
    total: f64,
}

impl Categorical {
    /// Creates a categorical distribution from unnormalized weights.
    ///
    /// # Panics
    /// Panics when `weights` is empty, contains a negative/non-finite
    /// entry, or sums to zero.
    pub fn new(weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "need at least one category");
        assert!(
            weights.iter().all(|&w| w >= 0.0 && w.is_finite()),
            "weights must be finite and >= 0"
        );
        assert!(
            weights.len() < u32::MAX as usize,
            "too many categories for the guide table"
        );
        let mut cumulative = Vec::with_capacity(weights.len());
        let mut acc = 0.0;
        for &w in weights {
            acc += w;
            cumulative.push(acc);
        }
        assert!(acc > 0.0, "total weight must be positive");
        let k = cumulative.len();
        let mut guide = Vec::with_capacity(k + 1);
        for b in 0..k {
            let edge = acc * (b as f64 / k as f64);
            guide.push(cumulative.partition_point(|&c| c <= edge) as u32);
        }
        guide.push((k - 1) as u32);
        Categorical {
            cumulative,
            guide,
            total: acc,
        }
    }

    /// Number of categories.
    pub fn len(&self) -> usize {
        self.cumulative.len()
    }

    /// `true` when there are no categories (never: the constructor forbids
    /// it, kept for clippy's `len`-without-`is_empty` convention).
    pub fn is_empty(&self) -> bool {
        self.cumulative.is_empty()
    }
}

impl Distribution<usize> for Categorical {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen_range(0.0..self.total);
        // Bucket of u: since u ∈ [0, total), u/total·k ∈ [0, k) and the
        // float→usize cast floors (saturating at 0 for any pathological
        // negative), so b indexes a real bucket; min is belt-and-braces.
        let k = self.cumulative.len();
        let b = (((u / self.total) * k as f64) as usize).min(k - 1);
        // Start at the bucket's precomputed first index and scan forward
        // with the same predicate partition_point used: the result is the
        // count of cumulative entries <= u, exactly.
        let mut i = self.guide.get(b).map_or(0, |&g| g as usize);
        while self.cumulative.get(i).is_some_and(|&c| c <= u) {
            i += 1;
        }
        i.min(k - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seeded_rng;

    fn moments(samples: &[f64]) -> (f64, f64) {
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
        (mean, var)
    }

    /// The first four raw moments of `N(0, 1)` — 0, 1, 0, 3 — each
    /// inside a 4σ band at n = 10⁶, where the per-draw variances of
    /// `x, x², x³, x⁴` are 1, 2, 15 and 96.
    #[test]
    fn standard_normal_moments() {
        const N: usize = 1_000_000;
        let mut rng = seeded_rng(11);
        let mut sums = [0.0f64; 4];
        for _ in 0..N {
            let x = StandardNormal.sample(&mut rng);
            let x2 = x * x;
            sums[0] += x;
            sums[1] += x2;
            sums[2] += x2 * x;
            sums[3] += x2 * x2;
        }
        for (k, ((sum, want), var)) in sums
            .iter()
            .zip([0.0, 1.0, 0.0, 3.0])
            .zip([1.0, 2.0, 15.0, 96.0])
            .enumerate()
        {
            let got = sum / N as f64;
            let bound = 4.0 * (var / N as f64).sqrt();
            assert!(
                (got - want).abs() < bound,
                "E[x^{}] = {got}, want {want} ± {bound}",
                k + 1
            );
        }
    }

    #[test]
    fn normal_shifts_and_scales() {
        let mut rng = seeded_rng(12);
        let d = Normal::new(3.0, 2.0);
        let xs: Vec<f64> = (0..200_000).map(|_| d.sample(&mut rng)).collect();
        let (m, v) = moments(&xs);
        assert!((m - 3.0).abs() < 0.03);
        assert!((v - 4.0).abs() < 0.1);
    }

    #[test]
    fn laplace_moments() {
        let mut rng = seeded_rng(13);
        let d = Laplace::new(1.5);
        let xs: Vec<f64> = (0..300_000).map(|_| d.sample(&mut rng)).collect();
        let (m, v) = moments(&xs);
        assert!(m.abs() < 0.03, "mean {m}");
        assert!(
            (v - d.variance()).abs() < 0.15,
            "var {v} expected {}",
            d.variance()
        );
    }

    #[test]
    fn uniform_range_moments() {
        let mut rng = seeded_rng(14);
        let d = UniformRange::new(-2.0, 4.0);
        let xs: Vec<f64> = (0..200_000).map(|_| d.sample(&mut rng)).collect();
        let (m, v) = moments(&xs);
        assert!((m - d.mean()).abs() < 0.02);
        assert!((v - d.variance()).abs() < 0.05);
        assert!(xs.iter().all(|&x| (-2.0..4.0).contains(&x)));
    }

    /// Lemma 3 at the distribution level: `E[‖w‖²] = δ` for `w ~ W_δ`.
    #[test]
    fn isotropic_gaussian_expected_norm_is_ncp() {
        let mut rng = seeded_rng(15);
        let ncp = 2.5;
        let d = IsotropicGaussian::from_ncp(8, ncp);
        assert!((d.expected_squared_norm() - ncp).abs() < 1e-12);
        let mean_sq: f64 = (0..50_000)
            .map(|_| {
                let w = d.sample(&mut rng);
                w.iter().map(|x| x * x).sum::<f64>()
            })
            .sum::<f64>()
            / 50_000.0;
        assert!(
            (mean_sq - ncp).abs() < 0.05,
            "measured {mean_sq}, want {ncp}"
        );
    }

    #[test]
    fn zero_ncp_is_noiseless() {
        let mut rng = seeded_rng(16);
        let d = IsotropicGaussian::from_ncp(4, 0.0);
        let w = d.sample(&mut rng);
        assert!(w.iter().all(|&x| x == 0.0));
    }

    #[test]
    #[should_panic(expected = "ncp >= 0")]
    fn negative_ncp_panics() {
        let _ = IsotropicGaussian::from_ncp(4, -1.0);
    }

    #[test]
    #[should_panic(expected = "scale > 0")]
    fn laplace_rejects_zero_scale() {
        let _ = Laplace::new(0.0);
    }

    #[test]
    fn categorical_frequencies_match_weights() {
        let mut rng = seeded_rng(17);
        let cat = Categorical::new(&[1.0, 3.0, 0.0, 6.0]);
        let mut counts = [0usize; 4];
        let reps = 100_000;
        for _ in 0..reps {
            counts[cat.sample(&mut rng)] += 1;
        }
        assert_eq!(counts[2], 0, "zero-weight category was sampled");
        let f1 = counts[1] as f64 / reps as f64;
        let f3 = counts[3] as f64 / reps as f64;
        assert!((f1 - 0.3).abs() < 0.01, "{f1}");
        assert!((f3 - 0.6).abs() < 0.01, "{f3}");
    }

    #[test]
    fn categorical_single_category() {
        let mut rng = seeded_rng(18);
        let cat = Categorical::new(&[5.0]);
        assert_eq!(cat.len(), 1);
        assert!(!cat.is_empty());
        for _ in 0..10 {
            assert_eq!(cat.sample(&mut rng), 0);
        }
    }

    #[test]
    #[should_panic(expected = "total weight")]
    fn categorical_rejects_all_zero() {
        Categorical::new(&[0.0, 0.0]);
    }

    /// The guide-table sampler must reproduce the `partition_point`
    /// sampler's output stream bit for bit: same draws, same categories,
    /// across skewed, uniform, and zero-weight-containing CDFs.
    #[test]
    fn categorical_guide_table_matches_partition_point_sequence() {
        // Reference: the pre-guide-table sampler, verbatim.
        fn reference<R: Rng + ?Sized>(cumulative: &[f64], rng: &mut R) -> usize {
            let total = *cumulative.last().expect("non-empty");
            let u: f64 = rng.gen_range(0.0..total);
            cumulative
                .partition_point(|&c| c <= u)
                .min(cumulative.len() - 1)
        }
        let weight_sets: &[&[f64]] = &[
            &[1.0, 3.0, 0.0, 6.0],
            &[5.0],
            &[1.0; 17],
            &[1e-9, 1.0, 1e-9, 1e9, 2.0],
            &[0.0, 0.0, 1.0, 0.0],
            &[0.3, 0.3, 0.3, 0.1],
        ];
        for (si, &weights) in weight_sets.iter().enumerate() {
            let cat = Categorical::new(weights);
            let mut cumulative = Vec::new();
            let mut acc = 0.0;
            for &w in weights {
                acc += w;
                cumulative.push(acc);
            }
            let mut rng_new = seeded_rng(17 + si as u64);
            let mut rng_ref = seeded_rng(17 + si as u64);
            for draw in 0..2000 {
                let got = cat.sample(&mut rng_new);
                let want = reference(&cumulative, &mut rng_ref);
                assert_eq!(got, want, "weights #{si}, draw {draw}");
            }
        }
    }

    /// Marsaglia's polar method with the spare variate discarded, the
    /// sampler the ziggurat replaced, kept as a reference: its
    /// transcendental tail sits after the rejection loop.
    fn polar<R: Rng + ?Sized>(rng: &mut R) -> f64 {
        let (u, s) = loop {
            let u: f64 = rng.gen_range(-1.0..1.0);
            let v: f64 = rng.gen_range(-1.0..1.0);
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                break (u, s);
            }
        };
        u * (-2.0 * s.ln() / s).sqrt()
    }

    /// Splitting the transcendental tail out of the polar rejection loop
    /// must not change a single bit of any stream.
    #[test]
    fn polar_tail_split_is_bit_identical() {
        // Reference: the fused-loop sampler, verbatim.
        fn reference<R: Rng + ?Sized>(rng: &mut R) -> f64 {
            loop {
                let u: f64 = rng.gen_range(-1.0..1.0);
                let v: f64 = rng.gen_range(-1.0..1.0);
                let s = u * u + v * v;
                if s > 0.0 && s < 1.0 {
                    return u * (-2.0 * s.ln() / s).sqrt();
                }
            }
        }
        let mut rng_new = seeded_rng(0x90_1A8);
        let mut rng_ref = seeded_rng(0x90_1A8);
        for draw in 0..5000 {
            let got = polar(&mut rng_new);
            let want = reference(&mut rng_ref);
            assert_eq!(got.to_bits(), want.to_bits(), "draw {draw}");
        }
    }
}
