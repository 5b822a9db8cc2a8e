//! Randomized noise mechanisms `K(h*, w)`.
//!
//! Section 3.2 restricts the broker to mechanisms that are (i) **unbiased**
//! (`E[K(h*, w)] = h*`) and (ii) **monotone**: the expected error strictly
//! increases with the noise control parameter δ. The Gaussian mechanism of
//! Section 4.1 is the canonical instance; Examples 1–2 also mention uniform
//! (additive and multiplicative) and Laplace noise, implemented here too.
//!
//! All mechanisms in this module are *calibrated to the NCP*: the injected
//! noise `w` satisfies `E[‖w‖²] = δ`, so Lemma 3 (`E[ε_s(ĥ_δ)] = δ` for the
//! model-space square loss) holds for every one of them, and a pricing
//! function tuned for one mechanism prices the others identically.

use mbp_linalg::Vector;
use mbp_randx::{seeded_rng, Distribution, Laplace, MbpRng, Normal, StandardNormal, UniformRange};
use rand::RngCore;

/// SplitMix64 finalizer: decorrelates per-chunk seeds derived from one root
/// draw in the parallel Gaussian path.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A randomized release mechanism satisfying the paper's two restrictions
/// (unbiasedness and error-monotonicity in δ).
///
/// Mechanisms are required to be `Send + Sync`: they are stateless samplers
/// (the RNG is supplied per call), and the concurrent broker shares one
/// instance across seller threads.
pub trait NoiseMechanism: Send + Sync {
    /// Returns the noisy instance `ĥ_δ = K(h*, w)` for noise control
    /// parameter `ncp = δ ≥ 0`. `ncp = 0` must return `h*` exactly.
    fn perturb(&self, h_star: &Vector, ncp: f64, rng: &mut MbpRng) -> Vector;

    /// Writes the noisy instance into `out`, reusing its buffer when the
    /// dimension already matches — the zero-allocation serving path.
    ///
    /// Implementations must consume the same RNG stream and produce the
    /// same value as [`NoiseMechanism::perturb`], so the two entry points
    /// are interchangeable for determinism purposes. The default simply
    /// delegates (and therefore allocates).
    fn perturb_into(&self, h_star: &Vector, ncp: f64, rng: &mut MbpRng, out: &mut Vector) {
        *out = self.perturb(h_star, ncp, rng);
    }

    /// Mechanism name for reports.
    fn name(&self) -> &'static str;
}

fn check_ncp(ncp: f64) {
    assert!(
        ncp >= 0.0 && ncp.is_finite(),
        "noise control parameter must be finite and >= 0, got {ncp}"
    );
}

/// Copies `h*` into `out` without allocating when the dimensions match.
fn copy_into(h_star: &Vector, out: &mut Vector) {
    if out.len() == h_star.len() {
        // Element-wise instead of `copy_from_slice`: total on any length
        // (zip truncates), so the serve path cannot abort on a mismatch.
        for (o, h) in out.as_mut_slice().iter_mut().zip(h_star.as_slice()) {
            *o = *h;
        }
    } else {
        *out = h_star.clone();
    }
}

/// The paper's Gaussian mechanism `K_G` (Section 4.1, Figure 4):
/// `ĥ = h* + w`, `w ~ N(0, (δ/d)·I_d)`.
///
/// This is the mechanism for which Theorem 5 characterizes arbitrage-free
/// pricing: the Cramér–Rao bound caps what any unbiased combination of
/// independent Gaussian releases can recover, making "price monotone and
/// subadditive in 1/δ" both necessary and sufficient.
///
/// ```
/// use mbp_core::mechanism::{GaussianMechanism, NoiseMechanism};
/// use mbp_linalg::Vector;
/// use mbp_randx::seeded_rng;
///
/// let h_star = Vector::from_vec(vec![1.0, -2.0, 0.5]);
/// let mut rng = seeded_rng(7);
/// let release = GaussianMechanism.perturb(&h_star, 0.25, &mut rng);
/// assert_ne!(release, h_star);                 // noise was injected
/// assert_eq!(GaussianMechanism.perturb(&h_star, 0.0, &mut rng), h_star);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct GaussianMechanism;

impl GaussianMechanism {
    /// Dimension at or above which noise is sampled in seeded chunks.
    /// Below this one stream draws every coordinate in index order.
    pub const CHUNKED_DIM: usize = 4096;
    /// Coordinates per chunk in the chunked layout.
    const NOISE_CHUNK: usize = 2048;
}

impl NoiseMechanism for GaussianMechanism {
    fn perturb(&self, h_star: &Vector, ncp: f64, rng: &mut MbpRng) -> Vector {
        let mut out = Vector::zeros(h_star.len());
        self.perturb_into(h_star, ncp, rng, &mut out);
        out
    }

    fn perturb_into(&self, h_star: &Vector, ncp: f64, rng: &mut MbpRng, out: &mut Vector) {
        check_ncp(ncp);
        mbp_obs::inc("mbp.core.mechanism.gaussian.count");
        copy_into(h_star, out);
        // LINT-ALLOW(float): exact-zero NCP is the documented no-noise sentinel.
        if ncp == 0.0 {
            return;
        }
        let d = h_star.len();
        if d >= Self::CHUNKED_DIM {
            // High-dimensional releases sample fixed coordinate chunks, each
            // from its own RNG seeded off a single root draw from the
            // caller's stream. The output depends only on the caller's RNG
            // state, `d`, and `ncp`.
            let root = rng.next_u64();
            let dist = Normal::new(0.0, (ncp / d as f64).sqrt());
            for (ci, chunk) in out.as_mut_slice().chunks_mut(Self::NOISE_CHUNK).enumerate() {
                let mut chunk_rng = seeded_rng(splitmix64(root ^ ci as u64));
                for v in chunk {
                    *v += dist.sample(&mut chunk_rng);
                }
            }
            return;
        }
        // Per-coordinate `sd·N(0,1)` draws in index order — the exact stream
        // `IsotropicGaussian::from_ncp(d, ncp)` consumes, so releases stay
        // bit-identical to the allocating path this replaced.
        let sd = (ncp / d as f64).sqrt();
        for v in out.as_mut_slice() {
            *v += sd * StandardNormal.sample(rng);
        }
    }

    fn name(&self) -> &'static str {
        "gaussian"
    }
}

/// Additive zero-mean Laplace noise per coordinate (Example 2's
/// alternative), with scale `b = √(δ / (2d))` so each coordinate has
/// variance `δ/d` and `E[‖w‖²] = δ`.
#[derive(Debug, Clone, Copy, Default)]
pub struct LaplaceMechanism;

impl NoiseMechanism for LaplaceMechanism {
    fn perturb(&self, h_star: &Vector, ncp: f64, rng: &mut MbpRng) -> Vector {
        let mut out = Vector::zeros(h_star.len());
        self.perturb_into(h_star, ncp, rng, &mut out);
        out
    }

    fn perturb_into(&self, h_star: &Vector, ncp: f64, rng: &mut MbpRng, out: &mut Vector) {
        check_ncp(ncp);
        copy_into(h_star, out);
        // LINT-ALLOW(float): exact-zero NCP is the documented no-noise sentinel.
        if ncp == 0.0 {
            return;
        }
        let d = h_star.len().max(1) as f64;
        let dist = Laplace::new((ncp / (2.0 * d)).sqrt());
        for v in out.as_mut_slice() {
            *v += dist.sample(rng);
        }
    }

    fn name(&self) -> &'static str {
        "laplace"
    }
}

/// Additive uniform noise per coordinate (Example 1's `K₁`): each
/// coordinate gets `U[−s, s]` with `s = √(3δ/d)` so its variance is `δ/d`.
#[derive(Debug, Clone, Copy, Default)]
pub struct UniformAdditiveMechanism;

impl NoiseMechanism for UniformAdditiveMechanism {
    fn perturb(&self, h_star: &Vector, ncp: f64, rng: &mut MbpRng) -> Vector {
        let mut out = Vector::zeros(h_star.len());
        self.perturb_into(h_star, ncp, rng, &mut out);
        out
    }

    fn perturb_into(&self, h_star: &Vector, ncp: f64, rng: &mut MbpRng, out: &mut Vector) {
        check_ncp(ncp);
        copy_into(h_star, out);
        // LINT-ALLOW(float): exact-zero NCP is the documented no-noise sentinel.
        if ncp == 0.0 {
            return;
        }
        let d = h_star.len().max(1) as f64;
        let s = (3.0 * ncp / d).sqrt();
        let dist = UniformRange::new(-s, s);
        for v in out.as_mut_slice() {
            *v += dist.sample(rng);
        }
    }

    fn name(&self) -> &'static str {
        "uniform-additive"
    }
}

/// Multiplicative uniform noise (Example 1's `K₂`): coordinate `i` becomes
/// `hᵢ·uᵢ` with `uᵢ ~ U[1−s, 1+s]`. Unbiased since `E[uᵢ] = 1`.
///
/// Calibration: `E[‖ĥ − h*‖²] = Σ hᵢ²·s²/3`, so `s = √(3δ) / ‖h*‖`.
/// Degenerate when `h* = 0` (multiplying zero produces zero noise) — the
/// mechanism falls back to additive uniform noise in that case so that the
/// NCP semantics (`E[‖w‖²] = δ`) are preserved.
#[derive(Debug, Clone, Copy, Default)]
pub struct UniformMultiplicativeMechanism;

impl NoiseMechanism for UniformMultiplicativeMechanism {
    fn perturb(&self, h_star: &Vector, ncp: f64, rng: &mut MbpRng) -> Vector {
        let mut out = Vector::zeros(h_star.len());
        self.perturb_into(h_star, ncp, rng, &mut out);
        out
    }

    fn perturb_into(&self, h_star: &Vector, ncp: f64, rng: &mut MbpRng, out: &mut Vector) {
        check_ncp(ncp);
        copy_into(h_star, out);
        // LINT-ALLOW(float): exact-zero NCP is the documented no-noise sentinel.
        if ncp == 0.0 {
            return;
        }
        let norm = h_star.norm2();
        if norm <= 1e-12 {
            return UniformAdditiveMechanism.perturb_into(h_star, ncp, rng, out);
        }
        let s = (3.0 * ncp).sqrt() / norm;
        let dist = UniformRange::new(1.0 - s, 1.0 + s);
        for v in out.as_mut_slice() {
            *v *= dist.sample(rng);
        }
    }

    fn name(&self) -> &'static str {
        "uniform-multiplicative"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbp_randx::seeded_rng;

    fn h_star() -> Vector {
        Vector::from_vec(vec![1.2, -3.1, 0.5, 0.1, -2.3, 7.2, -0.9, 5.5])
    }

    fn mean_error_and_bias(mech: &dyn NoiseMechanism, ncp: f64, reps: usize) -> (f64, f64) {
        let h = h_star();
        let mut rng = seeded_rng(77);
        let mut sq = 0.0;
        let mut mean = Vector::zeros(h.len());
        for _ in 0..reps {
            let out = mech.perturb(&h, ncp, &mut rng);
            let diff = out.sub(&h).unwrap();
            sq += diff.norm2_squared();
            mean.axpy(1.0 / reps as f64, &out).unwrap();
        }
        let bias = mean.sub(&h).unwrap().norm2();
        (sq / reps as f64, bias)
    }

    fn all_mechanisms() -> Vec<Box<dyn NoiseMechanism>> {
        vec![
            Box::new(GaussianMechanism),
            Box::new(LaplaceMechanism),
            Box::new(UniformAdditiveMechanism),
            Box::new(UniformMultiplicativeMechanism),
        ]
    }

    /// Lemma 3 for every mechanism: `E[‖ĥ − h*‖²] = δ`, and unbiasedness.
    #[test]
    fn calibration_and_unbiasedness() {
        for mech in all_mechanisms() {
            for &ncp in &[0.5, 2.0, 8.0] {
                let (err, bias) = mean_error_and_bias(mech.as_ref(), ncp, 20_000);
                assert!(
                    (err - ncp).abs() < 0.1 * ncp,
                    "{}: E[eps_s] = {err}, want {ncp}",
                    mech.name()
                );
                assert!(
                    bias < 0.1 * ncp.sqrt(),
                    "{}: bias {bias} too large at ncp {ncp}",
                    mech.name()
                );
            }
        }
    }

    /// Restriction 2: expected error is monotone in δ.
    #[test]
    fn error_monotone_in_ncp() {
        for mech in all_mechanisms() {
            let errs: Vec<f64> = [0.5, 1.0, 2.0, 4.0, 8.0]
                .iter()
                .map(|&d| mean_error_and_bias(mech.as_ref(), d, 4_000).0)
                .collect();
            for w in errs.windows(2) {
                assert!(w[0] < w[1], "{}: {errs:?} not increasing", mech.name());
            }
        }
    }

    #[test]
    fn zero_ncp_returns_exact_model() {
        let h = h_star();
        let mut rng = seeded_rng(5);
        for mech in all_mechanisms() {
            assert_eq!(mech.perturb(&h, 0.0, &mut rng), h, "{}", mech.name());
        }
    }

    #[test]
    fn multiplicative_handles_zero_model() {
        let h = Vector::zeros(4);
        let mut rng = seeded_rng(6);
        let out = UniformMultiplicativeMechanism.perturb(&h, 1.0, &mut rng);
        // Falls back to additive noise: output differs from zero.
        assert!(out.norm2() > 0.0);
    }

    /// `perturb_into` consumes the same stream and produces the same release
    /// as `perturb`, for every mechanism, whether the buffer is reused or
    /// grown — the contract the zero-allocation serving path depends on.
    #[test]
    fn perturb_into_is_bit_identical_to_perturb() {
        let h = h_star();
        for mech in all_mechanisms() {
            for &ncp in &[0.0, 0.5, 2.0] {
                let mut rng_a = seeded_rng(321);
                let mut rng_b = seeded_rng(321);
                let fresh = mech.perturb(&h, ncp, &mut rng_a);
                // Reused buffer of the right size, pre-filled with junk.
                let mut out = Vector::filled(h.len(), f64::NAN);
                mech.perturb_into(&h, ncp, &mut rng_b, &mut out);
                assert_eq!(fresh, out, "{} ncp={ncp}", mech.name());
                // Wrong-size buffer is grown, value unchanged.
                let mut rng_c = seeded_rng(321);
                let mut small = Vector::zeros(1);
                mech.perturb_into(&h, ncp, &mut rng_c, &mut small);
                assert_eq!(fresh, small, "{} ncp={ncp} (grown)", mech.name());
            }
        }
        // The zero-norm multiplicative fallback also matches.
        let zero = Vector::zeros(4);
        let mut rng_a = seeded_rng(9);
        let mut rng_b = seeded_rng(9);
        let fresh = UniformMultiplicativeMechanism.perturb(&zero, 1.0, &mut rng_a);
        let mut out = Vector::zeros(4);
        UniformMultiplicativeMechanism.perturb_into(&zero, 1.0, &mut rng_b, &mut out);
        assert_eq!(fresh, out);
    }

    #[test]
    #[should_panic(expected = "noise control parameter")]
    fn negative_ncp_panics() {
        let mut rng = seeded_rng(7);
        GaussianMechanism.perturb(&h_star(), -1.0, &mut rng);
    }

    /// The chunked high-dimensional path keeps Lemma 3 calibration, and
    /// its chunks draw from decorrelated streams.
    #[test]
    fn high_dimensional_gaussian_is_calibrated() {
        let d = GaussianMechanism::CHUNKED_DIM;
        let h = Vector::zeros(d);
        let ncp = 2.0;
        let mut rng = seeded_rng(99);
        let w = GaussianMechanism.perturb(&h, ncp, &mut rng);
        // ‖w‖² concentrates tightly around δ at this dimension.
        assert!(
            (w.norm2_squared() - ncp).abs() < 0.2,
            "E[|w|^2] = {} want ~{ncp}",
            w.norm2_squared()
        );
        // Consecutive chunk starts must not repeat values.
        assert_ne!(w[0], w[d / 2]);
    }
}
