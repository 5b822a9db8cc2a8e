//! Seeded random sampling substrate for the MBP stack.
//!
//! The paper's mechanism releases `h* + w` with `w ~ N(0, (δ/d)·I_d)`
//! (Figure 4); MATLAB supplied `randn`. Here the only external dependency is
//! the `rand` crate's uniform bit source — every distribution is implemented
//! from scratch on top of it:
//!
//! * [`StandardNormal`] — a 128-layer ziggurat at 53-bit resolution
//!   (Doornik's ZIGNOR) with Marsaglia's exact tail;
//! * [`Normal`], [`Laplace`], [`UniformRange`] — the scalar distributions
//!   used by the mechanisms of Examples 1–2;
//! * [`IsotropicGaussian`] — the paper's `W_δ = N(0, (δ/d)·I_d)` vector law.
//!
//! All experiment entry points take explicit seeds so that every figure and
//! table in `mbp-bench` is reproducible bit-for-bit. The [`gof`] module
//! validates every sampler against its target CDF with a Kolmogorov–
//! Smirnov test — the market's Lemma 3 calibration depends on the noise
//! having exactly the advertised law.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod distributions;
pub mod gof;
mod seed;
mod ziggurat;

pub use distributions::{
    Categorical, Distribution, IsotropicGaussian, Laplace, Normal, StandardNormal, UniformRange,
};
pub use seed::{seeded_rng, MbpRng, SeedStream};
