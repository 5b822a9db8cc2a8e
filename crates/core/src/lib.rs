//! # mbp-core — Model-Based Pricing for Machine Learning
//!
//! A from-scratch Rust implementation of the framework of
//! *Chen, Koutris, Kumar — "Towards Model-based Pricing for Machine Learning
//! in a Data Marketplace" (SIGMOD 2019)*.
//!
//! Instead of selling a dataset, the market sells *noisy versions of the
//! optimal ML model* trained on it. The buyer picks an accuracy/price point;
//! the broker perturbs the optimal model with calibrated noise and charges
//! according to the noise level. The pricing function must be
//! **arbitrage-free**: no combination of cheap noisy models may beat the
//! accuracy of a more expensive one (Definition 3/4). For the Gaussian
//! mechanism this holds iff price, as a function of the *inverse* noise
//! control parameter, is monotone and subadditive (Theorems 5–6).
//!
//! Layout:
//!
//! * [`mechanism`] — the Gaussian mechanism `K_G` of Section 4.1 plus the
//!   uniform/Laplace variants of Examples 1–2, all calibrated so that the
//!   model-space square loss satisfies `E[ε_s] = δ` (Lemma 3);
//! * [`error`] — error transforms `δ ↔ E[ε]` (Theorem 4's monotone
//!   bijection and its empirical estimation, Figure 6);
//! * [`pricing`] — piecewise-linear pricing functions over the inverse-NCP
//!   axis (the Proposition 1 construction);
//! * [`lookup`] — the segment-lookup kernel (branchless grid, or
//!   `partition_point` for irregular keys) behind the compiled serving
//!   tables;
//! * [`arbitrage`] — the exact check every published curve passes
//!   (monotone and subadditive as sold, or a witness), and the
//!   model-averaging attack from the proof of Theorem 5;
//! * [`revenue`] — the revenue-optimization toolbox of Section 5: the
//!   `O(n²)` dynamic program (Theorem 10), LP/QP price interpolation,
//!   the four naive baselines, and the exact exponential solver;
//! * [`market`] — the three agents (seller, broker, buyer) and their
//!   interaction protocol (Figures 1–2), with value/demand curve families
//!   used by the experiments.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arbitrage;
pub mod error;
pub mod lookup;
pub mod market;
pub mod mechanism;
pub mod pricing;
pub mod revenue;

pub use lookup::SegmentIndex;
pub use mechanism::{
    GaussianMechanism, LaplaceMechanism, NoiseMechanism, UniformAdditiveMechanism,
    UniformMultiplicativeMechanism,
};
pub use pricing::PricingFunction;
