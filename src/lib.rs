//! # mbp — Model-Based Pricing for Machine Learning in a Data Marketplace
//!
//! A complete, from-scratch Rust implementation of
//! *Chen, Koutris, Kumar — "Towards Model-based Pricing for Machine Learning
//! in a Data Marketplace" (SIGMOD 2019)*, including every substrate the
//! paper relies on: dense linear algebra, distribution sampling, dataset
//! generation, GLM/SVM training, convex and combinatorial optimization, and
//! the marketplace itself.
//!
//! This facade crate re-exports the workspace's public API under one roof:
//!
//! ```
//! use mbp::prelude::*;
//! use mbp::randx::seeded_rng;
//!
//! // A seller lists a dataset with market research curves.
//! let mut rng = seeded_rng(42);
//! let data = mbp::data::synth::simulated1(500, 5, 0.5, &mut rng)
//!     .split(0.75, &mut rng);
//!
//! // The broker trains the optimal model once and derives arbitrage-free,
//! // revenue-maximizing prices from the research curves.
//! let seller = Seller::new(
//!     data,
//!     mbp::core::market::curves::grid(10.0, 100.0, 10),
//!     ValueCurve::new(ValueShape::Concave { power: 2.0 }, 0.0, 100.0),
//!     DemandCurve::new(DemandShape::Uniform),
//! );
//! let mut broker = Broker::new(seller.data.clone());
//! broker.support(ModelKind::LinearRegression, 0.0).unwrap();
//! let pricing = broker.price_from_research(&seller).pricing;
//!
//! // The broker lists the curve, and a buyer purchases the most accurate
//! // instance within budget against the listing.
//! broker
//!     .publish(ModelKind::LinearRegression, pricing, Box::new(SquareLossTransform))
//!     .unwrap();
//! let sale = broker
//!     .buy_listed(
//!         ModelKind::LinearRegression,
//!         PurchaseRequest::PriceBudget(40.0),
//!         &mut rng,
//!     )
//!     .unwrap();
//! assert!(sale.price <= 40.0);
//! ```

pub use mbp_core as core;
pub use mbp_data as data;
pub use mbp_linalg as linalg;
pub use mbp_ml as ml;
pub use mbp_obs as obs;
pub use mbp_optim as optim;
pub use mbp_randx as randx;

/// One-stop imports for building a marketplace.
pub mod prelude {
    pub use mbp_core::arbitrage::{audit, audit_k_bounded, combine_inverse_variance, AuditReport};
    pub use mbp_core::error::{
        DeltaMethodTransform, EmpiricalTransform, ErrorTransform, LinRegSquareTransform,
        SquareLossTransform,
    };
    pub use mbp_core::market::concurrent::SharedBroker;
    pub use mbp_core::market::curves::{
        buyer_points, grid, DemandCurve, DemandShape, ValueCurve, ValueShape,
    };
    pub use mbp_core::market::epochs::{run_adaptive_market, EpochConfig, EpochReport};
    pub use mbp_core::market::simulation::{simulate_market, SimulationConfig, SimulationOutcome};
    pub use mbp_core::market::{
        Broker, Buyer, MarketError, PriceErrorCurve, PurchaseRequest, Sale, Seller,
    };
    pub use mbp_core::mechanism::{
        GaussianMechanism, LaplaceMechanism, NoiseMechanism, UniformAdditiveMechanism,
        UniformMultiplicativeMechanism,
    };
    pub use mbp_core::pricing::{ErrorPricedView, PricingFunction};
    pub use mbp_core::revenue::{
        affordability, buyer_surplus, revenue, solve_bv_dp, solve_bv_dp_fair, solve_bv_exact,
        solve_pi_l1, solve_pi_l2, solve_separable_concave, welfare, Baseline, BuyerPoint,
        MarketWelfare, PricePoint,
    };
    pub use mbp_data::{Dataset, TrainTest};
    pub use mbp_ml::metrics::TestError;
    pub use mbp_ml::{LinearModel, ModelKind};
}
