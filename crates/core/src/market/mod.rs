//! The marketplace: agents and their interaction protocol (Figures 1–2).
//!
//! Three agents participate (Section 3.1):
//!
//! * the **seller** ([`Seller`]) owns the dataset and, via market research,
//!   the buyer value and demand curves;
//! * the **broker** ([`Broker`]) trains the optimal model once per
//!   supported model type, derives an arbitrage-free pricing function from
//!   the seller's curves, presents price–error curves, and fulfills
//!   purchases by releasing freshly-noised model instances;
//! * the **buyer** ([`Buyer`]) picks a point on the curve, or specifies an
//!   error budget or a price budget (the three options of Section 3.2).
//!
//! [`simulation`] closes the loop: it streams synthetic buyers drawn from
//! the research curves through the broker and checks that predicted and
//! realized revenue coincide.

mod agents;
pub mod concurrent;
pub mod curves;
pub mod durability;
pub mod epochs;
pub mod simulation;
pub mod totals;

pub use durability::{DurabilitySink, SaleLog};
pub use totals::{ExactSum, SalesTotals};

pub use agents::{
    resolve_ncp, Broker, Buyer, MarketError, PriceErrorCurve, PriceQuote, PurchaseRequest, Sale,
    SaleArena, Seller, Transaction, MAX_BATCH,
};
