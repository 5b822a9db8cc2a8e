//! Verification layer for the MBP marketplace (machine-checked pricing
//! invariants, not spot tests).
//!
//! The whole value proposition of model-based pricing rests on
//! Theorems 5/6: a published price–error curve is arbitrage-free iff
//! `p̄(x) = p(1/x)` is non-negative, monotone non-decreasing, and
//! subadditive. Even when that math is sound, a buyer can arbitrage the
//! implementation: its rounding, its budget inversion, its error inverse
//! φ. This crate turns both risks into reusable, seed-deterministic
//! machinery:
//!
//! * [`attack`] — an arbitrage **attack engine**: randomized multisets of
//!   precision points searched for monotonicity/subadditivity violations,
//!   budget-mode round-trip exploits, and ε-space attacks through φ, with
//!   greedy counterexample shrinking. Error budgets are priced as sold
//!   ([`sold_price`]): through the broker's own
//!   [`resolve_ncp`](mbp_core::market::resolve_ncp);
//! * [`oracle`] — a **differential oracle** driving the pricing curve and
//!   its sold error-unit prices `p̄∘φ` against a high-precision
//!   Kahan-summed reference evaluator over the same inputs, failing on
//!   divergence greater than `1e-12` (relative);
//! * [`schedule`] — a **deterministic schedule explorer** for
//!   [`mbp_core::market::concurrent::SharedBroker`]: a virtual-time
//!   scheduler that enumerates or samples interleavings of concurrent
//!   `buy_batch`/re-publish operations and checks linearizability of
//!   the per-handle sale totals against a single-threaded
//!   reference broker, plus seeded fault-point injection;
//! * [`crash`] — a **crash-point fault injector** for durable logs:
//!   seeded kill-at-record/kill-at-byte schedules, content bit flips, and
//!   framing flips over an encoded log image, with recovery required to
//!   converge bit-identically from every surviving prefix (the `mbp-wal`
//!   crate plugs its recovery in through closures, so this crate stays
//!   storage-agnostic);
//! * [`corpus`] — persisted regression corpora (`testkit/corpus/`): every
//!   counterexample the engine ever found replays first on later runs;
//! * [`reference`](mod@reference) — the one-request-at-a-time purchase,
//!   which the broker's batched listing kernel must match bit for bit.
//!
//! Everything is reproducible from a printed 64-bit seed alone.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attack;
pub mod corpus;
pub mod crash;
pub mod oracle;
pub mod reference;
pub mod schedule;

pub use attack::{
    attack_curve, attack_error_space, sold_price, AttackConfig, AttackReport, Violation,
};
pub use corpus::{Case, Corpus};
pub use crash::{
    explore_crashes, CrashCase, CrashConfig, CrashFailure, CrashHarness, CrashOracle, CrashOutcome,
    CrashReport, CrashSchedule, LogGeometry,
};
pub use oracle::{check_error_space, check_pricing, OracleConfig, OracleReport, ReferenceCurve};
pub use schedule::{
    explore, explore_crash, run_case, run_crash_case, ScheduleConfig, ScheduleFailure,
    ScheduleReport,
};

/// Re-export of the core crate *as this crate links it*. `mbp-core`'s own
/// unit tests consume `mbp-testkit` through a dev-dependency cycle, where
/// the test-harness build of `mbp-core` is a distinct compilation from the
/// one linked here; those tests rebuild fixtures through this path so the
/// types unify.
pub use mbp_core;
