//! `mbp-par`: the fixed-size thread pool that runs the `mbp-serve`
//! daemon's long-lived IO loops.
//!
//! Every compute kernel in the workspace runs on the thread that calls it,
//! with one summation order and one RNG layout, so no result depends on
//! how many cores a machine has. The only threads this crate starts are a
//! [`ThreadPool`]'s workers, each of which drains jobs handed to
//! [`ThreadPool::run`] until the pool is dropped.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod pool;

pub use pool::ThreadPool;
