//! Each thread's resolved counter, gauge and histogram handles.
//!
//! A registry lookup takes the read lock, searches a `BTreeMap` by string
//! and clones an `Arc`. The recording calls ([`crate::inc`],
//! [`crate::counter_add`], [`crate::gauge_set`], [`crate::gauge_add`],
//! [`crate::observe`]) instead find the metric in a per-thread list,
//! matching the name by address (every caller passes a literal), so a
//! warmed call costs a short pointer scan and one atomic update: no lock
//! and no allocation. Like the span layer's histogram cache, each handle
//! is tagged with the registry's reset epoch and re-resolves after a
//! [`crate::reset`].

use crate::registry::{self, Counter, Gauge, Histogram};
use std::cell::RefCell;
use std::sync::Arc;
use std::thread::LocalKey;

struct Handle<T> {
    name: &'static str,
    /// Registry epoch the handle was resolved in.
    epoch: u64,
    metric: Arc<T>,
}

type Cache<T> = RefCell<Vec<Handle<T>>>;

thread_local! {
    static COUNTERS: Cache<Counter> = const { RefCell::new(Vec::new()) };
    static GAUGES: Cache<Gauge> = const { RefCell::new(Vec::new()) };
    static HISTOGRAMS: Cache<Histogram> = const { RefCell::new(Vec::new()) };
}

/// Applies `update` to the metric `name` through this thread's `cache`,
/// resolving it with `resolve` on a miss or after a reset. During thread
/// teardown, or on a re-entrant call, it records through the registry
/// directly, so no update is lost.
fn with<T>(
    cache: &'static LocalKey<Cache<T>>,
    name: &'static str,
    resolve: fn(&str) -> Arc<T>,
    update: impl Fn(&T),
) {
    // Read the epoch before any lookup: see `registry::epoch`.
    let epoch = registry::epoch();
    let cached = cache
        .try_with(|cache| {
            let Ok(mut cache) = cache.try_borrow_mut() else {
                return false;
            };
            match cache.iter_mut().find(|h| std::ptr::eq(h.name, name)) {
                Some(h) => {
                    if h.epoch != epoch {
                        *h = Handle {
                            name,
                            epoch,
                            metric: resolve(name),
                        };
                    }
                    update(&h.metric);
                }
                None => {
                    let metric = resolve(name);
                    update(&metric);
                    cache.push(Handle {
                        name,
                        epoch,
                        metric,
                    });
                }
            }
            true
        })
        .unwrap_or(false);
    if !cached {
        update(&resolve(name));
    }
}

pub(crate) fn counter(name: &'static str, update: impl Fn(&Counter)) {
    with(&COUNTERS, name, registry::counter, update);
}

pub(crate) fn gauge(name: &'static str, update: impl Fn(&Gauge)) {
    with(&GAUGES, name, registry::gauge, update);
}

pub(crate) fn histogram(name: &'static str, update: impl Fn(&Histogram)) {
    with(&HISTOGRAMS, name, registry::histogram, update);
}
