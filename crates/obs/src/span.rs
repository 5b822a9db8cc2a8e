//! The span guard. Every timed region is one [`span`] (or one
//! [`trace_root`]), and the same guard serves every observability level:
//!
//! * **obs off:** the guard is inert after one relaxed load;
//! * **obs on:** dropping it records its wall time into the histogram
//!   `<name>.seconds`;
//! * **tracing on:** it also takes a span id, is the thread's current
//!   context until it drops (see [`crate::trace`]), and writes its record
//!   into the flight recorder.
//!
//! A [`trace_root`] is a span that always starts a fresh trace. It carries
//! the request's listing and mechanism labels and this thread's pending
//! request seed ([`crate::set_request_seed`]). While tracing it also
//! records the labeled `mbp.trace.request.seconds` histogram, and only
//! roots become tail-latency exemplars. A span opened outside every root
//! belongs to trace 0.
//!
//! Each thread caches the handle of every histogram its spans record
//! into, tagged with the registry's reset epoch, so a warmed untraced span
//! costs two clock reads and one histogram add: no allocation and no
//! registry lock. A [`crate::reset`] bumps the epoch and every cached
//! handle re-resolves on its next use.

use crate::recorder::{self, RawSpan};
use crate::registry::{self, Histogram};
use crate::trace::{self, REQUEST_METRIC};
use std::cell::RefCell;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Labels key of a span's own unlabeled `<name>.seconds` histogram.
const UNLABELED: u64 = u64::MAX;

/// One thread's resolved histogram handle.
struct Cached {
    /// Span name or labeled metric name, matched by address (both are
    /// literals).
    name: &'static str,
    /// Interned `listing << 32 | mechanism`, or [`UNLABELED`].
    labels: u64,
    /// Registry epoch the handle was resolved in.
    epoch: u64,
    hist: Arc<Histogram>,
    /// Interned id of `name`, for flight-recorder records.
    name_id: u32,
}

thread_local! {
    static HISTOGRAMS: RefCell<Vec<Cached>> = const { RefCell::new(Vec::new()) };
}

fn resolve(name: &'static str, labels: u64, epoch: u64) -> Cached {
    let hist = if labels == UNLABELED {
        registry::histogram(&format!("{name}.seconds"))
    } else {
        let listing = trace::intern_name((labels >> 32) as u32);
        let mechanism = trace::intern_name(labels as u32);
        registry::labeled_histogram(name, &[("listing", &listing), ("mechanism", &mechanism)])
    };
    Cached {
        name,
        labels,
        epoch,
        hist,
        name_id: trace::intern(name),
    }
}

/// Records `secs` into the `(name, labels)` histogram through this
/// thread's cache, resolving (and allocating the key) only on a miss or
/// after a registry reset. Returns `name`'s interned id.
fn observe_cached(name: &'static str, labels: u64, secs: f64) -> u32 {
    // Read the epoch before any lookup: see `registry::epoch`.
    let epoch = registry::epoch();
    // Instrumentation must never abort the thread it observes, so a drop
    // during thread teardown or a re-entrant drop skips its record.
    HISTOGRAMS
        .try_with(|cache| {
            let Ok(mut cache) = cache.try_borrow_mut() else {
                return 0;
            };
            let hit = cache
                .iter()
                .position(|c| std::ptr::eq(c.name, name) && c.labels == labels);
            let i = hit.unwrap_or_else(|| {
                cache.push(resolve(name, labels, epoch));
                cache.len() - 1
            });
            let Some(entry) = cache.get_mut(i) else {
                return 0;
            };
            if entry.epoch != epoch {
                *entry = resolve(name, labels, epoch);
            }
            entry.hist.observe(secs);
            entry.name_id
        })
        .unwrap_or(0)
}

/// A span's place in the trace tree, present only while tracing.
#[derive(Debug)]
struct Node {
    /// The thread's context before this span opened, restored on drop.
    prev: u64,
    trace: u32,
    span: u32,
    parent: u32,
    /// Roots only: interned `listing << 32 | mechanism` and the request
    /// seed.
    root: Option<(u64, u64)>,
}

impl Node {
    /// Takes a span id and makes it the thread's context: under the
    /// current span, or for a root (`labels` given) at the top of a fresh
    /// trace.
    fn enter(labels: Option<(&str, &str)>) -> Node {
        let (trace, parent, root) = match labels {
            Some((listing, mechanism)) => {
                let labels = trace::pack(trace::intern(listing), trace::intern(mechanism));
                let root = (labels, trace::take_request_seed());
                (trace::next_trace(), 0, Some(root))
            }
            None => {
                let ctx = trace::current();
                ((ctx >> 32) as u32, ctx as u32, None)
            }
        };
        let span = trace::next_span();
        Node {
            prev: trace::enter(trace::pack(trace, span)),
            trace,
            span,
            parent,
            root,
        }
    }

    /// Writes the completed span into the flight recorder; a root also
    /// records the request histogram and, when slow, an exemplar.
    fn record(&self, name_id: u32, start: Instant, dur: Duration) {
        let (labels, seed) = self.root.unwrap_or((0, 0));
        let raw = RawSpan {
            trace: self.trace,
            span: self.span,
            parent: self.parent,
            name: name_id,
            listing: (labels >> 32) as u32,
            mechanism: labels as u32,
            seed,
            start_nanos: trace::nanos_since_anchor(start),
            dur_nanos: dur.as_nanos() as u64,
        };
        recorder::record(&raw);
        if self.root.is_some() {
            observe_cached(REQUEST_METRIC, labels, dur.as_secs_f64());
            if raw.dur_nanos >= recorder::slow_threshold_nanos() {
                recorder::capture_exemplar(&raw);
            }
        }
    }
}

/// Timer guard returned by [`span`] and [`trace_root`]; records on drop.
#[must_use = "a span records its duration when dropped"]
#[derive(Debug)]
pub struct Span {
    name: &'static str,
    start: Option<Instant>,
    node: Option<Node>,
}

fn open(name: &'static str, root: Option<(&str, &str)>) -> Span {
    if !crate::is_enabled() {
        return Span {
            name,
            start: None,
            node: None,
        };
    }
    let node = crate::is_tracing().then(|| Node::enter(root));
    Span {
        name,
        start: Some(Instant::now()),
        node,
    }
}

/// Opens a span named `name` (e.g. `"mbp.core.buy_batch"`). When
/// recording is disabled this is a single atomic load and the returned
/// guard is inert.
pub fn span(name: &'static str) -> Span {
    open(name, None)
}

/// Opens a root span for one request (a buy or a publish): a span that
/// always starts a fresh trace. `listing`/`mechanism` label the request
/// (`"-"` when not applicable), and the root takes this thread's pending
/// request seed, so a slow exemplar can be replayed. Below tracing it is
/// an ordinary [`span`], and the seed hint is left untouched.
pub fn trace_root(name: &'static str, listing: &str, mechanism: &str) -> Span {
    open(name, Some((listing, mechanism)))
}

impl Span {
    /// This span's trace id while tracing (0 outside every root), `None`
    /// otherwise.
    pub fn trace_id(&self) -> Option<u32> {
        self.node.as_ref().map(|n| n.trace)
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(start) = self.start else {
            return;
        };
        let dur = start.elapsed();
        if let Some(node) = &self.node {
            trace::exit(node.prev);
        }
        // The enabled flag is re-checked here, so disabling midway through
        // a span only skips the record; the context is restored above.
        if !crate::is_enabled() {
            return;
        }
        let name_id = observe_cached(self.name, UNLABELED, dur.as_secs_f64());
        if let Some(node) = &self.node {
            node.record(name_id, start, dur);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support;

    #[test]
    fn nested_spans_record_their_histograms() {
        let _g = test_support::serial();
        crate::reset();
        crate::enable();
        {
            let _outer = span("mbp.test.outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = span("mbp.test.inner");
            }
        }
        let snap = crate::snapshot();
        let outer = snap.histogram("mbp.test.outer.seconds").expect("outer");
        assert_eq!(outer.count, 1);
        assert!(outer.sum >= 0.002, "outer span too short: {}", outer.sum);
        assert_eq!(snap.histogram("mbp.test.inner.seconds").unwrap().count, 1);
        crate::disable();
        crate::reset();
    }

    #[test]
    fn span_after_reset_lands_in_the_fresh_registry() {
        let _g = test_support::serial();
        crate::reset();
        crate::enable();
        // Warm this thread's cached handle, then orphan it.
        for _ in 0..3 {
            let _s = span("mbp.test.epoch");
        }
        crate::reset();
        {
            let _s = span("mbp.test.epoch");
        }
        let snap = crate::snapshot();
        let h = snap
            .histogram("mbp.test.epoch.seconds")
            .expect("the span re-resolves its histogram after reset");
        assert_eq!(h.count, 1);
        crate::disable();
        crate::reset();
    }

    #[test]
    fn untraced_spans_record_histograms_but_no_ring_records() {
        let _g = test_support::serial();
        crate::reset();
        crate::enable();
        {
            let root = trace_root("mbp.test.untraced_root", "l1", "gaussian");
            assert_eq!(root.trace_id(), None);
            let _inner = span("mbp.test.untraced_inner");
        }
        let snap = crate::snapshot();
        for name in [
            "mbp.test.untraced_root.seconds",
            "mbp.test.untraced_inner.seconds",
        ] {
            assert_eq!(snap.histogram(name).map(|h| h.count), Some(1), "{name}");
        }
        assert!(snap.labeled.is_empty(), "no request series below tracing");
        assert!(crate::recorder_snapshot().is_empty());
        crate::disable();
        crate::reset();
    }

    /// While tracing, a child parents to the open span, shares its trace
    /// and lies inside its interval, and every drop restores the context,
    /// so a later sibling parents to the same span. A root opened inside a
    /// span still starts a fresh trace, carrying its labels and the seed.
    #[test]
    fn traced_spans_nest_and_roots_start_fresh_traces() {
        let _g = test_support::serial();
        crate::reset();
        crate::enable();
        crate::set_tracing(true);
        {
            let _outer = span("mbp.test.outer");
            {
                let _first = span("mbp.test.first");
                crate::set_request_seed(99);
                let _root = trace_root("mbp.test.root", "l1", "gaussian");
                let _child = span("mbp.test.child");
            }
            let _second = span("mbp.test.second");
        }
        assert_eq!(trace::current(), 0, "every drop restored the context");
        let spans = crate::recorder_snapshot();
        let get = |n: &str| spans.iter().find(|s| s.name == n).expect(n);
        let root = get("mbp.test.root");
        assert_eq!((root.trace, root.parent, root.seed), (1, 0, 99));
        assert_eq!(
            (root.listing.as_str(), root.mechanism.as_str()),
            ("l1", "gaussian")
        );
        for (child, parent, trace) in [
            ("mbp.test.first", "mbp.test.outer", 0),
            ("mbp.test.second", "mbp.test.outer", 0),
            ("mbp.test.child", "mbp.test.root", 1),
        ] {
            let (c, p) = (get(child), get(parent));
            assert_eq!(
                (c.parent, c.trace),
                (p.span, trace),
                "{child} under {parent}"
            );
            assert!(
                p.start_nanos <= c.start_nanos
                    && c.start_nanos + c.dur_nanos <= p.start_nanos + p.dur_nanos,
                "{child} lies inside {parent}"
            );
        }
        crate::set_tracing(false);
        crate::disable();
        crate::reset();
    }
}
