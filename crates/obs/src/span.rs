//! RAII span timers. A [`span`] measures wall time from creation to drop,
//! recording it into the histogram `<name>.seconds`. Spans nest: each
//! thread keeps a stack of open span names. At [`Verbosity::Trace`] every
//! span drop also emits an event carrying its full `parent>child` path and
//! duration, so draining events at `--trace` reconstructs the trace tree;
//! below Trace no event is built at all.
//!
//! Each thread caches the `<name>.seconds` histogram handle of every span
//! name it has dropped, tagged with the registry's reset epoch, so a
//! warmed span at Info costs two clock reads and one histogram add: no
//! allocation and no registry lock. A [`crate::reset`] bumps the epoch
//! and every cached handle re-resolves on its next use.

use crate::registry::{self, Histogram};
use crate::Verbosity;
use std::cell::RefCell;
use std::sync::Arc;
use std::time::Instant;

/// One thread's resolved span histogram: the span name (matched by
/// address, since span names are literals), the registry epoch it was
/// resolved in, and the `<name>.seconds` histogram.
type CachedHistogram = (&'static str, u64, Arc<Histogram>);

thread_local! {
    static STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
    static HISTOGRAMS: RefCell<Vec<CachedHistogram>> = const { RefCell::new(Vec::new()) };
}

/// Records `secs` into `name`'s `<name>.seconds` histogram through this
/// thread's cache, resolving (and allocating the key) only on a miss or
/// after a registry reset.
fn observe_cached(name: &'static str, secs: f64) {
    // Read the epoch before any lookup: see `registry::epoch`.
    let epoch = registry::epoch();
    let resolve = || (name, epoch, registry::histogram(&format!("{name}.seconds")));
    // The fallible accesses mirror `span()`: instrumentation must never
    // abort the thread it observes, so a drop during thread teardown
    // skips its record instead.
    let _ = HISTOGRAMS.try_with(|cache| {
        let Ok(mut cache) = cache.try_borrow_mut() else {
            return;
        };
        match cache.iter_mut().find(|(n, _, _)| std::ptr::eq(*n, name)) {
            Some(entry) => {
                if entry.1 != epoch {
                    *entry = resolve();
                }
                entry.2.observe(secs);
            }
            None => {
                let entry = resolve();
                entry.2.observe(secs);
                cache.push(entry);
            }
        }
    });
}

/// Timer guard returned by [`span`]; records on drop.
#[must_use = "a span records its duration when dropped"]
#[derive(Debug)]
pub struct Span {
    name: &'static str,
    start: Option<Instant>,
}

/// Opens a span named `name` (e.g. `"mbp.core.buy"`). When recording is
/// disabled this is a single atomic load and the returned guard is inert.
pub fn span(name: &'static str) -> Span {
    if !crate::is_enabled() {
        return Span { name, start: None };
    }
    // `try_borrow_mut` fails only on re-entry (a span opened from inside
    // the drop path while the stack is borrowed); return an inert guard
    // then — instrumentation must never abort the thread it observes.
    let pushed = STACK.with(|s| s.try_borrow_mut().map(|mut stack| stack.push(name)).is_ok());
    if !pushed {
        return Span { name, start: None };
    }
    Span {
        name,
        start: Some(Instant::now()),
    }
}

impl Span {
    /// The span's name.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(start) = self.start else {
            return;
        };
        let secs = start.elapsed().as_secs_f64();
        // The enabled flag is re-checked here, so disabling midway through
        // a span only skips the record — the stack stays balanced. The
        // path and duration strings are built only when a Trace event
        // will keep them.
        let trace = crate::is_enabled() && crate::verbosity() >= Verbosity::Trace;
        // A `start: Some` span always pushed, so the pop below stays
        // balanced; the fallible borrow mirrors `span()` for re-entrancy.
        let path = STACK.with(|s| match s.try_borrow_mut() {
            Ok(mut stack) => {
                let path = if trace {
                    stack.join(">")
                } else {
                    String::new()
                };
                stack.pop();
                path
            }
            Err(_) => String::new(),
        });
        if crate::is_enabled() {
            observe_cached(self.name, secs);
        }
        if trace {
            crate::event(
                Verbosity::Trace,
                self.name,
                "span",
                &[("path", path), ("secs", format!("{secs:.9}"))],
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support;

    #[test]
    fn span_records_histogram_and_trace_event() {
        let _g = test_support::serial();
        crate::reset();
        crate::enable();
        crate::set_verbosity(Verbosity::Trace);
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

        let events = crate::drain_events();
        let paths: Vec<&str> = events
            .iter()
            .filter(|e| e.message == "span")
            .map(|e| {
                e.fields
                    .iter()
                    .find(|(k, _)| k == "path")
                    .unwrap()
                    .1
                    .as_str()
            })
            .collect();
        assert!(
            paths.contains(&"mbp.test.outer>mbp.test.inner"),
            "{paths:?}"
        );
        assert!(paths.contains(&"mbp.test.outer"), "{paths:?}");
        crate::set_verbosity(Verbosity::Info);
        crate::disable();
        crate::reset();
    }

    /// The `(path, secs)` fields of every `span` event drained so far.
    fn drained_span_fields() -> Vec<(String, String)> {
        crate::drain_events()
            .into_iter()
            .filter(|e| e.message == "span")
            .map(|e| {
                let field = |key: &str| {
                    e.fields
                        .iter()
                        .find(|(k, _)| k == key)
                        .map(|(_, v)| v.clone())
                        .unwrap_or_default()
                };
                (field("path"), field("secs"))
            })
            .collect()
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
    fn info_span_pair_records_histograms_without_events() {
        let _g = test_support::serial();
        crate::reset();
        crate::enable();
        crate::set_verbosity(Verbosity::Info);
        {
            let _outer = span("mbp.test.info_outer");
            let _inner = span("mbp.test.info_inner");
        }
        let snap = crate::snapshot();
        for name in ["mbp.test.info_outer.seconds", "mbp.test.info_inner.seconds"] {
            assert_eq!(snap.histogram(name).map(|h| h.count), Some(1), "{name}");
        }
        assert!(drained_span_fields().is_empty(), "Info emits no span event");
        crate::disable();
        crate::reset();
    }

    #[test]
    fn trace_span_pair_emits_path_and_secs() {
        let _g = test_support::serial();
        crate::reset();
        crate::enable();
        crate::set_verbosity(Verbosity::Trace);
        {
            let _outer = span("mbp.test.trace_outer");
            let _inner = span("mbp.test.trace_inner");
        }
        let fields = drained_span_fields();
        let paths: Vec<&str> = fields.iter().map(|(p, _)| p.as_str()).collect();
        assert_eq!(
            paths,
            [
                "mbp.test.trace_outer>mbp.test.trace_inner",
                "mbp.test.trace_outer"
            ]
        );
        for (path, secs) in &fields {
            let (whole, frac) = secs.split_once('.').expect("fixed-point secs");
            assert!(whole.parse::<u64>().is_ok(), "{path}: secs {secs}");
            assert_eq!(frac.len(), 9, "{path}: secs {secs} has nanosecond digits");
        }
        crate::set_verbosity(Verbosity::Info);
        crate::disable();
        crate::reset();
    }

    #[test]
    fn disabled_span_is_inert_and_stack_balanced() {
        let _g = test_support::serial();
        crate::reset();
        crate::disable();
        {
            let _s = span("mbp.test.noop");
        }
        assert!(crate::snapshot().is_empty());
        // A subsequent enabled span sees an empty stack (path == own name).
        crate::enable();
        crate::set_verbosity(Verbosity::Trace);
        {
            let _s = span("mbp.test.solo");
        }
        let events = crate::drain_events();
        let path = &events
            .iter()
            .find(|e| e.message == "span")
            .unwrap()
            .fields
            .iter()
            .find(|(k, _)| k == "path")
            .unwrap()
            .1;
        assert_eq!(path, "mbp.test.solo");
        crate::set_verbosity(Verbosity::Info);
        crate::disable();
        crate::reset();
    }
}
