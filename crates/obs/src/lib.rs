//! Dependency-free observability for the mbp workspace.
//!
//! One global, process-wide state backs three instruments:
//!
//! * a **metrics registry** ([`inc`], [`counter_add`], [`gauge_set`],
//!   [`gauge_add`], [`observe`]) of named counters, gauges, and fixed-bucket
//!   log-scale histograms with interpolated quantiles. Names are literals;
//!   each thread caches the handles it records into (re-resolved after
//!   [`reset`]), so a warmed call takes no lock;
//! * **spans**: one RAII guard, opened by [`span`] or, for a request, by
//!   [`trace_root`]. It records its wall time into a `<name>.seconds`
//!   histogram. Each thread caches its span histograms (re-resolved after
//!   [`reset`]), so a warmed span allocates nothing and takes no lock.
//!   With tracing on ([`set_tracing`]) the same guard is also a node of a
//!   trace tree: it takes a span id, parents the spans opened inside it
//!   on this thread, and lands in
//!   a lock-free flight-recorder ring ([`recorder_snapshot`]); slow roots
//!   are kept as replayable [`exemplars`];
//! * a **structured event log** ([`event`]) — a bounded ring buffer of
//!   timestamped key=value events, drainable as JSON lines.
//!
//! Everything is off by default. [`enable`] flips a single atomic flag; when
//! disabled, every recording call returns after one relaxed atomic load, so
//! instrumented hot paths (e.g. `Broker::buy_batch_into`) pay no measurable
//! cost.
//!
//! Metric names follow `mbp.<crate>.<unit>`, e.g. `mbp.core.buy.count`,
//! `mbp.core.buy_batch.seconds`, `mbp.optim.revenue.iterations`. Exporters live in
//! [`export`]: Prometheus text ([`to_prometheus`]), JSON ([`to_json`]),
//! JSON-lines for events ([`events_to_jsonl`]) and for flight-recorder
//! spans ([`recorder_to_jsonl`]), and Chrome `trace_event` JSON
//! ([`recorder_to_chrome_trace`]); a human-readable table renderer lives
//! in `mbp_bench::report`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod events;
pub mod export;
mod handles;
mod recorder;
mod registry;
mod span;
pub mod trace;

pub use events::{
    drain_events, dropped_events, set_verbosity, verbosity, Event, Verbosity, RING_CAPACITY,
};
pub use export::{
    events_to_jsonl, recorder_to_chrome_trace, recorder_to_jsonl, to_json, to_prometheus,
};
pub use recorder::{
    exemplars, recorded_spans, recorder_snapshot, set_slow_threshold_micros, slow_threshold_nanos,
    Exemplar, SpanData, MAX_EXEMPLARS, RING_SLOTS,
};
pub use registry::{
    HistogramSnapshot, LabeledSeriesSnapshot, Snapshot, BUCKETS, MAX_LABEL_SETS, OVERFLOW_LABEL,
};
pub use span::{span, trace_root, Span};
pub use trace::{canonical_tree, set_request_seed};

use std::sync::atomic::{AtomicBool, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);
static TRACING: AtomicBool = AtomicBool::new(false);

/// Turns recording on or off globally.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

/// Enables recording (equivalent to `set_enabled(true)`).
pub fn enable() {
    set_enabled(true);
}

/// Disables recording; subsequent calls are single-atomic-load no-ops.
pub fn disable() {
    set_enabled(false);
}

/// Whether recording is currently enabled.
#[inline(always)]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns causal tracing (span ids and contexts, the flight-recorder ring,
/// the labeled request histogram) on or off. Tracing additionally requires
/// recording to be enabled; with tracing off, a [`span`] or [`trace_root`]
/// records only its `<name>.seconds` histogram. Enabling fixes the trace
/// time anchor and installs the panic-time flight-recorder dump (both once
/// per process).
pub fn set_tracing(on: bool) {
    if on {
        trace::anchor();
        recorder::install_panic_hook();
    }
    TRACING.store(on, Ordering::SeqCst);
}

/// Whether causal tracing is currently active (requires [`is_enabled`]).
#[inline(always)]
pub fn is_tracing() -> bool {
    is_enabled() && TRACING.load(Ordering::Relaxed)
}

/// Increments the counter `name` by one.
#[inline]
pub fn inc(name: &'static str) {
    if is_enabled() {
        handles::counter(name, |c| c.add(1));
    }
}

/// Adds `n` to the counter `name` (wrapping on `u64` overflow).
#[inline]
pub fn counter_add(name: &'static str, n: u64) {
    if is_enabled() {
        handles::counter(name, |c| c.add(n));
    }
}

/// Sets the gauge `name` to `v`.
#[inline]
pub fn gauge_set(name: &'static str, v: f64) {
    if is_enabled() {
        handles::gauge(name, |g| g.set(v));
    }
}

/// Adds `d` (possibly negative) to the gauge `name`.
#[inline]
pub fn gauge_add(name: &'static str, d: f64) {
    if is_enabled() {
        handles::gauge(name, |g| g.add(d));
    }
}

/// Records `v` into the histogram `name`. Non-finite and negative values
/// are ignored (histograms hold durations and other non-negative units).
#[inline]
pub fn observe(name: &'static str, v: f64) {
    if is_enabled() {
        handles::histogram(name, |h| h.observe(v));
    }
}

/// Records a structured event at `level` (dropped unless recording is
/// enabled and `level <= verbosity()`).
pub fn event(level: Verbosity, target: &str, message: &str, fields: &[(&str, String)]) {
    events::record(level, target, message, fields);
}

/// Takes a point-in-time copy of every registered metric, sorted by name.
pub fn snapshot() -> Snapshot {
    registry::snapshot()
}

/// Clears all metrics, buffered events, the flight-recorder ring and
/// exemplars, and rewinds the trace/span id counters. The enabled/tracing
/// flags, verbosity level, and slow threshold are left as-is, so callers
/// can `reset()` between measurement phases without re-arming. Quiesce
/// in-flight traced requests first.
pub fn reset() {
    registry::reset();
    events::reset();
    recorder::reset();
    trace::reset();
}

#[cfg(test)]
pub(crate) mod test_support {
    //! Obs state is global; tests that touch it serialize on this lock so
    //! the default parallel test runner cannot interleave them.
    use std::sync::{Mutex, MutexGuard, OnceLock};

    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();

    pub fn serial() -> MutexGuard<'static, ()> {
        LOCK.get_or_init(|| Mutex::new(()))
            .lock()
            .unwrap_or_else(|p| p.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_calls_record_nothing() {
        let _g = test_support::serial();
        reset();
        disable();
        inc("mbp.test.disabled.count");
        gauge_set("mbp.test.disabled.gauge", 1.0);
        observe("mbp.test.disabled.seconds", 0.5);
        event(Verbosity::Error, "mbp.test", "dropped", &[]);
        let snap = snapshot();
        assert!(
            snap.is_empty(),
            "disabled recording created metrics: {snap:?}"
        );
        assert!(drain_events().is_empty());
    }

    #[test]
    fn disabled_fast_path_is_cheap() {
        let _g = test_support::serial();
        reset();
        disable();
        // Acceptance: the disabled registry adds no measurable overhead.
        // 10M disabled incs must complete in well under a second even on a
        // loaded CI box (each is one relaxed atomic load + branch).
        let start = std::time::Instant::now();
        for _ in 0..10_000_000u64 {
            inc(std::hint::black_box("mbp.core.buy.count"));
        }
        let elapsed = start.elapsed();
        assert!(
            elapsed < std::time::Duration::from_secs(2),
            "10M disabled incs took {elapsed:?}"
        );
        assert!(snapshot().is_empty());
    }

    #[test]
    fn enabled_roundtrip_counters_gauges_histograms() {
        let _g = test_support::serial();
        reset();
        enable();
        inc("mbp.test.count");
        counter_add("mbp.test.count", 4);
        gauge_set("mbp.test.gauge", 2.5);
        gauge_add("mbp.test.gauge", -0.5);
        for v in [0.001, 0.002, 0.004] {
            observe("mbp.test.seconds", v);
        }
        let snap = snapshot();
        assert_eq!(snap.counter("mbp.test.count"), Some(5));
        assert_eq!(snap.gauge("mbp.test.gauge"), Some(2.0));
        let h = snap.histogram("mbp.test.seconds").expect("histogram");
        assert_eq!(h.count, 3);
        assert!((h.sum - 0.007).abs() < 1e-12);
        assert_eq!(h.min, 0.001);
        assert_eq!(h.max, 0.004);
        disable();
        reset();
    }

    #[test]
    fn counter_wraps_on_overflow() {
        let _g = test_support::serial();
        reset();
        enable();
        counter_add("mbp.test.wrap", u64::MAX);
        inc("mbp.test.wrap");
        inc("mbp.test.wrap");
        assert_eq!(snapshot().counter("mbp.test.wrap"), Some(1));
        disable();
        reset();
    }

    #[test]
    fn counter_after_reset_lands_in_the_fresh_registry() {
        let _g = test_support::serial();
        reset();
        enable();
        // Warm this thread's cached handles, then orphan them.
        for _ in 0..3 {
            inc("mbp.test.epoch.count");
            gauge_add("mbp.test.epoch.gauge", 1.0);
            observe("mbp.test.epoch.seconds", 0.5);
        }
        reset();
        inc("mbp.test.epoch.count");
        gauge_add("mbp.test.epoch.gauge", 1.0);
        observe("mbp.test.epoch.seconds", 0.5);
        let snap = snapshot();
        assert_eq!(snap.counter("mbp.test.epoch.count"), Some(1));
        assert_eq!(snap.gauge("mbp.test.epoch.gauge"), Some(1.0));
        assert_eq!(
            snap.histogram("mbp.test.epoch.seconds").map(|h| h.count),
            Some(1)
        );
        disable();
        reset();
    }

    #[test]
    fn reset_preserves_enabled_flag() {
        let _g = test_support::serial();
        enable();
        inc("mbp.test.reset");
        reset();
        assert!(is_enabled());
        assert!(snapshot().is_empty());
        disable();
    }
}
