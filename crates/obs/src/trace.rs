//! Causal request tracing: trace/span ids, the per-thread span context
//! and its propagation across threads, and canonical span trees.
//!
//! The span guard itself lives in the `span` module: while tracing is on,
//! every [`crate::span`] takes a span id here and makes itself the
//! thread's current context until it drops, and every
//! [`crate::trace_root`] also allocates a fresh trace id. The `mbp-par`
//! task hook carries the context onto pool workers, so spans opened
//! inside a `par_map` chunk parent to the span that submitted the work.
//!
//! Ids are allocated from process-global counters that [`crate::reset`]
//! rewinds, so a single-threaded run re-executed from the same seed
//! produces the identical id sequence; at higher thread counts id
//! *assignment order* may differ, which is why tree comparisons go through
//! [`canonical_tree`] (names, labels, and structure only).
//!
//! Span names and label strings are interned once into a process-lifetime
//! table (bounded at [`MAX_INTERNED`] entries; overflow collapses to
//! `"-"`), so a flight-recorder slot holds ids, not strings.

use crate::recorder::SpanData;
use parking_lot::RwLock;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Maximum interned label/name strings; further strings collapse to `"-"`.
pub const MAX_INTERNED: usize = 4096;

/// Labeled histogram recording whole-request latency per
/// `(listing, mechanism)`: the duration of every traced root.
pub const REQUEST_METRIC: &str = "mbp.trace.request.seconds";

// --- string interner ---------------------------------------------------

#[derive(Default)]
struct Interner {
    ids: BTreeMap<Box<str>, u32>,
    names: Vec<Box<str>>,
}

fn interner() -> &'static RwLock<Interner> {
    static INTERNER: OnceLock<RwLock<Interner>> = OnceLock::new();
    INTERNER.get_or_init(|| {
        RwLock::new(Interner {
            ids: BTreeMap::new(),
            names: vec![Box::from("-")], // id 0: unknown/overflow
        })
    })
}

/// Interns `s`, returning its stable id (0 when the table is full or `s`
/// is `"-"`). The table intentionally survives [`crate::reset`] so ids in
/// ring slots and thread-local handle caches never dangle.
pub(crate) fn intern(s: &str) -> u32 {
    if s == "-" {
        return 0;
    }
    if let Some(&id) = interner().read().ids.get(s) {
        return id;
    }
    let mut t = interner().write();
    if let Some(&id) = t.ids.get(s) {
        return id;
    }
    if t.names.len() >= MAX_INTERNED {
        return 0;
    }
    let id = t.names.len() as u32;
    t.names.push(Box::from(s));
    t.ids.insert(Box::from(s), id);
    id
}

/// Resolves an interned id back to its string (`"-"` for unknown ids).
pub(crate) fn intern_name(id: u32) -> String {
    let t = interner().read();
    t.names
        .get(id as usize)
        .map_or_else(|| "-".to_string(), |n| n.to_string())
}

// --- ids, context, anchor ----------------------------------------------

static NEXT_TRACE: AtomicU64 = AtomicU64::new(0);
static NEXT_SPAN: AtomicU64 = AtomicU64::new(0);

pub(crate) fn next_trace() -> u32 {
    (NEXT_TRACE.fetch_add(1, Ordering::Relaxed) as u32).wrapping_add(1)
}

pub(crate) fn next_span() -> u32 {
    (NEXT_SPAN.fetch_add(1, Ordering::Relaxed) as u32).wrapping_add(1)
}

thread_local! {
    /// Packed `(trace << 32) | span` context of the innermost open span on
    /// this thread (0 = none). Propagated across `mbp-par` spawns.
    static CONTEXT: Cell<u64> = const { Cell::new(0) };
}

pub(crate) fn pack(hi: u32, lo: u32) -> u64 {
    (hi as u64) << 32 | lo as u64
}

/// This thread's current span context.
pub(crate) fn current() -> u64 {
    CONTEXT.with(|c| c.get())
}

/// Makes `ctx` this thread's current span context, returning the one it
/// replaces.
pub(crate) fn enter(ctx: u64) -> u64 {
    CONTEXT.with(|c| c.replace(ctx))
}

/// Restores the context `prev` that an [`enter`] returned.
pub(crate) fn exit(prev: u64) {
    CONTEXT.with(|c| c.set(prev));
}

/// The process trace-time anchor: span start offsets are measured from
/// it. Fixed when tracing is first enabled, before any traced span opens.
pub(crate) fn anchor() -> Instant {
    static ANCHOR: OnceLock<Instant> = OnceLock::new();
    *ANCHOR.get_or_init(Instant::now)
}

pub(crate) fn nanos_since_anchor(t: Instant) -> u64 {
    t.saturating_duration_since(anchor()).as_nanos() as u64
}

thread_local! {
    /// One-shot replay-seed hint for the next [`crate::trace_root`] opened
    /// on this thread (0 = none pending).
    static REQUEST_SEED: Cell<u64> = const { Cell::new(0) };
}

/// Attaches `seed` as the replay seed of the next trace root opened on
/// this thread. Callers that derive a request's RNG from a known seed
/// (simulation shards, the CLI trace driver, tests) call this right before
/// entering the broker, so slow-request exemplars carry the seed needed to
/// replay them. No-op when tracing is off.
pub fn set_request_seed(seed: u64) {
    if crate::is_tracing() {
        REQUEST_SEED.with(|c| c.set(seed));
    }
}

/// Takes (and clears) this thread's pending request-seed hint.
pub(crate) fn take_request_seed() -> u64 {
    REQUEST_SEED.with(|c| c.replace(0))
}

/// Installs the `mbp-par` task hook that carries span contexts onto pool
/// workers. Idempotent; called when tracing is first enabled.
pub(crate) fn install_par_hook() {
    static ONCE: OnceLock<()> = OnceLock::new();
    ONCE.get_or_init(|| {
        mbp_par::set_task_hook(mbp_par::TaskHook {
            capture: current,
            enter,
            exit,
        });
    });
}

/// Rewinds the id counters. Part of [`crate::reset`]; quiesce tracing
/// first.
pub(crate) fn reset() {
    NEXT_TRACE.store(0, Ordering::SeqCst);
    NEXT_SPAN.store(0, Ordering::SeqCst);
}

// --- canonical trees ---------------------------------------------------

/// Renders the span tree of `trace` in a canonical, timing- and
/// id-independent form: each span as `name(listing,mechanism)` with its
/// children rendered recursively, sorted lexicographically. Two runs of
/// the same request produce equal canonical trees regardless of thread
/// count or id assignment order.
pub fn canonical_tree(spans: &[SpanData], trace: u32) -> String {
    let in_trace: Vec<&SpanData> = spans.iter().filter(|s| s.trace == trace).collect();
    let ids: std::collections::BTreeSet<u32> = in_trace.iter().map(|s| s.span).collect();
    let mut by_parent: BTreeMap<u32, Vec<&SpanData>> = BTreeMap::new();
    let mut roots: Vec<&SpanData> = Vec::new();
    for s in &in_trace {
        if s.parent != 0 && ids.contains(&s.parent) && s.parent != s.span {
            by_parent.entry(s.parent).or_default().push(s);
        } else {
            roots.push(s);
        }
    }
    fn render(s: &SpanData, by_parent: &BTreeMap<u32, Vec<&SpanData>>, depth: usize) -> String {
        let label = format!("{}({},{})", s.name, s.listing, s.mechanism);
        if depth >= 64 {
            return label; // defensive: a garbled ring must not recurse away
        }
        let mut kids: Vec<String> = by_parent
            .get(&s.span)
            .map(|v| v.iter().map(|c| render(c, by_parent, depth + 1)).collect())
            .unwrap_or_default();
        if kids.is_empty() {
            label
        } else {
            kids.sort();
            format!("{label}[{}]", kids.join(","))
        }
    }
    let mut rendered: Vec<String> = roots.iter().map(|r| render(r, &by_parent, 0)).collect();
    rendered.sort();
    rendered.join(";")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{span, trace_root};

    fn arm() {
        crate::reset();
        crate::enable();
        crate::set_tracing(true);
    }

    fn disarm() {
        crate::set_tracing(false);
        crate::disable();
        crate::reset();
    }

    /// Opens a `quote` root for `seed` with `children` child spans.
    fn request(seed: u64, children: &[&'static str]) {
        crate::set_request_seed(seed);
        let _root = trace_root("quote", "l1", "gaussian");
        for &name in children {
            let _child = span(name);
        }
    }

    #[test]
    fn disabled_tracing_is_inert() {
        let _g = crate::test_support::serial();
        crate::reset();
        crate::disable();
        crate::set_tracing(false);
        {
            let root = trace_root("quote", "l1", "gaussian");
            assert_eq!(root.trace_id(), None);
            let _q = span("free");
        }
        assert!(crate::recorder_snapshot().is_empty());
        assert!(crate::snapshot().is_empty());
    }

    #[test]
    fn root_and_children_record_spans_and_the_request_histogram() {
        let _g = crate::test_support::serial();
        arm();
        request(42, &["lookup", "noise"]);
        let spans = crate::recorder_snapshot();
        assert_eq!(spans.len(), 3);
        let root = spans.iter().find(|s| s.name == "quote").expect("root");
        assert_eq!(root.seed, 42);
        assert_eq!(root.parent, 0);
        assert_eq!(root.listing, "l1");
        for name in ["lookup", "noise"] {
            let child = spans.iter().find(|s| s.name == name).expect("child");
            assert_eq!(child.parent, root.span);
            assert_eq!(child.trace, root.trace);
            assert_eq!((child.listing.as_str(), child.seed), ("-", 0));
        }
        let snap = crate::snapshot();
        let total = snap
            .labeled(
                REQUEST_METRIC,
                &[("listing", "l1"), ("mechanism", "gaussian")],
            )
            .expect("request series");
        assert_eq!(total.hist.count, 1);
        for name in ["quote.seconds", "lookup.seconds", "noise.seconds"] {
            assert_eq!(snap.histogram(name).map(|h| h.count), Some(1), "{name}");
        }
        disarm();
    }

    #[test]
    fn span_tree_is_identical_across_thread_counts() {
        let _g = crate::test_support::serial();
        let tree_at = |threads: usize| {
            arm();
            let tid = {
                let root = trace_root("par_map", "l9", "gaussian");
                mbp_par::with_threads(threads, || {
                    let _out = mbp_par::par_map(64, 4, |i| {
                        let _p = span("work");
                        i * 2
                    });
                });
                root.trace_id().expect("tracing armed")
            };
            let t = canonical_tree(&crate::recorder_snapshot(), tid);
            disarm();
            t
        };
        let one = tree_at(1);
        let four = tree_at(4);
        assert_eq!(one, four);
        // 64 work spans, all parented to the root.
        assert_eq!(one.matches("work").count(), 64);
        assert!(one.starts_with("par_map(l9,gaussian)["));
    }

    #[test]
    fn ring_is_deterministic_single_threaded() {
        let _g = crate::test_support::serial();
        let run = || {
            arm();
            mbp_par::with_threads(1, || {
                for req in 0..5u64 {
                    request(req, &["lookup"]);
                }
            });
            let spans: Vec<(u64, u32, u32, u32, String)> = crate::recorder_snapshot()
                .iter()
                .map(|s| (s.idx, s.trace, s.span, s.parent, s.name.clone()))
                .collect();
            disarm();
            spans
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn slow_roots_become_exemplars_and_replay_identically() {
        let _g = crate::test_support::serial();
        arm();
        crate::set_slow_threshold_micros(0); // every root is "slow"
        let children = ["lookup", "noise", "ledger"];
        request(1234, &children);
        let exs = crate::exemplars();
        assert_eq!(exs.len(), 1, "only the root becomes an exemplar");
        let ex = &exs[0];
        assert_eq!(ex.root.seed, 1234);
        assert_eq!(ex.children.len(), 3);
        let mut captured: Vec<SpanData> = ex.children.clone();
        captured.push(ex.root.clone());
        let captured_tree = canonical_tree(&captured, ex.root.trace);

        // Replay: reset and re-run the request from the exemplar's seed.
        crate::reset();
        crate::set_slow_threshold_micros(u64::MAX / 1000);
        request(exs[0].root.seed, &children);
        let spans = crate::recorder_snapshot();
        let root = spans.iter().find(|s| s.name == "quote").expect("root");
        assert_eq!(root.seed, 1234);
        let replay_tree = canonical_tree(&spans, root.trace);
        assert_eq!(captured_tree, replay_tree);
        disarm();
    }
}
