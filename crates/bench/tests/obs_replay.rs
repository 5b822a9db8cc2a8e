//! Pins tracebench's obs replay to the buy kernel. `BENCH_trace.json`
//! counts the tracing overhead from [`tracebench::obs_calls`], so the
//! replay must make the obs calls of one warmed depth-1 `buy_batch_into`:
//! a span, counter or histogram added to the kernel or dropped from the
//! replay fails here.
//!
//! Obs state is process-global, so this pin lives in its own test binary:
//! no other test buys while it reads the registry.

use mbp_bench::{listed_broker, request_stream, tracebench};
use mbp_core::market::SaleArena;
use mbp_ml::ModelKind;
use mbp_randx::seeded_rng;

/// What a recording leaves in the registry, by name: every histogram
/// (span timings included) with its count, every counter with its value,
/// every gauge, and every labeled series with its labels and count.
type Recorded = (
    Vec<(String, u64)>,
    Vec<(String, u64)>,
    Vec<String>,
    Vec<(String, Vec<(String, String)>, u64)>,
);

fn recorded(work: impl FnOnce()) -> (Recorded, u64) {
    mbp_obs::reset();
    let spans = mbp_obs::recorded_spans();
    work();
    let spans = mbp_obs::recorded_spans() - spans;
    let snap = mbp_obs::snapshot();
    let histograms = snap
        .histograms
        .iter()
        .map(|h| (h.name.clone(), h.count))
        .collect();
    let gauges = snap.gauges.iter().map(|(n, _)| n.clone()).collect();
    let labeled = snap
        .labeled
        .iter()
        .map(|s| (s.name.clone(), s.labels.clone(), s.hist.count))
        .collect();
    ((histograms, snap.counters, gauges, labeled), spans)
}

#[test]
fn the_replay_makes_the_obs_calls_of_one_depth_1_buy() {
    let kind = ModelKind::LinearRegression;
    let mut broker = listed_broker(32);
    let mut arena = SaleArena::new();
    let mut rng = seeded_rng(0x5e1);
    // One request of each kind; the first buy warms the arena.
    let requests = request_stream(0, 3);
    mbp_obs::disable();
    broker
        .buy_batch_into(kind, &requests[..1], &mut rng, &mut arena)
        .expect("listing exists");
    for tracing in [false, true] {
        mbp_obs::enable();
        mbp_obs::set_tracing(tracing);
        for (i, request) in requests.iter().enumerate() {
            let seed = i as u64 + 1;
            let kernel = recorded(|| {
                mbp_obs::set_request_seed(seed);
                broker
                    .buy_batch_into(kind, std::slice::from_ref(request), &mut rng, &mut arena)
                    .expect("listing exists");
                assert!(arena.results().all(|r| r.is_ok()), "{request:?} served");
            });
            let replay = recorded(|| tracebench::obs_calls(seed));
            assert!(!kernel.0 .0.is_empty(), "the buy recorded no span");
            assert_eq!(
                replay, kernel,
                "tracing {tracing}, {request:?}: the replay's obs calls differ from the kernel's"
            );
        }
    }
    mbp_obs::set_tracing(false);
    mbp_obs::disable();
    mbp_obs::reset();
}
