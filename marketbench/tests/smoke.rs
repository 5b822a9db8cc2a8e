//! Smoke-scale self-test: every workload runs end to end against the real
//! daemon, untraced on one seed and traced on a second, with zero failed
//! operations and exactly the metrics `BENCHMARK.json` names. A second
//! test shows the output checks are not vacuous.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use marketbench::daemon::{self, Daemon, Launch};
use marketbench::drive::{self, Gate, Pattern, Phases};
use marketbench::layers::SpanLog;
use marketbench::{check, inputs, run, Config, Scale, Workload};
use mbp_core::market::PurchaseRequest;

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark sits inside the checkout")
        .to_path_buf()
}

/// The metric names of one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<String> {
    let text = std::fs::read_to_string(root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section closes")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("name closes")].to_string())
        .collect()
}

fn smoke(workload: Workload, seed: u64) -> Config {
    Config {
        root: root(),
        workload,
        seed,
        seconds: 0.4,
        scale: Scale::smoke(),
    }
}

#[test]
fn every_workload_passes_its_checks_on_two_seeds() {
    for workload in Workload::ALL {
        for (seed, trace) in [(1, false), (2, true)] {
            let out = run(&smoke(workload, seed), trace)
                .unwrap_or_else(|e| panic!("{} seed {seed}: {e}", workload.name()));
            assert!(out.attempted > 0, "{} sent nothing", workload.name());
            assert_eq!(
                out.failed,
                0,
                "{} seed {seed} failed checks: {:#?}",
                workload.name(),
                out.notes
            );
            if workload == Workload::DurableReprice {
                let reprices = out
                    .notes
                    .iter()
                    .find_map(|n| n.strip_prefix("[untraced] reprice_ms: n="))
                    .and_then(|n| n.split(' ').next()?.parse::<u64>().ok());
                assert!(reprices >= Some(1), "the seller never repriced");
            }
            let names: Vec<String> = out.metrics.iter().map(|m| m.0.to_string()).collect();
            let section = if trace { "per_layer" } else { "end_to_end" };
            assert_eq!(names, declared(section), "{} {section}", workload.name());
            assert!(out.metrics.iter().all(|m| m.1.is_finite()));
        }
    }
}

#[test]
fn output_checks_catch_wrong_responses() {
    let exe = daemon::build(&root()).expect("daemon builds");
    let cfg = smoke(Workload::BuyBurst, 3);
    let work = marketbench::work_dir(&cfg).with_extension("neg");
    std::fs::create_dir_all(&work).expect("work dir");
    let csv = work.join("simulated1.csv");
    inputs::write_csv(&csv, cfg.seed, cfg.scale.rows).expect("csv");
    let d = Daemon::start(&Launch {
        exe,
        csv: csv.clone(),
        split_seed: inputs::split_seed(cfg.seed),
        threads: 1,
        wal: None,
        metrics: false,
    })
    .expect("daemon starts");
    let phases = Phases {
        warmup: Duration::ZERO,
        window: Duration::from_millis(100),
        gate: Gate::new(1),
    };
    let mut spans = SpanLog::new(Instant::now(), false, 0);
    let mut client = mbp_serve::Client::connect(d.addr).expect("connect");
    let log = drive::buyer(
        &mut client,
        cfg.seed,
        0,
        Pattern::Bursts,
        &phases,
        None,
        &mut spans,
        || {},
    )
    .expect("buyer runs");
    drop(client);
    d.shutdown().expect("daemon drains");
    let (mut reference, _) =
        check::reference(&csv, inputs::split_seed(cfg.seed)).expect("reference");
    assert_eq!(
        check::replay_connection(&reference, cfg.seed, &log, Pattern::Bursts),
        0
    );
    // The same responses against another seed's stream: every burst fails.
    assert_eq!(
        check::replay_connection(&reference, cfg.seed + 1, &log, Pattern::Bursts),
        log.sent
    );
    // Priced against a curve that was never live: every sale fails.
    let wrong = mbp_core::pricing::PricingFunction::from_points(
        inputs::grid(),
        inputs::grid().iter().map(|x| 11.0 * x.sqrt()).collect(),
    )
    .expect("valid curve");
    let initial = [inputs::initial_curve()];
    assert_eq!(
        check::replay_repriced(&mut reference, cfg.seed, &log, &[wrong]),
        log.sent
    );
    assert_eq!(
        check::replay_repriced(&mut reference, cfg.seed, &log, &initial),
        0
    );
    // A budget request sold at another grid NCP, priced on the live curve
    // (as a daemon that ignored the budget would): caught for both kinds.
    let table = initial[0].compile();
    let mut tampered = log;
    for j in [1usize, 2] {
        assert!(matches!(
            (j, inputs::request(cfg.seed, 0, j as u64)),
            (1, PurchaseRequest::ErrorBudget(_)) | (2, PurchaseRequest::PriceBudget(_))
        ));
        let ncp = 1.0 / inputs::grid()[100];
        tampered.sales[j] = (ncp, table.price_at(1.0 / ncp));
    }
    let resolved = check::resolved_on_live_curves(&mut reference, cfg.seed, &tampered, &initial);
    let wrong: Vec<usize> = (0..resolved.len()).filter(|&j| !resolved[j]).collect();
    assert_eq!(wrong, [1, 2]);
    let _ = std::fs::remove_dir_all(&work);
}
