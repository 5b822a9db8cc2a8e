//! Durability microbench: WAL append throughput, the price of group
//! size under one fsync per group, and recovery speed.
//!
//! Three measurements over the same seeded mostly-sales event history:
//!
//! * **append** — raw group-commit append throughput (groups of 64) with
//!   no periodic fsync, one explicit durability point at the end;
//! * **group sweep** — the same stream committed in groups of
//!   64/512/4096 records with one fsync per group, so each point issues a
//!   different number of fsyncs (3126/391/49 at 200k records), showing
//!   what each durability granularity costs;
//! * **recovery** — scanning the segment back off disk and folding it
//!   into a [`RecoveredState`], i.e. the `serve --wal` boot path.
//!
//! `recovery_replay_speedup` is the same-process ratio *live ingest
//! seconds ÷ recovery seconds*, taken run by run: replaying a log must
//! never be slower than writing it was, or crash recovery could not catch
//! up with a live market. The ratchet holds the committed record to a
//! hard floor of 1.0 on that ratio. Every workload runs [`REPEATS`]
//! times and each metric is the median over those runs; each recovery
//! replays the segment its run's append just wrote and must reproduce
//! the same state digest on every run (`deterministic`), and every
//! run must issue exactly the fsyncs its configuration implies
//! (`fsyncs_as_configured`). The ratchet writes the record as
//! `BENCH_wal.json`.

use crate::record::{per_sec, quotient, repeat, Record, Spread};
use mbp_randx::SeedStream;
use mbp_wal::{recover_dir, RecoveredState, WalConfig, WalEvent, WalWriter};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Group sizes swept, each with one fsync per group.
pub const GROUP_SIZES: [usize; 3] = [64, 512, 4096];

/// Runs of every workload; each metric is the median over them.
pub const REPEATS: usize = 3;

/// Records per group commit on the `append` workload.
const APPEND_GROUP: usize = 64;

/// Seeded mostly-sales history, every record type present — the same
/// shape the recovery property suite uses.
fn seeded_history(seed: u64, n: usize) -> Vec<WalEvent> {
    use mbp_ml::ModelKind;
    const KINDS: [ModelKind; 3] = [
        ModelKind::LinearRegression,
        ModelKind::LogisticRegression,
        ModelKind::LinearSvm,
    ];
    let mut seeds = SeedStream::new(seed);
    (0..n)
        .map(|i| {
            let r = seeds.next_seed();
            let kind = KINDS[(r % 3) as usize];
            match (r >> 2) % 100 {
                0..=2 => WalEvent::Support { kind, ridge: 1e-6 },
                3..=5 => {
                    let grid: Vec<f64> = (1..=6).map(|j| j as f64).collect();
                    let prices: Vec<f64> = grid.iter().map(|x| 8.0 * x.sqrt()).collect();
                    WalEvent::Publish { kind, grid, prices }
                }
                6 => WalEvent::Epoch { epoch: i as u64 },
                _ => WalEvent::Sale {
                    kind,
                    ncp: 0.05 + ((r >> 9) % 1_000) as f64 * 0.002,
                    price: 0.5 + ((r >> 19) % 10_000) as f64 * 0.006,
                },
            }
        })
        .collect()
}

/// Scratch directory for one benchmark run. A per-call sequence number
/// keeps concurrent runs in one process (parallel test threads) apart.
fn scratch_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("mbp-walbench-{}-{seq}-{tag}", std::process::id()))
}

/// Appends the whole history to a fresh segment under `cfg`, ending with
/// an explicit durability point. Returns the wall seconds, the fsyncs
/// issued and the segment's directory.
fn timed_append(events: &[WalEvent], cfg: WalConfig, tag: &str) -> (f64, u64, PathBuf) {
    let dir = scratch_dir(tag);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let mut writer = WalWriter::create(&dir.join("wal-000001.log"), cfg).expect("segment creates");
    let t0 = Instant::now();
    for event in events {
        writer.append(event).expect("append");
    }
    writer.sync().expect("final durability point");
    (t0.elapsed().as_secs_f64(), writer.syncs(), dir)
}

/// One recovery pass: scan the directory and fold the state.
fn timed_recovery(dir: &Path) -> (f64, usize, u64) {
    let t0 = Instant::now();
    let scanned = recover_dir(dir).expect("recovery scans");
    let state = RecoveredState::from_events(&scanned.events).expect("history holds valid sales");
    (
        t0.elapsed().as_secs_f64(),
        scanned.events.len(),
        state.digest(),
    )
}

/// Runs the full durability sweep with `records` events per workload.
pub fn run(records: usize) -> Record {
    let _span = mbp_obs::span("mbp.bench.walbench");
    let records = records.max(1_000);
    let events = seeded_history(0xaa17_90b5, records);
    let mut rec = Record::new(&[("records", records as f64), ("repeats", REPEATS as f64)]);
    let throughput = |seconds: &[f64]| Spread::of(seconds.iter().map(|&s| per_sec(records, s)));

    // Raw append throughput: no periodic fsync, one durability point at
    // the end. This is also the live-ingest side of the recovery speedup
    // ratio: each run recovers the segment it just wrote, so both sides
    // are timed back to back and drift in the machine's speed lands on
    // both alike.
    let append_cfg = WalConfig {
        group_commit: APPEND_GROUP,
        fsync_interval: 0,
    };
    let runs = repeat(REPEATS, |i| {
        let (ingest, syncs, dir) = timed_append(&events, append_cfg, &format!("append{i}"));
        let (recovery, recovered, digest) = timed_recovery(&dir);
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(recovered, records, "recovery must see every record");
        (ingest, syncs, recovery, digest)
    });
    let ingest: Vec<f64> = runs.iter().map(|r| r.0).collect();
    let recovery: Vec<f64> = runs.iter().map(|r| r.2).collect();
    let mut fsyncs_as_configured = runs.iter().all(|r| r.1 == 1);
    rec.throughput("append.records_per_sec", "records/s", throughput(&ingest));

    for group in GROUP_SIZES {
        let cfg = WalConfig {
            group_commit: group,
            fsync_interval: group,
        };
        let seconds = repeat(REPEATS, |i| {
            let (seconds, syncs, dir) = timed_append(&events, cfg, &format!("g{group}-{i}"));
            let _ = std::fs::remove_dir_all(&dir);
            // One fsync per full group, plus the final durability point.
            fsyncs_as_configured &= syncs == (records / group + 1) as u64;
            seconds
        });
        rec.throughput(
            format!("group@{group}.records_per_sec"),
            "records/s",
            throughput(&seconds),
        );
    }

    rec.throughput(
        "recovery.records_per_sec",
        "records/s",
        throughput(&recovery),
    );
    rec.ratio(
        "recovery_replay_speedup",
        true,
        Spread::of(ingest.iter().zip(&recovery).map(|(&i, &r)| quotient(i, r))),
    );
    rec.invariant("deterministic", runs.iter().all(|r| r.3 == runs[0].3));
    rec.invariant("fsyncs_as_configured", fsyncs_as_configured);
    rec
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_is_deterministic_and_complete() {
        let rec = run(2_000);
        crate::record::assert_same_metrics(&rec, "BENCH_wal.json");
        assert!(rec.holds("deterministic"), "recovery digest must reproduce");
        assert!(rec.holds("fsyncs_as_configured"), "one fsync per group");
        for m in rec
            .metrics
            .iter()
            .filter(|m| m.name.ends_with(".records_per_sec"))
        {
            assert!(rec.median(&m.name).expect("measured") > 0.0, "{}", m.name);
        }
    }
}
