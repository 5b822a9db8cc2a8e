//! Crash-point fault injection for durable logs.
//!
//! The WAL recovery claim is prefix-convergence: killing the process at
//! **any** byte of the log must recover exactly the surviving record
//! prefix — bit-identical to an in-memory replay of those events — and
//! corrupt-but-framed records must be *skipped* with a counted warning
//! while framing damage *truncates*, never panicking on either.
//!
//! This module checks that claim mechanically without depending on any
//! particular log implementation. The implementation under test hands the
//! injector a [`LogGeometry`] (the encoded bytes plus record boundaries
//! and content spans) and a [`CrashOracle`] (a recovery closure plus
//! ground-truth digests computed straight from the original events,
//! *not* through the decoder). The injector then derives seeded crash
//! schedules —
//!
//! * **boundary kills**: the log cut after every complete record,
//! * **torn cuts**: seeded kill-at-byte offsets inside records and the
//!   file header,
//! * **content flips**: seeded bit flips inside a record's checksum or
//!   payload (framing intact, so recovery must skip exactly that record),
//! * **header flips**: seeded bit flips in a record's magic/version bytes
//!   (framing destroyed, so recovery must truncate at that record) —
//!
//! and requires recovery to converge from every one. The recovery closure
//! runs under a panic shield: a decoder that panics on corrupt bytes is a
//! failure in itself. Failing schedules persist to the regression corpus
//! (`testkit/corpus/crash.txt`) and replay first on later runs, the same
//! discipline [`crate::corpus`] applies to pricing attacks.
//!
//! The concurrent half lives in [`crate::schedule::explore_crash`]: a
//! [`CrashCase`] built by a [`CrashHarness`] plugs a real durability sink
//! into `SharedBroker` buys, kills the writer mid-group-commit, and
//! checks the recovered sales are a sub-multiset of the acknowledged ones.

use mbp_core::market::DurabilitySink;
use mbp_randx::seeded_rng;
use rand::Rng;
use std::fmt;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The byte-level shape of one encoded log: everything the injector needs
/// to address every cut and flip site without parsing the format itself.
#[derive(Debug, Clone)]
pub struct LogGeometry {
    /// The full encoded log (file header plus records).
    pub bytes: Vec<u8>,
    /// Length of the file header preceding the first record.
    pub header_len: usize,
    /// `record_ends[k]` is the byte offset just past record `k`.
    pub record_ends: Vec<usize>,
    /// Per record, the `(start, end)` byte range covering its checksum and
    /// payload — where a flip corrupts *content* but leaves framing (and
    /// therefore resynchronization) intact.
    pub content_spans: Vec<(usize, usize)>,
}

impl LogGeometry {
    /// Number of complete records in the log.
    pub fn records(&self) -> usize {
        self.record_ends.len()
    }

    /// Byte offset of the boundary after `k` complete records (`k = 0` is
    /// the end of the file header).
    pub fn boundary(&self, k: usize) -> Option<usize> {
        if k == 0 {
            Some(self.header_len)
        } else {
            self.record_ends.get(k - 1).copied()
        }
    }

    /// Start offset of record `k`.
    pub fn record_start(&self, k: usize) -> Option<usize> {
        self.boundary(k)
    }

    /// `true` when `offset` is a record boundary (or the header boundary,
    /// or 0): a cut there leaves a *clean* log, not a torn one.
    pub fn is_boundary(&self, offset: usize) -> bool {
        offset == 0 || offset == self.header_len || self.record_ends.contains(&offset)
    }

    /// Number of records wholly contained in `bytes[..offset]`.
    pub fn records_before(&self, offset: usize) -> usize {
        self.record_ends
            .iter()
            .take_while(|&&e| e <= offset)
            .count()
    }

    /// The record whose content span contains `offset`, if any.
    pub fn content_record(&self, offset: usize) -> Option<usize> {
        self.content_spans
            .iter()
            .position(|&(lo, hi)| (lo..hi).contains(&offset))
    }
}

/// What one recovery run observed, as reported by the implementation
/// under test.
#[derive(Debug, Clone, PartialEq)]
pub struct CrashOutcome {
    /// Digest of the applied-event sequence (the implementation's own
    /// bit-exact event encoding, so equal digests mean equal events).
    pub digest: u64,
    /// Number of events applied.
    pub applied: usize,
    /// Corrupt-but-framed records skipped with a counted warning.
    pub skipped: usize,
    /// Whether recovery truncated the stream before a clean end.
    pub truncated: bool,
}

/// The implementation under test: a recovery closure plus ground-truth
/// expectations computed from the original event list (never through the
/// decoder being tested — that would make the oracle circular).
pub struct CrashOracle<'a> {
    /// Recovers a (possibly cut or corrupted) byte image. Runs under a
    /// panic shield; panicking on corrupt bytes is itself a failure.
    pub recover: &'a (dyn Fn(&[u8]) -> CrashOutcome + Sync),
    /// Ground-truth digest of an in-memory replay of the first `k`
    /// events.
    pub expect_prefix: &'a (dyn Fn(usize) -> u64 + Sync),
    /// Ground-truth digest of an in-memory replay with event `k` removed
    /// (what a skip of record `k` must converge to).
    pub expect_skip: &'a (dyn Fn(usize) -> u64 + Sync),
}

/// One crash schedule, replayable from its corpus line alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashSchedule {
    /// Kill the writer exactly at the boundary after `k` complete records.
    Boundary(usize),
    /// Kill the writer mid-record: keep only `bytes[..offset]`.
    Cut(usize),
    /// Flip bit `bit` of `bytes[byte]` inside a record's content span.
    ContentFlip {
        /// Absolute byte offset of the flip.
        byte: usize,
        /// Bit index `0..8`.
        bit: u8,
    },
    /// Flip bit `bit` of `bytes[byte]` inside a record's framing bytes.
    HeaderFlip {
        /// Absolute byte offset of the flip.
        byte: usize,
        /// Bit index `0..8`.
        bit: u8,
    },
    /// A concurrent schedule-explorer crash case (see
    /// [`crate::schedule::run_crash_case`]), persisted by its seed.
    Concurrent(u64),
}

impl fmt::Display for CrashSchedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CrashSchedule::Boundary(k) => write!(f, "boundary {k}"),
            CrashSchedule::Cut(offset) => write!(f, "cut {offset}"),
            CrashSchedule::ContentFlip { byte, bit } => write!(f, "flip {byte} {bit}"),
            CrashSchedule::HeaderFlip { byte, bit } => write!(f, "hflip {byte} {bit}"),
            CrashSchedule::Concurrent(seed) => write!(f, "sched {seed}"),
        }
    }
}

impl CrashSchedule {
    /// Parses one corpus line (the [`fmt::Display`] form).
    pub fn parse(line: &str) -> Result<CrashSchedule, String> {
        let mut parts = line.split_whitespace();
        let kind = parts.next().ok_or("empty line")?;
        let nums: Result<Vec<u64>, _> = parts.map(str::parse).collect();
        let nums = nums.map_err(|e| format!("bad number in {line:?}: {e}"))?;
        match (kind, nums.len()) {
            ("boundary", 1) => Ok(CrashSchedule::Boundary(nums[0] as usize)),
            ("cut", 1) => Ok(CrashSchedule::Cut(nums[0] as usize)),
            ("flip", 2) => Ok(CrashSchedule::ContentFlip {
                byte: nums[0] as usize,
                bit: (nums[1] % 8) as u8,
            }),
            ("hflip", 2) => Ok(CrashSchedule::HeaderFlip {
                byte: nums[0] as usize,
                bit: (nums[1] % 8) as u8,
            }),
            ("sched", 1) => Ok(CrashSchedule::Concurrent(nums[0])),
            _ => Err(format!("unrecognized crash schedule {line:?}")),
        }
    }
}

/// Configuration of one byte-level crash exploration.
#[derive(Debug, Clone)]
pub struct CrashConfig {
    /// Master seed for the sampled cut and flip sites.
    pub seed: u64,
    /// Seeded mid-record kill-at-byte cuts (boundary kills are always
    /// exhaustive and come on top of these).
    pub torn_cuts: usize,
    /// Seeded bit flips inside record content spans.
    pub content_flips: usize,
    /// Seeded bit flips inside record framing bytes.
    pub header_flips: usize,
    /// Regression corpus: persisted schedules replay first, and newly
    /// failing schedules are appended. `None` disables persistence.
    pub corpus: Option<PathBuf>,
}

impl Default for CrashConfig {
    fn default() -> Self {
        CrashConfig {
            seed: 0xc4a5_4b07,
            torn_cuts: 64,
            content_flips: 32,
            header_flips: 16,
            corpus: None,
        }
    }
}

/// One failed crash schedule.
#[derive(Debug, Clone)]
pub struct CrashFailure {
    /// The schedule that failed; its [`fmt::Display`] form is the corpus
    /// line that replays it.
    pub schedule: CrashSchedule,
    /// What diverged.
    pub detail: String,
}

impl fmt::Display for CrashFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "crash schedule [{}] failed: {}",
            self.schedule, self.detail
        )
    }
}

/// Outcome of a crash exploration.
#[derive(Debug, Clone, Default)]
pub struct CrashReport {
    /// Schedules executed (corpus replays included).
    pub schedules: usize,
    /// Schedules skipped because they fell outside this log's geometry
    /// (stale corpus offsets, empty logs).
    pub skipped: usize,
    /// Divergences found (empty = recovery converged from every probe).
    pub failures: Vec<CrashFailure>,
}

impl CrashReport {
    /// `true` when recovery converged from every executed schedule.
    pub fn converged(&self) -> bool {
        self.failures.is_empty()
    }
}

/// The in-repo crash corpus (`testkit/corpus/crash.txt` at the workspace
/// root).
pub fn default_corpus_path() -> PathBuf {
    crate::corpus::Corpus::default_dir().join("crash.txt")
}

/// Loads persisted crash schedules; a missing file is an empty corpus.
pub fn load_corpus(path: &Path) -> io::Result<Vec<CrashSchedule>> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    let mut schedules = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        schedules.push(
            CrashSchedule::parse(line)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?,
        );
    }
    Ok(schedules)
}

/// Appends `new` schedules to the corpus, deduplicating against what is
/// already persisted.
pub fn append_corpus(path: &Path, new: &[CrashSchedule]) -> io::Result<()> {
    let mut schedules = load_corpus(path)?;
    let mut added = false;
    for s in new {
        if !schedules.contains(s) {
            schedules.push(*s);
            added = true;
        }
    }
    if !added && path.exists() {
        return Ok(());
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut text =
        String::from("# mbp-testkit crash-schedule regression corpus: one schedule per line.\n");
    for s in &schedules {
        text.push_str(&s.to_string());
        text.push('\n');
    }
    std::fs::write(path, text)
}

/// What the injector expects recovery to observe for one schedule.
#[derive(Debug, Clone, PartialEq)]
struct Expectation {
    digest: u64,
    applied: usize,
    skipped: usize,
    truncated: bool,
}

/// Materializes one schedule against `geom`: the byte image to recover
/// and the expected outcome. `None` when the schedule falls outside this
/// log's geometry (a stale corpus line for a different history).
fn materialize(
    geom: &LogGeometry,
    oracle: &CrashOracle<'_>,
    schedule: CrashSchedule,
) -> Option<(Vec<u8>, Expectation)> {
    let n = geom.records();
    match schedule {
        CrashSchedule::Boundary(k) => {
            let offset = geom.boundary(k).filter(|&o| o <= geom.bytes.len())?;
            Some((
                geom.bytes.get(..offset)?.to_vec(),
                Expectation {
                    digest: (oracle.expect_prefix)(k),
                    applied: k,
                    skipped: 0,
                    truncated: false,
                },
            ))
        }
        CrashSchedule::Cut(offset) => {
            if offset >= geom.bytes.len() || geom.is_boundary(offset) {
                return None;
            }
            let k = geom.records_before(offset);
            Some((
                geom.bytes.get(..offset)?.to_vec(),
                Expectation {
                    digest: (oracle.expect_prefix)(k),
                    applied: k,
                    skipped: 0,
                    truncated: true,
                },
            ))
        }
        CrashSchedule::ContentFlip { byte, bit } => {
            let k = geom.content_record(byte)?;
            let mut bytes = geom.bytes.clone();
            *bytes.get_mut(byte)? ^= 1 << (bit % 8);
            Some((
                bytes,
                Expectation {
                    digest: (oracle.expect_skip)(k),
                    applied: n - 1,
                    skipped: 1,
                    truncated: false,
                },
            ))
        }
        CrashSchedule::HeaderFlip { byte, bit } => {
            // Only the magic/version bytes (first three of a record
            // header) guarantee framing damage: a flipped type byte can
            // land on another valid tag and degrade to a checksum skip.
            let k = (0..n).find(|&k| {
                geom.record_start(k)
                    .is_some_and(|s| (s..s + 3).contains(&byte))
            })?;
            let mut bytes = geom.bytes.clone();
            *bytes.get_mut(byte)? ^= 1 << (bit % 8);
            Some((
                bytes,
                Expectation {
                    digest: (oracle.expect_prefix)(k),
                    applied: k,
                    skipped: 0,
                    truncated: true,
                },
            ))
        }
        CrashSchedule::Concurrent(_) => None, // needs a live harness
    }
}

/// Runs one schedule; `Ok(false)` when it fell outside the geometry.
fn run_schedule(
    geom: &LogGeometry,
    oracle: &CrashOracle<'_>,
    schedule: CrashSchedule,
) -> Result<bool, CrashFailure> {
    let Some((bytes, expect)) = materialize(geom, oracle, schedule) else {
        return Ok(false);
    };
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let outcome = catch_unwind(AssertUnwindSafe(|| (oracle.recover)(&bytes)));
    std::panic::set_hook(prev);
    let outcome = outcome.map_err(|_| CrashFailure {
        schedule,
        detail: "recovery PANICKED on corrupt bytes (must classify damage instead)".to_string(),
    })?;
    let got = Expectation {
        digest: outcome.digest,
        applied: outcome.applied,
        skipped: outcome.skipped,
        truncated: outcome.truncated,
    };
    if got != expect {
        return Err(CrashFailure {
            schedule,
            detail: format!(
                "expected digest {:#018x} applied {} skipped {} truncated {}, \
                 got digest {:#018x} applied {} skipped {} truncated {}",
                expect.digest,
                expect.applied,
                expect.skipped,
                expect.truncated,
                got.digest,
                got.applied,
                got.skipped,
                got.truncated
            ),
        });
    }
    Ok(true)
}

/// Explores crash schedules against one encoded log: the persisted corpus
/// first, then every record boundary, then seeded cuts and flips. Newly
/// failing schedules are appended to the corpus (when configured) so they
/// replay first forever after.
pub fn explore_crashes(
    geom: &LogGeometry,
    oracle: &CrashOracle<'_>,
    cfg: &CrashConfig,
) -> CrashReport {
    let _span = mbp_obs::span("mbp.testkit.crash");
    let mut report = CrashReport::default();
    let run = |schedule: CrashSchedule, report: &mut CrashReport| match run_schedule(
        geom, oracle, schedule,
    ) {
        Ok(true) => report.schedules += 1,
        Ok(false) => report.skipped += 1,
        Err(f) => {
            report.schedules += 1;
            report.failures.push(f);
        }
    };

    // 1. Regression corpus replays first.
    if let Some(path) = &cfg.corpus {
        for schedule in load_corpus(path).unwrap_or_default() {
            run(schedule, &mut report);
        }
    }

    // 2. The empty image (a process killed before the header was even
    //    written), then every record-boundary prefix, exhaustively.
    {
        let empty = LogGeometry {
            bytes: Vec::new(),
            header_len: 0,
            record_ends: Vec::new(),
            content_spans: Vec::new(),
        };
        match run_schedule(&empty, oracle, CrashSchedule::Boundary(0)) {
            Ok(true) => report.schedules += 1,
            Ok(false) => report.skipped += 1,
            Err(f) => {
                report.schedules += 1;
                report.failures.push(f);
            }
        }
    }
    for k in 0..=geom.records() {
        run(CrashSchedule::Boundary(k), &mut report);
    }

    // 3. Seeded torn cuts, content flips, and header flips.
    let mut rng = seeded_rng(cfg.seed);
    if geom.bytes.len() > 1 {
        for _ in 0..cfg.torn_cuts {
            run(
                CrashSchedule::Cut(rng.gen_range(1..geom.bytes.len())),
                &mut report,
            );
        }
    }
    for _ in 0..cfg.content_flips {
        if geom.records() == 0 {
            break;
        }
        let k = rng.gen_range(0..geom.records());
        if let Some(&(lo, hi)) = geom.content_spans.get(k) {
            if lo < hi {
                run(
                    CrashSchedule::ContentFlip {
                        byte: rng.gen_range(lo..hi),
                        bit: rng.gen_range(0u32..8) as u8,
                    },
                    &mut report,
                );
            }
        }
    }
    for _ in 0..cfg.header_flips {
        if geom.records() == 0 {
            break;
        }
        let k = rng.gen_range(0..geom.records());
        if let Some(start) = geom.record_start(k) {
            run(
                CrashSchedule::HeaderFlip {
                    byte: start + rng.gen_range(0usize..3),
                    bit: rng.gen_range(0u32..8) as u8,
                },
                &mut report,
            );
        }
    }

    // 4. Persist anything new that failed.
    if let Some(path) = &cfg.corpus {
        if !report.failures.is_empty() {
            let new: Vec<CrashSchedule> = report.failures.iter().map(|f| f.schedule).collect();
            let _ = append_corpus(path, &new);
        }
    }
    mbp_obs::counter_add("mbp.testkit.crash.schedules", report.schedules as u64);
    report
}

/// One live crash case for the concurrent explorer: a durability sink to
/// plug into `SharedBroker`, a kill switch that crashes the writer
/// mid-group-commit, and a recovery probe reading back what survived.
///
/// All members are closures so `mbp-testkit` stays independent of any
/// concrete WAL crate; the WAL's own tests supply the real thing.
#[derive(Clone)]
pub struct CrashCase {
    /// The sink under test, attached to the broker for the case.
    pub sink: Arc<dyn DurabilitySink>,
    /// Crashes the writer at the instant of the call: buffered,
    /// un-synced records are lost, later appends fail.
    pub kill: Arc<dyn Fn() + Send + Sync>,
    /// Recovers the durable image *as it is right now* (dead writer,
    /// buffered tail lost) and returns the recovered sales as
    /// `(ncp_bits, price_bits)` pairs in recovered order.
    pub recovered_sales: Arc<dyn Fn() -> Vec<(u64, u64)> + Send + Sync>,
}

/// Builds a fresh [`CrashCase`] for a case seed (fresh WAL directory,
/// fresh writer).
pub type CrashHarness = Arc<dyn Fn(u64) -> CrashCase + Send + Sync>;

#[cfg(test)]
mod tests {
    use super::*;

    /// Local FNV-1a so the toy log needs no wire-crate dependency.
    const DIGEST_SEED: u64 = 0xcbf2_9ce4_8422_2325;
    fn digest_bytes(seed: u64, bytes: &[u8]) -> u64 {
        let mut d = seed;
        for &b in bytes {
            d ^= b as u64;
            d = d.wrapping_mul(0x0000_0100_0000_01b3);
        }
        d
    }

    /// A toy framed log, independent of mbp-wal: 4-byte header `TLOG`,
    /// records `[0xAA, 0xAA, 0xAA, len, checksum:u64le, payload...]`.
    /// Three magic bytes so the injector's header flips (record offsets
    /// `0..3`) always hit framing, a full 8-byte FNV checksum so content
    /// flips cannot collide.
    fn toy_encode(payloads: &[&[u8]]) -> LogGeometry {
        let mut bytes = vec![b'T', b'L', b'O', b'G'];
        let mut record_ends = Vec::new();
        let mut content_spans = Vec::new();
        for p in payloads {
            let start = bytes.len();
            bytes.extend_from_slice(&[0xAA, 0xAA, 0xAA, p.len() as u8]);
            bytes.extend_from_slice(&digest_bytes(DIGEST_SEED, p).to_le_bytes());
            bytes.extend_from_slice(p);
            content_spans.push((start + 4, bytes.len()));
            record_ends.push(bytes.len());
        }
        LogGeometry {
            bytes,
            header_len: 4,
            record_ends,
            content_spans,
        }
    }

    fn toy_recover(bytes: &[u8]) -> (Vec<Vec<u8>>, usize, bool) {
        if bytes.is_empty() {
            return (Vec::new(), 0, false);
        }
        if bytes.len() < 4 || &bytes[..4] != b"TLOG" {
            return (Vec::new(), 0, true);
        }
        let (mut events, mut skipped, mut offset) = (Vec::new(), 0usize, 4usize);
        loop {
            if offset == bytes.len() {
                return (events, skipped, false);
            }
            if bytes.len() - offset < 12 || bytes[offset..offset + 3] != [0xAA, 0xAA, 0xAA] {
                return (events, skipped, true);
            }
            let len = bytes[offset + 3] as usize;
            if bytes.len() - offset < 12 + len {
                return (events, skipped, true);
            }
            let stored = u64::from_le_bytes(bytes[offset + 4..offset + 12].try_into().unwrap());
            let payload = &bytes[offset + 12..offset + 12 + len];
            if digest_bytes(DIGEST_SEED, payload) != stored {
                skipped += 1;
            } else {
                events.push(payload.to_vec());
            }
            offset += 12 + len;
        }
    }

    fn digest_events(events: &[Vec<u8>]) -> u64 {
        let mut d = DIGEST_SEED;
        for e in events {
            d = digest_bytes(digest_bytes(d, &[e.len() as u8]), e);
        }
        d
    }

    fn payloads() -> Vec<Vec<u8>> {
        vec![
            b"alpha".to_vec(),
            b"bravo-7".to_vec(),
            b"c".to_vec(),
            b"delta-delta".to_vec(),
            b"echo99".to_vec(),
        ]
    }

    fn run_toy(recover: &(dyn Fn(&[u8]) -> CrashOutcome + Sync), cfg: &CrashConfig) -> CrashReport {
        let events = payloads();
        let refs: Vec<&[u8]> = events.iter().map(|e| e.as_slice()).collect();
        let geom = toy_encode(&refs);
        let expect_prefix = |k: usize| digest_events(&events[..k]);
        let expect_skip = |k: usize| {
            let mut rest = events.clone();
            rest.remove(k);
            digest_events(&rest)
        };
        let oracle = CrashOracle {
            recover,
            expect_prefix: &expect_prefix,
            expect_skip: &expect_skip,
        };
        explore_crashes(&geom, &oracle, cfg)
    }

    fn sound_recover(bytes: &[u8]) -> CrashOutcome {
        let (events, skipped, truncated) = toy_recover(bytes);
        CrashOutcome {
            digest: digest_events(&events),
            applied: events.len(),
            skipped,
            truncated,
        }
    }

    #[test]
    fn a_sound_recovery_converges_from_every_schedule() {
        let report = run_toy(&sound_recover, &CrashConfig::default());
        assert!(
            report.converged(),
            "{}",
            report.failures.first().expect("failure present")
        );
        // Exhaustive boundaries (0..=5 plus the empty image) plus most of
        // the sampled schedules must actually have run.
        assert!(report.schedules >= 7);
    }

    #[test]
    fn a_dropped_final_record_is_caught_by_boundary_probes() {
        // The classic off-by-one: clean EOF treated as a torn tail.
        let sabotaged = |bytes: &[u8]| {
            let mut out = sound_recover(bytes);
            if !out.truncated && out.applied > 0 {
                out.applied -= 1;
                out.digest ^= 0xdead_beef; // any wrong digest
            }
            out
        };
        let report = run_toy(&sabotaged, &CrashConfig::default());
        assert!(!report.converged());
    }

    #[test]
    fn a_panicking_decoder_is_a_failure_not_a_crash() {
        let panicky = |bytes: &[u8]| {
            let out = sound_recover(bytes);
            assert!(!out.truncated, "decoder panics on torn bytes");
            out
        };
        let report = run_toy(&panicky, &CrashConfig::default());
        assert!(report
            .failures
            .iter()
            .any(|f| f.detail.contains("PANICKED")));
    }

    #[test]
    fn schedules_round_trip_through_corpus_lines() {
        let schedules = vec![
            CrashSchedule::Boundary(3),
            CrashSchedule::Cut(137),
            CrashSchedule::ContentFlip { byte: 52, bit: 4 },
            CrashSchedule::HeaderFlip { byte: 9, bit: 7 },
            CrashSchedule::Concurrent(0xfeed),
        ];
        for s in &schedules {
            assert_eq!(CrashSchedule::parse(&s.to_string()).unwrap(), *s);
        }
        assert!(CrashSchedule::parse("frobnicate 1").is_err());

        let dir = std::env::temp_dir().join("mbp-testkit-crash-corpus-test");
        let path = dir.join("crash.txt");
        std::fs::remove_dir_all(&dir).ok();
        append_corpus(&path, &schedules).unwrap();
        append_corpus(&path, &schedules[..2]).unwrap(); // dedupes
        assert_eq!(load_corpus(&path).unwrap(), schedules);
        std::fs::remove_dir_all(&dir).ok();
        assert!(load_corpus(&path).unwrap().is_empty());
    }

    #[test]
    fn failing_schedules_persist_to_the_corpus_and_replay_first() {
        let dir = std::env::temp_dir().join("mbp-testkit-crash-persist-test");
        let path = dir.join("crash.txt");
        std::fs::remove_dir_all(&dir).ok();
        let cfg = CrashConfig {
            corpus: Some(path.clone()),
            ..CrashConfig::default()
        };
        let sabotaged = |bytes: &[u8]| {
            let mut out = sound_recover(bytes);
            if !out.truncated && out.applied > 0 {
                out.applied -= 1;
                out.digest ^= 1;
            }
            out
        };
        let first = run_toy(&sabotaged, &cfg);
        assert!(!first.converged());
        let persisted = load_corpus(&path).unwrap();
        assert!(!persisted.is_empty(), "failures must persist");
        // A later sound run replays the corpus (schedules include them)
        // and stays green.
        let again = run_toy(&sound_recover, &cfg);
        assert!(again.converged());
        std::fs::remove_dir_all(&dir).ok();
    }
}
