//! The on-disk record format: wire-framed, checksummed, torn-tolerant.
//!
//! A WAL segment is an 8-byte file header followed by length-prefixed
//! records that reuse the `mbp-serve` wire discipline (magic bytes,
//! version, type tag, little-endian length) plus a per-record FNV-1a
//! checksum over the type byte and payload:
//!
//! ```text
//! file header:  'M' 'B' 'W' 'L'  ver  0 0 0
//! record:       'M' 'B'  ver  type  len:u32le  checksum:u64le  payload
//! ```
//!
//! Floats are stored as raw IEEE-754 little-endian bits, so an
//! encode/decode round trip is bit-identical by construction.
//!
//! **Decode never panics and never errors.** This module is in the
//! `mbp-lint` panic scope: WAL bytes read back from disk are untrusted
//! (torn writes, bit rot), and the decoder classifies damage instead of
//! propagating it —
//!
//! * a record whose *framing* is intact (valid magic/version/type/length,
//!   payload fully present) but whose checksum or payload content is wrong
//!   is **skipped** with a counted warning, and scanning resumes at the
//!   next record;
//! * damaged framing (bad magic, impossible length, or a record extending
//!   past end-of-stream — the torn tail of an interrupted group commit)
//!   **truncates** the stream at that offset: nothing after it can be
//!   trusted because record boundaries are gone.

use mbp_ml::ModelKind;
use mbp_serve::wire::{digest_bytes, kind_from_u8, kind_to_u8, DIGEST_SEED, MAGIC0, MAGIC1};

/// WAL format version.
pub const WAL_VERSION: u8 = 1;
/// Segment file header: magic `MBWL`, version, three reserved bytes.
pub const FILE_HEADER: [u8; 8] = [b'M', b'B', b'W', b'L', WAL_VERSION, 0, 0, 0];
/// Fixed per-record header size in bytes.
pub const RECORD_HEADER_LEN: usize = 16;
/// Hard cap on a record payload; anything larger is framing corruption.
pub const MAX_RECORD_PAYLOAD: usize = 64 * 1024;
/// Hard cap on the number of pricing knots a publish record may carry
/// (mirrors the serve wire cap; well above the 512-knot serving grids).
pub const MAX_PUBLISH_KNOTS: usize = 2048;

/// Record type tags.
pub mod record_type {
    /// `Support { kind, ridge }`.
    pub const SUPPORT: u8 = 1;
    /// `Publish { kind, grid, prices }`.
    pub const PUBLISH: u8 = 2;
    /// `Sale { kind, ncp, price }`.
    pub const SALE: u8 = 3;
    /// `Epoch { epoch }`.
    pub const EPOCH: u8 = 4;
    /// `RngCursor { seed, draws }`.
    pub const RNG_CURSOR: u8 = 5;
    /// `Snapshot { compacted_records }` — start of a snapshot segment.
    pub const SNAPSHOT: u8 = 6;
}

/// One durable market event.
#[derive(Debug, Clone, PartialEq)]
pub enum WalEvent {
    /// A model kind was (re)trained onto the menu at `ridge`.
    Support {
        /// Model kind trained.
        kind: ModelKind,
        /// Ridge coefficient it was trained with.
        ridge: f64,
    },
    /// A listing was published from pricing knots `(grid[i], prices[i])`.
    Publish {
        /// Model kind listed.
        kind: ModelKind,
        /// Inverse-NCP knot positions.
        grid: Vec<f64>,
        /// Knot prices.
        prices: Vec<f64>,
    },
    /// One completed sale (a ledger transaction).
    Sale {
        /// Model kind sold.
        kind: ModelKind,
        /// NCP of the sold instance.
        ncp: f64,
        /// Price paid.
        price: f64,
    },
    /// An epoch rollover.
    Epoch {
        /// The epoch now current.
        epoch: u64,
    },
    /// RNG session cursor: base seed and seed-stream position.
    RngCursor {
        /// Session base seed.
        seed: u64,
        /// Seed-stream position marker.
        draws: u64,
    },
    /// First record of a snapshot segment: everything accumulated from
    /// *earlier* segments is superseded by the records that follow.
    Snapshot {
        /// Number of live records the snapshot re-states.
        compacted_records: u64,
    },
}

impl WalEvent {
    /// The record type tag for this event.
    pub fn type_tag(&self) -> u8 {
        match self {
            WalEvent::Support { .. } => record_type::SUPPORT,
            WalEvent::Publish { .. } => record_type::PUBLISH,
            WalEvent::Sale { .. } => record_type::SALE,
            WalEvent::Epoch { .. } => record_type::EPOCH,
            WalEvent::RngCursor { .. } => record_type::RNG_CURSOR,
            WalEvent::Snapshot { .. } => record_type::SNAPSHOT,
        }
    }
}

/// Appends `event` to `out` as one framed record; returns the encoded
/// record length in bytes.
pub fn append_record(out: &mut Vec<u8>, event: &WalEvent) -> usize {
    let ty = event.type_tag();
    let start = out.len();
    out.extend_from_slice(&[MAGIC0, MAGIC1, WAL_VERSION, ty]);
    out.extend_from_slice(&[0u8; 12]); // len + checksum, patched below
    let payload_start = out.len();
    match event {
        WalEvent::Support { kind, ridge } => {
            out.push(kind_to_u8(*kind));
            out.extend_from_slice(&ridge.to_bits().to_le_bytes());
        }
        WalEvent::Publish { kind, grid, prices } => {
            out.push(kind_to_u8(*kind));
            // LINT-ALLOW(cast): n <= MAX_PUBLISH_KNOTS (2048) by the min chain
            let n = grid.len().min(prices.len()).min(MAX_PUBLISH_KNOTS) as u32;
            out.extend_from_slice(&n.to_le_bytes());
            for (x, p) in grid.iter().zip(prices.iter()).take(n as usize) {
                out.extend_from_slice(&x.to_bits().to_le_bytes());
                out.extend_from_slice(&p.to_bits().to_le_bytes());
            }
        }
        WalEvent::Sale { kind, ncp, price } => {
            out.push(kind_to_u8(*kind));
            out.extend_from_slice(&ncp.to_bits().to_le_bytes());
            out.extend_from_slice(&price.to_bits().to_le_bytes());
        }
        WalEvent::Epoch { epoch } => out.extend_from_slice(&epoch.to_le_bytes()),
        WalEvent::RngCursor { seed, draws } => {
            out.extend_from_slice(&seed.to_le_bytes());
            out.extend_from_slice(&draws.to_le_bytes());
        }
        WalEvent::Snapshot { compacted_records } => {
            out.extend_from_slice(&compacted_records.to_le_bytes());
        }
    }
    // LINT-ALLOW(cast): the largest record payload is 5 + 16 * MAX_PUBLISH_KNOTS bytes, far below u32::MAX
    let len = (out.len() - payload_start) as u32;
    let payload_digest = digest_bytes(digest_bytes(DIGEST_SEED, &[ty]), tail(out, payload_start));
    patch(out, start + 4, &len.to_le_bytes());
    patch(out, start + 8, &payload_digest.to_le_bytes());
    out.len() - start
}

/// The suffix of `buf` from `from` (empty when out of range).
fn tail(buf: &[u8], from: usize) -> &[u8] {
    buf.get(from..).unwrap_or(&[])
}

/// Overwrites `buf[at..at + bytes.len()]`; a no-op when out of range
/// (cannot happen for the fixed offsets used above, but the encoder stays
/// panic-free by construction rather than by argument).
fn patch(buf: &mut [u8], at: usize, bytes: &[u8]) {
    if let Some(dst) = buf.get_mut(at..at + bytes.len()) {
        dst.copy_from_slice(bytes);
    }
}

fn read_u32(buf: &[u8], at: usize) -> Option<u32> {
    Some(u32::from_le_bytes(buf.get(at..at + 4)?.try_into().ok()?))
}

fn read_u64(buf: &[u8], at: usize) -> Option<u64> {
    Some(u64::from_le_bytes(buf.get(at..at + 8)?.try_into().ok()?))
}

fn read_f64(buf: &[u8], at: usize) -> Option<f64> {
    Some(f64::from_bits(read_u64(buf, at)?))
}

/// Outcome of scanning one byte stream (see the module docs for the
/// skip-vs-truncate contract).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveredLog {
    /// Every intact record, in log order.
    pub events: Vec<WalEvent>,
    /// Records whose framing was intact but whose checksum or payload
    /// content was corrupt: skipped with this counted warning.
    pub records_skipped: usize,
    /// Byte offset at which the stream stopped being parseable (torn tail
    /// or framing damage); `None` for a clean end-of-stream.
    pub truncated_at: Option<usize>,
    /// Total bytes consumed, including any skipped records.
    pub bytes_scanned: usize,
}

/// Decodes one WAL segment (file header + records). Never panics, never
/// errors: damage is reported through [`RecoveredLog::records_skipped`]
/// and [`RecoveredLog::truncated_at`].
///
/// An empty byte stream — and a stream holding only the file header — is
/// a *clean* empty log, not damage: that is exactly what a process killed
/// right after segment creation leaves behind.
pub fn recover_bytes(bytes: &[u8]) -> RecoveredLog {
    let mut log = RecoveredLog::default();
    if bytes.is_empty() {
        return log;
    }
    if bytes.len() < FILE_HEADER.len()
        || bytes.get(..4) != FILE_HEADER.get(..4)
        || bytes.get(4) != Some(&WAL_VERSION)
    {
        // A torn or foreign file header: nothing in the stream is framed.
        log.truncated_at = Some(0);
        return log;
    }
    let mut offset = FILE_HEADER.len();
    loop {
        let remaining = bytes.len() - offset;
        if remaining == 0 {
            break; // clean end of stream
        }
        if remaining < RECORD_HEADER_LEN {
            log.truncated_at = Some(offset); // torn header
            break;
        }
        let magic_ok = bytes.get(offset) == Some(&MAGIC0)
            && bytes.get(offset + 1) == Some(&MAGIC1)
            && bytes.get(offset + 2) == Some(&WAL_VERSION);
        let ty = bytes.get(offset + 3).copied().unwrap_or(0);
        let len = read_u32(bytes, offset + 4).unwrap_or(u32::MAX) as usize;
        if !magic_ok
            || !(record_type::SUPPORT..=record_type::SNAPSHOT).contains(&ty)
            || len > MAX_RECORD_PAYLOAD
        {
            log.truncated_at = Some(offset); // framing damage
            break;
        }
        if remaining < RECORD_HEADER_LEN + len {
            log.truncated_at = Some(offset); // torn record body
            break;
        }
        let stored_digest = read_u64(bytes, offset + 8).unwrap_or(0);
        let payload = bytes
            .get(offset + RECORD_HEADER_LEN..offset + RECORD_HEADER_LEN + len)
            .unwrap_or(&[]);
        let next = offset + RECORD_HEADER_LEN + len;
        let actual = digest_bytes(digest_bytes(DIGEST_SEED, &[ty]), payload);
        if actual != stored_digest {
            log.records_skipped += 1; // counted warning; framing lets us resync
            offset = next;
            continue;
        }
        match decode_payload(ty, payload) {
            Some(event) => log.events.push(event),
            None => log.records_skipped += 1,
        }
        offset = next;
    }
    log.bytes_scanned = log.truncated_at.unwrap_or(bytes.len());
    log
}

/// Decodes one checksum-verified payload; `None` on a content-level
/// mismatch (unknown kind byte, inconsistent knot count), which the
/// caller counts as a skipped record.
fn decode_payload(ty: u8, payload: &[u8]) -> Option<WalEvent> {
    match ty {
        record_type::SUPPORT => {
            if payload.len() != 9 {
                return None;
            }
            Some(WalEvent::Support {
                kind: kind_from_u8(payload.first().copied()?)?,
                ridge: read_f64(payload, 1)?,
            })
        }
        record_type::PUBLISH => {
            let kind = kind_from_u8(payload.first().copied()?)?;
            let n = read_u32(payload, 1)? as usize;
            if n > MAX_PUBLISH_KNOTS || payload.len() != 5 + 16 * n {
                return None;
            }
            let mut grid = Vec::with_capacity(n);
            let mut prices = Vec::with_capacity(n);
            for i in 0..n {
                grid.push(read_f64(payload, 5 + 16 * i)?);
                prices.push(read_f64(payload, 5 + 16 * i + 8)?);
            }
            Some(WalEvent::Publish { kind, grid, prices })
        }
        record_type::SALE => {
            if payload.len() != 17 {
                return None;
            }
            Some(WalEvent::Sale {
                kind: kind_from_u8(payload.first().copied()?)?,
                ncp: read_f64(payload, 1)?,
                price: read_f64(payload, 9)?,
            })
        }
        record_type::EPOCH => {
            if payload.len() != 8 {
                return None;
            }
            Some(WalEvent::Epoch {
                epoch: read_u64(payload, 0)?,
            })
        }
        record_type::RNG_CURSOR => {
            if payload.len() != 16 {
                return None;
            }
            Some(WalEvent::RngCursor {
                seed: read_u64(payload, 0)?,
                draws: read_u64(payload, 8)?,
            })
        }
        record_type::SNAPSHOT => {
            if payload.len() != 8 {
                return None;
            }
            Some(WalEvent::Snapshot {
                compacted_records: read_u64(payload, 0)?,
            })
        }
        _ => None,
    }
}

/// A fully-encoded log with its record geometry, for byte-level crash and
/// corruption exploration (every cut and flip site is addressable without
/// re-parsing).
#[derive(Debug, Clone)]
pub struct EncodedLog {
    /// File header plus all records.
    pub bytes: Vec<u8>,
    /// `record_ends[k]` is the byte offset just past record `k`;
    /// `record_ends.last()` equals `bytes.len()`. The file header spans
    /// `0..FILE_HEADER.len()`.
    pub record_ends: Vec<usize>,
    /// Per record, the `(start, end)` byte range covering its checksum and
    /// payload — the region where a bit flip corrupts *content* while
    /// leaving framing (and therefore resynchronization) intact.
    pub content_spans: Vec<(usize, usize)>,
}

/// Encodes `events` as one segment image, recording record geometry.
pub fn encode_log(events: &[WalEvent]) -> EncodedLog {
    let mut bytes = Vec::with_capacity(FILE_HEADER.len() + events.len() * 40);
    bytes.extend_from_slice(&FILE_HEADER);
    let mut record_ends = Vec::with_capacity(events.len());
    let mut content_spans = Vec::with_capacity(events.len());
    for event in events {
        let start = bytes.len();
        append_record(&mut bytes, event);
        content_spans.push((start + 8, bytes.len()));
        record_ends.push(bytes.len());
    }
    EncodedLog {
        bytes,
        record_ends,
        content_spans,
    }
}

/// Sabotaged recovery used only to prove the crash-point injector has
/// teeth: when the stream ends cleanly at a record boundary, the final
/// applied event is dropped — the classic off-by-one of treating a clean
/// EOF as a torn tail. The injector's boundary-prefix schedules must
/// catch this in its first few probes.
#[cfg(test)]
pub(crate) fn recover_bytes_sabotaged(bytes: &[u8]) -> RecoveredLog {
    let mut log = recover_bytes(bytes);
    if log.truncated_at.is_none() {
        log.events.pop();
    }
    log
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<WalEvent> {
        vec![
            WalEvent::Support {
                kind: ModelKind::LinearRegression,
                ridge: 1e-6,
            },
            WalEvent::Publish {
                kind: ModelKind::LinearRegression,
                grid: vec![1.0, 2.0, 4.0],
                prices: vec![10.0, 14.0, 20.0],
            },
            WalEvent::Sale {
                kind: ModelKind::LinearRegression,
                ncp: 0.5,
                price: 11.25,
            },
            WalEvent::Epoch { epoch: 3 },
            WalEvent::RngCursor { seed: 7, draws: 42 },
            WalEvent::Snapshot {
                compacted_records: 5,
            },
        ]
    }

    #[test]
    fn round_trips_every_event_type_bit_identically() {
        let events = sample_events();
        let log = encode_log(&events);
        let recovered = recover_bytes(&log.bytes);
        assert_eq!(recovered.events, events);
        assert_eq!(recovered.records_skipped, 0);
        assert_eq!(recovered.truncated_at, None);
        assert_eq!(recovered.bytes_scanned, log.bytes.len());
    }

    #[test]
    fn empty_and_header_only_streams_are_clean() {
        let empty = recover_bytes(&[]);
        assert!(empty.events.is_empty() && empty.truncated_at.is_none());
        let header_only = recover_bytes(&FILE_HEADER);
        assert!(header_only.events.is_empty());
        assert_eq!(header_only.truncated_at, None);
        assert_eq!(header_only.records_skipped, 0);
    }

    #[test]
    fn torn_tail_truncates_at_last_full_record() {
        let events = sample_events();
        let log = encode_log(&events);
        for k in 0..events.len() {
            let end = log.record_ends[k];
            // Cut mid-way through record k+1 (or mid-header of it).
            let upto = if k + 1 < log.record_ends.len() {
                (end + log.record_ends[k + 1]) / 2
            } else {
                continue;
            };
            let recovered = recover_bytes(&log.bytes[..upto]);
            assert_eq!(recovered.events, events[..k + 1].to_vec(), "cut at {upto}");
            assert_eq!(recovered.truncated_at, Some(end));
        }
    }

    #[test]
    fn checksum_flip_skips_exactly_one_record() {
        let events = sample_events();
        let log = encode_log(&events);
        for (k, &(lo, hi)) in log.content_spans.iter().enumerate() {
            let mut bytes = log.bytes.clone();
            bytes[(lo + hi) / 2] ^= 0x10;
            let recovered = recover_bytes(&bytes);
            assert_eq!(recovered.records_skipped, 1, "flip in record {k}");
            let mut expect = events.clone();
            expect.remove(k);
            assert_eq!(recovered.events, expect);
            assert_eq!(recovered.truncated_at, None);
        }
    }

    #[test]
    fn framing_damage_truncates() {
        let events = sample_events();
        let log = encode_log(&events);
        // Corrupt the magic byte of record 2: truncation at its start.
        let start = log.record_ends[1];
        let mut bytes = log.bytes.clone();
        bytes[start] = 0xFF;
        let recovered = recover_bytes(&bytes);
        assert_eq!(recovered.events, events[..2].to_vec());
        assert_eq!(recovered.truncated_at, Some(start));
        // A foreign file header yields no events and truncation at 0.
        let foreign = recover_bytes(&[0u8; 64]);
        assert!(foreign.events.is_empty());
        assert_eq!(foreign.truncated_at, Some(0));
    }

    #[test]
    fn sabotaged_recovery_drops_the_final_record() {
        let events = sample_events();
        let log = encode_log(&events);
        let sabotaged = recover_bytes_sabotaged(&log.bytes);
        assert_eq!(sabotaged.events.len(), events.len() - 1);
    }

    /// Acceptance gate: the testkit crash-point injector must find the
    /// planted recovery bug (clean EOF treated as a torn tail, dropping
    /// the final record) in under five seconds. It lands in the first
    /// handful of boundary probes.
    #[test]
    fn crash_injector_finds_the_planted_recovery_bug_in_under_five_seconds() {
        use mbp_serve::wire::DIGEST_SEED;
        use mbp_testkit::crash::{
            explore_crashes, CrashConfig, CrashOracle, CrashOutcome, LogGeometry,
        };
        let start = std::time::Instant::now();
        // A 200-event history of all types (cycled, deterministic).
        let events: Vec<WalEvent> = (0..200)
            .flat_map(|i| {
                let mut block = sample_events();
                if let Some(WalEvent::Sale { ncp, price, .. }) = block.get_mut(2) {
                    *ncp = 0.1 + i as f64;
                    *price = 10.0 + i as f64;
                }
                block.into_iter().take(if i % 3 == 0 { 6 } else { 1 })
            })
            .collect();
        let log = encode_log(&events);
        let geom = LogGeometry {
            bytes: log.bytes.clone(),
            header_len: FILE_HEADER.len(),
            record_ends: log.record_ends.clone(),
            content_spans: log.content_spans.clone(),
        };
        let seq_digest = |evs: &[WalEvent]| digest_bytes(DIGEST_SEED, &encode_log(evs).bytes);
        let recover = |bytes: &[u8]| {
            let l = recover_bytes_sabotaged(bytes);
            CrashOutcome {
                digest: seq_digest(&l.events),
                applied: l.events.len(),
                skipped: l.records_skipped,
                truncated: l.truncated_at.is_some(),
            }
        };
        let expect_prefix = |k: usize| seq_digest(&events[..k]);
        let expect_skip = |k: usize| {
            let mut rest = events.clone();
            rest.remove(k);
            seq_digest(&rest)
        };
        let oracle = CrashOracle {
            recover: &recover,
            expect_prefix: &expect_prefix,
            expect_skip: &expect_skip,
        };
        let report = explore_crashes(&geom, &oracle, &CrashConfig::default());
        assert!(
            !report.converged(),
            "the injector must catch the planted off-by-one"
        );
        assert!(
            start.elapsed() < std::time::Duration::from_secs(5),
            "detection took {:?}",
            start.elapsed()
        );
        // The sound decoder passes the identical schedules.
        let sound = |bytes: &[u8]| {
            let l = recover_bytes(bytes);
            CrashOutcome {
                digest: seq_digest(&l.events),
                applied: l.events.len(),
                skipped: l.records_skipped,
                truncated: l.truncated_at.is_some(),
            }
        };
        let oracle = CrashOracle {
            recover: &sound,
            expect_prefix: &expect_prefix,
            expect_skip: &expect_skip,
        };
        let report = explore_crashes(&geom, &oracle, &CrashConfig::default());
        assert!(
            report.converged(),
            "{}",
            report.failures.first().expect("failure present")
        );
    }
}
