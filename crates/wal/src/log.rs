//! Segment files: buffered group-commit writes and directory recovery.
//!
//! A WAL directory holds numbered segment files `wal-000001.log`,
//! `wal-000002.log`, … Each process run appends to a fresh segment (never
//! to an old one — recovery is the only reader of history), and snapshot
//! compaction replaces retired segments with one compacted segment whose
//! first record is a [`WalEvent::Snapshot`] marker.
//!
//! ## Group commit and fsync points
//!
//! [`WalWriter::append`] encodes into an in-memory buffer; the buffer is
//! handed to the OS once [`WalConfig::group_commit`] records have
//! accumulated (or on an explicit [`WalWriter::commit`]), and `fsync` runs
//! every [`WalConfig::fsync_interval`] records (or on an explicit
//! [`WalWriter::sync`]). The durability contract is exactly what those
//! points imply: records behind the last `fsync` survive a machine crash;
//! records behind the last `commit` survive a process crash; buffered
//! records survive neither. Recovery tolerates every cut this produces.
//!
//! ## Fault injection
//!
//! The writer carries first-class crash hooks — [`WalWriter::kill_now`]
//! (drop the buffer mid-group-commit) and [`WalWriter::kill_at_byte`]
//! (truncate the file at an exact byte, simulating a torn OS write) — used
//! by the `mbp-testkit` crash-point explorer. A killed writer reports
//! [`WalError::Dead`] on every later append instead of touching the file
//! again.

use crate::record::{append_record, recover_bytes, WalEvent, FILE_HEADER};
use crate::WalError;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

/// Buffering and durability knobs for a [`WalWriter`].
#[derive(Debug, Clone, Copy)]
pub struct WalConfig {
    /// Records buffered in memory before one OS write. 1 writes through.
    pub group_commit: usize,
    /// Records between `fsync` calls; 0 syncs only on explicit
    /// [`WalWriter::sync`] / close.
    pub fsync_interval: usize,
}

impl Default for WalConfig {
    fn default() -> Self {
        WalConfig {
            group_commit: 64,
            fsync_interval: 512,
        }
    }
}

/// Append-only writer for one segment file.
#[derive(Debug)]
pub struct WalWriter {
    /// `None` once killed: the simulated crash already happened and the
    /// file must not change again.
    file: Option<File>,
    path: PathBuf,
    cfg: WalConfig,
    buf: Vec<u8>,
    records_buffered: usize,
    records_since_sync: usize,
    bytes_written: u64,
    records_written: u64,
    syncs: u64,
    kill_at: Option<u64>,
}

impl WalWriter {
    /// Creates (truncating) the segment at `path` and writes the file
    /// header.
    pub fn create(path: &Path, cfg: WalConfig) -> Result<WalWriter, WalError> {
        let mut file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        file.write_all(&FILE_HEADER)?;
        Ok(WalWriter {
            file: Some(file),
            path: path.to_path_buf(),
            cfg: WalConfig {
                group_commit: cfg.group_commit.max(1),
                fsync_interval: cfg.fsync_interval,
            },
            buf: Vec::with_capacity(4096),
            records_buffered: 0,
            records_since_sync: 0,
            bytes_written: FILE_HEADER.len() as u64,
            records_written: 0,
            syncs: 0,
            kill_at: None,
        })
    }

    /// Appends one record to the group-commit buffer, flushing when the
    /// group is full.
    pub fn append(&mut self, event: &WalEvent) -> Result<(), WalError> {
        if self.file.is_none() {
            return Err(WalError::Dead);
        }
        append_record(&mut self.buf, event);
        self.records_buffered += 1;
        if self.records_buffered >= self.cfg.group_commit {
            self.commit()?;
        }
        Ok(())
    }

    /// Hands the buffered group to the OS, honoring a pending kill point,
    /// and fsyncs when the configured interval has elapsed.
    pub fn commit(&mut self) -> Result<(), WalError> {
        if self.buf.is_empty() {
            return if self.file.is_some() {
                Ok(())
            } else {
                Err(WalError::Dead)
            };
        }
        let Some(file) = self.file.as_mut() else {
            return Err(WalError::Dead);
        };
        if let Some(kill) = self.kill_at {
            let budget = kill.saturating_sub(self.bytes_written) as usize;
            if budget < self.buf.len() {
                // Torn OS write: the file gains exactly `budget` bytes of
                // the group, then the "process" dies.
                let partial = self.buf.get(..budget).unwrap_or(&[]);
                file.write_all(partial)?;
                let _ = file.sync_data();
                self.bytes_written += budget as u64;
                self.buf.clear();
                self.records_buffered = 0;
                self.file = None;
                return Err(WalError::Dead);
            }
        }
        file.write_all(&self.buf)?;
        self.bytes_written += self.buf.len() as u64;
        self.records_written += self.records_buffered as u64;
        self.records_since_sync += self.records_buffered;
        self.buf.clear();
        self.records_buffered = 0;
        if self.cfg.fsync_interval > 0 && self.records_since_sync >= self.cfg.fsync_interval {
            self.sync()?;
        }
        Ok(())
    }

    /// Commits the buffer and forces an `fsync`: an explicit durability
    /// point.
    pub fn sync(&mut self) -> Result<(), WalError> {
        if !self.buf.is_empty() {
            self.commit()?;
        }
        let Some(file) = self.file.as_ref() else {
            return Err(WalError::Dead);
        };
        file.sync_data()?;
        self.records_since_sync = 0;
        self.syncs += 1;
        Ok(())
    }

    /// Fault injection: crash *now*, losing the in-memory group buffer
    /// (the mid-group-commit kill). The file keeps only what earlier
    /// commits wrote.
    pub fn kill_now(&mut self) {
        self.buf.clear();
        self.records_buffered = 0;
        self.file = None;
    }

    /// Fault injection: crash once the file would exceed `total_bytes`
    /// (header included) — the torn-write kill. The commit that crosses
    /// the boundary writes a partial group and dies.
    pub fn kill_at_byte(&mut self, total_bytes: u64) {
        self.kill_at = Some(total_bytes);
        if self.bytes_written >= total_bytes {
            self.kill_now();
        }
    }

    /// `true` once a kill hook fired; appends now return
    /// [`WalError::Dead`].
    pub fn is_dead(&self) -> bool {
        self.file.is_none()
    }

    /// Bytes durably handed to the OS (file header included).
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Records handed to the OS (excludes the still-buffered group).
    pub fn records_written(&self) -> u64 {
        self.records_written
    }

    /// Number of `fsync` calls issued.
    pub fn syncs(&self) -> u64 {
        self.syncs
    }

    /// The segment file path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// The segment file path for `id` under `dir`.
pub fn segment_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("wal-{id:06}.log"))
}

/// Parses a segment id out of a `wal-NNNNNN.log` file name.
fn segment_id(name: &str) -> Option<u64> {
    name.strip_prefix("wal-")?
        .strip_suffix(".log")?
        .parse()
        .ok()
}

/// All segment files under `dir`, ascending by id. A missing directory is
/// an empty log.
pub fn list_segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>, WalError> {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(WalError::Io(e)),
    };
    let mut segments = Vec::new();
    for entry in entries {
        let entry = entry?;
        if let Some(id) = entry.file_name().to_str().and_then(segment_id) {
            segments.push((id, entry.path()));
        }
    }
    segments.sort_by_key(|(id, _)| *id);
    Ok(segments)
}

/// Outcome of scanning a whole WAL directory.
#[derive(Debug, Default)]
pub struct DirRecovery {
    /// Every intact record across all segments, in segment-then-log order.
    /// [`WalEvent::Snapshot`] markers are preserved; state reconstruction
    /// applies their superseding semantics.
    pub events: Vec<WalEvent>,
    /// Total corrupt-but-framed records skipped (counted warnings).
    pub records_skipped: usize,
    /// Segments whose tail was torn or frame-damaged.
    pub truncated_segments: usize,
    /// Segment files scanned.
    pub segments: usize,
    /// Total bytes scanned.
    pub bytes_scanned: u64,
}

/// Reads every segment under `dir` tolerantly. Only I/O failures error;
/// corrupt *content* never does (see [`crate::record::recover_bytes`]).
/// A missing or empty directory — and segments holding only a file
/// header — recover to a clean empty log.
pub fn recover_dir(dir: &Path) -> Result<DirRecovery, WalError> {
    let mut out = DirRecovery::default();
    for (_, path) in list_segments(dir)? {
        let bytes = std::fs::read(&path)?;
        let log = recover_bytes(&bytes);
        out.segments += 1;
        out.records_skipped += log.records_skipped;
        out.truncated_segments += usize::from(log.truncated_at.is_some());
        out.bytes_scanned += log.bytes_scanned as u64;
        out.events.extend(log.events);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbp_ml::ModelKind;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mbp-wal-log-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sale(i: usize) -> WalEvent {
        WalEvent::Sale {
            kind: ModelKind::LinearRegression,
            ncp: 0.25 + i as f64,
            price: 10.0 + i as f64,
        }
    }

    #[test]
    fn write_and_recover_a_directory() {
        let dir = temp_dir("roundtrip");
        let mut w = WalWriter::create(
            &segment_path(&dir, 1),
            WalConfig {
                group_commit: 4,
                fsync_interval: 0,
            },
        )
        .unwrap();
        for i in 0..10 {
            w.append(&sale(i)).unwrap();
        }
        w.sync().unwrap();
        let rec = recover_dir(&dir).unwrap();
        assert_eq!(rec.events.len(), 10);
        assert_eq!(rec.segments, 1);
        assert_eq!(rec.truncated_segments, 0);
        assert_eq!(w.records_written(), 10);
        assert!(w.syncs() >= 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn kill_now_loses_only_the_buffered_group() {
        let dir = temp_dir("killnow");
        let mut w = WalWriter::create(
            &segment_path(&dir, 1),
            WalConfig {
                group_commit: 4,
                fsync_interval: 0,
            },
        )
        .unwrap();
        for i in 0..10 {
            w.append(&sale(i)).unwrap();
        }
        // 8 committed (two full groups), 2 buffered: the kill loses 2.
        w.kill_now();
        assert!(w.is_dead());
        assert!(matches!(w.append(&sale(99)), Err(WalError::Dead)));
        let rec = recover_dir(&dir).unwrap();
        assert_eq!(rec.events.len(), 8);
        assert_eq!(rec.truncated_segments, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn kill_at_byte_leaves_a_torn_recoverable_tail() {
        let dir = temp_dir("killbyte");
        let mut w = WalWriter::create(
            &segment_path(&dir, 1),
            WalConfig {
                group_commit: 1,
                fsync_interval: 0,
            },
        )
        .unwrap();
        // Kill inside the 6th record: 5 survive, the 6th is torn.
        w.kill_at_byte(FILE_HEADER.len() as u64 + 5 * 33 + 10);
        let mut appended = 0;
        for i in 0..10 {
            match w.append(&sale(i)) {
                Ok(()) => appended += 1,
                Err(WalError::Dead) => break,
                Err(e) => panic!("unexpected {e:?}"),
            }
        }
        assert!(appended >= 5 && w.is_dead());
        let rec = recover_dir(&dir).unwrap();
        assert_eq!(rec.events.len(), 5);
        assert_eq!(rec.truncated_segments, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn segments_concatenate_in_id_order() {
        let dir = temp_dir("segorder");
        for (seg, base) in [(1u64, 0usize), (2, 3), (3, 6)] {
            let mut w = WalWriter::create(&segment_path(&dir, seg), WalConfig::default()).unwrap();
            for i in base..base + 3 {
                w.append(&sale(i)).unwrap();
            }
            w.sync().unwrap();
        }
        let rec = recover_dir(&dir).unwrap();
        assert_eq!(rec.segments, 3);
        let ncps: Vec<f64> = rec
            .events
            .iter()
            .map(|e| match e {
                WalEvent::Sale { ncp, .. } => *ncp,
                _ => f64::NAN,
            })
            .collect();
        let expect: Vec<f64> = (0..9).map(|i| 0.25 + i as f64).collect();
        assert_eq!(ncps, expect);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_directory_is_a_clean_empty_log() {
        let dir = std::env::temp_dir().join("mbp-wal-does-not-exist-xyzzy");
        let rec = recover_dir(&dir).unwrap();
        assert_eq!(rec.events.len(), 0);
        assert_eq!(rec.segments, 0);
    }
}
