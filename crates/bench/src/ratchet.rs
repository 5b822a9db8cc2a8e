//! Bench ratchet: the one driver for the `BENCH_*.json` records. [`BENCHES`]
//! registers every record; [`Bench::check`] measures a fresh one at the
//! committed record's `params`, writes it under [`FRESH_DIR`], and diffs
//! it against the committed record with [`compare`].
//!
//! [`compare`] is the one comparator. It compares medians, metric by
//! metric, with the rule the committed metric's kind and direction select:
//!
//! * **Ratios** (`batch_speedup_vs_single`, `grid_vs_pp@512`, …) are
//!   same-process quotients and largely machine-independent. They must
//!   not fall below `baseline × (1 − ratio_tolerance)` (or, where lower is
//!   better, rise above `baseline × (1 + ratio_tolerance)`); the default
//!   band is 15% and `MBP_RATCHET_RATIO_TOL` widens it for noisy runners.
//! * **Latencies** and **throughputs** depend on the machine. A latency
//!   must not rise above `baseline × (1 + p99_tolerance)` and a throughput
//!   must not fall below `baseline / (1 + p99_tolerance)`, a floor that
//!   stays above zero at any tolerance; the default band is 100% (a
//!   gross-regression guard) and `MBP_RATCHET_TOL` adjusts it.
//! * **Invariants** must hold in both records, with no tolerance.
//! * A metric either record lacks fails the check, and the committed
//!   record must be stamped (`commit` and `generated_at` not `unknown`).
//! * **Hard floors** ([`HARD_FLOORS`]) bind the *committed* record: a
//!   baseline under one cannot be committed, so a regression cannot be
//!   laundered by regenerating a worse baseline, while fresh runs stay
//!   inside the relative band.
//! * **Budgets** ([`BUDGETS`]) take the place of the band for the tracing
//!   overheads: the committed record is held to the strict ceiling, a
//!   fresh run to a loose one.
//!
//! Floors and budgets live here, not in the records, so regenerating a
//! file cannot move them. Every check prints both sides' `[min, max]`
//! over their repeats beside its verdict. The checks a single record must
//! pass on its own (ordered spreads, positive medians, `p99 ≥ p50`) are
//! [`Record::parse`]'s.
//!
//! Records are parsed with a small self-contained JSON reader (the
//! workspace is dependency-free), so the comparator accepts any
//! conforming document, not just the exact strings [`Record::to_json`]
//! produces.

use crate::record::{Kind, Record, Value};
use crate::report::fmt;
use crate::{env_var, knob, or_exit};
use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

// ---------------------------------------------------------------------------
// Minimal JSON value + parser
// ---------------------------------------------------------------------------

/// A parsed JSON value (number, string, bool, null, array, or object).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// A JSON number (always held as `f64`).
    Num(f64),
    /// A JSON string (escapes decoded).
    Str(String),
    /// `true` / `false`.
    Bool(bool),
    /// `null`.
    Null,
    /// An array.
    Arr(Vec<Json>),
    /// An object with sorted keys.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Field lookup on objects; `None` on other variants.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// Numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// String value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// Boolean value, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Array items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v.as_slice()),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, what: &str) -> String {
        format!("json parse error at byte {}: {what}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.bump() == Some(b) {
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected literal '{lit}'")))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = self.bump().ok_or_else(|| self.err("short \\u escape"))?;
                            let v = (d as char)
                                .to_digit(16)
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            code = code * 16 + v;
                        }
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    _ => return Err(self.err("bad escape")),
                },
                Some(b) => {
                    // Re-assemble UTF-8 multibyte sequences byte-by-byte.
                    if b < 0x80 {
                        out.push(b as char);
                    } else {
                        let start = self.pos - 1;
                        let mut end = self.pos;
                        while end < self.bytes.len() && self.bytes[end] & 0xC0 == 0x80 {
                            end += 1;
                        }
                        out.push_str(
                            std::str::from_utf8(&self.bytes[start..end])
                                .map_err(|_| self.err("invalid utf-8"))?,
                        );
                        self.pos = end;
                    }
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number bytes"))?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("invalid number"))
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => {
                self.pos += 1;
                let mut map = BTreeMap::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    let val = self.value()?;
                    map.insert(key, val);
                    self.skip_ws();
                    match self.bump() {
                        Some(b',') => continue,
                        Some(b'}') => return Ok(Json::Obj(map)),
                        _ => return Err(self.err("expected ',' or '}'")),
                    }
                }
            }
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.skip_ws();
                    match self.bump() {
                        Some(b',') => continue,
                        Some(b']') => return Ok(Json::Arr(items)),
                        _ => return Err(self.err("expected ',' or ']'")),
                    }
                }
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => self.number(),
            None => Err(self.err("unexpected end of input")),
        }
    }
}

/// Parses a JSON document into a [`Json`] value.
pub fn parse_json(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing garbage after document"));
    }
    Ok(v)
}

// ---------------------------------------------------------------------------
// Comparator
// ---------------------------------------------------------------------------

/// Absolute floors on committed medians: the batch path holds a 3x lead
/// over single-quote serving, and WAL recovery replays at least as fast
/// as live ingest.
pub const HARD_FLOORS: [(&str, f64); 2] = [
    ("batch_speedup_vs_single", 3.0),
    ("recovery_replay_speedup", 1.0),
];

/// Tracing-overhead ceilings: (metric, committed, fresh). The committed
/// record must show ≤2% with tracing compiled in but disabled and ≤10%
/// for turning it on. Shared or single-core machines time the overhead
/// deltas noisily, so a fresh run is held only to a gross-regression
/// ceiling of 25% / 50%.
pub const BUDGETS: [(&str, f64, f64); 2] = [
    ("overhead_disabled", 0.02, 0.25),
    ("overhead_enabled", 0.10, 0.50),
];

/// Tolerance bands for the ratchet.
#[derive(Debug, Clone, Copy)]
pub struct RatchetConfig {
    /// Allowed relative move on ratio metrics.
    pub ratio_tolerance: f64,
    /// Allowed relative regression on latencies and throughputs.
    pub p99_tolerance: f64,
}

impl Default for RatchetConfig {
    fn default() -> Self {
        RatchetConfig {
            ratio_tolerance: 0.15,
            p99_tolerance: 1.00,
        }
    }
}

impl RatchetConfig {
    /// Default bands, adjusted by `MBP_RATCHET_TOL` (latency/throughput
    /// band, e.g. `1.0` = 100%) and `MBP_RATCHET_RATIO_TOL` (ratio band;
    /// single smoke runs on a time-sliced core swing same-process ratios
    /// by ±25%) read through `get`. A value that is not a finite number
    /// ≥ 0 is an error naming the variable.
    pub fn parse(get: &dyn Fn(&str) -> Option<String>) -> Result<Self, String> {
        let d = RatchetConfig::default();
        let tol = |name: &str, default: f64| {
            let v = knob(get, name, "a finite number >= 0", |v: f64| {
                v.is_finite() && v >= 0.0
            })?;
            Ok::<f64, String>(v.unwrap_or(default))
        };
        Ok(RatchetConfig {
            ratio_tolerance: tol("MBP_RATCHET_RATIO_TOL", d.ratio_tolerance)?,
            p99_tolerance: tol("MBP_RATCHET_TOL", d.p99_tolerance)?,
        })
    }

    /// [`RatchetConfig::parse`] over the process environment; a bad value
    /// exits the process with an error naming it.
    pub fn from_env() -> Self {
        or_exit(RatchetConfig::parse(&env_var))
    }
}

/// One ratchet check and its verdict.
#[derive(Debug, Clone)]
pub struct RatchetCheck {
    /// Checked metric, suffixed `.hard_floor` / `.budget(committed)` /
    /// `.budget(fresh)` for the checks held in code; `stamp(committed)`
    /// for the committed record's provenance.
    pub metric: String,
    /// Whether the check passed.
    pub ok: bool,
    /// Both sides' values and the bound they were held to.
    pub detail: String,
}

/// The full verdict for one record pair.
#[derive(Debug, Clone, Default)]
pub struct RatchetReport {
    /// Every check performed, failed or not.
    pub checks: Vec<RatchetCheck>,
}

impl RatchetReport {
    /// True when no check failed.
    pub fn pass(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    /// Whether the check called `metric` ran and failed.
    pub fn failed(&self, metric: &str) -> bool {
        self.checks.iter().any(|c| !c.ok && c.metric == metric)
    }

    fn push(&mut self, metric: String, ok: bool, detail: String) {
        self.checks.push(RatchetCheck { metric, ok, detail });
    }

    /// A verdict line, then one line per check.
    pub fn render(&self) -> String {
        let failed = self.checks.iter().filter(|c| !c.ok).count();
        let mut out = if failed == 0 {
            format!("ratchet pass ({} checks)\n", self.checks.len())
        } else {
            format!("ratchet FAIL ({failed} of {} checks)\n", self.checks.len())
        };
        for c in &self.checks {
            let verdict = if c.ok { "ok  " } else { "FAIL" };
            out.push_str(&format!("  {verdict} {}: {}\n", c.metric, c.detail));
        }
        out
    }
}

/// Diffs a fresh record against the committed one (see the module docs
/// for the rules).
pub fn compare(base: &Record, fresh: &Record, cfg: &RatchetConfig) -> RatchetReport {
    let mut report = RatchetReport::default();
    let (commit, at) = (&base.meta.commit, &base.meta.generated_at);
    report.push(
        "stamp(committed)".into(),
        commit != "unknown" && at != "unknown",
        format!("commit {commit}, generated_at {at}"),
    );
    for m in fresh
        .metrics
        .iter()
        .filter(|m| base.metric(&m.name).is_none())
    {
        report.push(
            m.name.clone(),
            false,
            "missing from the committed record".into(),
        );
    }
    for b in &base.metrics {
        let Some(f) = fresh.metric(&b.name) else {
            report.push(b.name.clone(), false, "missing from the fresh run".into());
            continue;
        };
        let (kind, higher_is_better, bs, fs) = match (&b.value, &f.value) {
            (
                Value::Measured {
                    kind,
                    higher_is_better,
                    spread: bs,
                    ..
                },
                Value::Measured { spread: fs, .. },
            ) => (*kind, *higher_is_better, bs, fs),
            (Value::Invariant(hb), Value::Invariant(hf)) => {
                let detail = format!("holds: committed {hb}, fresh {hf}");
                report.push(b.name.clone(), *hb && *hf, detail);
                continue;
            }
            _ => {
                report.push(
                    b.name.clone(),
                    false,
                    "kind differs between the records".into(),
                );
                continue;
            }
        };
        if let Some(&(_, floor)) = HARD_FLOORS.iter().find(|(n, _)| *n == b.name) {
            let detail = format!("committed {bs} >= {floor}");
            report.push(format!("{}.hard_floor", b.name), bs.median >= floor, detail);
        }
        if let Some(&(_, strict, loose)) = BUDGETS.iter().find(|(n, ..)| *n == b.name) {
            let detail = format!("committed {bs} <= {strict}");
            report.push(
                format!("{}.budget(committed)", b.name),
                bs.median <= strict,
                detail,
            );
            let detail = format!("fresh {fs} <= {loose}");
            report.push(
                format!("{}.budget(fresh)", b.name),
                fs.median <= loose,
                detail,
            );
            continue;
        }
        let tol = match kind {
            Kind::Ratio => cfg.ratio_tolerance,
            Kind::Latency | Kind::Throughput => cfg.p99_tolerance,
        };
        let (ok, rule) = if higher_is_better {
            let floor = match kind {
                Kind::Ratio => bs.median * (1.0 - tol),
                Kind::Latency | Kind::Throughput => bs.median / (1.0 + tol),
            };
            (fs.median >= floor, format!(">= floor {}", fmt(floor)))
        } else {
            let ceiling = bs.median * (1.0 + tol);
            (fs.median <= ceiling, format!("<= ceiling {}", fmt(ceiling)))
        };
        let detail = format!("fresh {fs} {rule} (committed {bs}, tol {tol:.2})");
        report.push(b.name.clone(), ok, detail);
    }
    report
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// One `BENCH_*.json` record: where it lives and how its fresh run is
/// sized from the committed record.
#[derive(Debug, Clone, Copy)]
pub struct Bench {
    /// Short name printed beside the record's checks.
    pub label: &'static str,
    /// File name, both at the repo root and under [`FRESH_DIR`].
    pub file: &'static str,
    /// Measures a fresh record at the committed record's `params`.
    pub run: fn(&Record) -> Result<Record, String>,
}

/// Where the ratchet writes every fresh record, relative to the working
/// directory. Regenerating a committed record is copying its file from
/// here after a run stamped with `MBP_BENCH_COMMIT` / `MBP_BENCH_TIME`.
pub const FRESH_DIR: &str = "target/bench";

/// Every BENCH record, in the order the ratchet measures them.
pub const BENCHES: [Bench; 6] = [
    Bench {
        label: "serving",
        file: "BENCH_serving.json",
        run: |c| Ok(crate::servebench::run(c.size("quotes")?)),
    },
    Bench {
        label: "serve-net",
        file: "BENCH_serve_net.json",
        run: |c| Ok(crate::netbench::run(c.size("requests_per_conn")?)),
    },
    Bench {
        label: "kernel",
        file: "BENCH_kernel.json",
        run: |c| {
            Ok(crate::kernelbench::run(
                c.size("lookups")?,
                c.size("coords")?,
            ))
        },
    },
    Bench {
        label: "wal",
        file: "BENCH_wal.json",
        run: |c| Ok(crate::walbench::run(c.size("records")?)),
    },
    Bench {
        label: "testkit",
        file: "BENCH_testkit.json",
        run: |c| Ok(crate::attackbench::run(c.size("trials")? as u64)),
    },
    Bench {
        label: "trace",
        file: "BENCH_trace.json",
        run: |c| {
            Ok(crate::tracebench::run(
                c.size("quotes")?,
                c.size("model_dim")?,
            ))
        },
    },
];

impl Bench {
    /// Reads the committed record from `dir`, measures a fresh one at its
    /// `params`, writes that to `out_dir` (the ratchet's is [`FRESH_DIR`])
    /// under the same file name, and compares the two. The fresh record is
    /// read back through [`Record::parse`], so both sides pass the same
    /// record checks. Any read, parse or write failure is an error.
    pub fn check(
        &self,
        dir: &Path,
        out_dir: &Path,
        cfg: &RatchetConfig,
    ) -> Result<RatchetReport, String> {
        let path = dir.join(self.file);
        let committed = fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))
            .and_then(|text| Record::parse(&text).map_err(|e| format!("{}: {e}", self.file)))?;
        println!(
            "measuring {} at the committed {:?}...",
            self.label, committed.params
        );
        let json = (self.run)(&committed)?.to_json();
        let out = out_dir.join(self.file);
        fs::create_dir_all(out_dir)
            .and_then(|()| fs::write(&out, &json))
            .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
        let fresh = Record::parse(&json).map_err(|e| format!("fresh {}: {e}", self.file))?;
        Ok(compare(&committed, &fresh, cfg))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{committed, Metric, Spread};

    /// CI's bands (`MBP_RATCHET_TOL=4.0`, `MBP_RATCHET_RATIO_TOL=0.40`).
    const CI: RatchetConfig = RatchetConfig {
        ratio_tolerance: 0.40,
        p99_tolerance: 4.0,
    };

    /// A stamped record with one measured metric whose every repeat read
    /// `v`.
    fn one(name: &str, kind: Kind, higher_is_better: bool, v: f64) -> Record {
        let mut r = stamped();
        r.metrics.push(Metric {
            name: name.to_string(),
            value: Value::Measured {
                kind,
                higher_is_better,
                unit: "u".to_string(),
                spread: Spread::of([v]),
            },
        });
        r
    }

    fn stamped() -> Record {
        let mut r = Record::new(&[]);
        r.meta.commit = "abc1234".into();
        r.meta.generated_at = "2026-10-19T00:00Z".into();
        r
    }

    fn invariant(name: &str, holds: bool) -> Record {
        let mut r = stamped();
        r.invariant(name, holds);
        r
    }

    #[test]
    fn parser_handles_escapes_and_nesting() {
        let doc = parse_json(r#"{"a": [1, -2.5e-1, "x\"\\\n"], "b": {"c": true, "d": null}}"#)
            .expect("parses");
        assert_eq!(
            doc.get("a")
                .and_then(Json::as_arr)
                .and_then(|a| a[2].as_str()),
            Some("x\"\\\n")
        );
        assert_eq!(
            doc.get("b")
                .and_then(|b| b.get("c"))
                .and_then(Json::as_bool),
            Some(true)
        );
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for bad in ["{", "{\"a\": }", "[1, 2", "{\"a\": 1} trailing", "\"open"] {
            assert!(parse_json(bad).is_err(), "accepted malformed input {bad:?}");
        }
    }

    /// The comparator's whole contract as one table: each band just
    /// inside and just outside (at the default and at CI's tolerances),
    /// a missing metric either way, invariants, the stamp, and every hard
    /// floor and budget; then every registered record round-trips and
    /// passes against itself.
    #[test]
    fn comparator_table() {
        let def = RatchetConfig::default();
        // (label, committed, fresh, bands, the check that must fail or
        // `None` for a pass)
        type Case = (String, Record, Record, RatchetConfig, Option<String>);
        let mut cases: Vec<Case> = Vec::new();
        for cfg in [def, CI] {
            let (r, p) = (cfg.ratio_tolerance, cfg.p99_tolerance);
            // (kind, higher is better, the bound for a committed 100)
            for (kind, higher, bound) in [
                (Kind::Throughput, true, 100.0 / (1.0 + p)),
                (Kind::Latency, false, 100.0 * (1.0 + p)),
                (Kind::Ratio, true, 100.0 * (1.0 - r)),
                (Kind::Ratio, false, 100.0 * (1.0 + r)),
            ] {
                let (inside, outside) = if higher {
                    (bound * 1.001, bound * 0.999)
                } else {
                    (bound * 0.999, bound * 1.001)
                };
                let base = one("m", kind, higher, 100.0);
                let label = format!("{kind:?} higher={higher} tol {r}/{p}");
                let fresh = one("m", kind, higher, inside);
                cases.push((format!("{label} inside"), base.clone(), fresh, cfg, None));
                let fresh = one("m", kind, higher, outside);
                let fails = Some("m".into());
                cases.push((format!("{label} outside"), base, fresh, cfg, fails));
            }
        }
        let t = |v| one("m", Kind::Throughput, true, v);
        let other = one("n", Kind::Throughput, true, 1.0);
        let m = || Some("m".to_string());
        cases.push(("missing from fresh".into(), t(1.0), other.clone(), def, m()));
        cases.push(("missing from committed".into(), other, t(1.0), def, m()));
        let kind = invariant("m", true);
        cases.push(("kind changed".into(), t(1.0), kind, def, m()));
        for (b, f) in [(true, false), (false, true)] {
            let label = format!("invariant committed {b} fresh {f}");
            let (b, f) = (invariant("i", b), invariant("i", f));
            cases.push((label, b, f, def, Some("i".into())));
        }
        let held = invariant("i", true);
        cases.push(("invariant holds".into(), held.clone(), held, def, None));
        let mut unstamped = t(1.0);
        unstamped.meta.commit = "unknown".into();
        let fails = Some("stamp(committed)".into());
        cases.push((
            "unstamped commit".into(),
            unstamped,
            t(1.0),
            def,
            fails.clone(),
        ));
        let mut unstamped = t(1.0);
        unstamped.meta.generated_at = "unknown".into();
        cases.push(("unstamped time".into(), unstamped, t(1.0), def, fails));
        for (name, floor) in HARD_FLOORS {
            let (at, under) = (floor, floor * 0.999);
            let r = |v| one(name, Kind::Ratio, true, v);
            cases.push((format!("{name} at floor"), r(at), r(at), def, None));
            // A self-compare passes the band trivially; the floor still binds.
            let fails = Some(format!("{name}.hard_floor"));
            cases.push((
                format!("{name} under floor"),
                r(under),
                r(under),
                def,
                fails,
            ));
        }
        for (name, strict, loose) in BUDGETS {
            let r = |v| one(name, Kind::Ratio, false, v);
            let label = |s: &str| format!("{name} {s}");
            let (base, fresh) = (r(strict * 0.999), r(loose * 0.999));
            cases.push((label("under both"), base, fresh, def, None));
            let fails = Some(format!("{name}.budget(committed)"));
            let (base, fresh) = (r(strict * 1.001), r(0.0));
            cases.push((label("committed over"), base, fresh, def, fails));
            let fails = Some(format!("{name}.budget(fresh)"));
            let (base, fresh) = (r(0.0), r(loose * 1.001));
            cases.push((label("fresh over"), base, fresh, def, fails));
        }
        for bench in BENCHES {
            let (rec, text) = committed(bench.file);
            assert_eq!(rec.to_json(), text, "{} does not round-trip", bench.file);
            // Every committed record passes against itself, stamp, hard
            // floors and the committed tracing budgets included.
            let report = compare(&rec, &rec, &def);
            assert!(
                report.pass(),
                "{} against itself: {}",
                bench.file,
                report.render()
            );
        }

        for (label, base, fresh, cfg, fails) in cases {
            let report = compare(&base, &fresh, &cfg);
            match fails {
                None => assert!(report.pass(), "{label}: {}", report.render()),
                Some(name) => assert!(report.failed(&name), "{label}: {}", report.render()),
            }
        }
    }

    /// The registry names exactly the `BENCH_*.json` files at the repo
    /// root, each once.
    #[test]
    fn registry_lists_every_committed_record() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let mut on_disk: Vec<String> = fs::read_dir(root)
            .expect("repo root lists")
            .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
            .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
            .collect();
        on_disk.sort();
        let mut registered: Vec<String> = BENCHES.iter().map(|b| b.file.to_string()).collect();
        registered.sort();
        assert_eq!(on_disk, registered);
        let mut labels: Vec<&str> = BENCHES.iter().map(|b| b.label).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), BENCHES.len(), "labels are unique");
    }

    /// `check` writes the fresh record and compares it; a fresh record it
    /// cannot write, or a committed one it cannot read, is an error.
    #[test]
    fn check_writes_the_fresh_record_and_fails_on_io_errors() {
        let root = std::env::temp_dir().join(format!("mbp-ratchet-check-{}", std::process::id()));
        let (committed_dir, out_dir) = (root.join("committed"), root.join("out"));
        fs::create_dir_all(&committed_dir).expect("temp dir");
        let rec = one("m", Kind::Throughput, true, 2.0);
        fs::write(committed_dir.join("BENCH_unit.json"), rec.to_json()).expect("write");
        let bench = Bench {
            label: "unit",
            file: "BENCH_unit.json",
            run: |c| Ok(c.clone()),
        };
        let cfg = RatchetConfig::default();
        let report = bench.check(&committed_dir, &out_dir, &cfg).expect("checks");
        assert!(report.pass(), "{}", report.render());
        let written = fs::read_to_string(out_dir.join("BENCH_unit.json")).expect("written");
        assert_eq!(written, rec.to_json());
        // An output directory that is a file cannot be written.
        let blocked = committed_dir.join("BENCH_unit.json");
        let err = bench
            .check(&committed_dir, &blocked, &cfg)
            .expect_err("unwritable");
        assert!(err.starts_with("cannot write"), "{err}");
        let err = bench
            .check(&out_dir.join("none"), &out_dir, &cfg)
            .expect_err("unreadable");
        assert!(err.starts_with("cannot read"), "{err}");
        fs::remove_dir_all(&root).expect("cleanup");
    }

    #[test]
    fn bad_tolerances_are_errors_naming_the_variable() {
        let ok = RatchetConfig::parse(&|n| (n == "MBP_RATCHET_TOL").then(|| "4.0".into()))
            .expect("valid");
        assert_eq!((ok.p99_tolerance, ok.ratio_tolerance), (4.0, 0.15));
        for name in ["MBP_RATCHET_TOL", "MBP_RATCHET_RATIO_TOL"] {
            for raw in ["abc", "-0.5", "NaN", "inf", ""] {
                let get = |n: &str| (n == name).then(|| raw.to_string());
                let err = RatchetConfig::parse(&get).expect_err(raw);
                assert!(err.starts_with(name), "{name}={raw:?}: {err}");
            }
        }
    }

    /// A fresh daemon sweep that served nothing must fail at CI's 400%
    /// band: the throughput floor is `baseline / (1 + tol)`, not the
    /// `baseline × (1 − tol)` that goes negative at any tolerance over 1.
    #[test]
    fn zero_throughput_fails_at_ci_tolerance() {
        let (base, _) = committed("BENCH_serve_net.json");
        let mut fresh = base.clone();
        for m in &mut fresh.metrics {
            if let (true, Value::Measured { spread, .. }) =
                (m.name == "saturation_rps", &mut m.value)
            {
                *spread = Spread::of([0.0]);
            }
        }
        let report = compare(&base, &fresh, &CI);
        assert!(report.failed("saturation_rps"), "{}", report.render());
    }
}
