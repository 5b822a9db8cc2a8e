//! Bench ratchet: diffs a fresh [`Record`] against the committed
//! `BENCH_*.json` record and fails when a metric left its band.
//!
//! [`compare`] is the one comparator. It compares medians, metric by
//! metric, with the rule the committed metric's kind and direction select:
//!
//! * **Ratios** (`table_speedup_vs_scan`, `grid_vs_pp@512`, …) are
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
//! * A metric either record lacks fails the check.
//! * **Hard floors** ([`HARD_FLOORS`]) bind the *committed* record: a
//!   baseline under one cannot be committed, so a regression cannot be
//!   laundered by regenerating a worse baseline, while fresh smoke runs
//!   stay inside the relative band.
//! * **Budgets** ([`BUDGETS`]) take the place of the band for the tracing
//!   overheads: the committed record is held to the strict ceiling, a
//!   fresh run to [`RatchetConfig::fresh_budgets`]
//!   (`MBP_TRACE_BUDGET_DISABLED` / `MBP_TRACE_BUDGET_ENABLED`).
//!
//! Floors and budgets live here, not in the records, so regenerating a
//! file cannot move them. Every check prints both sides' `[min, max]`
//! over their repeats beside its verdict.
//!
//! Records are parsed with a small self-contained JSON reader (the
//! workspace is dependency-free), so the comparator accepts any
//! conforming document, not just the exact strings [`Record::to_json`]
//! produces.

use crate::record::{Kind, Record, Value};
use crate::report::fmt;
use std::collections::BTreeMap;

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

/// Absolute floors on committed medians: the compiled table beats the
/// scan outright, the batch path holds a 3x lead over single-quote
/// serving, and WAL recovery replays at least as fast as live ingest.
pub const HARD_FLOORS: [(&str, f64); 3] = [
    ("table_speedup_vs_scan", 1.0),
    ("batch_speedup_vs_single", 3.0),
    ("recovery_replay_speedup", 1.0),
];

/// Tracing-overhead ceilings for the committed record: ≤2% with tracing
/// compiled in but disabled, ≤10% for turning it on.
pub const BUDGETS: [(&str, f64); 2] = [("overhead_disabled", 0.02), ("overhead_enabled", 0.10)];

/// Tolerance bands for the ratchet.
#[derive(Debug, Clone, Copy)]
pub struct RatchetConfig {
    /// Allowed relative move on ratio metrics.
    pub ratio_tolerance: f64,
    /// Allowed relative regression on latencies and throughputs.
    pub p99_tolerance: f64,
    /// Fresh-run ceilings, aligned with [`BUDGETS`]. Shared or
    /// single-core machines time the overhead deltas noisily, so a fresh
    /// run is a gross-regression guard; the committed record carries the
    /// strict verdict.
    pub fresh_budgets: [f64; 2],
}

impl Default for RatchetConfig {
    fn default() -> Self {
        RatchetConfig {
            ratio_tolerance: 0.15,
            p99_tolerance: 1.00,
            fresh_budgets: [0.25, 0.50],
        }
    }
}

fn env_f64(name: &str) -> Option<f64> {
    std::env::var(name)
        .ok()?
        .parse::<f64>()
        .ok()
        .filter(|v| v.is_finite() && *v >= 0.0)
}

impl RatchetConfig {
    /// Default bands, adjusted by `MBP_RATCHET_TOL` (latency/throughput
    /// band, e.g. `1.0` = 100%), `MBP_RATCHET_RATIO_TOL` (ratio band;
    /// single smoke runs on a time-sliced core swing same-process ratios
    /// by ±25%) and `MBP_TRACE_BUDGET_DISABLED` /
    /// `MBP_TRACE_BUDGET_ENABLED` (fresh-run budgets).
    pub fn from_env() -> Self {
        let d = RatchetConfig::default();
        RatchetConfig {
            ratio_tolerance: env_f64("MBP_RATCHET_RATIO_TOL").unwrap_or(d.ratio_tolerance),
            p99_tolerance: env_f64("MBP_RATCHET_TOL").unwrap_or(d.p99_tolerance),
            fresh_budgets: [
                env_f64("MBP_TRACE_BUDGET_DISABLED").unwrap_or(d.fresh_budgets[0]),
                env_f64("MBP_TRACE_BUDGET_ENABLED").unwrap_or(d.fresh_budgets[1]),
            ],
        }
    }
}

/// One ratchet check and its verdict.
#[derive(Debug, Clone)]
pub struct RatchetCheck {
    /// Checked metric, suffixed `.hard_floor` / `.budget(committed)` /
    /// `.budget(fresh)` for the checks held in code.
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
        if let Some(i) = BUDGETS.iter().position(|(n, _)| *n == b.name) {
            let (strict, loose) = (BUDGETS[i].1, cfg.fresh_budgets[i]);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{Metric, Spread};

    /// Every committed record, by file name.
    const COMMITTED: [(&str, &str); 7] = [
        (
            "BENCH_kernel.json",
            include_str!("../../../BENCH_kernel.json"),
        ),
        (
            "BENCH_parallel.json",
            include_str!("../../../BENCH_parallel.json"),
        ),
        (
            "BENCH_serve_net.json",
            include_str!("../../../BENCH_serve_net.json"),
        ),
        (
            "BENCH_serving.json",
            include_str!("../../../BENCH_serving.json"),
        ),
        (
            "BENCH_testkit.json",
            include_str!("../../../BENCH_testkit.json"),
        ),
        (
            "BENCH_trace.json",
            include_str!("../../../BENCH_trace.json"),
        ),
        ("BENCH_wal.json", include_str!("../../../BENCH_wal.json")),
    ];

    /// CI's bands (`MBP_RATCHET_TOL=4.0`, `MBP_RATCHET_RATIO_TOL=0.40`).
    const CI: RatchetConfig = RatchetConfig {
        ratio_tolerance: 0.40,
        p99_tolerance: 4.0,
        fresh_budgets: [0.25, 0.50],
    };

    fn committed(file: &str) -> Record {
        let (_, text) = COMMITTED.iter().find(|(f, _)| *f == file).expect("listed");
        Record::parse(text).unwrap_or_else(|e| panic!("{file}: {e}"))
    }

    /// A record with one measured metric whose every repeat read `v`.
    fn one(name: &str, kind: Kind, higher_is_better: bool, v: f64) -> Record {
        let mut r = Record::new(&[]);
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

    fn invariant(name: &str, holds: bool) -> Record {
        let mut r = Record::new(&[]);
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
    /// a missing metric either way, invariants, every hard floor and
    /// budget; then every committed record round-trips, is stamped, and
    /// passes against itself.
    #[test]
    fn comparator_table() {
        let def = RatchetConfig::default();
        // (label, committed, fresh, bands, the check that must fail or
        // `None` for a pass)
        let mut cases: Vec<(String, Record, Record, RatchetConfig, Option<String>)> = Vec::new();
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
                cases.push((
                    format!("{label} inside"),
                    base.clone(),
                    one("m", kind, higher, inside),
                    cfg,
                    None,
                ));
                cases.push((
                    format!("{label} outside"),
                    base,
                    one("m", kind, higher, outside),
                    cfg,
                    Some("m".into()),
                ));
            }
        }
        let t = |v| one("m", Kind::Throughput, true, v);
        let other = one("n", Kind::Throughput, true, 1.0);
        cases.push((
            "missing from fresh".into(),
            t(1.0),
            other.clone(),
            def,
            Some("m".into()),
        ));
        cases.push((
            "missing from committed".into(),
            other,
            t(1.0),
            def,
            Some("m".into()),
        ));
        cases.push((
            "kind changed".into(),
            t(1.0),
            invariant("m", true),
            def,
            Some("m".into()),
        ));
        for (b, f) in [(true, false), (false, true)] {
            let label = format!("invariant committed {b} fresh {f}");
            cases.push((
                label,
                invariant("i", b),
                invariant("i", f),
                def,
                Some("i".into()),
            ));
        }
        cases.push((
            "invariant holds".into(),
            invariant("i", true),
            invariant("i", true),
            def,
            None,
        ));
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
        for ((name, strict), loose) in BUDGETS.into_iter().zip(def.fresh_budgets) {
            let r = |v| one(name, Kind::Ratio, false, v);
            let label = |s: &str| format!("{name} {s}");
            cases.push((
                label("under both"),
                r(strict * 0.999),
                r(loose * 0.999),
                def,
                None,
            ));
            let fails = Some(format!("{name}.budget(committed)"));
            cases.push((
                label("committed over"),
                r(strict * 1.001),
                r(0.0),
                def,
                fails,
            ));
            let fails = Some(format!("{name}.budget(fresh)"));
            cases.push((label("fresh over"), r(0.0), r(loose * 1.001), def, fails));
        }
        for (file, text) in COMMITTED {
            let rec = committed(file);
            assert_eq!(rec.to_json(), text, "{file} does not round-trip");
            for stamp in [&rec.meta.commit, &rec.meta.generated_at] {
                assert_ne!(stamp, "unknown", "{file} is not stamped");
            }
            // Every committed record passes against itself, hard floors
            // included. The committed tracing budgets are the ratchet
            // binary's verdict (CI's `Bench ratchet` step), not this
            // test's: nine rounds on a shared host do not resolve 2%, so a
            // regenerated record can miss them by noise alone.
            let report = compare(&rec, &rec, &def);
            let held = |c: &&RatchetCheck| !c.metric.ends_with(".budget(committed)");
            assert!(
                report.checks.iter().filter(held).all(|c| c.ok),
                "{file} against itself: {}",
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

    /// A fresh daemon sweep that served nothing must fail at CI's 400%
    /// band: the throughput floor is `baseline / (1 + tol)`, not the
    /// `baseline × (1 − tol)` that goes negative at any tolerance over 1.
    #[test]
    fn zero_throughput_fails_at_ci_tolerance() {
        let base = committed("BENCH_serve_net.json");
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
