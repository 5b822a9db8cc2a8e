//! Bench ratchet: diffs a fresh `BENCH_*.json` against the committed
//! baseline and fails when the numbers stop improving.
//!
//! The ratchet is one-directional with tolerance bands:
//!
//! * **Ratio metrics** (`table_speedup_vs_scan`, `batch_speedup_vs_single`,
//!   `factor_cache_speedup`) are same-process measurement ratios and
//!   therefore largely machine-independent. They must not fall below
//!   `baseline × (1 − ratio_tolerance)`; the default band is 15% and
//!   `MBP_RATCHET_RATIO_TOL` widens it for noisy runners.
//! * **Absolute latencies** (per-workload `p99_micros`) and throughputs
//!   (per-phase `units_per_sec`) depend on the machine. They must not
//!   regress beyond `baseline × (1 ± p99_tolerance)`; the default band is
//!   100% (a gross-regression guard — absolute timings on shared or
//!   single-core runners are noisy) and `MBP_RATCHET_TOL` adjusts it.
//! * **Invariants** (`deterministic`, `clean`, `table_matches_scan`,
//!   `consistent`) must hold in the fresh run unconditionally — no
//!   tolerance.
//! * **Hard floors** are absolute: the *committed* serving baseline must
//!   show `table_speedup_vs_scan ≥ 1.0` and `batch_speedup_vs_single ≥
//!   3.0`. Binding the committed artifact (smoke re-runs time these
//!   ratios too noisily for an exact cutoff) means a regression cannot be
//!   laundered by regenerating a worse baseline — the regeneration itself
//!   fails CI, while fresh runs stay inside the relative ratio band.
//!
//! Artifacts are parsed with a small self-contained JSON reader (the
//! workspace is dependency-free), so the comparator accepts any
//! conforming document, not just the exact strings our emitters produce.

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

/// Tolerance bands for the ratchet.
#[derive(Debug, Clone, Copy)]
pub struct RatchetConfig {
    /// Allowed relative drop on machine-independent ratio metrics.
    pub ratio_tolerance: f64,
    /// Allowed relative regression on absolute latencies / throughputs.
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
    /// Default bands, with `MBP_RATCHET_TOL` (a float, e.g. `1.0` = 100%)
    /// widening the absolute-latency band and `MBP_RATCHET_RATIO_TOL`
    /// widening the ratio band for slow or shared runners (single smoke
    /// runs on a time-sliced core swing same-process ratios by ±25%).
    pub fn from_env() -> Self {
        let mut cfg = RatchetConfig::default();
        if let Ok(s) = std::env::var("MBP_RATCHET_TOL") {
            if let Ok(v) = s.parse::<f64>() {
                if v.is_finite() && v >= 0.0 {
                    cfg.p99_tolerance = v;
                }
            }
        }
        if let Ok(s) = std::env::var("MBP_RATCHET_RATIO_TOL") {
            if let Ok(v) = s.parse::<f64>() {
                if v.is_finite() && v >= 0.0 {
                    cfg.ratio_tolerance = v;
                }
            }
        }
        cfg
    }
}

/// One ratchet comparison: a metric, both values, and the verdict.
#[derive(Debug, Clone)]
pub struct RatchetCheck {
    /// Metric path, e.g. `workloads.serve-into.p99_micros`.
    pub metric: String,
    /// Committed baseline value.
    pub baseline: f64,
    /// Freshly measured value.
    pub fresh: f64,
    /// Whether the fresh value is within the tolerance band.
    pub ok: bool,
}

/// The full ratchet verdict for one artifact pair.
#[derive(Debug, Clone, Default)]
pub struct RatchetReport {
    /// Every comparison performed.
    pub checks: Vec<RatchetCheck>,
    /// Human-readable failure descriptions (empty means pass).
    pub failures: Vec<String>,
}

impl RatchetReport {
    /// True when no check failed.
    pub fn pass(&self) -> bool {
        self.failures.is_empty()
    }

    fn ratio_floor(&mut self, metric: &str, baseline: f64, fresh: f64, tol: f64) {
        let floor = baseline * (1.0 - tol);
        let ok = fresh >= floor;
        self.checks.push(RatchetCheck {
            metric: metric.to_string(),
            baseline,
            fresh,
            ok,
        });
        if !ok {
            self.failures.push(format!(
                "{metric} regressed: fresh {fresh:.4} < floor {floor:.4} (baseline {baseline:.4}, tol {tol:.2})"
            ));
        }
    }

    fn latency_ceiling(&mut self, metric: &str, baseline: f64, fresh: f64, tol: f64) {
        let ceiling = baseline * (1.0 + tol);
        let ok = fresh <= ceiling;
        self.checks.push(RatchetCheck {
            metric: metric.to_string(),
            baseline,
            fresh,
            ok,
        });
        if !ok {
            self.failures.push(format!(
                "{metric} regressed: fresh {fresh:.3} > ceiling {ceiling:.3} (baseline {baseline:.3}, tol {tol:.2})"
            ));
        }
    }

    /// An absolute floor, applied to the committed artifact: a baseline
    /// that does not clear it cannot be committed, so regenerating a worse
    /// baseline fails CI instead of quietly lowering the bar.
    fn hard_floor(&mut self, metric: &str, floor: f64, value: f64) {
        let ok = value >= floor;
        self.checks.push(RatchetCheck {
            metric: metric.to_string(),
            baseline: floor,
            fresh: value,
            ok,
        });
        if !ok {
            self.failures.push(format!(
                "{metric} below hard floor: committed {value:.4} < {floor:.4}"
            ));
        }
    }

    fn invariant(&mut self, metric: &str, holds: bool) {
        self.checks.push(RatchetCheck {
            metric: metric.to_string(),
            baseline: 1.0,
            fresh: if holds { 1.0 } else { 0.0 },
            ok: holds,
        });
        if !holds {
            self.failures
                .push(format!("{metric} must hold in the fresh run"));
        }
    }

    /// One line per failed check, or `ratchet pass (N checks)`.
    pub fn render(&self) -> String {
        if self.pass() {
            format!("ratchet pass ({} checks)", self.checks.len())
        } else {
            let mut out = format!(
                "ratchet FAIL ({} of {} checks):\n",
                self.failures.len(),
                self.checks.len()
            );
            for f in &self.failures {
                out.push_str("  - ");
                out.push_str(f);
                out.push('\n');
            }
            out
        }
    }
}

fn num_field(doc: &Json, key: &str) -> Result<f64, String> {
    doc.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("missing numeric field '{key}'"))
}

fn bool_field(doc: &Json, key: &str) -> Result<bool, String> {
    doc.get(key)
        .and_then(Json::as_bool)
        .ok_or_else(|| format!("missing boolean field '{key}'"))
}

/// Indexes an array of named objects (`workloads` / `phases`) by `name`.
fn by_name<'j>(doc: &'j Json, key: &str) -> Result<BTreeMap<String, &'j Json>, String> {
    let arr = doc
        .get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("missing array field '{key}'"))?;
    let mut map = BTreeMap::new();
    for item in arr {
        let name = item
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("'{key}' entry without a name"))?;
        map.insert(name.to_string(), item);
    }
    Ok(map)
}

/// Diffs a fresh `BENCH_serving.json` against the committed baseline.
pub fn compare_serving(
    baseline_json: &str,
    fresh_json: &str,
    cfg: &RatchetConfig,
) -> Result<RatchetReport, String> {
    let base = parse_json(baseline_json)?;
    let fresh = parse_json(fresh_json)?;
    let mut report = RatchetReport::default();

    for metric in [
        "table_speedup_vs_scan",
        "batch_speedup_vs_single",
        "factor_cache_speedup",
    ] {
        report.ratio_floor(
            metric,
            num_field(&base, metric)?,
            num_field(&fresh, metric)?,
            cfg.ratio_tolerance,
        );
    }
    // Hard floors on the *committed* artifact: the compiled table must
    // beat the scan outright, and the batch path must hold its lead over
    // single-quote serving. Binding the committed document (not the smoke
    // re-measurement, whose short runs time these ratios noisily) means a
    // regression cannot be laundered by regenerating a worse baseline —
    // the regeneration itself fails CI. Fresh runs are still held within
    // `ratio_tolerance` of the committed values above.
    report.hard_floor(
        "table_speedup_vs_scan.hard_floor",
        1.0,
        num_field(&base, "table_speedup_vs_scan")?,
    );
    report.hard_floor(
        "batch_speedup_vs_single.hard_floor",
        3.0,
        num_field(&base, "batch_speedup_vs_single")?,
    );
    report.invariant(
        "deterministic",
        bool_field(&fresh, "deterministic").unwrap_or(false),
    );
    report.invariant(
        "table_matches_scan",
        bool_field(&fresh, "table_matches_scan").unwrap_or(false),
    );

    let base_workloads = by_name(&base, "workloads")?;
    let fresh_workloads = by_name(&fresh, "workloads")?;
    for (name, base_w) in &base_workloads {
        let Some(fresh_w) = fresh_workloads.get(name) else {
            report
                .failures
                .push(format!("workload '{name}' missing from fresh run"));
            continue;
        };
        report.latency_ceiling(
            &format!("workloads.{name}.p99_micros"),
            num_field(base_w, "p99_micros")?,
            num_field(fresh_w, "p99_micros")?,
            cfg.p99_tolerance,
        );
    }
    Ok(report)
}

/// Indexes the `sweep` array of a `BENCH_serve_net.json` by connection
/// count.
fn by_conns<'j>(doc: &'j Json, key: &str) -> Result<BTreeMap<u64, &'j Json>, String> {
    let arr = doc
        .get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("missing array field '{key}'"))?;
    let mut map = BTreeMap::new();
    for item in arr {
        let conns = item
            .get("connections")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("'{key}' entry without a connection count"))?;
        map.insert(conns as u64, item);
    }
    Ok(map)
}

/// Diffs a fresh `BENCH_serve_net.json` against the committed baseline.
///
/// `batch_admission_speedup` is a same-process measurement ratio and
/// ratchets under `ratio_tolerance`, with a **hard floor of 2.0 on the
/// committed artifact**: the daemon's coalesced dispatch must beat
/// one-kernel-call-per-request serving at least 2x, and a regeneration
/// that fails to clear that floor fails CI instead of lowering the bar.
/// Saturation RPS and per-sweep-point p99s are machine-dependent and get
/// the wide `p99_tolerance` band. `deterministic` (every sweep point
/// reproduced its response digest) and `per_request_matches_batched`
/// (batch coalescing changed no response bytes) must hold in the fresh
/// run unconditionally.
pub fn compare_serve_net(
    baseline_json: &str,
    fresh_json: &str,
    cfg: &RatchetConfig,
) -> Result<RatchetReport, String> {
    let base = parse_json(baseline_json)?;
    let fresh = parse_json(fresh_json)?;
    let mut report = RatchetReport::default();

    report.ratio_floor(
        "batch_admission_speedup",
        num_field(&base, "batch_admission_speedup")?,
        num_field(&fresh, "batch_admission_speedup")?,
        cfg.ratio_tolerance,
    );
    report.hard_floor(
        "batch_admission_speedup.hard_floor",
        2.0,
        num_field(&base, "batch_admission_speedup")?,
    );
    report.ratio_floor(
        "saturation_rps",
        num_field(&base, "saturation_rps")?,
        num_field(&fresh, "saturation_rps")?,
        cfg.p99_tolerance,
    );
    report.invariant(
        "deterministic",
        bool_field(&fresh, "deterministic").unwrap_or(false),
    );
    report.invariant(
        "per_request_matches_batched",
        bool_field(&fresh, "per_request_matches_batched").unwrap_or(false),
    );

    let base_sweep = by_conns(&base, "sweep")?;
    let fresh_sweep = by_conns(&fresh, "sweep")?;
    for (conns, base_p) in &base_sweep {
        let Some(fresh_p) = fresh_sweep.get(conns) else {
            report
                .failures
                .push(format!("sweep point @{conns} conns missing from fresh run"));
            continue;
        };
        report.latency_ceiling(
            &format!("sweep.{conns}conns.p99_micros"),
            num_field(base_p, "p99_micros")?,
            num_field(fresh_p, "p99_micros")?,
            cfg.p99_tolerance,
        );
    }
    Ok(report)
}

/// Diffs a fresh `BENCH_testkit.json` against the committed baseline.
pub fn compare_testkit(
    baseline_json: &str,
    fresh_json: &str,
    cfg: &RatchetConfig,
) -> Result<RatchetReport, String> {
    let base = parse_json(baseline_json)?;
    let fresh = parse_json(fresh_json)?;
    let mut report = RatchetReport::default();

    report.invariant("clean", bool_field(&fresh, "clean").unwrap_or(false));
    report.invariant(
        "deterministic",
        bool_field(&fresh, "deterministic").unwrap_or(false),
    );

    let base_phases = by_name(&base, "phases")?;
    let fresh_phases = by_name(&fresh, "phases")?;
    for (name, base_p) in &base_phases {
        let Some(fresh_p) = fresh_phases.get(name) else {
            report
                .failures
                .push(format!("phase '{name}' missing from fresh run"));
            continue;
        };
        report.ratio_floor(
            &format!("phases.{name}.units_per_sec"),
            num_field(base_p, "units_per_sec")?,
            num_field(fresh_p, "units_per_sec")?,
            cfg.p99_tolerance,
        );
    }
    Ok(report)
}

/// Diffs a fresh `BENCH_kernel.json` against the committed baseline.
///
/// The grid speedup ratios over `partition_point` are same-process
/// measurement ratios and ratchet under `ratio_tolerance`; per-workload
/// absolute lookup throughput is machine-dependent and gets the wide
/// `p99_tolerance` band. `consistent` (the grid layout answers exactly
/// like `partition_point`) and `deterministic` must hold in the fresh run
/// unconditionally.
pub fn compare_kernel(
    baseline_json: &str,
    fresh_json: &str,
    cfg: &RatchetConfig,
) -> Result<RatchetReport, String> {
    let base = parse_json(baseline_json)?;
    let fresh = parse_json(fresh_json)?;
    let mut report = RatchetReport::default();

    report.invariant(
        "consistent",
        bool_field(&fresh, "consistent").unwrap_or(false),
    );
    report.invariant(
        "deterministic",
        bool_field(&fresh, "deterministic").unwrap_or(false),
    );

    let base_speedups = by_name(&base, "speedups")?;
    let fresh_speedups = by_name(&fresh, "speedups")?;
    for (name, base_s) in &base_speedups {
        let Some(fresh_s) = fresh_speedups.get(name) else {
            report
                .failures
                .push(format!("speedup '{name}' missing from fresh run"));
            continue;
        };
        report.ratio_floor(
            &format!("speedups.{name}"),
            num_field(base_s, "value")?,
            num_field(fresh_s, "value")?,
            cfg.ratio_tolerance,
        );
    }

    let base_workloads = by_name(&base, "workloads")?;
    let fresh_workloads = by_name(&fresh, "workloads")?;
    for (name, base_w) in &base_workloads {
        let Some(fresh_w) = fresh_workloads.get(name) else {
            report
                .failures
                .push(format!("workload '{name}' missing from fresh run"));
            continue;
        };
        report.ratio_floor(
            &format!("workloads.{name}.lookups_per_sec"),
            num_field(base_w, "lookups_per_sec")?,
            num_field(fresh_w, "lookups_per_sec")?,
            cfg.p99_tolerance,
        );
    }
    Ok(report)
}

/// Diffs a fresh `BENCH_wal.json` against the committed durability
/// baseline. Append and recovery throughput ratchet like every other
/// phase; `recovery_replay_speedup` (live ingest seconds ÷ recovery
/// seconds) is a same-process ratio, so besides the band against the
/// committed baseline it carries an absolute hard floor of 1.0 —
/// recovery replaying a log slower than the market wrote it would mean
/// crash recovery can never catch up, and such a baseline cannot be
/// committed.
pub fn compare_wal(
    baseline_json: &str,
    fresh_json: &str,
    cfg: &RatchetConfig,
) -> Result<RatchetReport, String> {
    let base = parse_json(baseline_json)?;
    let fresh = parse_json(fresh_json)?;
    let mut report = RatchetReport::default();

    report.invariant(
        "deterministic",
        bool_field(&fresh, "deterministic").unwrap_or(false),
    );
    report.ratio_floor(
        "recovery_replay_speedup",
        num_field(&base, "recovery_replay_speedup")?,
        num_field(&fresh, "recovery_replay_speedup")?,
        cfg.ratio_tolerance,
    );
    report.hard_floor(
        "recovery_replay_speedup.hard_floor",
        1.0,
        num_field(&base, "recovery_replay_speedup")?,
    );

    let base_rec = base
        .get("recovery")
        .ok_or_else(|| "baseline missing 'recovery'".to_string())?;
    let fresh_rec = fresh
        .get("recovery")
        .ok_or_else(|| "fresh run missing 'recovery'".to_string())?;
    report.ratio_floor(
        "recovery.records_per_sec",
        num_field(base_rec, "records_per_sec")?,
        num_field(fresh_rec, "records_per_sec")?,
        cfg.p99_tolerance,
    );

    let base_workloads = by_name(&base, "workloads")?;
    let fresh_workloads = by_name(&fresh, "workloads")?;
    for (name, base_w) in &base_workloads {
        let Some(fresh_w) = fresh_workloads.get(name) else {
            report
                .failures
                .push(format!("workload '{name}' missing from fresh run"));
            continue;
        };
        report.ratio_floor(
            &format!("workloads.{name}.records_per_sec"),
            num_field(base_w, "records_per_sec")?,
            num_field(fresh_w, "records_per_sec")?,
            cfg.p99_tolerance,
        );
    }
    Ok(report)
}

/// Diffs a fresh `BENCH_trace.json` against the tracing overhead budgets:
/// the serve path must cost ≤ `disabled_budget` with tracing compiled in
/// but off, and ≤ `enabled_budget` with tracing on.
pub fn check_trace_overhead(
    fresh_json: &str,
    disabled_budget: f64,
    enabled_budget: f64,
) -> Result<RatchetReport, String> {
    let fresh = parse_json(fresh_json)?;
    let mut report = RatchetReport::default();
    report.latency_ceiling(
        "overhead_disabled",
        disabled_budget,
        num_field(&fresh, "overhead_disabled")?.max(0.0),
        0.0,
    );
    report.latency_ceiling(
        "overhead_enabled",
        enabled_budget,
        num_field(&fresh, "overhead_enabled")?.max(0.0),
        0.0,
    );
    report.invariant(
        "deterministic",
        bool_field(&fresh, "deterministic").unwrap_or(false),
    );
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SERVING: &str = include_str!("../../../BENCH_serving.json");
    const TESTKIT: &str = include_str!("../../../BENCH_testkit.json");
    const KERNEL: &str = include_str!("../../../BENCH_kernel.json");
    const SERVE_NET: &str = include_str!("../../../BENCH_serve_net.json");
    const WAL: &str = include_str!("../../../BENCH_wal.json");

    #[test]
    fn parser_round_trips_committed_baselines() {
        let doc = parse_json(SERVING).expect("committed serving baseline parses");
        assert!(doc.get("table_speedup_vs_scan").is_some());
        assert_eq!(
            doc.get("workloads").and_then(Json::as_arr).map(<[_]>::len),
            Some(7)
        );
        let doc = parse_json(TESTKIT).expect("committed testkit baseline parses");
        assert_eq!(
            doc.get("phases").and_then(Json::as_arr).map(<[_]>::len),
            Some(4)
        );
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

    #[test]
    fn ratchet_passes_on_committed_baselines() {
        let cfg = RatchetConfig::default();
        let report = compare_serving(SERVING, SERVING, &cfg).expect("comparable");
        assert!(report.pass(), "{}", report.render());
        let report = compare_testkit(TESTKIT, TESTKIT, &cfg).expect("comparable");
        assert!(report.pass(), "{}", report.render());
        let report = compare_kernel(KERNEL, KERNEL, &cfg).expect("comparable");
        assert!(report.pass(), "{}", report.render());
        let report = compare_serve_net(SERVE_NET, SERVE_NET, &cfg).expect("comparable");
        assert!(report.pass(), "{}", report.render());
        let report = compare_wal(WAL, WAL, &cfg).expect("comparable");
        assert!(report.pass(), "{}", report.render());
    }

    /// Acceptance: the committed durability baseline must show recovery
    /// replaying at least as fast as live ingest (speedup ≥ 1.0), and a
    /// baseline doctored below that floor fails its own self-compare.
    #[test]
    fn wal_hard_floor_binds_the_committed_artifact() {
        let cfg = RatchetConfig::default();
        let base = parse_json(WAL).expect("parses");
        let speedup = base
            .get("recovery_replay_speedup")
            .and_then(Json::as_f64)
            .expect("ratio present");
        assert!(
            speedup >= 1.0,
            "committed recovery_replay_speedup {speedup} under the 1.0 floor"
        );
        let needle = format!("\"recovery_replay_speedup\": {speedup:.4}");
        let doctored = WAL.replacen(&needle, "\"recovery_replay_speedup\": 0.5000", 1);
        assert_ne!(doctored, WAL, "injection must change the document");
        let report = compare_wal(&doctored, &doctored, &cfg).expect("comparable");
        assert!(!report.pass(), "sub-1.0 replay speedup must fail");
        assert!(
            report
                .failures
                .iter()
                .any(|f| f.contains("recovery_replay_speedup.hard_floor")),
            "{}",
            report.render()
        );
    }

    /// Acceptance: the committed network baseline must show batch
    /// admission beating per-request dispatch at least 2x, and a baseline
    /// doctored below that floor fails its own self-compare.
    #[test]
    fn serve_net_hard_floor_binds_the_committed_artifact() {
        let cfg = RatchetConfig::default();
        let base = parse_json(SERVE_NET).expect("parses");
        let speedup = base
            .get("batch_admission_speedup")
            .and_then(Json::as_f64)
            .expect("ratio present");
        assert!(
            speedup >= 2.0,
            "committed batch_admission_speedup {speedup} under the 2.0 floor"
        );
        let needle = format!("\"batch_admission_speedup\": {speedup:.4}");
        let doctored = SERVE_NET.replacen(&needle, "\"batch_admission_speedup\": 1.5000", 1);
        assert_ne!(doctored, SERVE_NET, "injection must change the document");
        let report = compare_serve_net(&doctored, &doctored, &cfg).expect("comparable");
        assert!(!report.pass(), "sub-2.0 admission speedup must fail");
        assert!(
            report
                .failures
                .iter()
                .any(|f| f.contains("hard floor") && f.contains("batch_admission_speedup")),
            "failure must name the hard floor: {:?}",
            report.failures
        );
    }

    #[test]
    fn serve_net_ratchet_fails_on_broken_determinism_and_missing_point() {
        let cfg = RatchetConfig::default();
        // A digest mismatch in the fresh run is always fatal.
        let broken = SERVE_NET.replacen(
            "\"per_request_matches_batched\": true",
            "\"per_request_matches_batched\": false",
            1,
        );
        assert_ne!(broken, SERVE_NET);
        let report = compare_serve_net(SERVE_NET, &broken, &cfg).expect("comparable");
        assert!(!report.pass(), "digest divergence must fail");
        assert!(report
            .failures
            .iter()
            .any(|f| f.contains("per_request_matches_batched")));
        // A dropped sweep point is fatal too.
        let dropped = SERVE_NET.replacen("\"connections\": 16", "\"connections\": 17", 1);
        assert_ne!(dropped, SERVE_NET);
        let report = compare_serve_net(SERVE_NET, &dropped, &cfg).expect("comparable");
        assert!(!report.pass(), "missing sweep point must fail");
        assert!(report
            .failures
            .iter()
            .any(|f| f.contains("missing from fresh run")));
    }

    /// The committed serving artifact must clear the absolute hard floors —
    /// the compiled table beats the scan and the batch path beats the
    /// single-quote path 3x — not merely avoid regressing against itself.
    #[test]
    fn hard_floors_bind_regardless_of_baseline() {
        let cfg = RatchetConfig::default();
        let base = parse_json(SERVING).expect("parses");
        let table_speedup = base
            .get("table_speedup_vs_scan")
            .and_then(Json::as_f64)
            .expect("ratio present");
        assert!(
            table_speedup >= 1.0,
            "committed table_speedup_vs_scan {table_speedup} under floor"
        );
        // Committing a baseline doctored below the floor fails its own
        // self-compare (which CI runs on every change), even though the
        // relative ratio check alone would pass a self-compare trivially —
        // so a worse baseline can never be laundered in.
        let needle = format!("\"table_speedup_vs_scan\": {table_speedup:.4}");
        let doctored = SERVING.replacen(&needle, "\"table_speedup_vs_scan\": 0.9000", 1);
        assert_ne!(doctored, SERVING, "injection must change the document");
        let report = compare_serving(&doctored, &doctored, &cfg).expect("comparable");
        assert!(!report.pass(), "sub-1.0 table speedup must fail");
        assert!(
            report
                .failures
                .iter()
                .any(|f| f.contains("hard floor") && f.contains("table_speedup_vs_scan")),
            "failure must name the hard floor: {:?}",
            report.failures
        );
    }

    #[test]
    fn kernel_ratchet_fails_on_throughput_and_consistency_regressions() {
        let cfg = RatchetConfig::default();
        // A consistency break is always fatal.
        let broken = KERNEL.replacen("\"consistent\": true", "\"consistent\": false", 1);
        assert_ne!(broken, KERNEL);
        let report = compare_kernel(KERNEL, &broken, &cfg).expect("comparable");
        assert!(!report.pass(), "inconsistent fresh run must fail");
        // A collapsed grid speedup beyond tolerance is fatal.
        let base = parse_json(KERNEL).expect("parses");
        let speedups = by_name(&base, "speedups").expect("speedups");
        let grid = speedups.get("grid_vs_pp@512").expect("grid ratio present");
        let value = num_field(grid, "value").expect("value");
        let needle = format!("\"name\": \"grid_vs_pp@512\", \"value\": {value:.4}");
        let poisoned = format!(
            "\"name\": \"grid_vs_pp@512\", \"value\": {:.4}",
            value * 0.2
        );
        let slowed = KERNEL.replacen(&needle, &poisoned, 1);
        assert_ne!(slowed, KERNEL, "injection must change the document");
        let report = compare_kernel(KERNEL, &slowed, &cfg).expect("comparable");
        assert!(!report.pass(), "5x grid slowdown must fail");
        assert!(report.failures.iter().any(|f| f.contains("grid_vs_pp@512")));
    }

    /// Acceptance: an injected p99 regression beyond tolerance fails the
    /// ratchet, and the failure names the regressed workload.
    #[test]
    fn ratchet_fails_on_injected_p99_regression() {
        let cfg = RatchetConfig::default();
        let base = parse_json(SERVING).expect("parses");
        let serve_into_p99 = base
            .get("workloads")
            .and_then(Json::as_arr)
            .and_then(|ws| {
                ws.iter()
                    .find(|w| w.get("name").and_then(Json::as_str) == Some("serve-into"))
            })
            .and_then(|w| w.get("p99_micros"))
            .and_then(Json::as_f64)
            .expect("serve-into p99 present");
        let needle = format!("\"p99_micros\": {serve_into_p99:.3}");
        let poisoned = format!("\"p99_micros\": {:.3}", serve_into_p99 * 10.0);
        let fresh = SERVING.replacen(&needle, &poisoned, 1);
        assert_ne!(fresh, SERVING, "injection must change the document");
        let report = compare_serving(SERVING, &fresh, &cfg).expect("comparable");
        assert!(!report.pass(), "10x p99 regression must fail the ratchet");
        assert!(
            report.failures.iter().any(|f| f.contains("p99_micros")),
            "failure must name the latency metric: {:?}",
            report.failures
        );
    }

    #[test]
    fn ratchet_fails_on_ratio_regression_and_missing_workload() {
        let cfg = RatchetConfig::default();
        let base = parse_json(SERVING).expect("parses");
        let table_speedup = base
            .get("table_speedup_vs_scan")
            .and_then(Json::as_f64)
            .expect("ratio present");
        let needle = format!("\"table_speedup_vs_scan\": {table_speedup:.4}");
        let fresh = SERVING
            .replacen(&needle, "\"table_speedup_vs_scan\": 0.0001", 1)
            .replacen("pricing-table", "pricing-table-renamed", 1);
        assert_ne!(fresh, SERVING, "injection must change the document");
        let report = compare_serving(SERVING, &fresh, &cfg).expect("comparable");
        assert!(!report.pass());
        assert!(report
            .failures
            .iter()
            .any(|f| f.contains("table_speedup_vs_scan")));
        assert!(report
            .failures
            .iter()
            .any(|f| f.contains("missing from fresh run")));
    }

    #[test]
    fn wider_tolerance_forgives_small_regressions() {
        let cfg = RatchetConfig {
            ratio_tolerance: 0.15,
            p99_tolerance: 0.50,
        };
        // Speedups sit comfortably above the hard floors (1.0 / 3.0) so this
        // test exercises the *relative* tolerance band in isolation.
        let base = r#"{"table_speedup_vs_scan": 2.0, "batch_speedup_vs_single": 4.0,
                       "factor_cache_speedup": 1.0, "deterministic": true,
                       "table_matches_scan": true,
                       "workloads": [{"name": "w", "p99_micros": 100.0}]}"#;
        let fresh = base
            .replacen(
                "\"table_speedup_vs_scan\": 2.0",
                "\"table_speedup_vs_scan\": 1.8",
                1,
            )
            .replacen("\"p99_micros\": 100.0", "\"p99_micros\": 140.0", 1);
        let report = compare_serving(base, &fresh, &cfg).expect("comparable");
        assert!(report.pass(), "{}", report.render());
        let tight = RatchetConfig {
            ratio_tolerance: 0.05,
            p99_tolerance: 0.10,
        };
        let report = compare_serving(base, &fresh, &tight).expect("comparable");
        assert!(
            !report.pass(),
            "tight tolerance must catch both regressions"
        );
    }

    #[test]
    fn trace_overhead_budgets_are_enforced() {
        let good = r#"{"overhead_disabled": 0.01, "overhead_enabled": 0.06,
                       "deterministic": true}"#;
        let report = check_trace_overhead(good, 0.02, 0.10).expect("comparable");
        assert!(report.pass(), "{}", report.render());
        let bad = r#"{"overhead_disabled": 0.01, "overhead_enabled": 0.25,
                      "deterministic": true}"#;
        let report = check_trace_overhead(bad, 0.02, 0.10).expect("comparable");
        assert!(!report.pass(), "blown enabled budget must fail");
    }
}
