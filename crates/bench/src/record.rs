//! The one `BENCH_*.json` record every baseline produces and the ratchet
//! writes, checks and compares.
//!
//! A record is self-describing: a stamp ([`RunMeta`]), the `params` that
//! produced it (sizes and the repeat count), and a flat list of metrics.
//! Each measured metric declares its kind (`throughput`, `latency` or
//! `ratio`), which direction is better, its unit, and its median, min and
//! max over its repeats; an `invariant` carries whether it held:
//!
//! ```json
//! {
//!   "commit": "5827a10",
//!   "generated_at": "2026-10-18T10:00Z",
//!   "hardware_threads": 2,
//!   "params": {"quotes": 20000, "repeats": 3},
//!   "metrics": [
//!     {"name": "batch_speedup_vs_single", "kind": "ratio", "better": "higher", "unit": "x", "repeats": 3, "median": 4.6808, "min": 4.45059, "max": 4.81809},
//!     {"name": "deterministic", "kind": "invariant", "holds": true}
//!   ]
//! }
//! ```
//!
//! [`Record::to_json`] is the only writer and [`Record::parse`] reads any
//! conforming document through [`parse_json`]. Values are written to six
//! significant digits, so a written record parses and re-writes to the
//! same text.

use crate::ratchet::{parse_json, Json};
use crate::RunMeta;
use std::collections::BTreeMap;

/// What a measured metric measures; it selects the ratchet band.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Work per second (machine-dependent).
    Throughput,
    /// A time per operation or per run (machine-dependent).
    Latency,
    /// A same-process quotient of two measurements.
    Ratio,
}

impl Kind {
    /// The kind's name in a record.
    pub fn as_str(self) -> &'static str {
        match self {
            Kind::Throughput => "throughput",
            Kind::Latency => "latency",
            Kind::Ratio => "ratio",
        }
    }
}

/// The median, min and max of a metric over its repeats.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    /// Measurements summarized.
    pub repeats: usize,
    /// Median (the mean of the middle two for an even count).
    pub median: f64,
    /// Smallest measurement.
    pub min: f64,
    /// Largest measurement.
    pub max: f64,
}

impl Spread {
    /// Summarizes one value per repeat (all zero when there is none).
    pub fn of(values: impl IntoIterator<Item = f64>) -> Spread {
        let mut v: Vec<f64> = values.into_iter().collect();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let median = match n {
            0 => 0.0,
            _ if n % 2 == 1 => v[n / 2],
            _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
        };
        Spread {
            repeats: n,
            median,
            min: v.first().copied().unwrap_or(0.0),
            max: v.last().copied().unwrap_or(0.0),
        }
    }
}

impl std::fmt::Display for Spread {
    /// `median [min, max]`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        use crate::report::fmt;
        write!(
            f,
            "{} [{}, {}]",
            fmt(self.median),
            fmt(self.min),
            fmt(self.max)
        )
    }
}

/// Runs `run` `repeats` times (at least once), passing the repeat index,
/// and returns every run's output in order. Every baseline measures
/// through this, so each metric's spread is over the same repeats.
pub fn repeat<T>(repeats: usize, run: impl FnMut(usize) -> T) -> Vec<T> {
    (0..repeats.max(1)).map(run).collect()
}

/// The `q`-quantile of `samples` (sorted in place), nearest rank below.
pub fn percentile(samples: &mut [f64], q: f64) -> f64 {
    samples.sort_by(f64::total_cmp);
    match samples.len() {
        0 => 0.0,
        n => samples[((n as f64 * q) as usize).min(n - 1)],
    }
}

/// `v` per unit of `seconds` (0 when the interval is empty).
pub fn per_sec(v: usize, seconds: f64) -> f64 {
    if seconds > 0.0 {
        v as f64 / seconds
    } else {
        0.0
    }
}

/// `num / den`, or 1.0 (no change) when `den` is not positive: the
/// speedup of a degenerate measurement.
pub fn quotient(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        1.0
    }
}

/// A metric's reading.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A correctness condition and whether it held.
    Invariant(bool),
    /// A timed quantity over repeats.
    Measured {
        /// What it measures.
        kind: Kind,
        /// True when larger values are better.
        higher_is_better: bool,
        /// Unit of the values, e.g. `us` or `quotes/s`.
        unit: String,
        /// Median, min and max over the repeats.
        spread: Spread,
    },
}

/// One named metric of a record.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Unique name within the record, e.g. `serve-into.p99_us`.
    pub name: String,
    /// Its reading.
    pub value: Value,
}

/// One `BENCH_*.json` document.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Machine + commit + timestamp provenance stamp.
    pub meta: RunMeta,
    /// Sizes and repeat count that produced the record, by name.
    pub params: BTreeMap<String, f64>,
    /// The metrics, in the order the baseline measured them.
    pub metrics: Vec<Metric>,
}

/// Rounds to six significant digits, the precision records are written at.
fn sig6(x: f64) -> f64 {
    format!("{x:.5e}").parse().unwrap_or(x)
}

fn num(x: f64) -> String {
    if x.is_finite() {
        sig6(x).to_string()
    } else {
        "null".to_string()
    }
}

impl Record {
    /// An empty record stamped from the environment ([`RunMeta::from_env`]).
    pub fn new(params: &[(&str, f64)]) -> Record {
        Record {
            meta: RunMeta::from_env(),
            params: params.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
            metrics: Vec::new(),
        }
    }

    fn measured(&mut self, name: String, kind: Kind, higher: bool, unit: &str, spread: Spread) {
        self.metrics.push(Metric {
            name,
            value: Value::Measured {
                kind,
                higher_is_better: higher,
                unit: unit.to_string(),
                spread,
            },
        });
    }

    /// Adds a throughput metric (higher is better).
    pub fn throughput(&mut self, name: impl Into<String>, unit: &str, spread: Spread) {
        self.measured(name.into(), Kind::Throughput, true, unit, spread);
    }

    /// Adds a latency metric (lower is better).
    pub fn latency(&mut self, name: impl Into<String>, unit: &str, spread: Spread) {
        self.measured(name.into(), Kind::Latency, false, unit, spread);
    }

    /// Adds a ratio metric (unit `x`) in the given direction.
    pub fn ratio(&mut self, name: impl Into<String>, higher_is_better: bool, spread: Spread) {
        self.measured(name.into(), Kind::Ratio, higher_is_better, "x", spread);
    }

    /// Adds an invariant.
    pub fn invariant(&mut self, name: impl Into<String>, holds: bool) {
        self.metrics.push(Metric {
            name: name.into(),
            value: Value::Invariant(holds),
        });
    }

    /// The metric called `name`.
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The median of the measured metric called `name`.
    pub fn median(&self, name: &str) -> Option<f64> {
        match self.metric(name)?.value {
            Value::Measured { spread, .. } => Some(spread.median),
            Value::Invariant(_) => None,
        }
    }

    /// Whether the invariant called `name` is present and holds.
    pub fn holds(&self, name: &str) -> bool {
        matches!(
            self.metric(name),
            Some(Metric {
                value: Value::Invariant(true),
                ..
            })
        )
    }

    /// The param called `name` as a size.
    pub fn size(&self, name: &str) -> Result<usize, String> {
        self.params
            .get(name)
            .filter(|v| v.is_finite() && **v >= 0.0)
            .map(|&v| v as usize)
            .ok_or_else(|| format!("record has no size param '{name}'"))
    }

    /// Serializes the record (`BENCH_*.json`).
    pub fn to_json(&self) -> String {
        let params: Vec<String> = self
            .params
            .iter()
            .map(|(k, v)| format!("\"{k}\": {}", num(*v)))
            .collect();
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| match &m.value {
                Value::Invariant(holds) => format!(
                    "    {{\"name\": \"{}\", \"kind\": \"invariant\", \"holds\": {holds}}}",
                    m.name
                ),
                Value::Measured {
                    kind,
                    higher_is_better,
                    unit,
                    spread,
                } => format!(
                    "    {{\"name\": \"{}\", \"kind\": \"{}\", \"better\": \"{}\", \"unit\": \"{unit}\", \"repeats\": {}, \"median\": {}, \"min\": {}, \"max\": {}}}",
                    m.name,
                    kind.as_str(),
                    if *higher_is_better { "higher" } else { "lower" },
                    spread.repeats,
                    num(spread.median),
                    num(spread.min),
                    num(spread.max),
                ),
            })
            .collect();
        format!(
            "{{\n  \"commit\": \"{}\",\n  \"generated_at\": \"{}\",\n  \"hardware_threads\": {},\n  \"params\": {{{}}},\n  \"metrics\": [\n{}\n  ]\n}}\n",
            self.meta.commit,
            self.meta.generated_at,
            self.meta.hardware_threads,
            params.join(", "),
            metrics.join(",\n"),
        )
    }

    /// Parses a record, naming the first field that does not conform.
    pub fn parse(text: &str) -> Result<Record, String> {
        let doc = parse_json(text)?;
        let str_field = |j: &Json, key: &str| {
            j.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing string field '{key}'"))
        };
        let num_field = |j: &Json, key: &str| {
            j.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("missing numeric field '{key}'"))
        };
        let meta = RunMeta {
            hardware_threads: num_field(&doc, "hardware_threads")? as usize,
            commit: str_field(&doc, "commit")?,
            generated_at: str_field(&doc, "generated_at")?,
        };
        let Some(Json::Obj(raw_params)) = doc.get("params") else {
            return Err("missing object field 'params'".to_string());
        };
        let mut params = BTreeMap::new();
        for (k, v) in raw_params {
            let v = v
                .as_f64()
                .ok_or_else(|| format!("param '{k}' is not a number"))?;
            params.insert(k.clone(), v);
        }
        let raw_metrics = doc
            .get("metrics")
            .and_then(Json::as_arr)
            .ok_or_else(|| "missing array field 'metrics'".to_string())?;
        let mut metrics = Vec::with_capacity(raw_metrics.len());
        for m in raw_metrics {
            let name = str_field(m, "name")?;
            let in_metric = |e: String| format!("metric '{name}': {e}");
            let kind = match str_field(m, "kind").map_err(in_metric)?.as_str() {
                "invariant" => None,
                "throughput" => Some(Kind::Throughput),
                "latency" => Some(Kind::Latency),
                "ratio" => Some(Kind::Ratio),
                other => return Err(in_metric(format!("unknown kind '{other}'"))),
            };
            let value = match kind {
                None => Value::Invariant(
                    m.get("holds")
                        .and_then(Json::as_bool)
                        .ok_or_else(|| in_metric("missing boolean field 'holds'".into()))?,
                ),
                Some(kind) => Value::Measured {
                    kind,
                    higher_is_better: match str_field(m, "better").map_err(in_metric)?.as_str() {
                        "higher" => true,
                        "lower" => false,
                        other => return Err(in_metric(format!("unknown direction '{other}'"))),
                    },
                    unit: str_field(m, "unit").map_err(in_metric)?,
                    spread: Spread {
                        repeats: num_field(m, "repeats").map_err(in_metric)? as usize,
                        median: num_field(m, "median").map_err(in_metric)?,
                        min: num_field(m, "min").map_err(in_metric)?,
                        max: num_field(m, "max").map_err(in_metric)?,
                    },
                },
            };
            metrics.push(Metric { name, value });
        }
        let rec = Record {
            meta,
            params,
            metrics,
        };
        rec.check()?;
        Ok(rec)
    }

    /// The checks a record must pass on its own: a machine with at least
    /// one thread; every measured metric with a unit, at least one repeat,
    /// `min ≤ median ≤ max`, and a positive median unless it is a
    /// lower-is-better ratio (an overhead may be zero or negative); and
    /// every `.p99_us` at or above its `.p50_us`, which must exist.
    fn check(&self) -> Result<(), String> {
        if self.meta.hardware_threads == 0 {
            return Err("hardware_threads is 0".to_string());
        }
        for m in &self.metrics {
            let Value::Measured {
                kind,
                higher_is_better,
                unit,
                spread: s,
            } = &m.value
            else {
                continue;
            };
            let fail = |e: &str| Err(format!("metric '{}': {e}", m.name));
            if unit.is_empty() {
                return fail("empty unit");
            }
            if s.repeats == 0 {
                return fail("no repeats");
            }
            if !(s.min <= s.median && s.median <= s.max) {
                return fail(&format!("spread out of order: {s}"));
            }
            if (*kind != Kind::Ratio || *higher_is_better) && s.median <= 0.0 {
                return fail(&format!("median {} is not positive", s.median));
            }
            if let Some(stem) = m.name.strip_suffix(".p99_us") {
                match self.median(&format!("{stem}.p50_us")) {
                    Some(p50) if s.median >= p50 => {}
                    Some(p50) => return fail(&format!("p99 {} under p50 {p50}", s.median)),
                    None => return fail("no matching .p50_us"),
                }
            }
        }
        Ok(())
    }
}

/// The committed record `file` at the repo root, parsed, and its text.
/// Panics unless `file` is registered in [`crate::ratchet::BENCHES`].
#[cfg(test)]
pub(crate) fn committed(file: &str) -> (Record, String) {
    assert!(
        crate::ratchet::BENCHES.iter().any(|b| b.file == file),
        "{file} is not a registered record"
    );
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(file);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{file}: {e}"));
    let rec = Record::parse(&text).unwrap_or_else(|e| panic!("{file}: {e}"));
    (rec, text)
}

/// Asserts that `rec` names the same metrics, in the same order, as the
/// committed record `file`.
#[cfg(test)]
pub(crate) fn assert_same_metrics(rec: &Record, file: &str) {
    let names = |r: &Record| r.metrics.iter().map(|m| m.name.clone()).collect::<Vec<_>>();
    assert_eq!(names(rec), names(&committed(file).0));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_summarizes_odd_even_and_empty_runs() {
        let s = Spread::of([3.0, 1.0, 2.0]);
        assert_eq!((s.repeats, s.median, s.min, s.max), (3, 2.0, 1.0, 3.0));
        assert_eq!(Spread::of([4.0, 1.0]).median, 2.5);
        assert_eq!(Spread::of([]).repeats, 0);
    }

    /// A valid record: one latency pair, one lower-is-better ratio at
    /// zero, one invariant.
    const VALID: &str = r#"{
  "commit": "abc1234",
  "generated_at": "2026-10-19T00:00Z",
  "hardware_threads": 2,
  "params": {"quotes": 100},
  "metrics": [
    {"name": "a.p50_us", "kind": "latency", "better": "lower", "unit": "us", "repeats": 3, "median": 2, "min": 1, "max": 3},
    {"name": "a.p99_us", "kind": "latency", "better": "lower", "unit": "us", "repeats": 3, "median": 5, "min": 4, "max": 6},
    {"name": "rps", "kind": "throughput", "better": "higher", "unit": "requests/s", "repeats": 3, "median": 9, "min": 8, "max": 10},
    {"name": "speedup", "kind": "ratio", "better": "higher", "unit": "x", "repeats": 3, "median": 1.5, "min": 1.2, "max": 1.7},
    {"name": "overhead", "kind": "ratio", "better": "lower", "unit": "x", "repeats": 3, "median": 0, "min": -0.1, "max": 0.2},
    {"name": "ok", "kind": "invariant", "holds": true}
  ]
}
"#;

    /// Each record check and each typed field, broken once: (the text
    /// replaced, its replacement, a phrase the error must carry).
    #[test]
    fn parse_rejects_each_broken_record_check() {
        let rec = Record::parse(VALID).expect("the valid record parses");
        assert_eq!(rec.to_json(), VALID);
        for (from, to, phrase) in [
            (
                "\"hardware_threads\": 2",
                "\"hardware_threads\": 0",
                "hardware_threads",
            ),
            ("\"unit\": \"requests/s\"", "\"unit\": \"\"", "empty unit"),
            (
                "\"repeats\": 3, \"median\": 9",
                "\"repeats\": 0, \"median\": 9",
                "no repeats",
            ),
            (
                "\"median\": 9, \"min\": 8",
                "\"median\": 9, \"min\": 9.5",
                "out of order",
            ),
            (
                "\"median\": 9, \"min\": 8, \"max\": 10",
                "\"median\": 11, \"min\": 8, \"max\": 10",
                "out of order",
            ),
            (
                "\"median\": 9, \"min\": 8",
                "\"median\": 0, \"min\": 0",
                "rps': median 0 is not positive",
            ),
            (
                "\"median\": 2, \"min\": 1",
                "\"median\": 0, \"min\": 0",
                "a.p50_us': median 0 is not positive",
            ),
            (
                "\"median\": 1.5, \"min\": 1.2",
                "\"median\": -1, \"min\": -2",
                "speedup': median -1 is not positive",
            ),
            (
                "\"median\": 5, \"min\": 4",
                "\"median\": 1.5, \"min\": 1",
                "p99 1.5 under p50 2",
            ),
            ("a.p50_us", "b.p50_us", "no matching .p50_us"),
            (
                r#""kind": "throughput""#,
                r#""kind": "speed""#,
                "unknown kind 'speed'",
            ),
            (
                r#""better": "higher""#,
                r#""better": "up""#,
                "unknown direction 'up'",
            ),
            (
                r#""quotes": 100"#,
                r#""quotes": "many""#,
                "param 'quotes' is not a number",
            ),
            (
                r#""commit": "abc1234""#,
                r#""commit": 7"#,
                "string field 'commit'",
            ),
            (r#""holds": true"#, r#""holds": 1"#, "boolean field 'holds'"),
        ] {
            assert!(VALID.contains(from), "{from}");
            let err = Record::parse(&VALID.replacen(from, to, 1)).expect_err(phrase);
            assert!(err.contains(phrase), "{phrase}: {err}");
        }
    }

    #[test]
    fn percentile_takes_the_nearest_rank_below() {
        let mut v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&mut v, 0.5), 51.0);
        assert_eq!(percentile(&mut v, 0.99), 100.0);
        assert_eq!(percentile(&mut [], 0.5), 0.0);
    }
}
