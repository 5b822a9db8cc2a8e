//! Exporters: metric snapshots as JSON or Prometheus text, events as
//! JSON lines, and flight-recorder spans as JSON lines or Chrome
//! `trace_event` JSON. All serialization is hand-rolled (no external
//! crates).

use crate::{Event, Snapshot, SpanData};
use std::fmt::Write as _;

/// Escapes a string for embedding inside a JSON string literal.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// JSON number for `v`, or `null` when non-finite (JSON has no NaN/Inf).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn json_opt(v: Option<f64>) -> String {
    v.map(json_num).unwrap_or_else(|| "null".to_string())
}

/// Renders a snapshot as a JSON object with `counters`, `gauges`, and
/// `histograms` maps. Histograms carry count/sum/min/max/p50/p90/p99.
pub fn to_json(s: &Snapshot) -> String {
    let mut out = String::from("{\n  \"counters\": {");
    for (i, (name, v)) in s.counters.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(out, "{sep}\n    \"{}\": {v}", esc(name));
    }
    out.push_str(if s.counters.is_empty() {
        "},\n"
    } else {
        "\n  },\n"
    });
    out.push_str("  \"gauges\": {");
    for (i, (name, v)) in s.gauges.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(out, "{sep}\n    \"{}\": {}", esc(name), json_num(*v));
    }
    out.push_str(if s.gauges.is_empty() {
        "},\n"
    } else {
        "\n  },\n"
    });
    out.push_str("  \"histograms\": {");
    for (i, h) in s.histograms.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\n    \"{}\": {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \
             \"p50\": {}, \"p90\": {}, \"p99\": {}}}",
            esc(&h.name),
            h.count,
            json_num(h.sum),
            json_num(h.min),
            json_num(h.max),
            json_opt(h.p50),
            json_opt(h.p90),
            json_opt(h.p99),
        );
    }
    if s.labeled.is_empty() {
        out.push_str(if s.histograms.is_empty() {
            "}\n"
        } else {
            "\n  }\n"
        });
    } else {
        // The `labeled` section is emitted only when labeled series exist,
        // keeping the long-standing three-section golden format intact for
        // consumers that predate labels.
        out.push_str(if s.histograms.is_empty() {
            "},\n"
        } else {
            "\n  },\n"
        });
        out.push_str("  \"labeled\": {");
        for (i, l) in s.labeled.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let mut flat = String::from(&l.name);
            flat.push('{');
            for (j, (k, v)) in l.labels.iter().enumerate() {
                let jsep = if j == 0 { "" } else { "," };
                let _ = write!(flat, "{jsep}{k}={v}");
            }
            flat.push('}');
            let h = &l.hist;
            let _ = write!(
                out,
                "{sep}\n    \"{}\": {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \
                 \"p50\": {}, \"p90\": {}, \"p99\": {}}}",
                esc(&flat),
                h.count,
                json_num(h.sum),
                json_num(h.min),
                json_num(h.max),
                json_opt(h.p50),
                json_opt(h.p90),
                json_opt(h.p99),
            );
        }
        out.push_str("\n  }\n");
    }
    out.push('}');
    out
}

/// Prometheus metric name: dots and other invalid characters become `_`.
/// A leading digit is prefixed with `_` (names must not start with one).
fn prom_name(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    if out.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    out
}

/// Prometheus label name: like metric names, invalid characters become `_`
/// and a leading digit is prefixed.
fn prom_label_name(name: &str) -> String {
    prom_name(name)
}

/// Escapes a Prometheus label *value* per the text exposition format:
/// backslash, double quote, and line feed must be escaped; everything else
/// (including carriage returns and tabs) passes through verbatim.
fn prom_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Renders a `{k="v",...}` label block (empty string for no labels), with
/// names sanitized and values escaped.
fn prom_labels(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    if labels.is_empty() && extra.is_none() {
        return String::new();
    }
    let mut out = String::from("{");
    let mut first = true;
    for (k, v) in labels
        .iter()
        .map(|(k, v)| (k.as_str(), v.as_str()))
        .chain(extra)
    {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "{}=\"{}\"", prom_label_name(k), prom_label_value(v));
    }
    out.push('}');
    out
}

/// Prometheus sample value (the text format allows NaN and signed Inf).
fn prom_num(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v.is_infinite() {
        if v > 0.0 { "+Inf" } else { "-Inf" }.to_string()
    } else {
        format!("{v}")
    }
}

/// Renders a snapshot in the Prometheus text exposition format: counters
/// and gauges as single samples, histograms as summaries with `quantile`
/// labels plus `_sum` and `_count` series.
pub fn to_prometheus(s: &Snapshot) -> String {
    let mut out = String::new();
    for (name, v) in &s.counters {
        let n = prom_name(name);
        let _ = writeln!(out, "# TYPE {n} counter\n{n} {v}");
    }
    for (name, v) in &s.gauges {
        let n = prom_name(name);
        let _ = writeln!(out, "# TYPE {n} gauge\n{n} {}", prom_num(*v));
    }
    for h in &s.histograms {
        let n = prom_name(&h.name);
        let _ = writeln!(out, "# TYPE {n} summary");
        for (q, v) in [(0.5, h.p50), (0.9, h.p90), (0.99, h.p99)] {
            if let Some(v) = v {
                let _ = writeln!(out, "{n}{{quantile=\"{q}\"}} {}", prom_num(v));
            }
        }
        let _ = writeln!(out, "{n}_sum {}\n{n}_count {}", prom_num(h.sum), h.count);
    }
    let mut last_labeled_name: Option<&str> = None;
    for l in &s.labeled {
        let n = prom_name(&l.name);
        if last_labeled_name != Some(l.name.as_str()) {
            let _ = writeln!(out, "# TYPE {n} summary");
            last_labeled_name = Some(l.name.as_str());
        }
        let h = &l.hist;
        for (q, v) in [(0.5, h.p50), (0.9, h.p90), (0.99, h.p99)] {
            if let Some(v) = v {
                let q_str = format!("{q}");
                let _ = writeln!(
                    out,
                    "{n}{} {}",
                    prom_labels(&l.labels, Some(("quantile", &q_str))),
                    prom_num(v)
                );
            }
        }
        let labels = prom_labels(&l.labels, None);
        let _ = writeln!(
            out,
            "{n}_sum{labels} {}\n{n}_count{labels} {}",
            prom_num(h.sum),
            h.count
        );
    }
    out
}

/// Renders events as JSON lines (one object per event), the `--trace`
/// drain format.
pub fn events_to_jsonl(events: &[Event]) -> String {
    let mut out = String::new();
    for e in events {
        let _ = write!(
            out,
            "{{\"seq\": {}, \"unix_micros\": {}, \"level\": \"{}\", \"target\": \"{}\", \
             \"message\": \"{}\", \"fields\": {{",
            e.seq,
            e.unix_micros,
            e.level.as_str(),
            esc(&e.target),
            esc(&e.message),
        );
        for (i, (k, v)) in e.fields.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{}\": \"{}\"", esc(k), esc(v));
        }
        out.push_str("}}\n");
    }
    out
}

/// Renders flight-recorder spans as JSON lines (one object per span), the
/// `mbp-market trace` dump format.
pub fn recorder_to_jsonl(spans: &[SpanData]) -> String {
    let mut out = String::new();
    for s in spans {
        let _ = writeln!(
            out,
            "{{\"idx\": {}, \"trace\": {}, \"span\": {}, \"parent\": {}, \"name\": \"{}\", \
             \"listing\": \"{}\", \"mechanism\": \"{}\", \"seed\": {}, \"start_ns\": {}, \
             \"dur_ns\": {}}}",
            s.idx,
            s.trace,
            s.span,
            s.parent,
            esc(&s.name),
            esc(&s.listing),
            esc(&s.mechanism),
            s.seed,
            s.start_nanos,
            s.dur_nanos,
        );
    }
    out
}

/// Renders flight-recorder spans as Chrome `trace_event` JSON (the format
/// `chrome://tracing` / Perfetto load): one complete (`"ph": "X"`) event
/// per span with microsecond timestamps, one track (`tid`) per trace id so
/// each request reads as its own lane.
pub fn recorder_to_chrome_trace(spans: &[SpanData]) -> String {
    let mut out = String::from("{\"traceEvents\": [");
    for (i, s) in spans.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\n  {{\"name\": \"{}\", \"cat\": \"mbp\", \"ph\": \"X\", \"ts\": {}, \
             \"dur\": {}, \"pid\": 1, \"tid\": {}, \"args\": {{\"span\": {}, \"parent\": {}, \
             \"listing\": \"{}\", \"mechanism\": \"{}\", \"seed\": {}}}}}",
            esc(&s.name),
            json_num(s.start_nanos as f64 / 1000.0),
            json_num(s.dur_nanos as f64 / 1000.0),
            s.trace,
            s.span,
            s.parent,
            esc(&s.listing),
            esc(&s.mechanism),
            s.seed,
        );
    }
    out.push_str("\n], \"displayTimeUnit\": \"ms\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HistogramSnapshot, LabeledSeriesSnapshot, Verbosity};

    fn sample_hist(name: &str) -> HistogramSnapshot {
        HistogramSnapshot {
            name: name.into(),
            count: 12,
            sum: 0.024,
            min: 0.001,
            max: 0.004,
            p50: Some(0.002),
            p90: Some(0.0035),
            p99: Some(0.004),
        }
    }

    fn sample_snapshot() -> Snapshot {
        Snapshot {
            counters: vec![("mbp.core.buy.count".into(), 12)],
            gauges: vec![("mbp.core.revenue.total".into(), 34.5)],
            histograms: vec![sample_hist("mbp.core.buy.seconds")],
            labeled: vec![],
        }
    }

    #[test]
    fn json_golden_snippets() {
        let json = to_json(&sample_snapshot());
        assert!(json.contains("\"mbp.core.buy.count\": 12"), "{json}");
        assert!(json.contains("\"mbp.core.revenue.total\": 34.5"), "{json}");
        assert!(
            json.contains("\"mbp.core.buy.seconds\": {\"count\": 12, \"sum\": 0.024"),
            "{json}"
        );
        assert!(json.contains("\"p50\": 0.002"), "{json}");
        // Braces balance — cheap structural validity check.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
    }

    #[test]
    fn json_empty_snapshot_is_valid() {
        let json = to_json(&Snapshot::default());
        assert_eq!(
            json,
            "{\n  \"counters\": {},\n  \"gauges\": {},\n  \"histograms\": {}\n}"
        );
    }

    #[test]
    fn json_escapes_and_nulls() {
        let s = Snapshot {
            counters: vec![("weird\"name\\".into(), 1)],
            gauges: vec![("g".into(), f64::NAN)],
            histograms: vec![],
            labeled: vec![],
        };
        let json = to_json(&s);
        assert!(json.contains("\"weird\\\"name\\\\\": 1"), "{json}");
        assert!(json.contains("\"g\": null"), "{json}");
    }

    fn labeled_snapshot() -> Snapshot {
        Snapshot {
            counters: vec![],
            gauges: vec![],
            histograms: vec![],
            labeled: vec![LabeledSeriesSnapshot {
                name: "mbp.test.labeled.seconds".into(),
                labels: vec![
                    ("listing".into(), "weird\"quote".into()),
                    ("mechanism".into(), "back\\slash".into()),
                    ("phase".into(), "multi\nline".into()),
                ],
                hist: sample_hist("mbp.test.labeled.seconds"),
            }],
        }
    }

    #[test]
    fn json_labeled_section_only_when_present() {
        // Absent: the three-section golden shape is untouched.
        let json = to_json(&sample_snapshot());
        assert!(!json.contains("\"labeled\""), "{json}");
        // Present: flattened series keys, JSON-escaped.
        let json = to_json(&labeled_snapshot());
        assert!(json.contains("\"labeled\""), "{json}");
        assert!(
            json.contains("mbp.test.labeled.seconds{listing=weird\\\"quote"),
            "{json}"
        );
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
    }

    #[test]
    fn prometheus_label_values_are_escaped() {
        let prom = to_prometheus(&labeled_snapshot());
        // Quotes, backslashes, and newlines in label values are escaped per
        // the text exposition format; each sample stays on one line.
        assert!(prom.contains("listing=\"weird\\\"quote\""), "{prom}");
        assert!(prom.contains("mechanism=\"back\\\\slash\""), "{prom}");
        assert!(prom.contains("phase=\"multi\\nline\""), "{prom}");
        assert!(
            prom.contains("mbp_test_labeled_seconds_count{listing=\"weird\\\"quote\""),
            "{prom}"
        );
        let with_quantile = prom
            .lines()
            .find(|l| l.contains("quantile=\"0.5\""))
            .expect("quantile sample");
        assert!(with_quantile.contains("phase=\"multi\\nline\""), "{prom}");
        assert!(with_quantile.ends_with(" 0.002"), "{with_quantile}");
        // The TYPE header is emitted once for the labeled family.
        assert_eq!(
            prom.matches("# TYPE mbp_test_labeled_seconds summary")
                .count(),
            1,
            "{prom}"
        );
    }

    #[test]
    fn prometheus_names_never_start_with_a_digit() {
        assert_eq!(prom_name("9lives"), "_9lives");
        assert_eq!(prom_label_name("0.phase"), "_0_phase");
        assert_eq!(prom_name("mbp.core.buy"), "mbp_core_buy");
    }

    fn sample_spans() -> Vec<SpanData> {
        vec![
            SpanData {
                idx: 1,
                trace: 1,
                span: 2,
                parent: 1,
                name: "lookup".into(),
                listing: "l\"1".into(),
                mechanism: "gaussian".into(),
                seed: 0,
                start_nanos: 1_500,
                dur_nanos: 250,
            },
            SpanData {
                idx: 2,
                trace: 1,
                span: 1,
                parent: 0,
                name: "quote".into(),
                listing: "l\"1".into(),
                mechanism: "gaussian".into(),
                seed: 77,
                start_nanos: 1_000,
                dur_nanos: 2_000,
            },
        ]
    }

    #[test]
    fn recorder_jsonl_one_line_per_span() {
        let jsonl = recorder_to_jsonl(&sample_spans());
        assert_eq!(jsonl.lines().count(), 2);
        assert!(jsonl.contains("\"name\": \"quote\""), "{jsonl}");
        assert!(jsonl.contains("\"seed\": 77"), "{jsonl}");
        assert!(jsonl.contains("\"listing\": \"l\\\"1\""), "{jsonl}");
        assert!(jsonl.contains("\"dur_ns\": 250"), "{jsonl}");
    }

    #[test]
    fn chrome_trace_is_structurally_valid() {
        let json = recorder_to_chrome_trace(&sample_spans());
        assert!(json.starts_with("{\"traceEvents\": ["), "{json}");
        assert!(json.contains("\"ph\": \"X\""), "{json}");
        assert!(json.contains("\"ts\": 1.5"), "{json}");
        assert!(json.contains("\"dur\": 2"), "{json}");
        assert!(json.contains("\"tid\": 1"), "{json}");
        assert!(json.contains("\"displayTimeUnit\": \"ms\""), "{json}");
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
        assert_eq!(
            json.matches('[').count(),
            json.matches(']').count(),
            "{json}"
        );
        // Empty input still yields a valid document.
        let empty = recorder_to_chrome_trace(&[]);
        assert!(empty.contains("\"traceEvents\": ["), "{empty}");
    }

    #[test]
    fn prometheus_golden_snippets() {
        let prom = to_prometheus(&sample_snapshot());
        assert!(prom.contains("# TYPE mbp_core_buy_count counter"), "{prom}");
        assert!(prom.contains("mbp_core_buy_count 12"), "{prom}");
        assert!(
            prom.contains("# TYPE mbp_core_revenue_total gauge"),
            "{prom}"
        );
        assert!(
            prom.contains("# TYPE mbp_core_buy_seconds summary"),
            "{prom}"
        );
        assert!(
            prom.contains("mbp_core_buy_seconds{quantile=\"0.5\"} 0.002"),
            "{prom}"
        );
        assert!(prom.contains("mbp_core_buy_seconds_sum 0.024"), "{prom}");
        assert!(prom.contains("mbp_core_buy_seconds_count 12"), "{prom}");
    }

    #[test]
    fn jsonl_one_line_per_event() {
        let events = vec![Event {
            seq: 3,
            unix_micros: 1_700_000_000_000_000,
            level: Verbosity::Debug,
            target: "mbp.core.adaptive".into(),
            message: "epoch \"done\"".into(),
            fields: vec![("epoch".into(), "2".into())],
        }];
        let jsonl = events_to_jsonl(&events);
        assert_eq!(jsonl.lines().count(), 1);
        assert!(jsonl.contains("\"seq\": 3"), "{jsonl}");
        assert!(jsonl.contains("\"level\": \"debug\""), "{jsonl}");
        assert!(
            jsonl.contains("\"message\": \"epoch \\\"done\\\"\""),
            "{jsonl}"
        );
        assert!(jsonl.contains("\"fields\": {\"epoch\": \"2\"}"), "{jsonl}");
    }
}
