//! The experiment tables and the plain-text printer `all` writes them with.

/// One titled table of the experiment report: a header row and one row of
/// cells per record.
#[derive(Debug)]
pub struct Table {
    /// Section title, printed as a `## ` heading.
    pub title: String,
    /// Column names.
    pub header: Vec<String>,
    /// One row of cells per record, as many as `header` names.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// A table from its title, column names and rows.
    pub fn new(title: impl Into<String>, header: &[&str], rows: Vec<Vec<String>>) -> Self {
        Table {
            title: title.into(),
            header: header.iter().map(|h| h.to_string()).collect(),
            rows,
        }
    }

    /// Prints the table as TSV under its `## title` heading.
    pub fn print(&self) {
        println!("## {}", self.title);
        println!("{}", self.header.join("\t"));
        for row in &self.rows {
            println!("{}", row.join("\t"));
        }
        println!();
    }
}

/// Formats a float with 4 significant-ish decimals, trimming noise.
pub fn fmt(x: f64) -> String {
    // LINT-ALLOW(float): exact-zero sentinel for display formatting only.
    if x == 0.0 {
        return "0".to_string();
    }
    let a = x.abs();
    if a >= 1000.0 {
        format!("{x:.1}")
    } else if a >= 1.0 {
        format!("{x:.3}")
    } else {
        format!("{x:.5}")
    }
}

/// Prints a titled table of every metric in an [`mbp_obs`] snapshot: one
/// row per counter and gauge, and one per histogram with count, mean, and
/// interpolated p50/p99 (formatted as durations, since the workspace's
/// histograms record span wall-times in seconds).
pub fn print_metrics(title: &str, snap: &mbp_obs::Snapshot) {
    if snap.is_empty() {
        return;
    }
    let mut rows: Vec<Vec<String>> = Vec::new();
    for (name, v) in &snap.counters {
        rows.push(vec![name.clone(), "counter".into(), v.to_string()]);
    }
    for (name, v) in &snap.gauges {
        rows.push(vec![name.clone(), "gauge".into(), fmt(*v)]);
    }
    for h in &snap.histograms {
        let q = |x: Option<f64>| x.map_or_else(|| "-".to_string(), fmt_secs);
        rows.push(vec![
            h.name.clone(),
            "histogram".into(),
            format!(
                "count {} mean {} p50 {} p99 {}",
                h.count,
                fmt_secs(h.mean()),
                q(h.p50),
                q(h.p99)
            ),
        ]);
    }
    Table::new(title, &["metric", "kind", "value"], rows).print();
}

/// Formats a duration in seconds with appropriate precision.
pub fn fmt_secs(s: f64) -> String {
    if s < 1e-6 {
        format!("{:.1}ns", s * 1e9)
    } else if s < 1e-3 {
        format!("{:.1}us", s * 1e6)
    } else if s < 1.0 {
        format!("{:.2}ms", s * 1e3)
    } else {
        format!("{s:.2}s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_ranges() {
        assert_eq!(fmt(0.0), "0");
        assert_eq!(fmt(1234.5), "1234.5");
        assert_eq!(fmt(2.71911), "2.719");
        assert_eq!(fmt(0.001234), "0.00123");
    }

    #[test]
    fn print_metrics_handles_empty_and_populated_snapshots() {
        print_metrics("empty", &mbp_obs::Snapshot::default()); // prints nothing
        let snap = mbp_obs::Snapshot {
            counters: vec![("mbp.test.count".into(), 3)],
            gauges: vec![("mbp.test.gauge".into(), 1.5)],
            histograms: Vec::new(),
            labeled: Vec::new(),
        };
        print_metrics("populated", &snap); // smoke: must not panic
    }

    #[test]
    fn fmt_secs_units() {
        assert!(fmt_secs(2e-9).ends_with("ns"));
        assert!(fmt_secs(2e-5).ends_with("us"));
        assert!(fmt_secs(2e-2).ends_with("ms"));
        assert!(fmt_secs(2.0).ends_with('s'));
    }
}
