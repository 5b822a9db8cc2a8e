//! Order statistics over raw per-request samples.

/// Percentiles the report may name, in increasing order.
const LADDER: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// Samples kept beyond a percentile before the report may name it.
pub const MIN_BEYOND: usize = 10;

/// A sorted sample set.
pub struct Samples {
    sorted: Vec<f64>,
}

impl Samples {
    /// Sorts `values` (NaNs are a bug in the caller and sort last).
    pub fn new(mut values: Vec<f64>) -> Samples {
        values.sort_by(f64::total_cmp);
        Samples { sorted: values }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// `true` when there are no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// 1-based nearest rank of percentile `p` in `[0, 100]`.
    fn rank(&self, p: f64) -> usize {
        let rank = ((p / 100.0) * self.sorted.len() as f64).ceil() as usize;
        rank.clamp(1, self.sorted.len().max(1))
    }

    /// Nearest-rank percentile `p` in `[0, 100]`; `0.0` when empty.
    pub fn pct(&self, p: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        self.sorted[self.rank(p) - 1]
    }

    /// Arithmetic mean; `0.0` when empty.
    pub fn mean(&self) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
    }

    /// `true` when at least [`MIN_BEYOND`] samples lie beyond percentile `p`.
    pub fn supports(&self, p: f64) -> bool {
        self.sorted.len().saturating_sub(self.rank(p)) >= MIN_BEYOND
    }

    /// The highest percentile of the ladder with at least [`MIN_BEYOND`]
    /// samples beyond it, if any.
    pub fn highest_supported(&self) -> Option<f64> {
        LADDER.iter().rev().copied().find(|&p| self.supports(p))
    }

    /// One report line: count, median, the named percentile (flagged when
    /// too few samples lie beyond it) and the highest supported one.
    pub fn describe(&self, name: &str, unit: &str, named: f64) -> String {
        let flag = if self.supports(named) {
            ""
        } else {
            " (too few samples beyond it)"
        };
        let top = match self.highest_supported() {
            Some(p) => format!("p{p}={:.3}", self.pct(p)),
            None => "none".to_string(),
        };
        format!(
            "{name}: n={} p50={:.3} p{named}={:.3}{flag} highest-supported {top} [{unit}]",
            self.len(),
            self.pct(50.0),
            self.pct(named),
        )
    }
}

/// Median of `values`; `0.0` when empty.
pub fn median(values: &[f64]) -> f64 {
    Samples::new(values.to_vec()).pct(50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_and_support() {
        let s = Samples::new((1..=1000).map(f64::from).collect());
        assert_eq!(s.pct(50.0), 500.0);
        assert_eq!(s.pct(99.0), 990.0);
        assert!(s.supports(99.0));
        assert!(!s.supports(99.9));
        assert_eq!(s.highest_supported(), Some(99.0));
        assert_eq!(Samples::new(vec![]).pct(50.0), 0.0);
    }
}
