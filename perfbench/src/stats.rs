//! The benchmark's own arithmetic: nearest-rank percentiles, the
//! tail-percentile rule, ratios over attempted operations, and the
//! metric lines the runner parses.

use std::fmt::Write as _;

/// The percentiles a latency report may use, lowest first.
pub const PERCENTILES: [f64; 4] = [50.0, 90.0, 99.0, 99.9];

/// Samples a percentile must keep beyond it before it is reported.
pub const MIN_BEYOND: usize = 10;

/// The 1-based nearest rank of percentile `p` among `n` samples:
/// `ceil(p/100 · n)`, clamped to `1..=n`.
pub fn rank(n: usize, p: f64) -> usize {
    // Round before the ceiling, so 90% of 100 is rank 90 and not 91
    // through a float error in 0.9 * 100.
    let exact = (p / 100.0 * n as f64 * 1e9).round() / 1e9;
    (exact.ceil() as usize).clamp(1, n.max(1))
}

/// How many of `n` samples lie beyond percentile `p`.
pub fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// The highest of [`PERCENTILES`] that keeps at least [`MIN_BEYOND`]
/// samples beyond it, or `None` when even the median does not.
pub fn tail_percentile(n: usize) -> Option<f64> {
    PERCENTILES
        .iter()
        .rev()
        .copied()
        .find(|&p| n > 0 && beyond(n, p) >= MIN_BEYOND)
}

/// Nearest-rank percentile `p` of `samples` (sorted internally).
///
/// # Panics
///
/// Panics on an empty sample set: every workload is sized so that a
/// run always has samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(sorted.len(), p) - 1]
}

/// Median of `samples`, the mean of the middle pair for an even count.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Mean of `samples`, 0 for none.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `part / attempted`, 0 when nothing was attempted.
pub fn ratio(part: u64, attempted: u64) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        part as f64 / attempted as f64
    }
}

/// Tallies of one workload's operations. Every ratio divides by the
/// operations *attempted*: an operation that errored or was refused
/// stays in the base, so failures can only lower a ratio.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations submitted.
    pub attempted: u64,
    /// Operations that errored, were refused, or failed a check.
    pub failed: u64,
    /// Operations answered definitively (no budget truncation).
    pub solved: u64,
    /// Operations answered with a bi-decomposition.
    pub decomposed: u64,
}

impl Tally {
    /// `part / attempted`.
    pub fn ratio(&self, part: u64) -> f64 {
        ratio(part, self.attempted)
    }

    /// Share of attempted operations that failed.
    pub fn error_ratio(&self) -> f64 {
        self.ratio(self.failed)
    }

    /// Share of attempted operations that did not fail.
    pub fn ok_ratio(&self) -> f64 {
        self.ratio(self.attempted.saturating_sub(self.failed))
    }
}

/// One measured metric: `metric <name> <value> <unit> [n=<samples>]`.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name (`latency_p50_ms`, `sat.conflicts`, ...).
    pub name: String,
    /// The value, printed with all its digits.
    pub value: f64,
    /// Unit (`ms`, `s`, `1/s`, `count`, `ratio`, ...).
    pub unit: String,
    /// Sample count behind a percentile or mean, when there is one.
    pub samples: Option<usize>,
}

impl Metric {
    /// A metric without a sample count.
    pub fn new(name: &str, value: f64, unit: &str) -> Self {
        Metric {
            name: name.to_owned(),
            value,
            unit: unit.to_owned(),
            samples: None,
        }
    }

    /// A metric with the sample count it was computed from.
    pub fn with_samples(name: &str, value: f64, unit: &str, samples: usize) -> Self {
        Metric {
            samples: Some(samples),
            ..Metric::new(name, value, unit)
        }
    }

    /// The line the runner parses (`{:?}` keeps every digit of an
    /// `f64` and round-trips exactly).
    pub fn line(&self) -> String {
        let mut s = format!("metric {} {:?} {}", self.name, self.value, self.unit);
        if let Some(n) = self.samples {
            let _ = write!(s, " n={n}");
        }
        s
    }

    /// Parses a line written by [`Metric::line`].
    pub fn parse(line: &str) -> Option<Metric> {
        let mut fields = line.split_whitespace();
        if fields.next()? != "metric" {
            return None;
        }
        let name = fields.next()?.to_owned();
        let value: f64 = fields.next()?.parse().ok()?;
        let unit = fields.next()?.to_owned();
        let samples = match fields.next() {
            Some(n) => Some(n.strip_prefix("n=")?.parse().ok()?),
            None => None,
        };
        if fields.next().is_some() || !value.is_finite() {
            return None;
        }
        Some(Metric {
            name,
            value,
            unit,
            samples,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_has_no_float_drift() {
        assert_eq!(rank(100, 90.0), 90);
        assert_eq!(rank(1000, 99.0), 990);
        assert_eq!(rank(10, 50.0), 5);
        assert_eq!(rank(11, 50.0), 6);
        assert_eq!(rank(1, 99.9), 1);
        assert_eq!(rank(7, 0.0), 1, "rank is at least 1");
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None, "median keeps only 9 beyond");
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0), "p90 keeps only 9 beyond");
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0), "p99 keeps only 9 beyond");
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        for n in [100, 1000, 10_000] {
            let p = tail_percentile(n).unwrap();
            assert!(beyond(n, p) >= MIN_BEYOND);
        }
    }

    #[test]
    fn percentiles_pick_the_ranked_sample() {
        let samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&samples, 50.0), 50.0);
        assert_eq!(percentile(&samples, 90.0), 90.0);
        assert_eq!(percentile(&samples, 99.0), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn ratios_divide_by_attempted_not_completed() {
        let t = Tally {
            attempted: 10,
            failed: 2,
            solved: 7,
            decomposed: 5,
        };
        assert_eq!(t.error_ratio(), 0.2);
        assert_eq!(t.ok_ratio(), 0.8);
        // 7 of the 8 completed operations solved, but the base is the
        // 10 attempted: the two failures count against the ratio.
        assert_eq!(t.ratio(t.solved), 0.7);
        assert_eq!(t.ratio(t.decomposed), 0.5);
        assert_eq!(Tally::default().ratio(0), 0.0);
    }

    #[test]
    fn metric_lines_round_trip_with_units() {
        let m = Metric::with_samples("latency_p90_ms", 241.593_125, "ms", 120);
        assert_eq!(m.line(), "metric latency_p90_ms 241.593125 ms n=120");
        assert_eq!(Metric::parse(&m.line()), Some(m));
        let rate = Metric::new("outputs_per_s", 1.0 / 3.0, "1/s");
        assert_eq!(Metric::parse(&rate.line()).unwrap().value, 1.0 / 3.0);
        assert_eq!(
            Metric::parse("metric sat.conflicts 156653.0 count"),
            Some(Metric::new("sat.conflicts", 156_653.0, "count"))
        );
        assert_eq!(Metric::parse("metric x 1.0"), None, "unit is required");
        assert_eq!(Metric::parse("metric x abc ms"), None);
        assert_eq!(Metric::parse("metric x 1.0 ms n=z"), None);
        assert_eq!(Metric::parse("metric x NaN ms"), None);
        assert_eq!(Metric::parse("note x 1.0 ms"), None);
    }
}
