//! Sample sets and the percentile rule every reported timing follows.
//!
//! A timing is reported as its median plus the highest percentile that
//! still has at least [`MIN_BEYOND`] samples beyond it, together with the
//! sample count. A metric whose name fixes a percentile (`…_p90_ms`) is
//! only valid when the sample count supports it; [`Samples::require`]
//! turns an unsupported one into a failed check instead of a number.

use std::time::{Duration, Instant};

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Percentiles the rule may pick, highest first.
const CANDIDATES: [f64; 4] = [99.9, 99.0, 90.0, 50.0];

/// The highest candidate percentile `p` with at least [`MIN_BEYOND`]
/// samples beyond it (`n · (1 − p/100) ≥ MIN_BEYOND`), or `None` when even
/// the median is not supported.
pub fn highest_supported(n: usize) -> Option<f64> {
    CANDIDATES.into_iter().find(|&p| supports(n, p))
}

/// `true` when `n` samples leave at least [`MIN_BEYOND`] beyond `p`.
pub fn supports(n: usize, p: f64) -> bool {
    // Compare in integer thousandths so 99.9 % of 10 000 is exact.
    let beyond_milli = n as u128 * (100_000 - (p * 1000.0).round() as u128);
    beyond_milli >= MIN_BEYOND as u128 * 100_000
}

/// Nearest-rank percentile of an ascending slice (`p` in `(0, 100]`).
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Latency of an operation that was due at `due` and finished at `done`.
/// An operation that started late still counts its wait: the clock runs
/// from the due time, not from the send time, so a stall shows up in
/// every operation queued behind it.
pub fn due_latency(due: Instant, done: Instant) -> Duration {
    done.saturating_duration_since(due)
}

/// How late an operation due at `due` was actually started at `sent`.
pub fn lag(due: Instant, sent: Instant) -> Duration {
    sent.saturating_duration_since(due)
}

/// An unordered set of measurements in one unit.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    pub fn new() -> Samples {
        Samples::default()
    }

    pub fn with_capacity(n: usize) -> Samples {
        Samples { values: Vec::with_capacity(n), sorted: false }
    }

    pub fn into_values(self) -> Vec<f64> {
        self.values
    }

    pub fn push(&mut self, v: f64) {
        self.values.push(v);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    fn sorted(&mut self) -> &[f64] {
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
        &self.values
    }

    /// Nearest-rank percentile; `None` on an empty set.
    pub fn percentile(&mut self, p: f64) -> Option<f64> {
        (!self.is_empty()).then(|| nearest_rank(self.sorted(), p))
    }

    pub fn median(&mut self) -> Option<f64> {
        self.percentile(50.0)
    }

    /// The percentile `p` if the sample count supports it under the rule.
    pub fn require(&mut self, p: f64) -> Result<f64, String> {
        if supports(self.len(), p) {
            Ok(self.percentile(p).expect("a supported sample is non-empty"))
        } else {
            Err(format!("p{p} needs {} samples, have {}", min_samples(p), self.len()))
        }
    }

    /// `median …, p<highest> …, n=…` in the given unit.
    pub fn describe(&mut self, unit: &str) -> String {
        let n = self.len();
        match (self.median(), highest_supported(n)) {
            (None, _) => "no samples".to_string(),
            (Some(m), None) | (Some(m), Some(50.0)) => format!("median {m:.6} {unit}, n={n}"),
            (Some(m), Some(p)) => {
                let hi = self.percentile(p).expect("non-empty");
                format!("median {m:.6} {unit}, p{p} {hi:.6} {unit}, n={n}")
            }
        }
    }
}

/// Smallest sample count that supports percentile `p`.
pub fn min_samples(p: f64) -> usize {
    (1..).find(|&n| supports(n, p)).expect("every p < 100 is eventually supported")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_picks_highest_percentile_with_ten_beyond() {
        assert_eq!(highest_supported(0), None);
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(20), Some(50.0));
        assert_eq!(highest_supported(99), Some(50.0));
        assert_eq!(highest_supported(100), Some(90.0));
        assert_eq!(highest_supported(999), Some(90.0));
        assert_eq!(highest_supported(1000), Some(99.0));
        assert_eq!(highest_supported(10_000), Some(99.9));
        assert_eq!(min_samples(90.0), 100);
        assert_eq!(min_samples(99.0), 1000);
    }

    #[test]
    fn require_rejects_unsupported_percentiles() {
        let mut s = Samples::new();
        (1..=99).for_each(|v| s.push(v as f64));
        assert!(s.require(90.0).is_err());
        s.push(100.0);
        assert_eq!(s.require(90.0), Ok(90.0));
        assert_eq!(s.require(50.0), Ok(50.0));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 50.0), 5.0);
        assert_eq!(nearest_rank(&v, 90.0), 9.0);
        assert_eq!(nearest_rank(&v, 100.0), 10.0);
        assert_eq!(nearest_rank(&[3.0], 99.9), 3.0);
    }

    #[test]
    fn describe_prints_sample_count_and_supported_percentile() {
        let mut s = Samples::new();
        (0..1000).for_each(|v| s.push(v as f64));
        let text = s.describe("ms");
        assert!(text.contains("n=1000"), "{text}");
        assert!(text.contains("p99 "), "{text}");
        let mut few = Samples::new();
        few.push(1.0);
        assert_eq!(few.describe("ms"), "median 1.000000 ms, n=1");
    }

    #[test]
    fn latency_counts_from_due_time_not_send_time() {
        let due = Instant::now();
        let sent = due + Duration::from_millis(7);
        let done = sent + Duration::from_millis(3);
        assert_eq!(lag(due, sent), Duration::from_millis(7));
        assert_eq!(due_latency(due, done), Duration::from_millis(10));
        // A response observed "before" its due time (clock read order on
        // another thread) clamps to zero rather than wrapping.
        assert_eq!(due_latency(done, due), Duration::ZERO);
    }
}
