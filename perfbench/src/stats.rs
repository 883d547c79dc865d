//! Order statistics and per-op arithmetic.

/// Median of a sample; the mean of the two middle values for even counts.
/// Zero for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of a sorted sample, indexed as the storm
/// benches index theirs (`sorted[n·p/100]`, clamped), so a digest here
/// matches theirs value for value.
pub fn percentile(sorted: &[u64], pct: usize) -> u64 {
    if sorted.is_empty() {
        0
    } else {
        sorted[(sorted.len() * pct / 100).min(sorted.len() - 1)]
    }
}

/// Whether the `pct` percentile of `n` samples has at least ten samples
/// beyond it — the rule for reporting a tail.
pub fn tail_supported(n: usize, pct: usize) -> bool {
    n * (100 - pct) >= 10 * 100
}

/// A latency stream reduced to what the result reports: its median, its
/// p99 and its sample count, plus an order-independent checksum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Latency {
    pub count: u64,
    pub p50: u64,
    pub p99: u64,
    pub max: u64,
    pub sum: u64,
    pub xor: u64,
}

impl Latency {
    pub fn of(samples: &[u64]) -> Latency {
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        Latency {
            count: sorted.len() as u64,
            p50: percentile(&sorted, 50),
            p99: percentile(&sorted, 99),
            max: percentile(&sorted, 100),
            sum: sorted.iter().sum(),
            xor: sorted.iter().fold(0, |acc, &l| acc ^ crate::gen::mix(l)),
        }
    }

    /// Whether the p99 is backed by at least ten samples beyond it.
    pub fn p99_supported(&self) -> bool {
        tail_supported(self.count as usize, 99)
    }
}

/// `total / ops`, zero when nothing was attempted.
pub fn per_op(total: f64, ops: f64) -> f64 {
    if ops > 0.0 {
        total / ops
    } else {
        0.0
    }
}

/// Failed ops as a share of attempted ops.
pub fn error_rate(failed: u64, attempted: u64) -> f64 {
    per_op(failed as f64, attempted as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_uses_the_storm_benches_nearest_rank() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&v, 50), 501);
        assert_eq!(percentile(&v, 99), 991);
        assert_eq!(percentile(&v, 100), 1000);
        assert_eq!(percentile(&[], 99), 0);
        assert_eq!(percentile(&[7], 99), 7);
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert!(!tail_supported(999, 99));
        assert!(tail_supported(1000, 99));
        assert!(tail_supported(20, 50));
        assert!(!tail_supported(19, 50));
        let short: Vec<u64> = (0..907).collect();
        assert!(!Latency::of(&short).p99_supported());
        let long: Vec<u64> = (0..9982).collect();
        let l = Latency::of(&long);
        assert!(l.p99_supported());
        assert_eq!(l.count, 9982);
    }

    #[test]
    fn latency_checksum_ignores_sample_order() {
        let a = Latency::of(&[5, 1, 9, 3]);
        let b = Latency::of(&[9, 3, 1, 5]);
        assert_eq!(a, b);
        assert_ne!(a, Latency::of(&[5, 1, 9, 4]));
    }

    #[test]
    fn per_op_normalisation() {
        assert_eq!(per_op(89_333.0, 9_999.0), 89_333.0 / 9_999.0);
        assert_eq!(per_op(5.0, 0.0), 0.0);
    }

    #[test]
    fn error_rate_counts_failures_against_attempts() {
        assert_eq!(error_rate(0, 9_999), 0.0);
        assert_eq!(error_rate(3, 12), 0.25);
        assert_eq!(error_rate(0, 0), 0.0);
    }
}
