//! Log-scale latency histogram.

/// Number of log₂ buckets: one per possible bit length of a `u64` sample,
/// plus bucket 0 for the value zero.
pub(crate) const BUCKETS: usize = 64;

/// A latency histogram with logarithmic (power-of-two) buckets over
/// nanosecond samples.
///
/// Bucket `i` (for `i > 0`) holds samples whose value lies in
/// `[2^(i-1), 2^i)`; bucket `0` holds exact zeros. This gives ~2× relative
/// resolution over the full `u64` range with a fixed 64-slot footprint and
/// no allocation on the recording path — GC pauses spanning five orders of
/// magnitude (microseconds to hundreds of milliseconds) stay legible.
///
/// # Example
///
/// ```
/// use gca_telemetry::LatencyHistogram;
///
/// let mut h = LatencyHistogram::new();
/// h.record_ns(700);   // bucket 10: [512, 1024)
/// h.record_ns(900);   // bucket 10
/// h.record_ns(5_000); // bucket 13: [4096, 8192)
/// assert_eq!(h.count(), 3);
/// assert_eq!(h.mean_ns(), 2_200);
/// assert_eq!(h.quantile_ns(50), 1_023); // upper bound of bucket 10
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    counts: [u64; BUCKETS],
    count: u64,
    sum_ns: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            counts: [0; BUCKETS],
            count: 0,
            sum_ns: 0,
        }
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> LatencyHistogram {
        LatencyHistogram::default()
    }

    /// The bucket index a nanosecond sample falls into (the sample's bit
    /// length, clamped so the final bucket absorbs the top of the range).
    pub(crate) fn bucket_index(ns: u64) -> usize {
        ((64 - ns.leading_zeros()) as usize).min(BUCKETS - 1)
    }

    /// The inclusive upper bound of bucket `i` (`2^i - 1`; the final
    /// bucket saturates to `u64::MAX`).
    pub(crate) fn bucket_upper_bound(i: usize) -> u64 {
        if i >= BUCKETS - 1 {
            u64::MAX
        } else {
            (1u64 << i) - 1
        }
    }

    /// Records one nanosecond sample.
    pub fn record_ns(&mut self, ns: u64) {
        self.counts[Self::bucket_index(ns)] += 1;
        self.count += 1;
        self.sum_ns = self.sum_ns.saturating_add(ns);
    }

    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded samples in nanoseconds (saturating).
    pub(crate) fn sum_ns(&self) -> u64 {
        self.sum_ns
    }

    /// `true` if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The per-bucket sample counts (index = bit length of the sample).
    pub(crate) fn bucket_counts(&self) -> &[u64; BUCKETS] {
        &self.counts
    }

    /// Index of the highest non-empty bucket, or `None` when empty.
    pub(crate) fn max_bucket(&self) -> Option<usize> {
        self.counts.iter().rposition(|&c| c > 0)
    }

    /// Mean sample in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> u64 {
        self.sum_ns.checked_div(self.count).unwrap_or(0)
    }

    /// Upper bound (in nanoseconds) of the bucket holding the requested
    /// quantile, with the quantile given as an integer percentage
    /// (`50` = p50, `99` = p99, clamped to 1..=100). Returns 0 when the
    /// histogram is empty.
    ///
    /// Because buckets are log₂-sized the answer is the quantile rounded
    /// *up* to its bucket boundary — a conservative (never understated)
    /// figure, which is the right direction for SLO reporting.
    pub fn quantile_ns(&self, percent: u64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let percent = percent.clamp(1, 100);
        // Rank of the quantile sample, 1-based, rounded up.
        let rank = (self.count * percent).div_ceil(100).max(1);
        let mut cumulative = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cumulative += c;
            if cumulative >= rank {
                return Self::bucket_upper_bound(i);
            }
        }
        Self::bucket_upper_bound(BUCKETS - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_goes_to_bucket_zero() {
        let mut h = LatencyHistogram::new();
        h.record_ns(0);
        assert_eq!(h.bucket_counts()[0], 1);
        assert_eq!(h.count(), 1);
        assert_eq!(h.sum_ns(), 0);
        assert_eq!(h.max_bucket(), Some(0));
    }

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(LatencyHistogram::bucket_index(1), 1);
        assert_eq!(LatencyHistogram::bucket_index(2), 2);
        assert_eq!(LatencyHistogram::bucket_index(3), 2);
        assert_eq!(LatencyHistogram::bucket_index(4), 3);
        assert_eq!(LatencyHistogram::bucket_index(1023), 10);
        assert_eq!(LatencyHistogram::bucket_index(1024), 11);
        assert_eq!(LatencyHistogram::bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn extreme_sample_lands_in_last_bucket() {
        let mut h = LatencyHistogram::new();
        h.record_ns(u64::MAX);
        assert_eq!(h.count(), 1);
        assert_eq!(h.max_bucket(), Some(BUCKETS - 1));
        assert_eq!(h.sum_ns(), u64::MAX);
        h.record_ns(u64::MAX); // sum saturates instead of wrapping
        assert_eq!(h.sum_ns(), u64::MAX);
    }

    #[test]
    fn upper_bounds() {
        assert_eq!(LatencyHistogram::bucket_upper_bound(0), 0);
        assert_eq!(LatencyHistogram::bucket_upper_bound(10), 1023);
        assert_eq!(LatencyHistogram::bucket_upper_bound(63), u64::MAX);
        assert_eq!(LatencyHistogram::bucket_upper_bound(64), u64::MAX);
    }

    #[test]
    fn quantiles_round_up_to_bucket_bounds() {
        let mut h = LatencyHistogram::new();
        assert_eq!(h.quantile_ns(50), 0, "empty histogram");
        for _ in 0..90 {
            h.record_ns(700); // bucket 10: [512, 1024)
        }
        for _ in 0..10 {
            h.record_ns(5_000); // bucket 13: [4096, 8192)
        }
        assert_eq!(h.quantile_ns(50), 1023);
        assert_eq!(h.quantile_ns(90), 1023);
        assert_eq!(h.quantile_ns(99), 8191);
        assert_eq!(h.quantile_ns(100), 8191);
        // Out-of-range quantiles clamp instead of panicking.
        assert_eq!(h.quantile_ns(0), 1023);
        assert_eq!(h.quantile_ns(700), 8191);
    }

    #[test]
    fn mean_and_empty() {
        let mut h = LatencyHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.mean_ns(), 0);
        h.record_ns(10);
        h.record_ns(30);
        assert_eq!(h.mean_ns(), 20);
        assert!(!h.is_empty());
    }
}
