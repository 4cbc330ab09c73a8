//! Measurement primitives: the latency summary behind every mean/p50/p99
//! the artifacts report, and the busy-time meter behind every link and
//! Zbox utilization (the gauges the paper's Xmesh tool displays, Fig. 27).

use serde::{Deserialize, Serialize};

use crate::time::{SimDuration, SimTime};

/// Mean, median, and p99 of a stream of durations.
///
/// The mean streams (running sum); the quantiles are the nearest-rank-below
/// rule `sorted[(n - 1) * p / 100]`, which needs the sample order, so
/// samples are kept and sorted once when the accumulator is consumed by
/// [`finish`](Self::finish). This is the one shared implementation behind
/// every latency summary — the fault-campaign resilience sweep, the
/// telemetry experiment, and the per-window latency series of the timeline
/// artifact all report exactly these numbers.
///
/// # Examples
///
/// ```
/// use alphasim_kernel::stats::MeanP50P99;
/// use alphasim_kernel::SimDuration;
///
/// let mut q = MeanP50P99::new();
/// for ns in [10.0, 20.0, 30.0] {
///     q.record(SimDuration::from_ns(ns));
/// }
/// let (mean, p50, p99) = q.finish();
/// assert_eq!(mean, SimDuration::from_ns(20.0));
/// assert_eq!(p50, SimDuration::from_ns(20.0)); // rank (3-1)*50/100 = 1
/// assert_eq!(p99, SimDuration::from_ns(20.0)); // rank (3-1)*99/100 = 1
/// ```
#[derive(Debug, Clone, Default)]
pub struct MeanP50P99 {
    samples: Vec<SimDuration>,
}

impl MeanP50P99 {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one sample.
    pub fn record(&mut self, d: SimDuration) {
        self.samples.push(d);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Consume the accumulator, returning `(mean, p50, p99)` — all
    /// [`SimDuration::ZERO`] when empty. Both quantiles follow the
    /// nearest-rank-below rule.
    pub fn finish(mut self) -> (SimDuration, SimDuration, SimDuration) {
        self.samples.sort_unstable();
        let mean = if self.samples.is_empty() {
            SimDuration::ZERO
        } else {
            self.samples.iter().copied().sum::<SimDuration>() / self.samples.len() as u64
        };
        let rank = |p: usize| {
            self.samples
                .get(self.samples.len().saturating_sub(1) * p / 100)
                .copied()
                .unwrap_or(SimDuration::ZERO)
        };
        (mean, rank(50), rank(99))
    }
}

/// Tracks busy time of a resource (a link, a Zbox) to report utilization:
/// the fraction of wall-clock simulation time the resource spent serving.
///
/// # Examples
///
/// ```
/// use alphasim_kernel::stats::UtilizationMeter;
/// use alphasim_kernel::{SimTime, SimDuration};
/// let mut m = UtilizationMeter::new();
/// m.add_busy(SimDuration::from_ns(25.0));
/// assert_eq!(m.utilization(SimTime::from_ps(100_000)), 0.25);
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct UtilizationMeter {
    busy: SimDuration,
    bytes: u64,
}

impl UtilizationMeter {
    /// A meter with no accumulated busy time.
    pub fn new() -> Self {
        Self::default()
    }

    /// Account `d` of busy (serving) time.
    pub fn add_busy(&mut self, d: SimDuration) {
        self.busy += d;
    }

    /// Account `n` bytes transferred (for bandwidth reporting).
    pub fn add_bytes(&mut self, n: u64) {
        self.bytes += n;
    }

    /// Accumulated busy time.
    pub fn busy(&self) -> SimDuration {
        self.busy
    }

    /// Bytes transferred.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Busy fraction of the interval `[0, now]`, clamped to `[0, 1]`.
    pub fn utilization(&self, now: SimTime) -> f64 {
        if now == SimTime::ZERO {
            return 0.0;
        }
        (self.busy.as_ps() as f64 / now.as_ps() as f64).min(1.0)
    }

    /// Achieved bandwidth in GB/s over `[0, now]`.
    pub fn bandwidth_gbps(&self, now: SimTime) -> f64 {
        let secs = now.as_secs();
        if secs == 0.0 {
            0.0
        } else {
            self.bytes as f64 / 1e9 / secs
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_p99_empty_is_zero() {
        let q = MeanP50P99::new();
        assert!(q.is_empty());
        let (mean, _, p99) = q.finish();
        assert_eq!((mean, p99), (SimDuration::ZERO, SimDuration::ZERO));
    }

    #[test]
    fn mean_p99_matches_sort_based_reference() {
        // The nearest-rank-below rule the resilience sweep has always used:
        // sorted[(n - 1) * 99 / 100].
        let mut q = MeanP50P99::new();
        let mut reference: Vec<SimDuration> = Vec::new();
        let mut x = 7u64;
        for _ in 0..200 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let d = SimDuration::from_ps(x % 1_000_000);
            q.record(d);
            reference.push(d);
        }
        assert_eq!(q.count(), 200);
        reference.sort_unstable();
        let want_mean = reference.iter().copied().sum::<SimDuration>() / reference.len() as u64;
        let want_p99 = reference[(reference.len() - 1) * 99 / 100];
        let (mean, _, p99) = q.finish();
        assert_eq!((mean, p99), (want_mean, want_p99));
    }

    #[test]
    fn p50_uses_the_same_rank_rule_and_leaves_p99_untouched() {
        // The median follows the p99's nearest-rank-below rule,
        // sorted[(n - 1) * p / 100], and reporting it moves neither the
        // mean nor the p99.
        let mut q = MeanP50P99::new();
        let mut reference: Vec<SimDuration> = Vec::new();
        let mut x = 99u64;
        for _ in 0..101 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let d = SimDuration::from_ps(x % 5_000_000);
            q.record(d);
            reference.push(d);
        }
        reference.sort_unstable();
        let want_mean = reference.iter().copied().sum::<SimDuration>() / reference.len() as u64;
        let rank = |p: usize| reference[(reference.len() - 1) * p / 100];
        let (mean, p50, p99) = q.finish();
        assert_eq!((mean, p99), (want_mean, rank(99)), "mean and p99 unchanged");
        assert_eq!(p50, rank(50));
        assert!(p50 <= p99, "quantiles must be monotone");
    }

    #[test]
    fn finish_full_empty_is_all_zero() {
        assert_eq!(
            MeanP50P99::new().finish(),
            (SimDuration::ZERO, SimDuration::ZERO, SimDuration::ZERO)
        );
    }

    #[test]
    fn utilization_meter_fraction_and_bandwidth() {
        let mut m = UtilizationMeter::new();
        m.add_busy(SimDuration::from_ns(30.0));
        m.add_bytes(64);
        let now = SimTime::from_ps(60_000); // 60 ns
        assert!((m.utilization(now) - 0.5).abs() < 1e-12);
        // 64 bytes in 60ns = 1.0667 GB/s
        assert!((m.bandwidth_gbps(now) - 64.0 / 60.0).abs() < 1e-9);
        assert_eq!(m.bytes(), 64);
    }

    #[test]
    fn utilization_clamped_to_one() {
        let mut m = UtilizationMeter::new();
        m.add_busy(SimDuration::from_ns(100.0));
        assert_eq!(m.utilization(SimTime::from_ps(50_000)), 1.0);
        assert_eq!(m.utilization(SimTime::ZERO), 0.0);
    }
}
