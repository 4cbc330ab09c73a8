//! Deterministic telemetry for the GS1280 reproduction.
//!
//! The paper this repository reproduces is an *attribution* study: it
//! explains where nanoseconds and GB/s go (Zbox queueing vs. router
//! arbitration vs. link serialization vs. directory hops). This crate is
//! the substrate that lets every experiment answer the same question:
//!
//! * [`Registry`] — typed counters, high-water gauges, and log2-bucketed
//!   [`Log2Histogram`]s with fixed (lexicographic) snapshot order, no
//!   hashing, and no wall clock, so snapshots are byte-identical at any
//!   worker count once per-worker registries are merged in input order.
//! * [`HopBreakdown`] / [`BreakdownTable`] — the compact span stack a
//!   message carries through the network and the aggregate per-stage
//!   latency decomposition built from it.
//! * [`TraceSink`] — a Chrome `chrome://tracing` / Perfetto-compatible
//!   event trace of message lifetimes and router occupancy.
//! * [`Timeline`] / [`Heatmap`] — the time axis and the space axis:
//!   fixed-width sim-time-windowed registries with the same commutative
//!   merge, and P×Q topology grids indexed by node, so *when* and
//!   *where* are as byte-reproducible as *how much*. A grid of busy time
//!   also renders as the paper's Xmesh percent panel and carries its §6
//!   hot-spot rule ([`HotSpotReport`]).
//!
//! Everything is plain data updated through `&mut`: the zero-cost-when-off
//! facade is an `Option<...>` at each instrumentation site, so disabled
//! telemetry is a branch on a `None` that the hot loops never take.
//! The one process-global piece of state is [`global::EVENT_QUEUE_PEAK`],
//! a relaxed high-water gauge that the kernel's epoch executors flush their
//! deepest event queue into.

#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod heatmap;
pub mod hist;
pub mod registry;
pub mod span;
pub mod timeline;
pub mod trace;

pub use heatmap::{Heatmap, HotSpotReport};
pub use hist::Log2Histogram;
pub use registry::Registry;
pub use span::{BreakdownTable, HopBreakdown};
pub use timeline::Timeline;
pub use trace::TraceSink;

/// Process-global high-water gauges.
///
/// These are observational (reporting-only) metrics that cross ownership
/// boundaries — e.g. every event queue in the process, regardless of which
/// experiment or worker thread owns it. They never feed back into
/// simulation behaviour, so their relaxed atomics cannot perturb results.
pub mod global {
    use std::sync::atomic::{AtomicU64, Ordering}; // lint-allow: shared-mutable-state

    /// A process-wide high-water-mark gauge.
    #[derive(Debug)]
    pub struct PeakGauge(AtomicU64); // lint-allow: shared-mutable-state

    impl PeakGauge {
        /// A gauge starting at zero.
        pub const fn new() -> Self {
            PeakGauge(AtomicU64::new(0)) // lint-allow: shared-mutable-state
        }

        /// Raise the gauge to at least `value`.
        pub fn record_max(&self, value: u64) {
            self.0.fetch_max(value, Ordering::Relaxed);
        }

        /// Current high-water mark.
        pub fn get(&self) -> u64 {
            self.0.load(Ordering::Relaxed)
        }

        /// Read and reset to zero (scopes a measurement to one sweep).
        pub fn take(&self) -> u64 {
            self.0.swap(0, Ordering::Relaxed)
        }
    }

    impl Default for PeakGauge {
        fn default() -> Self {
            Self::new()
        }
    }

    /// Deepest event queue observed by any epoch executor in the process
    /// since the last [`PeakGauge::take`]: the most events pending in one
    /// queue at once.
    pub static EVENT_QUEUE_PEAK: PeakGauge = PeakGauge::new();

    #[cfg(test)]
    mod tests {
        use super::PeakGauge;

        #[test]
        fn records_and_takes_high_water() {
            let g = PeakGauge::new();
            g.record_max(5);
            g.record_max(3);
            assert_eq!(g.get(), 5);
            assert_eq!(g.take(), 5);
            assert_eq!(g.get(), 0);
        }
    }
}
