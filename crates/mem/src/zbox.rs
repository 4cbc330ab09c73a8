//! The Zbox: one of the EV7's two integrated RDRAM memory controllers.

use alphasim_cache::Addr;
use alphasim_kernel::stats::UtilizationMeter;
use alphasim_kernel::{SimDuration, SimTime};
use alphasim_telemetry::{Log2Histogram, Registry};
use serde::{Deserialize, Serialize};

use crate::pages::OpenPageTable;

/// Timing and capacity parameters of one memory controller.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ZboxConfig {
    /// Peak data bandwidth of this controller in GB/s.
    pub bandwidth_gbps: f64,
    /// Active RDRAM data channels.
    pub channels: u32,
    /// Whether the optional redundant channel (paper §2: "the optional 5th
    /// channel is provided as a redundant channel") is populated, so one
    /// channel failure costs no bandwidth.
    pub redundant_channel: bool,
    /// DRAM access portion of an open-page read.
    pub open_page_latency: SimDuration,
    /// DRAM access portion of a closed-page read (row activation first).
    pub closed_page_latency: SimDuration,
    /// RDRAM page size in KiB.
    pub page_kib: u64,
    /// Open-page table capacity.
    pub open_pages: usize,
}

impl ZboxConfig {
    /// One EV7 Zbox: half the chip's 12.3 GB/s peak (4 of 8 channels), half
    /// of the 2048 open pages. The open/closed DRAM latencies are fitted so
    /// the full local load-to-use lands at the paper's ~83 ns open-page and
    /// ~130 ns closed-page (Figs. 5, 13) once the system model adds the
    /// cache-miss detection and on-chip traversal overhead.
    pub fn ev7() -> Self {
        ZboxConfig {
            bandwidth_gbps: 6.15,
            channels: 4,
            redundant_channel: true,
            open_page_latency: SimDuration::from_ns(45.0),
            closed_page_latency: SimDuration::from_ns(92.0),
            page_kib: 2,
            open_pages: 1024,
        }
    }

    /// The GS320's per-QBB memory system, expressed in the same terms: four
    /// CPUs share memory banks behind the local switch with ~1.6 GB/s of
    /// per-QBB bandwidth and far slower SDRAM-era access (fitted to Fig. 4's
    /// ~315 ns local latency and Fig. 7's sub-linear 4-CPU scaling).
    pub fn gs320_qbb() -> Self {
        ZboxConfig {
            bandwidth_gbps: 1.6,
            channels: 4,
            redundant_channel: false,
            open_page_latency: SimDuration::from_ns(180.0),
            closed_page_latency: SimDuration::from_ns(230.0),
            page_kib: 8,
            open_pages: 64,
        }
    }

    /// Bandwidth after `failed` channel failures: the redundant channel
    /// absorbs the first failure for free; further failures shed
    /// proportional bandwidth.
    ///
    /// # Panics
    ///
    /// Panics if more channels fail than exist.
    pub fn degraded_bandwidth_gbps(&self, failed: u32) -> f64 {
        assert!(
            failed <= self.channels,
            "cannot fail {failed} of {} channels",
            self.channels
        );
        let absorbed = if self.redundant_channel { 1 } else { 0 };
        let effective_failures = failed.saturating_sub(absorbed);
        self.bandwidth_gbps * f64::from(self.channels - effective_failures)
            / f64::from(self.channels)
    }

    /// The ES45's shared memory system: crossbar to SDRAM, ~4 GB/s per box,
    /// fitted to Fig. 4's ~180 ns latency and Fig. 7's 1→4 CPU bandwidth.
    pub fn es45() -> Self {
        ZboxConfig {
            bandwidth_gbps: 4.0,
            channels: 4,
            redundant_channel: false,
            open_page_latency: SimDuration::from_ns(120.0),
            closed_page_latency: SimDuration::from_ns(150.0),
            page_kib: 8,
            open_pages: 128,
        }
    }
}

/// The timing of one completed memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ZboxAccess {
    /// When the controller began serving the request (>= arrival; later if
    /// it queued behind earlier requests).
    pub started: SimTime,
    /// When the critical word was available.
    pub completed: SimTime,
    /// Whether the access hit an open RDRAM page.
    pub page_hit: bool,
}

/// One memory controller: an open-page tracker in front of a
/// bandwidth-limited server.
///
/// Requests are served in arrival order; each occupies the controller for
/// `bytes / bandwidth` and completes after the open- or closed-page DRAM
/// latency on top of its service start.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Zbox {
    config: ZboxConfig,
    pages: OpenPageTable,
    next_free: SimTime,
    meter: UtilizationMeter,
    accesses: u64,
    /// RDRAM channels failed live ([`fail_channel`](Self::fail_channel));
    /// the redundant channel absorbs the first, later failures shed
    /// bandwidth from every subsequent access.
    failed_channels: u32,
    /// Distribution of queueing delays (nanoseconds) suffered before
    /// service — the paper's Zbox-queueing contribution to load-to-use.
    queue_delay_ns: Log2Histogram,
}

impl Zbox {
    /// An idle controller.
    pub fn new(config: ZboxConfig) -> Self {
        Zbox {
            config,
            pages: OpenPageTable::new(config.page_kib, config.open_pages),
            next_free: SimTime::ZERO,
            meter: UtilizationMeter::new(),
            accesses: 0,
            failed_channels: 0,
            queue_delay_ns: Log2Histogram::new(),
        }
    }

    /// This controller's configuration.
    pub fn config(&self) -> &ZboxConfig {
        &self.config
    }

    /// Fail one RDRAM channel in place; subsequent accesses run at
    /// [`effective_bandwidth_gbps`](Self::effective_bandwidth_gbps).
    ///
    /// # Panics
    ///
    /// Panics if every channel has already failed.
    pub fn fail_channel(&mut self) {
        assert!(
            self.failed_channels < self.config.channels,
            "all {} channels already failed",
            self.config.channels
        );
        self.failed_channels += 1;
    }

    /// Repair one failed channel.
    ///
    /// # Panics
    ///
    /// Panics if no channel is failed.
    pub fn restore_channel(&mut self) {
        assert!(self.failed_channels > 0, "no failed channel to restore");
        self.failed_channels -= 1;
    }

    /// Bandwidth the controller can deliver right now, after sparing.
    pub fn effective_bandwidth_gbps(&self) -> f64 {
        self.config.degraded_bandwidth_gbps(self.failed_channels)
    }

    /// Serve a `bytes`-sized access to `addr` arriving at `now`.
    #[inline]
    pub fn access(&mut self, now: SimTime, addr: Addr, bytes: u64) -> ZboxAccess {
        let page = self.pages.page_of(addr.get());
        let page_hit = self.pages.touch(page);
        let dram = if page_hit {
            self.config.open_page_latency
        } else {
            self.config.closed_page_latency
        };
        let occupancy = SimDuration::transfer_time(bytes, self.effective_bandwidth_gbps());
        let started = now.max(self.next_free);
        self.next_free = started + occupancy;
        self.meter.add_busy(occupancy);
        self.meter.add_bytes(bytes);
        self.accesses += 1;
        self.queue_delay_ns
            .record(started.since(now).as_ps() / 1_000);
        ZboxAccess {
            started,
            completed: started + dram,
            page_hit,
        }
    }

    /// When the controller next becomes idle.
    pub fn next_free(&self) -> SimTime {
        self.next_free
    }

    /// Fraction of `[0, now]` spent transferring data.
    pub fn utilization(&self, now: SimTime) -> f64 {
        self.meter.utilization(now)
    }

    /// Cumulative busy (data-transfer) time, for interval sampling.
    pub fn busy_time(&self) -> SimDuration {
        self.meter.busy()
    }

    /// Total accesses served.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Export this controller's counters into a telemetry registry under
    /// the `zbox.` namespace. Counters add and histograms merge, so calling
    /// this for every Zbox of a machine aggregates them deterministically.
    pub fn export_metrics(&self, registry: &mut Registry) {
        registry.counter_add("zbox.accesses", self.accesses);
        registry.counter_add("zbox.page_hits", self.pages.hits());
        registry.counter_add("zbox.page_misses", self.pages.misses());
        registry.counter_add("zbox.failed_channels", u64::from(self.failed_channels));
        registry
            .histogram_mut("zbox.queue_delay_ns")
            .merge(&self.queue_delay_ns);
    }

    /// Reset counters and close all pages, keeping the configuration.
    pub fn reset(&mut self) {
        *self = Zbox::new(self.config);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: f64) -> SimTime {
        SimTime::ZERO + SimDuration::from_ns(ns)
    }

    #[test]
    fn open_page_is_faster_than_closed() {
        let mut z = Zbox::new(ZboxConfig::ev7());
        let miss = z.access(SimTime::ZERO, Addr::new(0), 64);
        let hit = z.access(miss.completed, Addr::new(64), 64);
        assert!(!miss.page_hit);
        assert!(hit.page_hit);
        let miss_lat = miss.completed.since(SimTime::ZERO);
        let hit_lat = hit.completed.since(miss.completed);
        assert!(hit_lat < miss_lat, "page hit must be faster");
        assert_eq!(
            miss_lat.as_ns() - hit_lat.as_ns(),
            (ZboxConfig::ev7().closed_page_latency - ZboxConfig::ev7().open_page_latency).as_ns()
        );
    }

    #[test]
    fn every_preset_builds_its_page_table() {
        for config in [
            ZboxConfig::ev7(),
            ZboxConfig::gs320_qbb(),
            ZboxConfig::es45(),
        ] {
            let z = Zbox::new(config);
            assert_eq!(z.pages.bank_count(), config.open_pages);
            assert_eq!(z.pages.page_of(config.page_kib * 1024), 1);
        }
    }

    #[test]
    fn back_to_back_requests_queue() {
        let mut z = Zbox::new(ZboxConfig::ev7());
        let a = z.access(SimTime::ZERO, Addr::new(0), 64);
        let b = z.access(SimTime::ZERO, Addr::new(64), 64);
        assert_eq!(a.started, SimTime::ZERO);
        // 64B at 6.15 GB/s occupies ~10.4 ns.
        assert!((b.started.since(SimTime::ZERO).as_ns() - 10.407).abs() < 0.01);
        // b hits the page a opened, so despite queueing behind a it may
        // complete earlier; its *start* is what the queue delays.
        assert!(b.started > a.started);
        assert!(a.completed > b.started);
    }

    #[test]
    fn idle_gap_resets_queueing() {
        let mut z = Zbox::new(ZboxConfig::ev7());
        z.access(SimTime::ZERO, Addr::new(0), 64);
        let later = z.access(t(1000.0), Addr::new(64), 64);
        assert_eq!(later.started, t(1000.0));
    }

    #[test]
    fn utilization_and_bandwidth_accounting() {
        let mut z = Zbox::new(ZboxConfig::ev7());
        let mut now = SimTime::ZERO;
        for i in 0..100u64 {
            let acc = z.access(now, Addr::new(i * 64), 64);
            now = acc.started + SimDuration::transfer_time(64, 6.15);
        }
        // Saturated: utilization ~1, bandwidth ~peak.
        assert!(z.utilization(now) > 0.99);
        assert!((z.meter.bandwidth_gbps(now) - 6.15).abs() < 0.1);
        assert_eq!(z.accesses(), 100);
    }

    #[test]
    fn sequential_stream_mostly_page_hits() {
        let mut z = Zbox::new(ZboxConfig::ev7());
        let mut now = SimTime::ZERO;
        let mut hits = 0;
        for i in 0..1024u64 {
            let acc = z.access(now, Addr::new(i * 64), 64);
            now = acc.completed;
            hits += usize::from(acc.page_hit);
        }
        // 2 KiB pages, 64 B lines: 31/32 hits.
        assert_eq!(hits, 1024 / 32 * 31);
    }

    #[test]
    fn strided_stream_never_page_hits() {
        let mut z = Zbox::new(ZboxConfig::ev7());
        let stride = 16 * 1024u64;
        let mut now = SimTime::ZERO;
        let span = 1024 * stride * 4; // cycle over 4x the open-page reach
        let mut hits = 0;
        for i in 0..4096u64 {
            let acc = z.access(now, Addr::new((i * stride) % span), 64);
            now = acc.completed;
            hits += usize::from(acc.page_hit);
        }
        assert_eq!(hits, 0);
    }

    #[test]
    fn reset_clears_state() {
        let mut z = Zbox::new(ZboxConfig::ev7());
        z.access(SimTime::ZERO, Addr::new(0), 64);
        z.reset();
        assert_eq!(z.accesses(), 0);
        assert_eq!(z.next_free(), SimTime::ZERO);
        assert_eq!(z.queue_delay_ns.count(), 0);
    }

    #[test]
    fn queue_delay_histogram_and_metric_export() {
        let mut z = Zbox::new(ZboxConfig::ev7());
        // First access starts immediately (0 ns queue); the second queues
        // behind it for the 64 B occupancy (~10.4 ns → log2 bucket [8, 15]).
        let a = z.access(SimTime::ZERO, Addr::new(0), 64);
        let b = z.access(SimTime::ZERO, Addr::new(64), 64);
        assert_eq!(a.started, SimTime::ZERO);
        assert!(b.started > SimTime::ZERO);
        let h = &z.queue_delay_ns;
        assert_eq!(h.count(), 2);
        assert_eq!(h.bucket(0), 1, "one zero-delay access");
        let mut reg = alphasim_telemetry::Registry::new();
        z.export_metrics(&mut reg);
        assert_eq!(reg.counter("zbox.accesses"), 2);
        assert_eq!(
            reg.counter("zbox.page_hits") + reg.counter("zbox.page_misses"),
            2
        );
        let exported = reg.histogram("zbox.queue_delay_ns").expect("merged");
        assert_eq!(exported.count(), 2);
    }

    #[test]
    fn gs320_is_slower_and_narrower_than_ev7() {
        let ev7 = ZboxConfig::ev7();
        let gs320 = ZboxConfig::gs320_qbb();
        assert!(gs320.bandwidth_gbps < ev7.bandwidth_gbps / 3.0);
        assert!(gs320.open_page_latency > ev7.open_page_latency * 3);
    }
}

#[cfg(test)]
mod channel_tests {
    use super::*;

    #[test]
    fn redundant_channel_absorbs_first_failure() {
        let ev7 = ZboxConfig::ev7();
        assert_eq!(ev7.degraded_bandwidth_gbps(0), ev7.bandwidth_gbps);
        // Paper §2: the 5th channel is redundant — one failure is free.
        assert_eq!(ev7.degraded_bandwidth_gbps(1), ev7.bandwidth_gbps);
        // A second failure sheds a channel's worth.
        let two = ev7.degraded_bandwidth_gbps(2);
        assert!((two - ev7.bandwidth_gbps * 3.0 / 4.0).abs() < 1e-9);
    }

    #[test]
    fn unprotected_controllers_lose_bandwidth_immediately() {
        let gs320 = ZboxConfig::gs320_qbb();
        let one = gs320.degraded_bandwidth_gbps(1);
        assert!((one - gs320.bandwidth_gbps * 3.0 / 4.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "cannot fail")]
    fn rejects_impossible_failures() {
        let _ = ZboxConfig::ev7().degraded_bandwidth_gbps(9);
    }

    #[test]
    fn live_channel_failure_slows_later_accesses_only() {
        let mut z = Zbox::new(ZboxConfig::ev7());
        let healthy = z.access(SimTime::ZERO, Addr::new(0), 4096);
        let healthy_occ = z.next_free().since(healthy.started);
        // First live failure: spared by the redundant channel, no slowdown.
        z.fail_channel();
        assert_eq!(z.effective_bandwidth_gbps(), z.config().bandwidth_gbps);
        // Second failure sheds real bandwidth: same access occupies longer.
        z.fail_channel();
        let wounded_start = z.next_free();
        let wounded = z.access(wounded_start, Addr::new(0), 4096);
        let wounded_occ = z.next_free().since(wounded.started);
        assert!(
            wounded_occ > healthy_occ,
            "degraded transfer must be slower: {healthy_occ} vs {wounded_occ}"
        );
        // Repairing both channels restores the peak.
        z.restore_channel();
        z.restore_channel();
        assert_eq!(z.effective_bandwidth_gbps(), z.config().bandwidth_gbps);
    }

    #[test]
    #[should_panic(expected = "already failed")]
    fn cannot_fail_more_channels_than_exist() {
        let mut z = Zbox::new(ZboxConfig::ev7());
        for _ in 0..5 {
            z.fail_channel();
        }
    }
}
