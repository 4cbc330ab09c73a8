//! The paper's load test (§4, Fig. 15): every CPU keeps a fixed number of
//! outstanding read requests to randomly selected other CPUs, and we measure
//! delivered bandwidth against observed latency as the window grows.
//!
//! The same closed loop drives the shuffle experiment (Fig. 18), the GUPS
//! throughput study (Figs. 23–24) and the hot-spot striping experiment
//! (Figs. 26–27): they differ only in traffic pattern and window size.
//!
//! [`LoadTest`] is a fault-free [`FaultCampaign`] run without retry
//! machinery: one closed-loop worker (`crate::epoch`) serves both, stepped
//! by the kernel's epoch executor. The Xmesh sampler strikes at epoch
//! barriers.

use alphasim_kernel::{SimDuration, SimTime};
use alphasim_telemetry::Heatmap;
use alphasim_topology::route::RoutePolicy;
use alphasim_topology::{NodeId, Topology};
use serde::{Deserialize, Serialize};

use crate::faulty::{Drive, FaultCampaign, FaultCampaignConfig};
use crate::obs::{link_busy_grid, zbox_grid};

/// How CPUs pick the home of each request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TrafficPattern {
    /// Each request goes to a uniformly random *other* CPU (the paper's
    /// load test and GUPS).
    UniformRemote,
    /// All CPUs read from one CPU's memory (Fig. 26's hot spot).
    HotSpot(usize),
    /// Hot-spot traffic with memory striping: requests alternate between
    /// the hot CPU and its module partner (§6).
    StripedHotSpot(usize, usize),
    /// Every CPU reads from its mirror across the vertical bisection of the
    /// torus, so all traffic crosses the bisection — the pattern behind the
    /// resilience sweep's achieved-bisection-bandwidth curve.
    Bisection,
}

/// Parameters of one load-test run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LoadTestConfig {
    /// Outstanding requests per CPU (the paper sweeps 1..=30).
    pub outstanding: usize,
    /// Requests each CPU completes before the run ends.
    pub requests_per_cpu: usize,
    /// Traffic pattern.
    pub pattern: TrafficPattern,
    /// RNG seed (runs are deterministic given a seed).
    pub seed: u64,
    /// If set, capture an Xmesh-style utilization sample every this many
    /// nanoseconds of simulated time (interval utilizations, like the
    /// paper's strip charts).
    pub sample_interval_ns: Option<f64>,
}

impl Default for LoadTestConfig {
    fn default() -> Self {
        LoadTestConfig {
            outstanding: 1,
            requests_per_cpu: 200,
            pattern: TrafficPattern::UniformRemote,
            seed: 0x6A1280,
            sample_interval_ns: None,
        }
    }
}

/// One Xmesh-style sample captured mid-run: interval utilizations over the
/// preceding sampling window.
#[derive(Debug, Clone, PartialEq)]
pub struct UtilSample {
    /// Sample time, ns.
    pub at_ns: f64,
    /// Per-CPU Zbox interval utilization.
    pub zbox: Vec<f64>,
    /// Mean East–West link interval utilization.
    pub east_west: f64,
    /// Mean North–South link interval utilization.
    pub north_south: f64,
}

/// The outcome of one load-test run.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadTestResult {
    /// Mean end-to-end read latency (request injection to data return,
    /// including the front-end overhead).
    pub mean_latency: SimDuration,
    /// Aggregate delivered read bandwidth, GB/s (64 B per completed read).
    pub delivered_gbps: f64,
    /// Completed reads.
    pub completed: u64,
    /// Span of the run: the later of the last event handled and the last
    /// link release.
    pub elapsed: SimDuration,
    /// Zbox busy picoseconds per node (nonzero only at memory sites), on
    /// the fabric's P×Q grid — what Xmesh's Zbox panel shows (Fig. 27)
    /// as a share of [`elapsed`](Self::elapsed).
    pub zbox_busy: Heatmap,
    /// Busy picoseconds of each node's live outgoing links, summed onto
    /// the sending node, on the same grid — Xmesh's IP-link panel.
    pub link_busy: Heatmap,
    /// Mid-run Xmesh samples (empty unless
    /// [`LoadTestConfig::sample_interval_ns`] was set).
    pub samples: Vec<UtilSample>,
}

/// A machine prepared for load testing: a fabric plus the memory sites
/// behind it. `T` names the topology the fabric was built from.
pub struct LoadTest<T: Topology> {
    /// The same machine, as a fault campaign with no faults to strike.
    campaign: FaultCampaign<T>,
}

impl<T: Topology> From<FaultCampaign<T>> for LoadTest<T> {
    /// Load-test the closed loop a campaign was assembled over.
    fn from(campaign: FaultCampaign<T>) -> Self {
        LoadTest { campaign }
    }
}

impl<T: Topology> LoadTest<T> {
    /// Run the closed loop to completion.
    ///
    /// # Panics
    ///
    /// Panics before the run if `cfg.pattern` names a CPU the machine does
    /// not have.
    pub fn run(self, cfg: &LoadTestConfig) -> LoadTestResult {
        let loop_cfg = FaultCampaignConfig {
            outstanding: cfg.outstanding,
            requests_per_cpu: cfg.requests_per_cpu,
            pattern: cfg.pattern,
            seed: cfg.seed,
            ..FaultCampaignConfig::default()
        };
        let drive = Drive {
            retry_free: true,
            sample_every: cfg.sample_interval_ns.map(SimDuration::from_ns),
            ..Drive::default()
        };
        let (worker, ..) = self.campaign.launch(&loop_cfg, drive);
        // The run ends at its last event or its last link release,
        // whichever is later.
        let last = worker
            .last_event
            .max(worker.net.latest_release().unwrap_or(SimTime::ZERO));
        let elapsed = last.since(SimTime::ZERO);
        let (completed, total_latency) = (worker.completed, worker.total_latency);
        let delivered_gbps = if elapsed > SimDuration::ZERO {
            completed as f64 * 64.0 / elapsed.as_secs() / 1e9
        } else {
            0.0
        };
        LoadTestResult {
            mean_latency: total_latency / completed.max(1),
            delivered_gbps,
            completed,
            elapsed,
            zbox_busy: zbox_grid(&worker, |z| z.busy_time().as_ps()),
            link_busy: link_busy_grid(&worker),
            samples: worker.sampler.map(|s| s.samples).unwrap_or_default(),
        }
    }
}

/// Convenience: a load test over a GS1280 (the closed loop of
/// [`gs1280_fault_campaign`](crate::gs1280_fault_campaign)).
pub fn gs1280_load_test(machine: &crate::Gs1280) -> LoadTest<crate::gs1280::FabricTopo> {
    crate::gs1280_fault_campaign(machine).into()
}

/// Convenience: a load test over a GS320, each CPU's memory behind its
/// QBB's switch.
pub fn gs320_load_test(machine: &crate::Gs320) -> LoadTest<alphasim_topology::QbbTree> {
    let calib = machine.calibration();
    let sites = (0..machine.cpus())
        .map(|c| machine.memory_site(NodeId::new(c)))
        .collect();
    FaultCampaign::new(
        machine.topology(),
        calib.timing,
        RoutePolicy::Minimal,
        sites,
        calib.zbox,
        calib.local_fixed,
        calib.remote_fixed,
    )
    .into()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Gs1280, Gs320};

    fn run16(outstanding: usize) -> LoadTestResult {
        let m = Gs1280::builder().cpus(16).build();
        gs1280_load_test(&m).run(&LoadTestConfig {
            outstanding,
            requests_per_cpu: 100,
            ..Default::default()
        })
    }

    #[test]
    fn all_requests_complete() {
        let r = run16(4);
        assert_eq!(r.completed, 16 * 100);
        assert!(r.elapsed > SimDuration::ZERO);
    }

    #[test]
    fn single_outstanding_latency_is_near_unloaded_average() {
        let r = run16(1);
        // Unloaded random-pair average on 16P is ~190 ns (Fig. 12); the
        // event-driven path adds serialization and closed-page penalties, so
        // accept a generous band.
        let ns = r.mean_latency.as_ns();
        assert!((150.0..320.0).contains(&ns), "latency {ns}");
    }

    #[test]
    fn bandwidth_grows_with_window_then_latency_rises() {
        let light = run16(1);
        let heavy = run16(16);
        assert!(heavy.delivered_gbps > light.delivered_gbps * 3.0);
        assert!(heavy.mean_latency > light.mean_latency);
    }

    #[test]
    fn gs320_saturates_far_below_gs1280() {
        let g = Gs320::new(16);
        let r320 = gs320_load_test(&g).run(&LoadTestConfig {
            outstanding: 8,
            requests_per_cpu: 60,
            ..Default::default()
        });
        let r1280 = run16(8);
        assert!(
            r1280.delivered_gbps > 4.0 * r320.delivered_gbps,
            "GS1280 {} vs GS320 {}",
            r1280.delivered_gbps,
            r320.delivered_gbps
        );
        assert!(r320.mean_latency > r1280.mean_latency * 2);
    }

    #[test]
    fn hot_spot_saturates_one_node() {
        let m = Gs1280::builder().cpus(16).build();
        let r = gs1280_load_test(&m).run(&LoadTestConfig {
            outstanding: 8,
            requests_per_cpu: 60,
            pattern: TrafficPattern::HotSpot(0),
            ..Default::default()
        });
        let hot = r.zbox_busy.cell(0) as f64 / r.elapsed.as_ps() as f64;
        assert!(hot > 0.3, "hot node util {hot}");
        assert_eq!(
            r.zbox_busy.total(),
            r.zbox_busy.cell(0),
            "only node 0 serves memory"
        );
        assert_eq!(r.zbox_busy.hot_spots(r.elapsed.as_ps()).hot_nodes, vec![0]);
    }

    #[test]
    #[should_panic(
        expected = "traffic pattern HotSpot(16) names CPU 16, but the machine has 16 CPUs"
    )]
    fn a_hot_spot_beyond_the_machine_is_rejected_before_the_run() {
        let m = Gs1280::builder().cpus(16).build();
        gs1280_load_test(&m).run(&LoadTestConfig {
            pattern: TrafficPattern::HotSpot(16),
            ..Default::default()
        });
    }

    #[test]
    fn striped_hot_spot_outperforms_plain_hot_spot() {
        // Fig. 26: striping spreads a hot spot over two CPUs.
        let m = Gs1280::builder().cpus(16).build();
        let plain = gs1280_load_test(&m).run(&LoadTestConfig {
            outstanding: 12,
            requests_per_cpu: 60,
            pattern: TrafficPattern::HotSpot(0),
            ..Default::default()
        });
        let striped = gs1280_load_test(&m).run(&LoadTestConfig {
            outstanding: 12,
            requests_per_cpu: 60,
            pattern: TrafficPattern::StripedHotSpot(0, 4),
            ..Default::default()
        });
        assert!(
            striped.delivered_gbps > plain.delivered_gbps * 1.2,
            "striped {} plain {}",
            striped.delivered_gbps,
            plain.delivered_gbps
        );
        assert!(striped.mean_latency < plain.mean_latency);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run16(4);
        let b = run16(4);
        assert_eq!(a.mean_latency, b.mean_latency);
        assert_eq!(a.delivered_gbps, b.delivered_gbps);
    }

    #[test]
    fn the_load_test_is_a_fault_free_campaign() {
        // The retry-free load test and a healthy campaign whose timeout
        // never fires schedule the same fabric events, so they complete
        // the same reads at the same mean latency to the picosecond. Only
        // the end of the run differs: the load test ends at the later of
        // its last event and its last link release, the campaign at its
        // last delivery.
        let m = Gs1280::builder().cpus(16).build();
        let second = SimDuration::from_us(1e6);
        for outstanding in [1, 8, 30] {
            let load = gs1280_load_test(&m).run(&LoadTestConfig {
                outstanding,
                requests_per_cpu: 100,
                ..Default::default()
            });
            let campaign = crate::gs1280_fault_campaign(&m).run(&FaultCampaignConfig {
                outstanding,
                requests_per_cpu: 100,
                seed: LoadTestConfig::default().seed,
                retry: alphasim_coherence::RetryPolicy {
                    timeout: second,
                    ..alphasim_coherence::RetryPolicy::gs1280_default()
                },
                watchdog_window: second * 2,
                ..Default::default()
            });
            assert_eq!(campaign.retries, 0, "window {outstanding}");
            assert_eq!(load.completed, campaign.completed, "window {outstanding}");
            assert_eq!(
                load.mean_latency, campaign.mean_latency,
                "window {outstanding}"
            );
            assert!(
                load.elapsed >= campaign.elapsed,
                "window {outstanding}: {} < {}",
                load.elapsed,
                campaign.elapsed
            );
        }
    }

    #[test]
    fn reads_reuse_their_packets_and_spares_stay_within_the_windows() {
        // Each completed read leaves its packet to the next request. After
        // a run the worker holds exactly the packets the priming
        // allocated, one per window slot: no read allocated another.
        let m = Gs1280::builder().cpus(16).build();
        let window = 6;
        let cfg = FaultCampaignConfig {
            outstanding: window,
            requests_per_cpu: 80,
            ..Default::default()
        };
        let drive = Drive {
            retry_free: true,
            ..Drive::default()
        };
        let (worker, ..) = gs1280_load_test(&m).campaign.launch(&cfg, drive);
        assert_eq!(worker.spare.len(), 16 * window);
    }
}

#[cfg(test)]
mod sampling_tests {
    use super::*;
    use crate::Gs1280;

    #[test]
    fn sampler_produces_periodic_interval_utilizations() {
        let m = Gs1280::builder().cpus(16).build();
        let r = gs1280_load_test(&m).run(&LoadTestConfig {
            outstanding: 8,
            requests_per_cpu: 150,
            sample_interval_ns: Some(1_000.0),
            ..Default::default()
        });
        assert!(r.samples.len() >= 3, "{} samples", r.samples.len());
        for (i, s) in r.samples.iter().enumerate() {
            assert_eq!(s.zbox.len(), 16);
            assert!((s.at_ns - 1_000.0 * (i + 1) as f64).abs() < 1e-6);
            for &u in &s.zbox {
                assert!((0.0..=1.0).contains(&u));
            }
            assert!((0.0..=1.0).contains(&s.east_west));
            assert!((0.0..=1.0).contains(&s.north_south));
        }
        // Under sustained uniform load the mid-run samples show traffic.
        let mid = &r.samples[r.samples.len() / 2];
        assert!(
            mid.east_west + mid.north_south > 0.01,
            "links idle mid-run: {mid:?}"
        );
    }

    #[test]
    fn no_sampling_by_default() {
        let m = Gs1280::builder().cpus(8).build();
        let r = gs1280_load_test(&m).run(&LoadTestConfig {
            outstanding: 2,
            requests_per_cpu: 20,
            ..Default::default()
        });
        assert!(r.samples.is_empty());
    }
}
