//! The paper's load test (§4, Fig. 15): every CPU keeps a fixed number of
//! outstanding read requests to randomly selected other CPUs, and we measure
//! delivered bandwidth against observed latency as the window grows.
//!
//! The same closed-loop engine drives the shuffle experiment (Fig. 18), the
//! GUPS throughput study (Figs. 23–24) and the hot-spot striping experiment
//! (Figs. 26–27): they differ only in traffic pattern and window size.
//!
//! It runs on the one fabric engine every loaded experiment shares: the
//! loop is partitioned by torus row band into region workers — each owns
//! its [`RegionNet`] slice, the Zboxes of the memory sites in its region,
//! and the RNG streams and issue counters of its CPUs — stepped by the
//! kernel's [`EpochExecutor`]. Each read's issue time rides its packets,
//! and simultaneous events order by `(time, tb_*)` tiebreaks derived from
//! simulation identities, so a run is byte-identical at any region and
//! thread count; one region is an ordinary sequential run. The Xmesh
//! sampler strikes at epoch barriers.
//!
//! The worker/guide state partition here is statically checked by the
//! `verify::ownership` pass, like the fault-campaign engine's.

use std::marker::PhantomData;
use std::sync::Arc;

use alphasim_cache::Addr;
use alphasim_kernel::shard::{
    BarrierVerdict, EpochControl, EpochExecutor, EpochGuide, Outbox, ShardWorker,
};
use alphasim_kernel::{DetRng, SimDuration, SimTime};
use alphasim_mem::{Zbox, ZboxConfig};
use alphasim_net::partition::{
    tb_arrive, tb_inject, FabricEvent, FabricLinks, FabricTables, Packet, RegionNet,
};
use alphasim_net::{LinkTiming, MessageClass};
use alphasim_telemetry::Heatmap;
use alphasim_topology::route::RoutePolicy;
use alphasim_topology::{NodeId, Topology};
use serde::{Deserialize, Serialize};

use crate::obs::{link_grid, node_grid};

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
    /// Wall-clock span of the run.
    pub elapsed: SimDuration,
    /// Mean utilization of horizontal (East–West) torus links.
    pub horizontal_util: f64,
    /// Mean utilization of vertical (North–South) torus links.
    pub vertical_util: f64,
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

/// Immutable load-test parameters shared by every worker (and the guide).
struct LoadParams {
    cfg: LoadTestConfig,
    /// CPU endpoints, indexed by CPU number.
    cpus: Vec<NodeId>,
    /// Memory site of each CPU's memory, indexed by the CPU's node id.
    site_of_cpu: Vec<NodeId>,
    front_overhead: SimDuration,
    directory_overhead: SimDuration,
}

/// The load test's event vocabulary; tiebreaks come from the `tb_*`
/// constructors, all derived from simulation identities.
enum LoadEv {
    /// A packet lands on `node` (a request carries its issue time as the
    /// payload, and its response carries it back).
    Arrive {
        node: NodeId,
        pkt: Box<Packet<SimTime>>,
    },
    /// An owned link's channel frees up.
    LinkFree { link: usize },
    /// Prime `cpu`'s issue window at time zero.
    Inject { cpu: usize },
}

impl FabricEvent<SimTime> for LoadEv {
    fn arrive(node: NodeId, pkt: Box<Packet<SimTime>>) -> Self {
        LoadEv::Arrive { node, pkt }
    }

    fn link_free(link: usize) -> Self {
        LoadEv::LinkFree { link }
    }
}

/// One region's slice of the load test: its fabric slice, the memory
/// controllers of the sites it owns, and the RNG, issue counter and
/// latency tally of its CPUs. Every piece of per-event state is owned by
/// exactly one region, so the run is byte-identical at any region count.
struct LoadWorker {
    params: Arc<LoadParams>,
    net: RegionNet<SimTime>,
    /// Memory controllers indexed by node id (`Some` for owned sites).
    zboxes: Vec<Option<Zbox>>,
    /// Per-CPU RNG streams; only owned CPUs ever advance.
    rngs: Vec<DetRng>,
    /// Per-CPU issue counters (only owned CPUs are nonzero).
    issued: Vec<u64>,
    /// Sum of end-to-end latencies of the reads completed here.
    total_latency: SimDuration,
    /// Reads completed here.
    completed: u64,
    /// Time of the last event this region handled.
    now: SimTime,
}

impl ShardWorker for LoadWorker {
    type Event = LoadEv;

    fn handle(&mut self, at: SimTime, ev: LoadEv, out: &mut Outbox<LoadEv>) {
        self.now = at;
        match ev {
            LoadEv::Arrive { node, pkt } => {
                if let Some(pkt) = self.net.handle_arrive(at, node, pkt, out) {
                    self.deliver(at, *pkt, out);
                }
            }
            LoadEv::LinkFree { link } => self.net.handle_link_free(at, link, out),
            LoadEv::Inject { cpu } => {
                let cfg = &self.params.cfg;
                for _ in 0..cfg.outstanding.min(cfg.requests_per_cpu) {
                    self.inject(at, cpu, out);
                }
            }
        }
    }
}

impl LoadWorker {
    /// A request reached its home: directory, then memory, then the
    /// response. A response reached its CPU: tally the read and refill
    /// the window.
    fn deliver(&mut self, at: SimTime, pkt: Packet<SimTime>, out: &mut Outbox<LoadEv>) {
        match pkt.class {
            MessageClass::Request => {
                let home = pkt.dst;
                let zbox = self.zboxes[home.index()]
                    .as_mut()
                    .expect("request delivered to a memory site this region owns");
                // Synthesize a random-ish line address from the tag so the
                // page table sees load-test-like (page-unfriendly)
                // behaviour.
                let addr =
                    Addr::new((pkt.tag.wrapping_mul(0x9E3779B97F4A7C15) >> 16) & 0x3FFF_FFC0);
                let acc = zbox.access(at + self.params.directory_overhead, addr, 64);
                let requester = self.params.cpus[(pkt.tag >> 32) as usize];
                let uid = pkt.uid | 1;
                let resp = Packet::new(
                    home,
                    requester,
                    MessageClass::BlockResponse,
                    80,
                    pkt.tag,
                    uid,
                    acc.completed,
                    pkt.payload,
                );
                out.emit(
                    self.net.region(),
                    acc.completed,
                    tb_arrive(uid),
                    LoadEv::Arrive {
                        node: home,
                        pkt: resp,
                    },
                );
            }
            MessageClass::BlockResponse => {
                self.total_latency += at.since(pkt.payload) + self.params.front_overhead;
                self.completed += 1;
                let cpu = (pkt.tag >> 32) as usize;
                if self.issued[cpu] < self.params.cfg.requests_per_cpu as u64 {
                    self.inject(at, cpu, out);
                }
            }
            other => panic!("unexpected class {other:?}"),
        }
    }

    /// Issue `cpu`'s next read at `at`.
    fn inject(&mut self, at: SimTime, cpu: usize, out: &mut Outbox<LoadEv>) {
        let seq = self.issued[cpu];
        self.issued[cpu] += 1;
        let p = &*self.params;
        let target = match p.cfg.pattern {
            TrafficPattern::UniformRemote => {
                if p.cpus.len() == 1 {
                    0
                } else {
                    self.rngs[cpu].index_excluding(p.cpus.len(), cpu)
                }
            }
            TrafficPattern::HotSpot(hot) => hot,
            TrafficPattern::StripedHotSpot(hot, partner) => {
                if seq.is_multiple_of(2) {
                    hot
                } else {
                    partner
                }
            }
        };
        let src = p.cpus[cpu];
        let site = p.site_of_cpu[p.cpus[target].index()];
        let tag = ((cpu as u64) << 32) | seq;
        let uid = tag << 1;
        let pkt = Packet::new(src, site, MessageClass::Request, 16, tag, uid, at, at);
        out.emit(
            self.net.region(),
            at,
            tb_arrive(uid),
            LoadEv::Arrive { node: src, pkt },
        );
    }
}

/// The barrier coordinator: with sampling on, it strikes a barrier every
/// sampling interval and captures an Xmesh-style sample of interval
/// utilizations — every event before the barrier has fired, none at or
/// after it has. Sampling stops once nothing is left to fire.
struct LoadGuide {
    params: Arc<LoadParams>,
    /// The next sample instant (`None`: no sampling, or the run is over).
    next_at: Option<SimTime>,
    interval: SimDuration,
    prev_zbox_busy: Vec<SimDuration>,
    prev_ew_busy: SimDuration,
    prev_ns_busy: SimDuration,
    samples: Vec<UtilSample>,
}

impl EpochGuide<LoadWorker> for LoadGuide {
    fn next_barrier(&mut self) -> Option<SimTime> {
        self.next_at
    }

    fn at_barrier(
        &mut self,
        at: SimTime,
        ctl: &mut EpochControl<'_, LoadWorker>,
    ) -> BarrierVerdict {
        if ctl.is_idle() {
            self.next_at = None;
        } else {
            self.capture(at, ctl);
            self.next_at = Some(at + self.interval);
        }
        BarrierVerdict::Continue
    }
}

impl LoadGuide {
    /// Record the sample at `at`: per-CPU Zbox and mean East–West /
    /// North–South link busy time accrued since the previous sample, as
    /// fractions of the interval.
    fn capture(&mut self, at: SimTime, ctl: &EpochControl<'_, LoadWorker>) {
        let window = self.interval.as_ps() as f64;
        let tables = ctl.worker(0).net.tables();
        let mut zbox = Vec::with_capacity(self.params.cpus.len());
        for (i, &cpu) in self.params.cpus.iter().enumerate() {
            let site = self.params.site_of_cpu[cpu.index()];
            let busy = ctl.worker(tables.region_of(site)).zboxes[site.index()]
                .as_ref()
                .map_or(SimDuration::ZERO, Zbox::busy_time);
            let delta = busy - self.prev_zbox_busy[i].min(busy);
            self.prev_zbox_busy[i] = busy;
            zbox.push((delta.as_ps() as f64 / window).min(1.0));
        }
        let links = FabricLinks::gather((0..ctl.shard_count()).map(|s| &ctl.worker(s).net));
        let ew = links.mean_busy_where(|d| d.is_some_and(|d| d.is_horizontal()));
        let ns = links.mean_busy_where(|d| d.is_some_and(|d| !d.is_horizontal()));
        let ew_delta = ew - self.prev_ew_busy.min(ew);
        let ns_delta = ns - self.prev_ns_busy.min(ns);
        self.prev_ew_busy = ew;
        self.prev_ns_busy = ns;
        self.samples.push(UtilSample {
            at_ns: at.as_ns(),
            zbox,
            east_west: (ew_delta.as_ps() as f64 / window).min(1.0),
            north_south: (ns_delta.as_ps() as f64 / window).min(1.0),
        });
    }
}

/// A machine prepared for load testing: a fabric plus the memory sites
/// behind it. `T` names the topology the fabric was built from.
pub struct LoadTest<T: Topology> {
    /// The fabric's routing tables, materialized from a `T` (one region;
    /// each run re-partitions them).
    tables: FabricTables,
    /// Memory site (node holding the Zbox) of each CPU's memory, indexed
    /// by the CPU's node id.
    site_of_cpu: Vec<NodeId>,
    /// CPU endpoints that generate traffic.
    cpus: Vec<NodeId>,
    /// Configuration of the controller at each distinct memory site.
    zbox: ZboxConfig,
    /// Front-end (cache miss detect) charge reported per transaction.
    front_overhead: SimDuration,
    /// Directory processing time at the home before memory is accessed.
    directory_overhead: SimDuration,
    fabric: PhantomData<fn() -> T>,
}

impl<T: Topology> LoadTest<T> {
    /// Assemble a load test over `fabric` with the given link timing and
    /// routing policy.
    ///
    /// `site_of_cpu[i]` is the node where CPU `i`'s memory lives (itself on
    /// the GS1280; the QBB switch on the GS320); each distinct site gets one
    /// controller configured as `zbox`.
    ///
    /// # Panics
    ///
    /// Panics if the fabric has no CPU endpoints, or `site_of_cpu` is
    /// shorter than the CPU list.
    pub fn new(
        fabric: &T,
        timing: LinkTiming,
        policy: RoutePolicy,
        site_of_cpu: Vec<NodeId>,
        zbox: ZboxConfig,
        front_overhead: SimDuration,
        directory_overhead: SimDuration,
    ) -> Self {
        let cpus = fabric.endpoints();
        assert!(!cpus.is_empty(), "no CPU endpoints");
        assert!(
            site_of_cpu.len() >= cpus.len(),
            "need a memory site per CPU"
        );
        LoadTest {
            tables: FabricTables::new(fabric, timing, policy, 1),
            site_of_cpu,
            cpus,
            zbox,
            front_overhead,
            directory_overhead,
            fabric: PhantomData,
        }
    }

    /// Run the closed loop to completion on
    /// [`alphasim_kernel::par::shards`] fabric regions stepped by
    /// [`alphasim_kernel::par::threads`] threads. The result is
    /// byte-identical at any region and thread count.
    pub fn run(self, cfg: &LoadTestConfig) -> LoadTestResult {
        assert!(cfg.outstanding >= 1, "need at least one outstanding read");
        let mut tables = self.tables;
        tables.set_regions(alphasim_kernel::par::shards());
        let tables = Arc::new(tables);
        let ncpus = self.cpus.len();
        let nodes = tables.topology().node_count();
        // One controller per distinct memory site, owned by its region.
        let mut zparts: Vec<Vec<Option<Zbox>>> = (0..tables.region_count())
            .map(|_| (0..nodes).map(|_| None).collect())
            .collect();
        for &site in &self.site_of_cpu {
            zparts[tables.region_of(site)][site.index()]
                .get_or_insert_with(|| Zbox::new(self.zbox));
        }
        let params = Arc::new(LoadParams {
            cfg: *cfg,
            cpus: self.cpus,
            site_of_cpu: self.site_of_cpu,
            front_overhead: self.front_overhead,
            directory_overhead: self.directory_overhead,
        });
        let workers: Vec<LoadWorker> = zparts
            .into_iter()
            .enumerate()
            .map(|(region, zboxes)| LoadWorker {
                params: params.clone(),
                net: RegionNet::new(region, tables.clone()),
                zboxes,
                rngs: (0..ncpus)
                    .map(|i| DetRng::seeded(cfg.seed).split(i as u64))
                    .collect(),
                issued: vec![0; ncpus],
                total_latency: SimDuration::ZERO,
                completed: 0,
                now: SimTime::ZERO,
            })
            .collect();
        let mut exec =
            EpochExecutor::new(workers, tables.lookahead(), alphasim_kernel::par::threads());
        for (cpu, &node) in params.cpus.iter().enumerate() {
            exec.seed(
                tables.region_of(node),
                SimTime::ZERO,
                tb_inject(cpu),
                LoadEv::Inject { cpu },
            );
        }
        let interval = SimDuration::from_ns(cfg.sample_interval_ns.unwrap_or(0.0));
        let mut guide = LoadGuide {
            params: params.clone(),
            next_at: cfg.sample_interval_ns.map(|_| SimTime::ZERO + interval),
            interval,
            prev_zbox_busy: vec![SimDuration::ZERO; ncpus],
            prev_ew_busy: SimDuration::ZERO,
            prev_ns_busy: SimDuration::ZERO,
            samples: Vec::new(),
        };
        exec.run_guided(&mut guide);
        let workers = exec.into_workers();

        let now = workers.iter().map(|w| w.now).max().unwrap_or(SimTime::ZERO);
        let completed: u64 = workers.iter().map(|w| w.completed).sum();
        let total_latency: SimDuration = workers.iter().map(|w| w.total_latency).sum();
        let elapsed = now.since(SimTime::ZERO);
        let delivered_gbps = if elapsed > SimDuration::ZERO {
            completed as f64 * 64.0 / elapsed.as_secs() / 1e9
        } else {
            0.0
        };
        let links = FabricLinks::gather(workers.iter().map(|w| &w.net));
        let topo = tables.topology();
        let mut zbox_busy_ps = vec![0u64; nodes];
        for w in &workers {
            for (site, z) in w.zboxes.iter().enumerate() {
                if let Some(z) = z {
                    zbox_busy_ps[site] += z.busy_time().as_ps();
                }
            }
        }
        let link_busy = link_grid(
            topo,
            links
                .iter()
                .enumerate()
                .filter(|(_, l)| l.is_alive())
                .map(|(id, l)| (tables.link_meta(id).0, l.busy_time().as_ps())),
        );
        LoadTestResult {
            mean_latency: if completed == 0 {
                SimDuration::ZERO
            } else {
                total_latency / completed
            },
            delivered_gbps,
            completed,
            elapsed,
            horizontal_util: links
                .mean_utilization_where(now, |d| d.is_some_and(|d| d.is_horizontal())),
            vertical_util: links
                .mean_utilization_where(now, |d| d.is_some_and(|d| !d.is_horizontal())),
            zbox_busy: node_grid(topo, &zbox_busy_ps),
            link_busy,
            samples: guide.samples,
        }
    }
}

/// Convenience: a load test over a GS1280.
pub fn gs1280_load_test(machine: &crate::Gs1280) -> LoadTest<crate::gs1280::FabricTopo> {
    let calib = machine.calibration();
    let cpus = machine.cpus();
    // Both Zboxes of a node serve the load test: double the per-controller
    // bandwidth.
    let zbox = ZboxConfig {
        bandwidth_gbps: calib.zbox.bandwidth_gbps * 2.0,
        ..calib.zbox
    };
    LoadTest::new(
        machine.fabric(),
        calib.timing,
        machine.policy(),
        (0..cpus).map(NodeId::new).collect(),
        zbox,
        calib.local_fixed,
        calib.remote_fixed,
    )
}

/// Convenience: a load test over a GS320.
pub fn gs320_load_test(machine: &crate::Gs320) -> LoadTest<alphasim_topology::QbbTree> {
    let calib = machine.calibration();
    let sites = (0..machine.cpus())
        .map(|c| machine.memory_site(NodeId::new(c)))
        .collect();
    LoadTest::new(
        machine.topology(),
        calib.timing,
        RoutePolicy::Minimal,
        sites,
        calib.zbox,
        calib.local_fixed,
        calib.remote_fixed,
    )
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
