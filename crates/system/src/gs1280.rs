//! The HP AlphaServer GS1280 machine model.

use alphasim_cache::Addr;
use alphasim_kernel::SimDuration;
use alphasim_mem::{AddressMap, Interleave, ZboxConfig};
use alphasim_net::partition::{FabricTables, OpenLoop};
use alphasim_net::LinkTiming;
use alphasim_topology::route::RoutePolicy;
use alphasim_topology::{Coord, NodeId, Port, ShuffleTorus, Topology, Torus2D};
use serde::{Deserialize, Serialize};

use crate::calibration::Calibration;
use crate::faulty::FaultCampaign;
use crate::path;

/// The GS1280's fabric: a plain torus, or the shuffle rewiring of §4.1.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum FabricTopo {
    /// Standard 2-D torus.
    Torus(Torus2D),
    /// Shuffle (twisted torus).
    Shuffle(ShuffleTorus),
}

impl FabricTopo {
    /// The `(cols, rows)` of the torus grid (the shuffle keeps its base
    /// torus's grid).
    pub fn shape(&self) -> (usize, usize) {
        match self {
            FabricTopo::Torus(t) => (t.cols(), t.rows()),
            FabricTopo::Shuffle(s) => (s.cols(), s.rows()),
        }
    }
}

impl Topology for FabricTopo {
    fn name(&self) -> String {
        match self {
            FabricTopo::Torus(t) => t.name(),
            FabricTopo::Shuffle(s) => s.name(),
        }
    }

    fn node_count(&self) -> usize {
        match self {
            FabricTopo::Torus(t) => t.node_count(),
            FabricTopo::Shuffle(s) => s.node_count(),
        }
    }

    fn ports(&self, node: NodeId) -> &[Port] {
        match self {
            FabricTopo::Torus(t) => t.ports(node),
            FabricTopo::Shuffle(s) => s.ports(node),
        }
    }

    fn is_endpoint(&self, _node: NodeId) -> bool {
        true
    }

    fn coord(&self, node: NodeId) -> Option<Coord> {
        match self {
            FabricTopo::Torus(t) => t.coord(node),
            FabricTopo::Shuffle(s) => s.coord(node),
        }
    }
}

/// Builder for a [`Gs1280`].
///
/// # Examples
///
/// ```
/// use alphasim_system::Gs1280;
/// let machine = Gs1280::builder().cpus(16).build();
/// assert_eq!(machine.cpus(), 16);
/// ```
#[derive(Debug, Clone)]
pub struct Gs1280Builder {
    cpus: usize,
    shape: Option<(usize, usize)>,
    shuffle: Option<RoutePolicy>,
    striping: bool,
    mem_per_cpu: u64,
}

impl Gs1280Builder {
    /// Number of CPUs (one of the paper's machine sizes: 2–64, plus the
    /// projected 128 and 256). Clears any explicit [`shape`](Self::shape).
    pub fn cpus(mut self, cpus: usize) -> Self {
        self.cpus = cpus;
        self.shape = None;
        self
    }

    /// Explicit torus dimensions (`cols` × `rows` CPUs), for shapes
    /// outside the standard [`cpus`](Self::cpus) table — e.g. resilience
    /// studies that scale the fabric one axis at a time.
    pub fn shape(mut self, cols: usize, rows: usize) -> Self {
        self.cpus = cols * rows;
        self.shape = Some((cols, rows));
        self
    }

    /// Rewire into the shuffle interconnect, routing shuffle links under
    /// `policy` (Fig. 18's "1-hop" / "2-hop" experiments).
    pub fn shuffle(mut self, policy: RoutePolicy) -> Self {
        self.shuffle = Some(policy);
        self
    }

    /// Enable memory striping across module pairs (§6).
    pub fn striping(mut self, on: bool) -> Self {
        self.striping = on;
        self
    }

    /// Memory per CPU in bytes (default 1 GiB).
    pub fn mem_per_cpu(mut self, bytes: u64) -> Self {
        self.mem_per_cpu = bytes;
        self
    }

    /// Construct the machine.
    ///
    /// # Panics
    ///
    /// Panics on unsupported CPU counts, or when shuffle is requested for a
    /// shape the rewiring does not support (fewer than 4 columns).
    pub fn build(self) -> Gs1280 {
        let torus = match self.shape {
            Some((cols, rows)) => Torus2D::new(cols, rows),
            None => Torus2D::for_cpus(self.cpus),
        };
        let (fabric, policy) = match self.shuffle {
            None => (FabricTopo::Torus(torus), RoutePolicy::Minimal),
            Some(policy) => (
                FabricTopo::Shuffle(ShuffleTorus::new(torus.cols(), torus.rows())),
                policy,
            ),
        };
        let calib = Calibration::gs1280();
        let one_way = path::all_pairs(&fabric, &calib.timing);
        let interleave = if self.striping {
            Interleave::StripedPairs
        } else {
            Interleave::PerCpu
        };
        Gs1280 {
            calib,
            fabric,
            policy,
            map: AddressMap::new(self.cpus, self.mem_per_cpu, interleave),
            one_way,
        }
    }
}

/// A configured GS1280: fabric, calibration, address map, and the analytic
/// latency probes behind Figs. 4–5 and 12–14.
#[derive(Debug, Clone)]
pub struct Gs1280 {
    calib: Calibration,
    fabric: FabricTopo,
    policy: RoutePolicy,
    map: AddressMap,
    one_way: Vec<Vec<SimDuration>>,
}

impl Gs1280 {
    /// Zboxes behind each node's memory: the EV7 serves its local memory
    /// with both of its integrated controllers (§2).
    pub const ZBOXES_PER_NODE: usize = 2;

    /// Start building a machine (defaults: 16 CPUs, plain torus, no
    /// striping, 1 GiB/CPU).
    pub fn builder() -> Gs1280Builder {
        Gs1280Builder {
            cpus: 16,
            shape: None,
            shuffle: None,
            striping: false,
            mem_per_cpu: 1 << 30,
        }
    }

    /// Number of CPUs.
    pub fn cpus(&self) -> usize {
        self.fabric.node_count()
    }

    /// The machine's calibration bundle.
    pub fn calibration(&self) -> &Calibration {
        &self.calib
    }

    /// The fabric topology.
    pub fn fabric(&self) -> &FabricTopo {
        &self.fabric
    }

    /// Whether memory striping is enabled.
    pub fn striping(&self) -> bool {
        self.map.interleave() == Interleave::StripedPairs
    }

    /// A fresh open-loop driver over this machine's fabric and routing
    /// policy, in one region: batch drains and link statistics. The
    /// closed-loop experiments (Figs. 15, 18, 23–27) run on
    /// [`crate::loadtest`] instead.
    pub fn network(&self) -> OpenLoop {
        OpenLoop::new(FabricTables::new(
            &self.fabric,
            self.calib.timing,
            self.policy,
            1,
        ))
    }

    /// The fabric timing in force.
    pub fn timing(&self) -> &LinkTiming {
        &self.calib.timing
    }

    /// The controller at each node's memory site in the closed loop: one
    /// Zbox's configuration with the bandwidth of all
    /// [`ZBOXES_PER_NODE`](Self::ZBOXES_PER_NODE) (the open-page table
    /// stays one Zbox's).
    pub fn site_zbox(&self) -> ZboxConfig {
        ZboxConfig {
            bandwidth_gbps: self.calib.zbox.bandwidth_gbps * Self::ZBOXES_PER_NODE as f64,
            ..self.calib.zbox
        }
    }

    /// The machine's closed loop over `fabric` (its own, or a wounded
    /// copy of it) with every node's memory site served by a `zbox`: the
    /// machine's link timing and routing policy, each CPU's memory on its
    /// own node, `local_fixed` paid up front and `remote_fixed` at the
    /// directory. The load test and every fault campaign run on it.
    ///
    /// # Panics
    ///
    /// Panics if `fabric` has no CPU endpoints or more CPUs than the
    /// machine.
    pub fn closed_loop<T: Topology>(&self, fabric: &T, zbox: ZboxConfig) -> FaultCampaign<T> {
        FaultCampaign::new(
            fabric,
            self.calib.timing,
            self.policy,
            (0..self.cpus()).map(NodeId::new).collect(),
            zbox,
            self.calib.local_fixed,
            self.calib.remote_fixed,
        )
    }

    /// Local memory load-to-use latency (83 ns open-page, 130 ns
    /// closed-page; Figs. 5 and 13).
    pub fn local_latency(&self, page_hit: bool) -> SimDuration {
        self.calib.local_latency(page_hit)
    }

    /// One-way fabric latency between two CPUs.
    pub fn one_way(&self, from: NodeId, to: NodeId) -> SimDuration {
        self.one_way[from.index()][to.index()]
    }

    /// Read-clean latency: `requester` loads a line homed at `home` that no
    /// cache holds dirty. Local reads cost the 83 ns open-page path; remote
    /// reads add the directory overhead and a round trip.
    pub fn read_clean(&self, requester: NodeId, home: NodeId) -> SimDuration {
        if requester == home {
            return self.local_latency(true);
        }
        self.local_latency(true)
            + self.calib.remote_fixed
            + self.one_way(requester, home)
            + self.one_way(home, requester)
    }

    /// Read-dirty latency: the line is Exclusive in `owner`'s cache; the
    /// directory at `home` forwards and the owner responds straight to the
    /// requester (3-hop path, paper §2 / Fig. 12).
    pub fn read_dirty(&self, requester: NodeId, home: NodeId, owner: NodeId) -> SimDuration {
        self.calib.local_fixed
            + self.calib.remote_fixed
            + self.calib.dirty_serve
            + self.calib.dirty_penalty
            + self.one_way(requester, home)
            + self.one_way(home, owner)
            + self.one_way(owner, requester)
    }

    /// The Fig. 13 latency map: read-clean from `from` to every CPU, in
    /// nanoseconds, as a `rows × cols` grid.
    pub fn latency_grid(&self, from: NodeId) -> Vec<Vec<f64>> {
        let (cols, rows) = self.fabric.shape();
        (0..rows)
            .map(|y| {
                (0..cols)
                    .map(|x| {
                        let node = NodeId::new(y * cols + x);
                        self.read_clean(from, node).as_ns()
                    })
                    .collect()
            })
            .collect()
    }

    /// Mean read-clean latency from node 0 to every CPU including itself
    /// (the "average" bar of Fig. 12).
    pub fn average_latency_from0(&self) -> SimDuration {
        let n = self.cpus();
        let total: SimDuration = (0..n)
            .map(|k| self.read_clean(NodeId::new(0), NodeId::new(k)))
            .sum();
        total / n as u64
    }

    /// Mean read-clean latency over all ordered pairs (Fig. 14's
    /// load-to-use curve).
    pub fn average_latency_all_pairs(&self) -> SimDuration {
        let n = self.cpus();
        let total: SimDuration = (0..n)
            .flat_map(|a| (0..n).map(move |k| (a, k)))
            .map(|(a, k)| self.read_clean(NodeId::new(a), NodeId::new(k)))
            .sum();
        total / (n * n) as u64
    }

    /// Mean read-dirty latency over random (requester, home, owner)
    /// triples with all three distinct.
    pub fn average_dirty_latency(&self) -> SimDuration {
        let n = self.cpus();
        let mut total = SimDuration::ZERO;
        let mut count = 0u64;
        for r in 0..n {
            for h in 0..n {
                for o in 0..n {
                    if r != h && h != o && r != o {
                        total += self.read_dirty(NodeId::new(r), NodeId::new(h), NodeId::new(o));
                        count += 1;
                    }
                }
            }
        }
        total / count.max(1)
    }

    /// The average latency a CPU sees for lines of its *own* region under
    /// the current interleave: 83 ns unstriped; with striping half the
    /// lines live on the module partner (§6's extra burden on pair links).
    pub fn effective_local_latency(&self) -> SimDuration {
        if !self.striping() {
            return self.local_latency(true);
        }
        // Sample the rotation: lines 0..4 of CPU 0's region.
        let partner = match &self.fabric {
            FabricTopo::Torus(t) => t.module_partner(NodeId::new(0)),
            FabricTopo::Shuffle(s) => s.base().module_partner(NodeId::new(0)),
        }
        .expect("striped machines pair CPUs");
        let local = self.local_latency(true);
        let remote = self.read_clean(NodeId::new(0), partner);
        (local + remote) / 2
    }

    /// Counted STREAM-triad bandwidth (GB/s) with `active` CPUs running one
    /// stream each: per-CPU demand is MSHR-limited, supply is the per-CPU
    /// sustained Zbox bandwidth, and McCalpin counts 24 of every 32 moved
    /// bytes (write-allocate overhead). Scaling is linear — each CPU streams
    /// its own local memory (Figs. 6–7).
    pub fn stream_triad_gbps(&self, active: usize) -> f64 {
        assert!(
            active >= 1 && active <= self.cpus(),
            "active CPUs out of range"
        );
        let latency = self.effective_local_latency();
        let line = 64.0;
        let demand = self.calib.mshrs as f64 * line / latency.as_secs() / 1e9;
        let mut per_cpu = demand.min(self.calib.sustained_mem_gbps);
        if self.striping() {
            per_cpu = per_cpu.min(self.pair_link_cap_gbps());
        }
        per_cpu * 0.75 * active as f64
    }

    /// The memory bandwidth (GB/s) one CPU can stream under striping: half
    /// of every stream crosses the module pair link, at the link's
    /// per-direction bandwidth and ~80% data payload after headers — §6's
    /// "additional burden on the IP links between pairs of CPUs".
    pub fn pair_link_cap_gbps(&self) -> f64 {
        self.calib.timing.bandwidth_gbps * 0.8 / 0.5
    }

    /// The home CPU of an address under the machine's interleave.
    pub fn home_of(&self, addr: Addr) -> NodeId {
        NodeId::new(self.map.target_of(addr).cpu)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m16() -> Gs1280 {
        Gs1280::builder().cpus(16).build()
    }

    #[test]
    fn local_latencies() {
        let m = m16();
        assert_eq!(m.local_latency(true).as_ns(), 83.0);
        assert_eq!(m.local_latency(false).as_ns(), 130.0);
    }

    #[test]
    fn one_hop_neighbors_ordered_by_link_class() {
        let m = m16();
        let module = m.read_clean(NodeId::new(0), NodeId::new(4)); // (0,1)
        let board = m.read_clean(NodeId::new(0), NodeId::new(1)); // (1,0)
        let cable = m.read_clean(NodeId::new(0), NodeId::new(3)); // wrap
        assert!(module < board && board < cable);
        assert_eq!(module.as_ns(), 139.0);
        assert_eq!(board.as_ns(), 145.0);
        assert_eq!(cable.as_ns(), 154.0);
    }

    #[test]
    fn dirty_three_hop_exceeds_clean_round_trip_between_same_nodes() {
        let m = m16();
        let clean = m.read_clean(NodeId::new(0), NodeId::new(5));
        let dirty = m.read_dirty(NodeId::new(0), NodeId::new(5), NodeId::new(10));
        assert!(dirty > clean);
    }

    #[test]
    fn average_latency_grows_with_machine_size() {
        let sizes = [4usize, 8, 16, 32, 64];
        let avgs: Vec<f64> = sizes
            .iter()
            .map(|&n| {
                Gs1280::builder()
                    .cpus(n)
                    .build()
                    .average_latency_all_pairs()
                    .as_ns()
            })
            .collect();
        for w in avgs.windows(2) {
            assert!(w[0] < w[1], "{avgs:?}");
        }
        // 64P stays well under 300 ns (Fig. 14's GS1280 curve).
        assert!(avgs[4] < 300.0, "{avgs:?}");
    }

    #[test]
    fn shuffle_reduces_average_latency_at_8p() {
        let torus = Gs1280::builder().cpus(8).build();
        let shuffle = Gs1280::builder()
            .cpus(8)
            .shuffle(RoutePolicy::Minimal)
            .build();
        assert!(shuffle.average_latency_all_pairs() < torus.average_latency_all_pairs());
    }

    #[test]
    fn striping_raises_effective_local_latency() {
        let plain = Gs1280::builder().cpus(16).build();
        let striped = Gs1280::builder().cpus(16).striping(true).build();
        assert_eq!(plain.effective_local_latency().as_ns(), 83.0);
        assert_eq!(
            striped.effective_local_latency().as_ns(),
            (83.0 + 139.0) / 2.0
        );
        assert!(striped.striping());
    }

    #[test]
    fn stream_triad_is_linear_and_near_4_4_gbps_per_cpu() {
        let m = Gs1280::builder().cpus(64).build();
        let one = m.stream_triad_gbps(1);
        assert!((one - 4.4).abs() < 0.3, "1-CPU triad {one}");
        let four = m.stream_triad_gbps(4);
        assert!((four - 4.0 * one).abs() < 1e-9, "linear scaling");
        assert!(m.stream_triad_gbps(64) > 200.0);
    }

    #[test]
    fn striping_degrades_stream() {
        let plain = Gs1280::builder().cpus(16).build();
        let striped = Gs1280::builder().cpus(16).striping(true).build();
        let degradation = 1.0 - striped.stream_triad_gbps(16) / plain.stream_triad_gbps(16);
        assert!(
            (0.05..=0.40).contains(&degradation),
            "degradation {degradation}"
        );
    }

    #[test]
    fn home_of_respects_interleave() {
        let m = Gs1280::builder().cpus(4).mem_per_cpu(1 << 20).build();
        assert_eq!(m.home_of(Addr::new(0)).index(), 0);
        assert_eq!(m.home_of(Addr::new(3 << 20)).index(), 3);
        let s = Gs1280::builder()
            .cpus(4)
            .mem_per_cpu(1 << 20)
            .striping(true)
            .build();
        assert_eq!(s.home_of(Addr::new(2 * 64)).index(), 1);
    }

    #[test]
    fn network_round_trip_is_close_to_analytic_probe() {
        use alphasim_kernel::SimTime;
        use alphasim_net::MessageClass;
        let m = m16();
        let mut net = m.network();
        net.send(
            SimTime::ZERO,
            NodeId::new(0),
            NodeId::new(1),
            MessageClass::Request,
            16,
            0,
        );
        let d = net.drain();
        // One board hop ≈ 20.5 ns + serialization.
        let ns = d[0].latency().as_ns();
        assert!((20.0..35.0).contains(&ns), "unloaded hop {ns}");
    }
}
