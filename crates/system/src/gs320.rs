//! The previous-generation AlphaServer GS320 machine model.

use alphasim_kernel::SimDuration;
use alphasim_net::partition::{FabricTables, OpenLoop};
use alphasim_topology::route::RoutePolicy;
use alphasim_topology::{NodeId, QbbTree};

use crate::calibration::Calibration;
use crate::path;

/// A configured GS320: up to 32 Alpha 21264 CPUs in 4-CPU Quad Building
/// Blocks behind a hierarchical switch (paper §2, ref.\[2\]).
///
/// Memory lives *per QBB*: any CPU's access — even to its "own" memory —
/// crosses the QBB's local switch, and all four CPUs of a QBB contend for
/// the same controllers. This is why Fig. 7 shows sub-linear STREAM scaling
/// from 1 to 4 CPUs, and why Fig. 12 shows only two latency levels.
///
/// # Examples
///
/// ```
/// use alphasim_system::Gs320;
/// use alphasim_topology::NodeId;
///
/// let m = Gs320::new(16);
/// // Two latency levels: in-QBB ~330 ns, cross-QBB ~760 ns (Fig. 12).
/// let local = m.read_clean(NodeId::new(0), NodeId::new(1));
/// let remote = m.read_clean(NodeId::new(0), NodeId::new(4));
/// assert!(remote > local + alphasim_kernel::SimDuration::from_ns(300.0));
/// ```
#[derive(Debug, Clone)]
pub struct Gs320 {
    calib: Calibration,
    topo: QbbTree,
    one_way: Vec<Vec<SimDuration>>,
}

impl Gs320 {
    /// A GS320 with `cpus` processors (4..=32, multiples of 4).
    ///
    /// # Panics
    ///
    /// Panics for unsupported CPU counts.
    pub fn new(cpus: usize) -> Self {
        let calib = Calibration::gs320();
        let topo = QbbTree::new(cpus);
        let one_way = path::all_pairs(&topo, &calib.timing);
        Gs320 {
            calib,
            topo,
            one_way,
        }
    }

    /// Number of CPUs.
    pub fn cpus(&self) -> usize {
        self.topo.cpus()
    }

    /// The machine's calibration bundle.
    pub fn calibration(&self) -> &Calibration {
        &self.calib
    }

    /// The switch topology.
    pub fn topology(&self) -> &QbbTree {
        &self.topo
    }

    /// A fresh open-loop driver over the hierarchical switch fabric.
    pub fn network(&self) -> OpenLoop {
        OpenLoop::new(FabricTables::new(
            &self.topo,
            self.calib.timing,
            RoutePolicy::Minimal,
        ))
    }

    /// The node where `cpu`'s memory physically lives: its QBB's local
    /// switch.
    pub fn memory_site(&self, cpu: NodeId) -> NodeId {
        self.topo.local_switch(self.topo.qbb_of(cpu))
    }

    /// One-way fabric latency between two nodes (CPUs or switches).
    pub fn one_way(&self, from: NodeId, to: NodeId) -> SimDuration {
        self.one_way[from.index()][to.index()]
    }

    /// Read-clean latency: `requester` loads a line homed in `home`'s QBB
    /// memory. In-QBB ≈ 330 ns, cross-QBB ≈ 760 ns (Fig. 12).
    pub fn read_clean(&self, requester: NodeId, home: NodeId) -> SimDuration {
        let site = self.memory_site(home);
        self.calib.local_latency(true)
            + self.calib.remote_fixed
            + self.one_way(requester, site)
            + self.one_way(site, requester)
    }

    /// Local memory latency (within the requester's own QBB).
    pub fn local_latency(&self, page_hit: bool) -> SimDuration {
        let site = self.memory_site(NodeId::new(0));
        self.calib.local_latency(page_hit)
            + self.one_way(NodeId::new(0), site)
            + self.one_way(site, NodeId::new(0))
    }

    /// Read-dirty latency: the line is dirty in `owner`'s off-chip cache.
    /// The GS320's hierarchical protocol resolves the request through the
    /// home directory and its ordering points, which is why the paper's
    /// Fig. 12 shows a 6.6× GS1280 advantage here against 4× for clean
    /// reads.
    pub fn read_dirty(&self, requester: NodeId, home: NodeId, owner: NodeId) -> SimDuration {
        let site = self.memory_site(home);
        self.calib.dirty_penalty
            + self.calib.dirty_serve
            + self.one_way(requester, site)
            + self.one_way(site, owner)
            + self.one_way(owner, requester)
    }

    /// Mean read-clean latency from node 0 to every CPU (Fig. 12's average
    /// bar).
    pub fn average_latency_from0(&self) -> SimDuration {
        let n = self.cpus();
        let total: SimDuration = (0..n)
            .map(|k| self.read_clean(NodeId::new(0), NodeId::new(k)))
            .sum();
        total / n as u64
    }

    /// Mean read-clean latency over all ordered CPU pairs (Fig. 14).
    pub fn average_latency_all_pairs(&self) -> SimDuration {
        let n = self.cpus();
        let total: SimDuration = (0..n)
            .flat_map(|a| (0..n).map(move |k| (a, k)))
            .map(|(a, k)| self.read_clean(NodeId::new(a), NodeId::new(k)))
            .sum();
        total / (n * n) as u64
    }

    /// Mean read-dirty latency over distinct (requester, home, owner)
    /// triples.
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

    /// Counted STREAM-triad bandwidth with `active` CPUs (Figs. 6–7):
    /// per-CPU demand is MSHR-limited over the ~330 ns local latency, and
    /// the CPUs of each QBB share its ~1.5 GB/s sustained memory.
    pub fn stream_triad_gbps(&self, active: usize) -> f64 {
        assert!(
            active >= 1 && active <= self.cpus(),
            "active CPUs out of range"
        );
        let latency = self.local_latency(true);
        let per_cpu_demand = self.calib.mshrs as f64 * 64.0 / latency.as_secs() / 1e9;
        // Active CPUs fill QBBs in order (4 per QBB).
        let mut remaining = active;
        let mut traffic = 0.0;
        while remaining > 0 {
            let in_this_qbb = remaining.min(self.calib.cpus_per_mem_site);
            traffic += (in_this_qbb as f64 * per_cpu_demand).min(self.calib.sustained_mem_gbps);
            remaining -= in_this_qbb;
        }
        traffic * 0.75
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_latency_levels() {
        let m = Gs320::new(16);
        let local = m.read_clean(NodeId::new(0), NodeId::new(0));
        // All four CPUs of QBB 0 see the same "local" latency.
        for k in 1..4 {
            assert_eq!(m.read_clean(NodeId::new(0), NodeId::new(k)), local);
        }
        // Remote QBBs all cost the same, much higher.
        let remote = m.read_clean(NodeId::new(0), NodeId::new(4));
        for k in 5..16 {
            assert_eq!(m.read_clean(NodeId::new(0), NodeId::new(k)), remote);
        }
        assert!((local.as_ns() - 330.0).abs() < 1.0, "local {local}");
        assert!((remote.as_ns() - 760.0).abs() < 5.0, "remote {remote}");
    }

    #[test]
    fn average_matches_fig12_mix() {
        // (4x330 + 12x760) / 16 = 652.5 ns.
        let m = Gs320::new(16);
        let avg = m.average_latency_from0().as_ns();
        assert!((avg - 652.5).abs() < 5.0, "avg {avg}");
    }

    #[test]
    fn dirty_reads_are_catastrophic() {
        let m = Gs320::new(16);
        let clean = m.read_clean(NodeId::new(0), NodeId::new(4));
        let dirty = m.read_dirty(NodeId::new(0), NodeId::new(4), NodeId::new(8));
        assert!(dirty > clean + SimDuration::from_ns(500.0));
    }

    #[test]
    fn latency_flat_in_machine_size() {
        // The switch hierarchy has fixed depth: average latency barely moves
        // from 8 to 32 CPUs (Fig. 14's flat GS320 curve) while the remote
        // fraction grows.
        let a8 = Gs320::new(8).average_latency_all_pairs().as_ns();
        let a32 = Gs320::new(32).average_latency_all_pairs().as_ns();
        assert!(a32 > a8);
        assert!(a32 < a8 * 1.35, "a8={a8} a32={a32}");
    }

    #[test]
    fn stream_scaling_is_sublinear_within_a_qbb() {
        let m = Gs320::new(16);
        let one = m.stream_triad_gbps(1);
        let four = m.stream_triad_gbps(4);
        assert!((one - 0.58).abs() < 0.1, "1-CPU {one}");
        assert!((four - 1.125).abs() < 0.1, "4-CPU {four}");
        assert!(four < 4.0 * one * 0.6, "must be strongly sub-linear");
        // Adding QBBs scales again: 8 CPUs = 2 QBBs = 2x the 4-CPU number.
        assert!((m.stream_triad_gbps(8) - 2.0 * four).abs() < 1e-9);
    }

    #[test]
    fn memory_site_is_the_qbb_switch() {
        let m = Gs320::new(8);
        assert_eq!(m.memory_site(NodeId::new(0)), m.topology().local_switch(0));
        assert_eq!(m.memory_site(NodeId::new(5)), m.topology().local_switch(1));
    }
}
