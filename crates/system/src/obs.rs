//! Time-resolved observability for fault campaigns.
//!
//! [`crate::faulty::FaultCampaign::run_observed`] runs the same closed
//! loop as every other entry point while three zero-cost-when-off
//! collectors ride along:
//!
//! * the worker's `ObsAcc` — fixed-width sim-time windows ([`Timeline`])
//!   of injections, completions, retries, poisons, the pending-set depth
//!   and Zbox service, plus DRAM service time per home node;
//! * the fabric's [`NetHeat`](alphasim_net::partition::NetHeat) —
//!   per-node deliveries and the fabric's own windowed series;
//! * the executor's [`EpochProfile`] — the sim-time span and event count
//!   of every epoch.
//!
//! What the run already meters is read, not re-counted: link occupancy
//! comes from the links' meters and reads served from the Zboxes' access
//! counts. [`CampaignObservability`] is the assembled result: the
//! timeline, the latency pairs, P×Q topology heatmaps, and the profile.

use alphasim_kernel::shard::EpochProfile;
use alphasim_mem::Zbox;
use alphasim_telemetry::{Heatmap, Timeline};
use alphasim_topology::{NodeId, Topology};

use crate::epoch::CampaignWorker;

/// What [`crate::faulty::FaultCampaign::run_observed`] collects beyond the
/// plain result and telemetry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObserveOptions {
    /// Fixed window width of every timeline, in simulated picoseconds.
    pub window_ps: u64,
    /// Also collect the Chrome trace (message/link/memory lanes plus the
    /// engine's profiler lane).
    pub trace: bool,
    /// Also measure each epoch's wall-clock time in the epoch profile.
    /// Measurement only: sim results and every sim-time field are
    /// byte-identical either way, and wall values never reach checked
    /// artifacts.
    pub wall: bool,
}

impl ObserveOptions {
    /// Windows of `window_ps`, no trace, no wall clock.
    pub fn windowed(window_ps: u64) -> Self {
        ObserveOptions {
            window_ps,
            trace: false,
            wall: false,
        }
    }
}

/// The worker's observability accumulators (campaign-plane metrics; the
/// fabric-plane ones live in the fabric's `NetHeat`).
pub(crate) struct ObsAcc {
    /// Windowed counters `campaign.injected` / `campaign.completed` /
    /// `campaign.retries` / `campaign.poisoned` / `campaign.zbox_reads` /
    /// `campaign.dram_busy_ps`, gauge `campaign.pending_depth`, histogram
    /// `campaign.latency_ns`.
    pub(crate) timeline: Timeline,
    /// `(completed_at_ps, e2e_ps)` per completion, for exact windowed
    /// latency quantiles.
    pub(crate) latencies: Vec<(u64, u64)>,
    /// DRAM service picoseconds per home node.
    pub(crate) zbox_busy_ps: Vec<u64>,
}

impl ObsAcc {
    pub(crate) fn new(window_ps: u64, nodes: usize) -> Self {
        ObsAcc {
            timeline: Timeline::new(window_ps),
            latencies: Vec::new(),
            zbox_busy_ps: vec![0; nodes],
        }
    }

    pub(crate) fn note_injected(&mut self, at_ps: u64) {
        self.timeline.counter_add(at_ps, "campaign.injected", 1);
    }

    pub(crate) fn note_completion(&mut self, at_ps: u64, e2e_ps: u64) {
        self.timeline.counter_add(at_ps, "campaign.completed", 1);
        self.timeline
            .record(at_ps, "campaign.latency_ns", e2e_ps / 1_000);
        self.latencies.push((at_ps, e2e_ps));
    }

    pub(crate) fn note_retry(&mut self, at_ps: u64) {
        self.timeline.counter_add(at_ps, "campaign.retries", 1);
    }

    pub(crate) fn note_poisoned(&mut self, at_ps: u64) {
        self.timeline.counter_add(at_ps, "campaign.poisoned", 1);
    }

    /// The pending sets held `depth` reads at most at instant `at_ps`.
    pub(crate) fn note_pending_depth(&mut self, at_ps: u64, depth: u64) {
        self.timeline
            .gauge_max(at_ps, "campaign.pending_depth", depth);
    }

    pub(crate) fn note_zbox_read(&mut self, at_ps: u64, node: usize, dram_ps: u64) {
        self.zbox_busy_ps[node] += dram_ps;
        self.timeline.counter_add(at_ps, "campaign.zbox_reads", 1);
        self.timeline
            .counter_add(at_ps, "campaign.dram_busy_ps", dram_ps);
    }
}

/// Everything a `run_observed` campaign measured, in canonical order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignObservability {
    /// Window width of [`timeline`](Self::timeline), in picoseconds.
    pub window_ps: u64,
    /// The windowed metrics: campaign counters (`campaign.*`),
    /// fabric counters (`net.*`), the `campaign.pending_depth` gauge, and
    /// the `campaign.latency_ns` / `net.latency_ns` histograms. The
    /// window sums equal the corresponding registry totals exactly.
    pub timeline: Timeline,
    /// `(completed_at_ps, e2e_ps)` of every completion, sorted — the exact
    /// samples behind per-window p50/p99 latency series.
    pub latencies: Vec<(u64, u64)>,
    /// Messages delivered per node, as a P×Q grid.
    pub node_delivered: Heatmap,
    /// Outgoing-link occupancy picoseconds (the link meters' busy time)
    /// folded onto each sending node, as a P×Q grid — the
    /// router-utilization view.
    pub link_busy: Heatmap,
    /// Reads served per home Zbox (its access count), as a P×Q grid.
    pub zbox_reads: Heatmap,
    /// DRAM service picoseconds per home Zbox, as a P×Q grid.
    pub zbox_busy: Heatmap,
    /// Each epoch's sim-time span and event count (plus optional
    /// wall-clock, when requested).
    pub profile: EpochProfile,
}

/// Lay per-node `values` onto the topology's coordinate grid. Nodes
/// without planar coordinates (or a sparse coordinate cover) fall back to
/// one row in node-id order, so the grid never silently drops a node.
pub(crate) fn node_grid<T: Topology>(topo: &T, values: &[u64]) -> Heatmap {
    let coords: Option<Vec<(usize, usize)>> = (0..topo.node_count())
        .map(|n| {
            topo.coord(NodeId::new(n))
                .map(|c| (c.x as usize, c.y as usize))
        })
        .collect();
    if let Some(coords) = coords {
        let cols = coords.iter().map(|&(x, _)| x + 1).max().unwrap_or(1);
        let rows = coords.iter().map(|&(_, y)| y + 1).max().unwrap_or(1);
        let mut grid = Heatmap::new(cols, rows);
        for (&(x, y), &v) in coords.iter().zip(values) {
            grid.add(y * cols + x, v);
        }
        grid
    } else {
        Heatmap::from_values(values.len().max(1), 1, values)
    }
}

/// Fold per-link `(sending node, value)` pairs onto their sending nodes
/// and lay the sums on [`node_grid`] — the router view of link occupancy.
pub(crate) fn link_grid<T: Topology>(
    topo: &T,
    per_link: impl IntoIterator<Item = (NodeId, u64)>,
) -> Heatmap {
    let mut by_node = vec![0u64; topo.node_count()];
    for (from, v) in per_link {
        by_node[from.index()] += v;
    }
    node_grid(topo, &by_node)
}

/// The busy picoseconds of `worker`'s links on [`link_grid`]: Xmesh's
/// IP-link panel.
pub(crate) fn link_busy_grid(worker: &CampaignWorker) -> Heatmap {
    link_grid(
        worker.net.tables().topology(),
        worker
            .net
            .links()
            .iter()
            .map(|l| (l.from, l.busy_time().as_ps())),
    )
}

/// Lay `f` of every memory site's Zbox onto its node on [`node_grid`].
pub(crate) fn zbox_grid(worker: &CampaignWorker, f: impl Fn(&Zbox) -> u64) -> Heatmap {
    let by_node: Vec<u64> = worker
        .zboxes
        .iter()
        .map(|zbox| zbox.as_ref().map_or(0, &f))
        .collect();
    node_grid(worker.net.tables().topology(), &by_node)
}

/// Fold the observed run's `worker` into the public result: take its
/// accumulators, read link occupancy off the link meters and reads served
/// off the Zboxes, and lay the per-node values onto its fabric's grid.
pub(crate) fn assemble(
    window_ps: u64,
    worker: &mut CampaignWorker,
    profile: EpochProfile,
) -> CampaignObservability {
    let heat = worker.net.take_heat().expect("heat was enabled");
    let mut obs = *worker.obs.take().expect("observation was enabled");
    let topo = worker.net.tables().topology();
    obs.timeline.merge(&heat.timeline);
    obs.latencies.sort_unstable();
    CampaignObservability {
        window_ps,
        node_delivered: node_grid(topo, &heat.node_delivered),
        link_busy: link_busy_grid(worker),
        zbox_reads: zbox_grid(worker, Zbox::accesses),
        zbox_busy: node_grid(topo, &obs.zbox_busy_ps),
        timeline: obs.timeline,
        latencies: obs.latencies,
        profile,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alphasim_topology::Torus2D;

    #[test]
    fn node_grid_uses_planar_coords() {
        let topo = Torus2D::new(4, 4);
        let mut values = vec![0u64; 16];
        values[0] = 3; // (0, 0)
        values[7] = 9; // (3, 1) in row-major 4x4
        let grid = node_grid(&topo, &values);
        assert_eq!((grid.cols(), grid.rows()), (4, 4));
        assert_eq!(grid.at(0, 0), 3);
        assert_eq!(grid.total(), 12);
        assert_eq!(grid.peak(), 9);
    }

    #[test]
    fn link_grid_sums_links_onto_their_sending_node() {
        let topo = Torus2D::new(4, 4);
        let n = NodeId::new;
        let grid = link_grid(&topo, [(n(0), 5), (n(7), 2), (n(0), 3)]);
        assert_eq!(grid.at(0, 0), 8);
        assert_eq!(grid.at(3, 1), 2);
        assert_eq!(grid.total(), 10);
    }
}
