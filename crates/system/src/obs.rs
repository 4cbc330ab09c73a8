//! Time-resolved observability for fault campaigns.
//!
//! [`crate::faulty::FaultCampaign::run_observed`] runs the same
//! partitioned closed loop as every other entry point while three
//! zero-cost-when-off collectors ride along:
//!
//! * a per-worker `ObsAcc` — fixed-width sim-time windows
//!   ([`Timeline`]) of injections, completions, retries, poisons and
//!   Zbox service, plus DRAM service time per home node;
//! * the fabric's [`NetHeat`] — per-node deliveries and the fabric's own
//!   windowed series;
//! * the executor's [`EpochProfile`] — per-epoch per-shard busy/merge
//!   spans from the conservative scheduler.
//!
//! What the run already meters is read, not re-counted: link occupancy
//! comes from the links' meters and reads served from the Zboxes' access
//! counts. Every accumulator is owned by exactly one region and merged in
//! region (input) order after the run, the same argument that makes the
//! campaign's registries byte-identical at any `--shards` count.
//! [`CampaignObservability`] is the merged result: the timeline, the
//! latency pairs, P×Q topology heatmaps, and the profile.

use alphasim_kernel::shard::EpochProfile;
use alphasim_mem::Zbox;
use alphasim_net::partition::{FabricLinks, NetHeat};
use alphasim_telemetry::{Heatmap, Timeline};
use alphasim_topology::{NodeId, Topology};

use crate::epoch::CampaignWorker;

/// What [`crate::faulty::FaultCampaign::run_observed`] collects beyond the
/// plain result and telemetry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObserveOptions {
    /// Fixed window width of every timeline, in simulated picoseconds.
    pub window_ps: u64,
    /// Also collect the Chrome trace (message/link/memory lanes plus one
    /// profiler lane per shard).
    pub trace: bool,
    /// Also measure per-shard wall-clock busy time in the epoch profile.
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

/// One region's observability accumulators (campaign-plane metrics; the
/// fabric-plane ones live in [`NetHeat`]).
pub(crate) struct ObsAcc {
    /// Windowed counters `campaign.injected` / `campaign.completed` /
    /// `campaign.retries` / `campaign.poisoned` / `campaign.zbox_reads` /
    /// `campaign.dram_busy_ps`, histogram `campaign.latency_ns`.
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

    pub(crate) fn note_zbox_read(&mut self, at_ps: u64, node: usize, dram_ps: u64) {
        self.zbox_busy_ps[node] += dram_ps;
        self.timeline.counter_add(at_ps, "campaign.zbox_reads", 1);
        self.timeline
            .counter_add(at_ps, "campaign.dram_busy_ps", dram_ps);
    }

    /// Fold another region's accumulators into this one (regions partition
    /// the requesters and home nodes, so adds are exact).
    pub(crate) fn merge(&mut self, other: &ObsAcc) {
        self.timeline.merge(&other.timeline);
        self.latencies.extend_from_slice(&other.latencies);
        for (a, b) in self.zbox_busy_ps.iter_mut().zip(&other.zbox_busy_ps) {
            *a += b;
        }
    }
}

/// Everything a `run_observed` campaign measured, merged into canonical
/// (shard-count-invariant) order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignObservability {
    /// Window width of [`timeline`](Self::timeline), in picoseconds.
    pub window_ps: u64,
    /// The merged windowed metrics: campaign counters (`campaign.*`),
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
    /// Per-epoch per-shard busy/merge spans from the conservative
    /// scheduler (plus optional wall-clock, when requested).
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

/// Sum `f` of every memory site's Zbox onto its node and lay the sums on
/// [`node_grid`]. Each site's controller lives in exactly one region.
pub(crate) fn zbox_grid<T: Topology>(
    topo: &T,
    workers: &[CampaignWorker],
    f: impl Fn(&Zbox) -> u64,
) -> Heatmap {
    let mut by_node = vec![0u64; topo.node_count()];
    for (site, zbox) in workers.iter().flat_map(|w| w.zboxes.iter().enumerate()) {
        by_node[site] += zbox.as_ref().map_or(0, &f);
    }
    node_grid(topo, &by_node)
}

/// Fold the observed run's `workers` into the public result: merge their
/// accumulators in region order, read link occupancy off the link meters
/// and reads served off the Zboxes, and lay the per-node values onto
/// `topo`'s grid. `pending_deltas` is the merged, sorted pending-set
/// occupancy log, replayed here into the `campaign.pending_depth`
/// windowed gauge.
pub(crate) fn assemble<T: Topology>(
    topo: &T,
    window_ps: u64,
    workers: &mut [CampaignWorker],
    profile: EpochProfile,
    pending_deltas: &[(u64, i8)],
) -> CampaignObservability {
    let nodes = topo.node_count();
    let mut heat = NetHeat::new(window_ps, nodes);
    let mut obs = ObsAcc::new(window_ps, nodes);
    for w in workers.iter_mut() {
        heat.merge(&w.net.take_heat().expect("heat was enabled"));
        obs.merge(w.obs.as_deref().expect("observation was enabled"));
    }
    let links = FabricLinks::gather(workers.iter().map(|w| &w.net));
    let link_busy = link_grid(topo, links.iter().map(|l| (l.from, l.busy_time().as_ps())));
    obs.timeline.merge(&heat.timeline);
    let mut occupancy = 0i64;
    for &(at_ps, d) in pending_deltas {
        occupancy += i64::from(d);
        obs.timeline
            .gauge_max(at_ps, "campaign.pending_depth", occupancy.max(0) as u64);
    }
    obs.latencies.sort_unstable();
    CampaignObservability {
        window_ps,
        node_delivered: node_grid(topo, &heat.node_delivered),
        link_busy,
        zbox_reads: zbox_grid(topo, workers, Zbox::accesses),
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
    fn obs_merge_in_region_order_matches_sequential() {
        let mut whole = ObsAcc::new(1_000, 4);
        let mut a = ObsAcc::new(1_000, 4);
        let mut b = ObsAcc::new(1_000, 4);
        for i in 0..10u64 {
            let at = i * 700;
            whole.note_completion(at, 50 + i);
            whole.note_zbox_read(at, (i % 4) as usize, 10 * i);
            let part = if i % 2 == 0 { &mut a } else { &mut b };
            part.note_completion(at, 50 + i);
            part.note_zbox_read(at, (i % 4) as usize, 10 * i);
        }
        let mut merged = ObsAcc::new(1_000, 4);
        merged.merge(&a);
        merged.merge(&b);
        merged.latencies.sort_unstable();
        whole.latencies.sort_unstable();
        assert_eq!(merged.timeline, whole.timeline);
        assert_eq!(merged.latencies, whole.latencies);
        assert_eq!(merged.zbox_busy_ps, whole.zbox_busy_ps);
        assert_eq!(
            merged.timeline.totals().counter("campaign.completed"),
            10,
            "window sums equal the run total"
        );
    }

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
