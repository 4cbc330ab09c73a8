//! Region assignment for sharded simulation, and the conservative
//! lookahead those regions guarantee.
//!
//! The epoch engine ([`alphasim_kernel::shard`]) needs two things from the
//! network layer: a deterministic node → region map, and the
//! **conservative lookahead** — the minimum latency of any live link whose
//! endpoints sit in different regions. Any event a region emits for a peer
//! region travels over such a link, so it fires at least one lookahead
//! after its cause: regions may therefore advance that far independently
//! without ever receiving an event in their past.
//!
//! Regions are contiguous node-index bands. Node ids are row-major on the
//! torus, so bands are row bands: a 8×8 torus at 4 shards becomes four 8×2
//! tiles, and the paper's bisection traffic (same-row mirrors) stays
//! intra-region while only North/South band-boundary and wrap links cross.
//!
//! The lookahead is a value derived from the live fabric:
//! [`lookahead_by_walk`] walks every live port. The fabric tables
//! ([`crate::partition::FabricTables`]) run that walk whenever their live
//! graph or their partition changes — at construction, on a
//! re-partition, and on every link strike — and store the result.

use alphasim_kernel::SimDuration;
use alphasim_topology::{NodeId, Topology};

use crate::timing::LinkTiming;

/// A deterministic node → region partition.
///
/// # Examples
///
/// ```
/// use alphasim_net::region::{lookahead_by_walk, RegionMap};
/// use alphasim_net::LinkTiming;
/// use alphasim_topology::{Torus2D, NodeId};
///
/// let torus = Torus2D::new(8, 8);
/// let map = RegionMap::bands(&torus, 4);
/// assert_eq!(map.region_of(NodeId::new(0)), 0);
/// assert_eq!(map.region_of(NodeId::new(63)), 3);
/// let la = lookahead_by_walk(&torus, &map, &LinkTiming::ev7_torus())
///     .expect("bands of a torus always share links");
/// // Cheapest cross-band link on an 8x8: a board-class North/South hop.
/// assert_eq!(la.as_ns(), 20.5);
/// ```
#[derive(Debug, Clone)]
pub struct RegionMap {
    node_region: Vec<usize>,
    shards: usize,
}

impl RegionMap {
    /// Partition `topo` into `shards` contiguous node-index bands (clamped
    /// to at least 1 and at most the node count).
    pub fn bands<T: Topology>(topo: &T, shards: usize) -> Self {
        let n = topo.node_count();
        let shards = shards.clamp(1, n);
        RegionMap {
            node_region: (0..n).map(|i| i * shards / n).collect(),
            shards,
        }
    }

    /// Number of regions.
    pub fn shard_count(&self) -> usize {
        self.shards
    }

    /// The region owning `node`.
    pub fn region_of(&self, node: NodeId) -> usize {
        self.node_region[node.index()]
    }

    /// Whether the directed link `from -> to` crosses regions.
    pub fn crosses(&self, from: NodeId, to: NodeId) -> bool {
        self.region_of(from) != self.region_of(to)
    }
}

/// The conservative lookahead of `map` over `topo`: walk every port of
/// `topo` (pass the live fabric, so dead links are not ports) and take the
/// cheapest hop (router + wire) whose endpoints `map` places in different
/// regions. `None` when no link crosses a region boundary (a single
/// region, or a fully severed boundary — either way there is no
/// inter-region traffic to be conservative about).
pub fn lookahead_by_walk<T: Topology>(
    topo: &T,
    map: &RegionMap,
    timing: &LinkTiming,
) -> Option<SimDuration> {
    let mut best: Option<SimDuration> = None;
    for i in 0..topo.node_count() {
        let node = NodeId::new(i);
        for p in topo.ports(node) {
            if map.crosses(node, p.to) {
                let hop = timing.hop(p.class);
                if best.is_none_or(|b| hop < b) {
                    best = Some(hop);
                }
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use alphasim_topology::Torus2D;

    #[test]
    fn bands_are_contiguous_and_cover_every_node() {
        let torus = Torus2D::new(8, 8);
        let map = RegionMap::bands(&torus, 4);
        assert_eq!(map.shard_count(), 4);
        let mut prev = 0;
        for i in 0..64 {
            let r = map.region_of(NodeId::new(i));
            assert!(r >= prev, "regions are monotone in node index");
            prev = r;
        }
        assert_eq!(map.region_of(NodeId::new(63)), 3);
    }

    #[test]
    fn single_region_has_no_lookahead() {
        let torus = Torus2D::new(4, 4);
        let map = RegionMap::bands(&torus, 1);
        assert_eq!(
            lookahead_by_walk(&torus, &map, &LinkTiming::ev7_torus()),
            None,
            "one region: nothing is inter-region"
        );
    }

    #[test]
    fn shard_count_is_clamped_to_node_count() {
        let torus = Torus2D::new(2, 2);
        let map = RegionMap::bands(&torus, 64);
        assert_eq!(map.shard_count(), 4);
    }

    #[test]
    fn row_bands_keep_bisection_traffic_intra_region() {
        // The resilience pattern pairs same-row mirrors; row bands must
        // keep those flows inside one region.
        let torus = Torus2D::new(8, 8);
        let map = RegionMap::bands(&torus, 4);
        for row in 0..8 {
            for col in 0..4 {
                let west = NodeId::new(row * 8 + col);
                let east = NodeId::new(row * 8 + (col + 4));
                assert_eq!(
                    map.region_of(west),
                    map.region_of(east),
                    "row {row} mirror pair split across regions"
                );
            }
        }
    }
}
