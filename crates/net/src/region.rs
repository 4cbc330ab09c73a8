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
//! The lookahead is maintained *incrementally*: [`RegionMap`] counts live
//! cross-region directed links per [`LinkClass`] at construction and
//! adjusts the counts as faults strike, so
//! [`conservative_lookahead`](RegionMap::conservative_lookahead) is a
//! `O(#classes)` fold rather than a fabric walk on every query. The
//! proptest suite pins this incremental value to the brute-force
//! [`lookahead_by_walk`] across torus sizes and link-cut sets.

use std::collections::BTreeMap;

use alphasim_kernel::SimDuration;
use alphasim_topology::{LinkClass, NodeId, Topology};

use crate::timing::LinkTiming;

/// A deterministic node → region partition with live cross-region link
/// accounting.
///
/// # Examples
///
/// ```
/// use alphasim_net::region::RegionMap;
/// use alphasim_net::LinkTiming;
/// use alphasim_topology::{Torus2D, NodeId};
///
/// let torus = Torus2D::new(8, 8);
/// let map = RegionMap::bands(&torus, 4);
/// assert_eq!(map.region_of(NodeId::new(0)), 0);
/// assert_eq!(map.region_of(NodeId::new(63)), 3);
/// let la = map
///     .conservative_lookahead(&LinkTiming::ev7_torus())
///     .expect("bands of a torus always share links");
/// // Cheapest cross-band link on an 8x8: a board-class North/South hop.
/// assert_eq!(la.as_ns(), 20.5);
/// ```
#[derive(Debug, Clone)]
pub struct RegionMap {
    node_region: Vec<usize>,
    shards: usize,
    /// Live directed cross-region links per class. Kept in an ordered map
    /// so iteration (and therefore the lookahead fold) is deterministic.
    cross: BTreeMap<LinkClass, u64>,
}

impl RegionMap {
    /// Partition `topo` into `shards` contiguous node-index bands (clamped
    /// to at least 1 and at most the node count) and count the directed
    /// links crossing band boundaries.
    pub fn bands<T: Topology>(topo: &T, shards: usize) -> Self {
        let n = topo.node_count();
        let shards = shards.clamp(1, n);
        let node_region = (0..n).map(|i| i * shards / n).collect();
        let mut map = RegionMap {
            node_region,
            shards,
            cross: BTreeMap::new(),
        };
        for i in 0..n {
            let node = NodeId::new(i);
            for p in topo.ports(node) {
                if map.region_of(node) != map.region_of(p.to) {
                    *map.cross.entry(p.class).or_insert(0) += 1;
                }
            }
        }
        map
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

    /// Record the directed channel `from -> to` (of `class`) going dead.
    /// No-op for intra-region links.
    pub fn directed_link_down(&mut self, from: NodeId, to: NodeId, class: LinkClass) {
        if self.crosses(from, to) {
            let count = self.cross.entry(class).or_insert(0);
            debug_assert!(*count > 0, "more cross links died than exist");
            *count = count.saturating_sub(1);
        }
    }

    /// Record the directed channel `from -> to` (of `class`) coming back.
    pub fn directed_link_up(&mut self, from: NodeId, to: NodeId, class: LinkClass) {
        if self.crosses(from, to) {
            *self.cross.entry(class).or_insert(0) += 1;
        }
    }

    /// The conservative lookahead: the cheapest hop (router + wire) over
    /// any *live* cross-region link, or `None` when no live link crosses a
    /// region boundary (a single region, or a fully severed boundary —
    /// either way there is no inter-region traffic to be conservative
    /// about).
    pub fn conservative_lookahead(&self, timing: &LinkTiming) -> Option<SimDuration> {
        self.cross
            .iter()
            .filter(|&(_, &count)| count > 0)
            .map(|(&class, _)| timing.hop(class))
            .min()
    }
}

/// Brute-force reference for the lookahead: walk every live port of `topo`
/// and take the cheapest hop whose endpoints `map` places in different
/// regions. This is the oracle the incremental accounting is tested
/// against; simulation code should use
/// [`RegionMap::conservative_lookahead`].
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
    use alphasim_topology::{Degraded, Torus2D};

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
            map.conservative_lookahead(&LinkTiming::ev7_torus()),
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
    fn incremental_lookahead_matches_walk_on_healthy_tori() {
        let timing = LinkTiming::ev7_torus();
        for (c, r) in [(4, 4), (8, 4), (8, 8), (16, 16)] {
            let torus = Torus2D::new(c, r);
            for shards in [2, 3, 4] {
                let map = RegionMap::bands(&torus, shards);
                assert_eq!(
                    map.conservative_lookahead(&timing),
                    lookahead_by_walk(&torus, &map, &timing),
                    "{c}x{r} torus at {shards} shards"
                );
            }
        }
    }

    #[test]
    fn link_cuts_update_the_lookahead_incrementally() {
        // Cut both directed channels of a cross-band link and check the
        // incremental counts track the brute-force walk over the wounded
        // fabric.
        let timing = LinkTiming::ev7_torus();
        let torus = Torus2D::new(4, 4);
        let mut map = RegionMap::bands(&torus, 2);
        // Node 4 (row 1) -> node 8 (row 2) is a band-boundary board link.
        let (a, b) = (NodeId::new(4), NodeId::new(8));
        let class = torus
            .ports(a)
            .iter()
            .find(|p| p.to == b)
            .expect("link exists")
            .class;
        map.directed_link_down(a, b, class);
        map.directed_link_down(b, a, class);
        let wounded = Degraded::new(torus, &[(a, b)]);
        assert_eq!(
            map.conservative_lookahead(&timing),
            lookahead_by_walk(&wounded, &map, &timing)
        );
        map.directed_link_up(a, b, class);
        map.directed_link_up(b, a, class);
        assert_eq!(
            map.conservative_lookahead(&timing),
            lookahead_by_walk(wounded.inner(), &map, &timing),
            "restoring the link restores the healthy lookahead"
        );
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
