//! Minimum-latency paths over a fabric: Dijkstra with per-link-class hop
//! weights. The adaptive router picks among minimal paths; for unloaded
//! latency probes the cheapest one is what a dependent load observes.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use alphasim_kernel::SimDuration;
use alphasim_net::LinkTiming;
use alphasim_topology::{NodeId, Topology};

/// One-way minimum latency from `src` to every node, where each hop costs
/// `timing.hop(link class)`.
pub fn one_way_latencies<T: Topology + ?Sized>(
    topo: &T,
    timing: &LinkTiming,
    src: NodeId,
) -> Vec<SimDuration> {
    let n = topo.node_count();
    let mut dist = vec![u64::MAX; n];
    let mut heap = BinaryHeap::new();
    dist[src.index()] = 0;
    heap.push(Reverse((0u64, src.index())));
    while let Some(Reverse((d, u))) = heap.pop() {
        if d > dist[u] {
            continue;
        }
        for p in topo.ports(NodeId::new(u)) {
            let w = timing.hop(p.class).as_ps();
            let nd = d + w;
            if nd < dist[p.to.index()] {
                dist[p.to.index()] = nd;
                heap.push(Reverse((nd, p.to.index())));
            }
        }
    }
    dist.into_iter()
        .map(|d| {
            assert!(d != u64::MAX, "fabric is disconnected");
            SimDuration::from_ps(d)
        })
        .collect()
}

/// All-pairs one-way latencies (indexed `[src][dst]`).
pub fn all_pairs<T: Topology + ?Sized>(topo: &T, timing: &LinkTiming) -> Vec<Vec<SimDuration>> {
    (0..topo.node_count())
        .map(|s| one_way_latencies(topo, timing, NodeId::new(s)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use alphasim_topology::{Coord, Torus2D};

    #[test]
    fn one_hop_costs_match_link_class() {
        let t = Torus2D::new(4, 4);
        let timing = LinkTiming::ev7_torus();
        let from0 = one_way_latencies(&t, &timing, NodeId::new(0));
        // East board neighbor: 20.5 ns; module neighbor (0,1): 17.5 ns;
        // wrap cable neighbors: 25 ns.
        assert_eq!(from0[t.node_at(Coord::new(1, 0)).index()].as_ns(), 20.5);
        assert_eq!(from0[t.node_at(Coord::new(0, 1)).index()].as_ns(), 17.5);
        assert_eq!(from0[t.node_at(Coord::new(3, 0)).index()].as_ns(), 25.0);
        assert_eq!(from0[t.node_at(Coord::new(0, 3)).index()].as_ns(), 25.0);
    }

    #[test]
    fn paths_are_symmetric_on_the_torus() {
        let t = Torus2D::new(8, 4);
        let timing = LinkTiming::ev7_torus();
        let ap = all_pairs(&t, &timing);
        for (a, row) in ap.iter().enumerate() {
            for (b, &ab) in row.iter().enumerate() {
                assert_eq!(ab, ap[b][a]);
            }
        }
    }

    #[test]
    fn triangle_inequality_holds() {
        let t = Torus2D::new(4, 4);
        let timing = LinkTiming::ev7_torus();
        let ap = all_pairs(&t, &timing);
        for a in 0..16 {
            for b in 0..16 {
                for c in 0..16 {
                    assert!(ap[a][c] <= ap[a][b] + ap[b][c]);
                }
            }
        }
    }

    #[test]
    fn self_distance_is_zero() {
        let t = Torus2D::new(4, 2);
        let timing = LinkTiming::ev7_torus();
        for s in 0..8 {
            assert_eq!(
                one_way_latencies(&t, &timing, NodeId::new(s))[s],
                SimDuration::ZERO
            );
        }
    }
}
