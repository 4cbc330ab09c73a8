//! Up*/down* escape routing for wounded fabrics.
//!
//! Dimension-order routing with dateline VCs proves the *healthy* torus
//! deadlock-free, but a fault campaign (PR 2) cuts links mid-run, and a cut
//! can remove exactly the link dimension-order routing insists on. The
//! classic repair — used by Autonet and by every spanning-tree-based
//! irregular-fabric router since — is **up*/down*** routing: root a BFS
//! spanning tree at node 0, call a link *up* when it leads toward the root
//! (smaller `(depth, id)` rank) and *down* otherwise, and restrict every
//! route to zero or more up hops followed by zero or more down hops. A
//! packet never turns down-then-up, so channel dependencies follow the rank
//! order monotonically: up channels only feed channels of still-smaller head
//! rank (or the down network), down channels only feed larger head ranks —
//! no cycle can close.
//!
//! [`UpDownRoutes`] computes shortest *legal* paths on any connected
//! [`Topology`], deterministically (ties break on port order). The `verify`
//! crate builds its channel-dependency graph over these paths and proves the
//! acyclicity claim above for every single and double link cut the fault
//! sets can produce, instead of trusting the folklore argument.

use crate::ids::NodeId;
use crate::route::EscapeChannel;
use crate::Topology;

use std::collections::VecDeque;

/// Escape routes over a (possibly degraded) topology, restricted to
/// up*/down* legal paths on a BFS spanning tree rooted at node 0.
///
/// # Examples
///
/// ```
/// use alphasim_topology::{Degraded, NodeId, Torus2D, UpDownRoutes};
///
/// let wounded = Degraded::new(Torus2D::new(4, 4), &[(NodeId::new(0), NodeId::new(1))]);
/// let routes = UpDownRoutes::compute(&wounded).expect("still connected");
/// let path = routes.path(&wounded, NodeId::new(0), NodeId::new(1));
/// assert_eq!(path.first().expect("non-empty").from, NodeId::new(0));
/// assert_eq!(path.last().expect("non-empty").to, NodeId::new(1));
/// ```
#[derive(Debug, Clone)]
pub struct UpDownRoutes {
    /// Total order on nodes: `rank[v] = depth(v) * n + v`, root-first.
    rank: Vec<u64>,
}

/// Why up*/down* routes could not be computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpDownError {
    /// Some node is unreachable from the root; no spanning tree exists.
    Disconnected {
        /// The first unreachable node.
        node: NodeId,
    },
}

impl std::fmt::Display for UpDownError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UpDownError::Disconnected { node } => {
                write!(f, "fabric is partitioned: {node} unreachable from n0")
            }
        }
    }
}

impl std::error::Error for UpDownError {}

/// Phase encoding used in the [`EscapeChannel::vc`] field of up*/down*
/// paths: up hops ride VC0, down hops VC1.
pub const UP_VC: u8 = 0;
/// See [`UP_VC`].
pub const DOWN_VC: u8 = 1;

impl UpDownRoutes {
    /// Root a BFS spanning tree at node 0 of `topo` and derive the rank
    /// order, or report the partition if `topo` is disconnected.
    pub fn compute<T: Topology + ?Sized>(topo: &T) -> Result<Self, UpDownError> {
        let n = topo.node_count();
        assert!(n > 0, "empty topology");
        let mut depth = vec![u64::MAX; n];
        depth[0] = 0;
        let mut queue = VecDeque::from([0usize]);
        while let Some(at) = queue.pop_front() {
            for p in topo.ports(NodeId::new(at)) {
                let to = p.to.index();
                if depth[to] == u64::MAX {
                    depth[to] = depth[at] + 1;
                    queue.push_back(to);
                }
            }
        }
        if let Some(node) = (0..n).find(|&v| depth[v] == u64::MAX) {
            return Err(UpDownError::Disconnected {
                node: NodeId::new(node),
            });
        }
        let rank = (0..n).map(|v| depth[v] * n as u64 + v as u64).collect();
        Ok(UpDownRoutes { rank })
    }

    /// Whether the directed link `from -> to` is an *up* link (toward the
    /// root in rank order).
    pub fn is_up(&self, from: NodeId, to: NodeId) -> bool {
        self.rank[to.index()] < self.rank[from.index()]
    }

    /// The shortest up*/down* legal path from `src` to `dst`, one
    /// [`EscapeChannel`] per hop with `vc` = [`UP_VC`] on up hops and
    /// [`DOWN_VC`] on down hops. Deterministic: ties break on port order.
    ///
    /// Empty when `src == dst`.
    ///
    /// # Panics
    ///
    /// Panics if `topo` is not the topology these routes were computed for
    /// (a legal path always exists on the spanning tree itself).
    pub fn path<T: Topology + ?Sized>(
        &self,
        topo: &T,
        src: NodeId,
        dst: NodeId,
    ) -> Vec<EscapeChannel> {
        self.path_with_dist(topo, src, dst, &self.distances_to(topo, dst))
    }

    /// [`path`](Self::path) with the destination's distance field supplied
    /// by the caller, so sweeps over many sources share one BFS.
    fn path_with_dist<T: Topology + ?Sized>(
        &self,
        topo: &T,
        src: NodeId,
        dst: NodeId,
        dist: &[u32],
    ) -> Vec<EscapeChannel> {
        let n = topo.node_count();
        let mut path = Vec::new();
        let (mut at, mut phase) = (src, 0usize);
        while at != dst {
            let here = dist[phase * n + at.index()];
            assert!(here != u32::MAX, "no legal up*/down* path {src} -> {dst}");
            let mut step = None;
            for p in topo.ports(at) {
                let next_phase = if self.is_up(at, p.to) { phase } else { 1 };
                // A down-then-up turn is illegal: an up hop out of the down
                // phase never continues a legal path.
                if phase == 1 && next_phase == 0 {
                    continue;
                }
                let there = dist[next_phase * n + p.to.index()];
                if there != u32::MAX && there + 1 == here {
                    step = Some((p.to, next_phase));
                    break;
                }
            }
            let (to, next_phase) = step.expect("a minimal legal next hop exists");
            path.push(EscapeChannel {
                from: at,
                to,
                vc: if next_phase == 0 { UP_VC } else { DOWN_VC },
            });
            at = to;
            phase = next_phase;
        }
        path
    }

    /// Legal-path distances from every `(node, phase)` state to `dst`,
    /// indexed `phase * n + node` with phase 0 = still climbing (up hops
    /// allowed), phase 1 = descending (down hops only). `u32::MAX` marks
    /// states that cannot reach `dst` legally.
    fn distances_to<T: Topology + ?Sized>(&self, topo: &T, dst: NodeId) -> Vec<u32> {
        self.distances_to_with(topo, dst, &reverse_adjacency(topo))
    }

    /// [`distances_to`](Self::distances_to) with the reverse adjacency
    /// supplied by the caller, so all-pairs sweeps build it once instead
    /// of once per destination.
    fn distances_to_with<T: Topology + ?Sized>(
        &self,
        topo: &T,
        dst: NodeId,
        radj: &[Vec<NodeId>],
    ) -> Vec<u32> {
        let n = topo.node_count();
        // Backward BFS over the layered legality graph: forward transitions
        // are (v, up) -up-> (w, up), (v, up) -down-> (w, down),
        // (v, down) -down-> (w, down). Arrival in either phase counts.
        let mut dist = vec![u32::MAX; 2 * n];
        let mut queue = VecDeque::new();
        for phase in [0usize, 1] {
            dist[phase * n + dst.index()] = 0;
            queue.push_back(phase * n + dst.index());
        }
        while let Some(state) = queue.pop_front() {
            let (phase, node) = (state / n, state % n);
            let d = dist[state];
            // Predecessors (v, pp) with a forward edge into (node, phase);
            // legality depends on the hop direction.
            for &from in &radj[node] {
                let up_hop = self.is_up(from, NodeId::new(node));
                let preds: &[usize] = match (up_hop, phase) {
                    (true, 0) => &[0],     // up hop keeps the up phase
                    (false, 1) => &[0, 1], // down hop enters/continues down
                    // An up hop cannot land in the down phase, and a down
                    // hop never lands in the up phase.
                    _ => &[],
                };
                for &pp in preds {
                    let s = pp * n + from.index();
                    if dist[s] == u32::MAX {
                        dist[s] = d + 1;
                        queue.push_back(s);
                    }
                }
            }
        }
        dist
    }

    /// Up*/down* paths for every ordered endpoint pair, in `(src, dst)`
    /// lexicographic order.
    pub fn all_pairs<T: Topology + ?Sized>(&self, topo: &T) -> Vec<Vec<EscapeChannel>> {
        let n = topo.node_count();
        let mut paths = Vec::with_capacity(n * (n - 1));
        self.for_each_pair(topo, |path| paths.push(path.to_vec()));
        paths
    }

    /// Visit the up*/down* path of every ordered endpoint pair in
    /// `(src, dst)` lexicographic order without materializing them all —
    /// at 1024 nodes the million-path vector of
    /// [`all_pairs`](Self::all_pairs) costs hundreds of megabytes, while the
    /// visitor needs one path at a time.
    pub fn for_each_pair<T: Topology + ?Sized>(
        &self,
        topo: &T,
        mut visit: impl FnMut(&[EscapeChannel]),
    ) {
        let n = topo.node_count();
        let radj = reverse_adjacency(topo);
        // One backward BFS per destination, shared across all sources.
        let dists: Vec<Vec<u32>> = (0..n)
            .map(|dst| self.distances_to_with(topo, NodeId::new(dst), &radj))
            .collect();
        for src in 0..n {
            for (dst, dist) in dists.iter().enumerate() {
                if src != dst {
                    visit(&self.path_with_dist(topo, NodeId::new(src), NodeId::new(dst), dist));
                }
            }
        }
    }
}

/// `radj[w]` lists every node with a port into `w`, in port-scan order.
fn reverse_adjacency<T: Topology + ?Sized>(topo: &T) -> Vec<Vec<NodeId>> {
    let n = topo.node_count();
    let mut radj: Vec<Vec<NodeId>> = vec![Vec::new(); n];
    for v in 0..n {
        let from = NodeId::new(v);
        for p in topo.ports(from) {
            radj[p.to.index()].push(from);
        }
    }
    radj
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Degraded, Torus2D};

    #[test]
    fn paths_are_legal_and_reach_their_destination() {
        let t = Torus2D::new(4, 4);
        let routes = UpDownRoutes::compute(&t).expect("torus is connected");
        for src in 0..16 {
            for dst in 0..16 {
                if src == dst {
                    continue;
                }
                let path = routes.path(&t, NodeId::new(src), NodeId::new(dst));
                assert_eq!(path.first().expect("non-empty").from, NodeId::new(src));
                assert_eq!(path.last().expect("non-empty").to, NodeId::new(dst));
                // Contiguous, and never down-then-up.
                let mut descended = false;
                for pair in path.windows(2) {
                    assert_eq!(pair[0].to, pair[1].from);
                }
                for hop in &path {
                    let up = routes.is_up(hop.from, hop.to);
                    assert_eq!(hop.vc, if up { UP_VC } else { DOWN_VC });
                    if up {
                        assert!(!descended, "down-then-up turn in {path:?}");
                    } else {
                        descended = true;
                    }
                }
            }
        }
    }

    #[test]
    fn survives_single_cuts_and_is_deterministic() {
        let base = Torus2D::new(4, 4);
        let wounded = Degraded::new(base, &[(NodeId::new(0), NodeId::new(1))]);
        let routes = UpDownRoutes::compute(&wounded).expect("connected");
        let a = routes.all_pairs(&wounded);
        let b = UpDownRoutes::compute(&wounded)
            .expect("connected")
            .all_pairs(&wounded);
        assert_eq!(a, b, "route computation must be deterministic");
        assert_eq!(a.len(), 16 * 15);
        // The cut link is never used.
        for path in &a {
            for hop in path {
                let ends = (
                    hop.from.index().min(hop.to.index()),
                    hop.from.index().max(hop.to.index()),
                );
                assert_ne!(ends, (0, 1), "path uses the failed link: {path:?}");
            }
        }
    }

    #[test]
    fn partition_is_reported_not_panicked() {
        let base = Torus2D::new(2, 2);
        let cuts: Vec<(NodeId, NodeId)> = base
            .ports(NodeId::new(0))
            .iter()
            .map(|p| (NodeId::new(0), p.to))
            .collect();
        let cut_off = Degraded::new(base, &cuts);
        let err = UpDownRoutes::compute(&cut_off).expect_err("node 0 is isolated");
        assert!(matches!(err, UpDownError::Disconnected { .. }));
        assert!(err.to_string().contains("partitioned"));
    }

    #[test]
    fn rank_orders_root_first() {
        let t = Torus2D::new(4, 4);
        let routes = UpDownRoutes::compute(&t).expect("connected");
        // The root has the smallest rank; its neighbors point up at it.
        for p in t.ports(NodeId::new(0)) {
            assert!(routes.is_up(p.to, NodeId::new(0)));
            assert!(!routes.is_up(NodeId::new(0), p.to));
        }
    }
}
