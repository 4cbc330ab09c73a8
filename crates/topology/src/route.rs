//! Routing for the reproduced fabrics.
//!
//! The 21364 uses *minimal adaptive* routing: only minimal paths are used,
//! but a message may pick the less congested minimal next hop (§2). Deadlock
//! freedom comes from (a) per-coherence-class virtual channels with an
//! acyclic class order, (b) VC0/VC1 "dateline" channels within each torus
//! ring, and (c) dimension-order (X then Y) escape routing, plus an Adaptive
//! channel that can always drain into the escape channels.
//!
//! This module provides the route tables the network simulator consumes and
//! the dimension-order escape paths ([`escape_path`]) from which
//! `verify::cdg` builds the channel-dependency graph that *proves* the
//! escape network acyclic, reproducing the paper's deadlock-avoidance
//! argument as an executable property. The route tables come from one
//! breadth-first search per destination over a flat reverse adjacency; the
//! same relaxation that settles a distance also records which ports lead one
//! hop closer, so a hop's adaptive candidates are a precomputed port mask.

use serde::{Deserialize, Serialize};

use crate::ids::{Direction, LinkClass, NodeId};
use crate::torus::Torus2D;
use crate::Topology;

/// How shuffle links may be used (paper §4.1, Fig. 18).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RoutePolicy {
    /// Any link on a minimal path, at any hop (plain torus behaviour).
    Minimal,
    /// "Shuffle with 1-hop": shuffle links only as the *first* hop.
    ShuffleFirstHop,
    /// "Shuffle with 2-hops": shuffle links only within the first two hops.
    ShuffleFirstTwoHops,
}

impl RoutePolicy {
    /// Maximum hop index (0-based) at which a shuffle link may be taken;
    /// `None` means no restriction.
    fn shuffle_hop_limit(self) -> Option<u32> {
        match self {
            RoutePolicy::Minimal => None,
            RoutePolicy::ShuffleFirstHop => Some(1),
            RoutePolicy::ShuffleFirstTwoHops => Some(2),
        }
    }
}

/// Precomputed minimal routes under a [`RoutePolicy`].
///
/// Distances are computed on a layered graph whose state is
/// `(node, hops-taken, capped)`, so a policy that forbids shuffle links after
/// hop *k* still yields correct shortest distances and never dead-ends.
/// Alongside each distance the tables keep a **next-hop port mask**: bit `p`
/// is set when port `p` leads one hop closer, so the adaptive candidate set
/// of a hop is read, not searched.
///
/// # Examples
///
/// ```
/// use alphasim_topology::{Torus2D, NodeId};
/// use alphasim_topology::route::{Routes, RoutePolicy};
///
/// let torus = Torus2D::new(4, 4);
/// let routes = Routes::compute(&torus, RoutePolicy::Minimal);
/// // From node 0 to node 2 (two columns east) both E and W are minimal on
/// // a 4-ring, so there are two candidate ports.
/// let ports: Vec<usize> = routes
///     .minimal_ports(NodeId::new(0), 0, NodeId::new(2))
///     .collect();
/// assert_eq!(ports.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct Routes {
    n: usize,
    layers: u32,
    policy: RoutePolicy,
    /// Remaining hops from `at` to `dst` having already taken `k` hops
    /// (`k` saturates at `layers - 1`), at `(k·n + dst)·n + at`: one
    /// destination-major row per layer and destination.
    dist: Vec<u32>,
    /// Next-hop port masks, indexed like `dist`: bit `p` is set when port
    /// `p` of `at` is allowed at hop `k` and leads to a node exactly one hop
    /// closer to `dst`.
    next: Vec<u32>,
}

impl Routes {
    /// Distance value meaning "unreachable".
    pub const UNREACHABLE: u32 = u32::MAX;

    /// Compute routes over `topo` under `policy`.
    ///
    /// # Panics
    ///
    /// Panics if a node has more than 32 ports (the width of a port mask).
    pub fn compute<T: Topology + ?Sized>(topo: &T, policy: RoutePolicy) -> Self {
        let n = topo.node_count();
        let layers = policy.shuffle_hop_limit().map_or(1, |l| l + 1);
        let last = layers - 1;
        // The policy makes distances depend on how many hops a packet has
        // already taken, so we BFS a layered graph with states
        // `(node, k = min(hops_taken, layers-1))`. Transitions: from
        // `(at, k)` over a port allowed at hop index `k` to
        // `(port.to, min(k+1, layers-1))`.
        //
        // Flat reverse adjacency: the incoming links of node `v` are
        // `rev[start[v]..start[v + 1]]`, each `(sender, port index, class)`.
        let mut start = vec![0usize; n + 1];
        for at in 0..n {
            let ports = topo.ports(NodeId::new(at));
            assert!(
                ports.len() <= 32,
                "node {at} has {} ports; a next-hop mask holds 32",
                ports.len()
            );
            for p in ports {
                start[p.to.index() + 1] += 1;
            }
        }
        for v in 0..n {
            start[v + 1] += start[v];
        }
        let mut fill = start.clone();
        let mut rev = vec![(0usize, 0u32, LinkClass::Module); start[n]];
        for at in 0..n {
            for (pi, p) in topo.ports(NodeId::new(at)).iter().enumerate() {
                let v = p.to.index();
                rev[fill[v]] = (at, pi as u32, p.class);
                fill[v] += 1;
            }
        }
        let cells = layers as usize * n * n;
        let mut dist = vec![Self::UNREACHABLE; cells];
        let mut next = vec![0u32; cells];
        let row = |k: u32, dst: usize| (k as usize * n + dst) * n;
        let mut queue: Vec<(usize, u32)> = Vec::with_capacity(n * layers as usize);
        for dst in 0..n {
            queue.clear();
            for k in 0..layers {
                dist[row(k, dst) + dst] = 0;
                queue.push((dst, k));
            }
            let mut head = 0;
            while let Some(&(node, k)) = queue.get(head) {
                head += 1;
                let d = dist[row(k, dst) + node];
                // Predecessor layers kp with min(kp+1, layers-1) == k.
                let (preds, np) = if k == last {
                    (
                        [last, last.saturating_sub(1)],
                        if layers >= 2 { 2 } else { 1 },
                    )
                } else if k > 0 {
                    ([k - 1, 0], 1)
                } else {
                    ([0, 0], 0)
                };
                for &(at, pi, class) in &rev[start[node]..start[node + 1]] {
                    for &kp in &preds[..np] {
                        if !policy_allows(policy, class, kp) {
                            continue;
                        }
                        // BFS settles distances in rising order, so a
                        // predecessor one hop farther is either unseen or
                        // already at `d + 1`; either way this port is on a
                        // minimal path from it.
                        let s = row(kp, dst) + at;
                        if dist[s] == Self::UNREACHABLE {
                            dist[s] = d + 1;
                            queue.push((at, kp));
                        }
                        if dist[s] == d + 1 {
                            next[s] |= 1 << pi;
                        }
                    }
                }
            }
        }
        Routes {
            n,
            layers,
            policy,
            dist,
            next,
        }
    }

    /// The policy these routes were computed under.
    pub fn policy(&self) -> RoutePolicy {
        self.policy
    }

    /// Index of `(at, taken, dst)` in the flat tables.
    fn cell(&self, at: NodeId, taken: u32, dst: NodeId) -> usize {
        let k = taken.min(self.layers - 1) as usize;
        (k * self.n + dst.index()) * self.n + at.index()
    }

    /// Remaining hops from `at` to `dst` with `taken` hops already behind.
    pub fn distance(&self, at: NodeId, taken: u32, dst: NodeId) -> u32 {
        self.dist[self.cell(at, taken, dst)]
    }

    /// Indices (into the routed topology's `ports(at)`) of every port on a
    /// minimal remaining path from `at` to `dst` given `taken` hops so far
    /// — the adaptive candidate set — in ascending order.
    ///
    /// # Panics
    ///
    /// Panics if `dst` is unreachable from `at` under the policy.
    pub fn minimal_ports(
        &self,
        at: NodeId,
        taken: u32,
        dst: NodeId,
    ) -> impl Iterator<Item = usize> {
        let i = self.cell(at, taken, dst);
        assert!(self.dist[i] != Self::UNREACHABLE, "destination unreachable");
        let mut mask = self.next[i];
        std::iter::from_fn(move || {
            (mask != 0).then(|| {
                let p = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                p
            })
        })
    }

    /// Mean hop distance over ordered endpoint pairs, under this policy.
    pub fn average_distance<T: Topology + ?Sized>(&self, topo: &T) -> f64 {
        let eps = topo.endpoints();
        let mut total = 0u64;
        let mut pairs = 0u64;
        for &a in &eps {
            for &b in &eps {
                if a != b {
                    total += u64::from(self.distance(a, 0, b));
                    pairs += 1;
                }
            }
        }
        if pairs == 0 {
            0.0
        } else {
            total as f64 / pairs as f64
        }
    }
}

fn policy_allows(policy: RoutePolicy, class: LinkClass, hop_index: u32) -> bool {
    if class != LinkClass::Shuffle {
        return true;
    }
    match policy.shuffle_hop_limit() {
        None => true,
        Some(limit) => hop_index < limit,
    }
}

/// Dimension-order (X then Y) next direction on a plain torus — the escape
/// route that guarantees inter-dimensional deadlock freedom (§2, citing
/// Duato et al.).
///
/// Ties on a ring of even length (distance exactly half way) resolve East /
/// South. Returns `None` when `at == dst`.
pub fn dimension_order_direction(torus: &Torus2D, at: NodeId, dst: NodeId) -> Option<Direction> {
    let a = torus.coord_of(at);
    let b = torus.coord_of(dst);
    if a == b {
        return None;
    }
    if a.x != b.x {
        let cols = torus.cols();
        let east = (b.x as usize + cols - a.x as usize) % cols;
        let west = cols - east;
        Some(if east <= west {
            Direction::East
        } else {
            Direction::West
        })
    } else {
        let rows = torus.rows();
        let south = (b.y as usize + rows - a.y as usize) % rows;
        let north = rows - south;
        Some(if south <= north {
            Direction::South
        } else {
            Direction::North
        })
    }
}

/// A virtual-channel id on the escape network: VC0 before a packet crosses
/// the ring's dateline (the wrap-around link), VC1 after.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EscapeChannel {
    /// Source node of the directed physical link.
    pub from: NodeId,
    /// Destination node of the directed physical link.
    pub to: NodeId,
    /// Dateline virtual channel (0 or 1).
    pub vc: u8,
}

/// The dimension-order escape path from `src` to `dst` as a sequence of
/// virtual channels, one per physical hop.
///
/// With `dateline_vcs == true`, packets start each ring on VC0 and move to
/// VC1 after crossing that ring's wrap link (the 21364's intra-dimension
/// deadlock fix); entering a new dimension resets the packet to VC0. With
/// `false` every hop reports VC0, modelling a single-VC torus.
///
/// Returns the empty path when `src == dst`.
pub fn escape_path(
    torus: &Torus2D,
    src: NodeId,
    dst: NodeId,
    dateline_vcs: bool,
) -> Vec<EscapeChannel> {
    let mut path = Vec::new();
    let mut at = src;
    let mut vc = 0u8;
    let mut prev_horizontal: Option<bool> = None;
    while at != dst {
        let dir = dimension_order_direction(torus, at, dst).expect("not yet arrived");
        let port = torus
            .ports(at)
            .iter()
            .find(|p| p.dir == Some(dir))
            .expect("torus has the escape direction");
        // Crossing a wrap link: adjacent ring positions that are not
        // numerically adjacent. On 2-rings the two nodes are mutually
        // adjacent; the 2-cycle is harmless for the CDG because the two
        // directions use distinct buffers.
        let here = torus.coord_of(at);
        let there = torus.coord_of(port.to);
        let crossing = if dir.is_horizontal() {
            wraps(here.x as usize, there.x as usize, torus.cols())
        } else {
            wraps(here.y as usize, there.y as usize, torus.rows())
        };
        // Moving into a new dimension resets the dateline VC.
        if prev_horizontal.is_some_and(|h| h != dir.is_horizontal()) {
            vc = 0;
        }
        path.push(EscapeChannel {
            from: at,
            to: port.to,
            vc: if dateline_vcs { vc } else { 0 },
        });
        if crossing && dateline_vcs {
            vc = 1;
        }
        prev_horizontal = Some(dir.is_horizontal());
        at = port.to;
    }
    path
}

fn wraps(a: usize, b: usize, len: usize) -> bool {
    if len <= 2 {
        return false;
    }
    // Adjacent ring positions that are not numerically adjacent use the wrap.
    a.abs_diff(b) == len - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::DistanceMatrix;
    use crate::ShuffleTorus;

    #[test]
    fn minimal_routes_match_distance_matrix() {
        let t = Torus2D::new(4, 4);
        let routes = Routes::compute(&t, RoutePolicy::Minimal);
        let d = DistanceMatrix::compute(&t);
        for a in 0..16 {
            for b in 0..16 {
                assert_eq!(
                    routes.distance(NodeId::new(a), 0, NodeId::new(b)),
                    d.distance(NodeId::new(a), NodeId::new(b)),
                );
            }
        }
    }

    #[test]
    fn minimal_ports_make_progress() {
        let t = Torus2D::new(8, 4);
        let routes = Routes::compute(&t, RoutePolicy::Minimal);
        for a in 0..32 {
            for b in 0..32 {
                if a == b {
                    continue;
                }
                let (a, b) = (NodeId::new(a), NodeId::new(b));
                let ports: Vec<usize> = routes.minimal_ports(a, 0, b).collect();
                assert!(!ports.is_empty());
                for pi in ports {
                    let to = t.ports(a)[pi].to;
                    assert_eq!(routes.distance(to, 1, b) + 1, routes.distance(a, 0, b));
                }
            }
        }
    }

    #[test]
    fn walking_minimal_ports_reaches_destination() {
        let t = ShuffleTorus::new(8, 4);
        for policy in [
            RoutePolicy::Minimal,
            RoutePolicy::ShuffleFirstHop,
            RoutePolicy::ShuffleFirstTwoHops,
        ] {
            let routes = Routes::compute(&t, policy);
            for a in 0..32 {
                for b in 0..32 {
                    if a == b {
                        continue;
                    }
                    let (src, dst) = (NodeId::new(a), NodeId::new(b));
                    let mut at = src;
                    let mut taken = 0u32;
                    while at != dst {
                        let ports: Vec<usize> = routes.minimal_ports(at, taken, dst).collect();
                        assert!(!ports.is_empty(), "{policy:?}: stuck at {at} for {dst}");
                        at = t.ports(at)[ports[0]].to;
                        taken += 1;
                        assert!(taken <= 16, "{policy:?}: runaway route");
                    }
                }
            }
        }
    }

    #[test]
    fn shuffle_policy_orders_average_distance() {
        // Restricting shuffle links can only lengthen paths:
        // minimal <= two-hop <= one-hop <= plain torus.
        let s = ShuffleTorus::new(4, 2);
        let t = Torus2D::new(4, 2);
        let free = Routes::compute(&s, RoutePolicy::Minimal).average_distance(&s);
        let two = Routes::compute(&s, RoutePolicy::ShuffleFirstTwoHops).average_distance(&s);
        let one = Routes::compute(&s, RoutePolicy::ShuffleFirstHop).average_distance(&s);
        let torus = Routes::compute(&t, RoutePolicy::Minimal).average_distance(&t);
        assert!(free <= two + 1e-12);
        assert!(two <= one + 1e-12);
        assert!(one <= torus + 1e-12, "one={one} torus={torus}");
    }

    #[test]
    fn shuffle_first_hop_still_never_dead_ends() {
        let s = ShuffleTorus::new(8, 4);
        let routes = Routes::compute(&s, RoutePolicy::ShuffleFirstHop);
        for a in 0..32 {
            for b in 0..32 {
                if a != b {
                    assert_ne!(
                        routes.distance(NodeId::new(a), 0, NodeId::new(b)),
                        Routes::UNREACHABLE
                    );
                }
            }
        }
    }

    #[test]
    fn dimension_order_goes_x_first() {
        let t = Torus2D::new(4, 4);
        let n = |x, y| t.node_at(crate::Coord::new(x, y));
        assert_eq!(
            dimension_order_direction(&t, n(0, 0), n(2, 2)),
            Some(Direction::East)
        );
        assert_eq!(
            dimension_order_direction(&t, n(2, 0), n(2, 2)),
            Some(Direction::South)
        );
        assert_eq!(
            dimension_order_direction(&t, n(0, 0), n(3, 0)),
            Some(Direction::West)
        );
        assert_eq!(dimension_order_direction(&t, n(1, 1), n(1, 1)), None);
    }

    #[test]
    fn dimension_order_paths_are_minimal() {
        let t = Torus2D::new(8, 4);
        for a in 0..32 {
            for b in 0..32 {
                let (src, dst) = (NodeId::new(a), NodeId::new(b));
                let mut at = src;
                let mut hops = 0;
                while let Some(dir) = dimension_order_direction(&t, at, dst) {
                    at = t.ports(at).iter().find(|p| p.dir == Some(dir)).unwrap().to;
                    hops += 1;
                }
                assert_eq!(hops, t.hop_distance(src, dst));
            }
        }
    }

    #[test]
    fn escape_paths_follow_dimension_order_and_stamp_datelines() {
        let t = Torus2D::new(4, 4);
        for a in 0..16 {
            for b in 0..16 {
                let (src, dst) = (NodeId::new(a), NodeId::new(b));
                let path = escape_path(&t, src, dst, true);
                assert_eq!(path.len(), t.hop_distance(src, dst));
                if a == b {
                    continue;
                }
                assert_eq!(path[0].from, src);
                assert_eq!(path.last().unwrap().to, dst);
                for pair in path.windows(2) {
                    assert_eq!(pair[0].to, pair[1].from);
                    // The dateline VC never steps back within a dimension.
                    let same_dim = (t.coord_of(pair[0].from).y == t.coord_of(pair[0].to).y)
                        == (t.coord_of(pair[1].from).y == t.coord_of(pair[1].to).y);
                    if same_dim {
                        assert!(pair[1].vc >= pair[0].vc, "{path:?}");
                    }
                }
                // Without datelines every hop reports VC0.
                assert!(escape_path(&t, src, dst, false).iter().all(|c| c.vc == 0));
            }
        }
    }
}
