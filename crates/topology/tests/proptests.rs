//! Property tests for topologies and routing.

// Test/harness code may unwrap freely; the workspace denies it in libraries.
#![allow(clippy::unwrap_used)]

use alphasim_topology::graph::{bisection_width, DistanceMatrix};
use alphasim_topology::route::{RoutePolicy, Routes};
use alphasim_topology::{Degraded, LinkClass, NodeId, QbbTree, ShuffleTorus, Topology, Torus2D};
use proptest::prelude::*;

/// Every full-duplex link of `t`, once per pair.
fn torus_links(t: &Torus2D) -> Vec<(NodeId, NodeId)> {
    let mut links = Vec::new();
    for n in 0..t.node_count() {
        let a = NodeId::new(n);
        for p in t.ports(a) {
            if a.index() < p.to.index() {
                links.push((a, p.to));
            }
        }
    }
    links
}

/// The 4x4 or 8x8 experiment tori (edge connectivity 4).
fn experiment_torus(big: bool) -> Torus2D {
    if big {
        Torus2D::new(8, 8)
    } else {
        Torus2D::new(4, 4)
    }
}

fn torus_shapes() -> impl Strategy<Value = (usize, usize)> {
    (1usize..=8, 1usize..=8).prop_filter("at least 2 nodes", |&(c, r)| c * r >= 2)
}

fn shuffle_shapes() -> impl Strategy<Value = (usize, usize)> {
    (2usize..=6, 1usize..=4).prop_map(|(c2, r)| (2 * c2, r + 1))
}

const POLICIES: [RoutePolicy; 3] = [
    RoutePolicy::Minimal,
    RoutePolicy::ShuffleFirstHop,
    RoutePolicy::ShuffleFirstTwoHops,
];

/// The distance filter the next-hop masks replaced, kept as the reference:
/// every port of `at` that `policy` allows after `taken` hops and that
/// leads exactly one hop closer to `dst`, in port order.
fn ports_by_distance<T: Topology>(
    topo: &T,
    routes: &Routes,
    at: NodeId,
    taken: u32,
    dst: NodeId,
) -> Vec<usize> {
    let allowed = |class: LinkClass| {
        class != LinkClass::Shuffle
            || match routes.policy() {
                RoutePolicy::Minimal => true,
                RoutePolicy::ShuffleFirstHop => taken < 1,
                RoutePolicy::ShuffleFirstTwoHops => taken < 2,
            }
    };
    let here = routes.distance(at, taken, dst);
    topo.ports(at)
        .iter()
        .enumerate()
        .filter(|(_, p)| {
            let there = routes.distance(p.to, taken + 1, dst);
            allowed(p.class) && there != Routes::UNREACHABLE && there + 1 == here
        })
        .map(|(i, _)| i)
        .collect()
}

/// `minimal_ports` equals the reference filter at every node, destination
/// and hop count up to 3.
fn masks_match_the_distance_filter<T: Topology>(topo: &T, policy: RoutePolicy) {
    let routes = Routes::compute(topo, policy);
    let n = topo.node_count();
    for at in (0..n).map(NodeId::new) {
        for dst in (0..n).map(NodeId::new) {
            for taken in 0..=3 {
                let masked: Vec<usize> = routes.minimal_ports(at, taken, dst).collect();
                assert_eq!(
                    masked,
                    ports_by_distance(topo, &routes, at, taken, dst),
                    "{} under {policy:?}: {at} -> {dst} after {taken} hops",
                    topo.name()
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The next-hop masks `Routes::compute` builds inside its BFS give the
    /// same candidate ports, in the same order, as filtering every port by
    /// distance: on tori from 2x2 to 8x8 and on shuffle tori under every
    /// policy, and on the GS320's switch tree.
    #[test]
    fn minimal_ports_match_the_distance_filter(
        torus in (2usize..=8, 2usize..=8),
        shuffle in shuffle_shapes(),
        qbbs in 1usize..=8,
        policy_ix in 0usize..3,
    ) {
        let policy = POLICIES[policy_ix];
        masks_match_the_distance_filter(&Torus2D::new(torus.0, torus.1), policy);
        masks_match_the_distance_filter(&ShuffleTorus::new(shuffle.0, shuffle.1), policy);
        masks_match_the_distance_filter(&QbbTree::new(4 * qbbs), policy);
    }

    /// Hop distances are a metric: symmetric, zero iff equal, triangle
    /// inequality.
    #[test]
    fn torus_distance_is_a_metric((c, r) in torus_shapes()) {
        let t = Torus2D::new(c, r);
        let d = DistanceMatrix::compute(&t);
        let n = t.node_count();
        for a in 0..n {
            prop_assert_eq!(d.distance(NodeId::new(a), NodeId::new(a)), 0);
            for b in 0..n {
                let ab = d.distance(NodeId::new(a), NodeId::new(b));
                prop_assert_eq!(ab, d.distance(NodeId::new(b), NodeId::new(a)));
                if a != b { prop_assert!(ab > 0); }
                for k in 0..n {
                    prop_assert!(
                        ab <= d.distance(NodeId::new(a), NodeId::new(k))
                            + d.distance(NodeId::new(k), NodeId::new(b))
                    );
                }
            }
        }
    }

    /// Average distance never exceeds the diameter.
    #[test]
    fn average_at_most_worst((c, r) in torus_shapes()) {
        let t = Torus2D::new(c, r);
        let d = DistanceMatrix::compute(&t);
        prop_assert!(d.average_distance() <= f64::from(d.diameter()) + 1e-12);
        prop_assert!(d.is_connected());
    }

    /// The shuffle rewiring keeps the fabric connected, degree-4 on torus
    /// links, and never lengthens the diameter.
    #[test]
    fn shuffle_preserves_connectivity((c, r) in shuffle_shapes()) {
        let t = Torus2D::new(c, r);
        let s = ShuffleTorus::new(c, r);
        let dt = DistanceMatrix::compute(&t);
        let ds = DistanceMatrix::compute(&s);
        prop_assert!(ds.is_connected());
        prop_assert!(ds.diameter() <= dt.diameter());
        prop_assert!(ds.average_distance() <= dt.average_distance() + 1e-12);
        for i in 0..s.node_count() {
            prop_assert_eq!(s.ports(NodeId::new(i)).len(), t.ports(NodeId::new(i)).len());
        }
    }

    /// Every minimal-port step strictly decreases remaining distance, for
    /// every policy, so walks terminate at the destination.
    #[test]
    fn routes_always_progress((c, r) in shuffle_shapes(), policy_ix in 0usize..3) {
        let policy = POLICIES[policy_ix];
        let s = ShuffleTorus::new(c, r);
        let routes = Routes::compute(&s, policy);
        let n = s.node_count();
        for a in 0..n {
            for b in 0..n {
                if a == b { continue; }
                let (src, dst) = (NodeId::new(a), NodeId::new(b));
                let mut at = src;
                let mut taken = 0u32;
                while at != dst {
                    let d = routes.distance(at, taken, dst);
                    let ports: Vec<usize> = routes.minimal_ports(at, taken, dst).collect();
                    prop_assert!(!ports.is_empty());
                    at = s.ports(at)[ports[0]].to;
                    taken += 1;
                    prop_assert_eq!(routes.distance(at, taken, dst) + 1, d);
                    prop_assert!(taken < 64);
                }
            }
        }
    }

    /// Bisection width is positive and no more than the total link count.
    #[test]
    fn bisection_is_sane((c2, r2) in (1usize..=4, 1usize..=4)) {
        let (c, r) = (2 * c2, 2 * r2);
        let t = Torus2D::new(c, r);
        let b = bisection_width(&t);
        prop_assert!(b > 0);
        prop_assert!(b <= t.link_count() / 2);
    }

    /// The experiment tori (4x4, 8x8) stay connected under ANY single link
    /// failure — degree 4 gives edge connectivity 4, so the fault-injection
    /// sweep can cut a link anywhere without partitioning.
    #[test]
    fn torus_survives_any_single_link_failure(big in any::<bool>(), ix in 0usize..4096) {
        let t = experiment_torus(big);
        let links = torus_links(&t);
        let cut = links[ix % links.len()];
        let wounded = Degraded::new(t, &[cut]);
        prop_assert!(DistanceMatrix::compute(&wounded).is_connected());
    }

    /// … and under ANY double link failure.
    #[test]
    fn torus_survives_any_double_link_failure(
        big in any::<bool>(),
        i in 0usize..4096,
        j in 0usize..4096,
    ) {
        let t = experiment_torus(big);
        let links = torus_links(&t);
        let a = links[i % links.len()];
        let b = links[j % links.len()];
        prop_assume!(a != b);
        let wounded = Degraded::new(t, &[a, b]);
        prop_assert!(DistanceMatrix::compute(&wounded).is_connected());
    }

    /// Failing a link can only lengthen paths: no pairwise distance ever
    /// decreases (routing around a wound is monotone in cost).
    #[test]
    fn link_failure_never_shortens_distances(big in any::<bool>(), ix in 0usize..4096) {
        let t = experiment_torus(big);
        let links = torus_links(&t);
        let cut = links[ix % links.len()];
        let healthy = DistanceMatrix::compute(&t);
        let n = t.node_count();
        let wounded = Degraded::new(t, &[cut]);
        let after = DistanceMatrix::compute(&wounded);
        for a in 0..n {
            for b in 0..n {
                let (a, b) = (NodeId::new(a), NodeId::new(b));
                prop_assert!(
                    after.distance(a, b) >= healthy.distance(a, b),
                    "{a} -> {b} got shorter after cutting {cut:?}"
                );
            }
        }
    }
}
