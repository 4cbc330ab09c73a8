//! Property tests for the fabric engine.

// Test/harness code may unwrap freely; the workspace denies it in libraries.
#![allow(clippy::unwrap_used)]

use alphasim_kernel::SimTime;
use alphasim_net::partition::{FabricTables, OpenLoop};
use alphasim_net::region::{lookahead_by_walk, RegionMap};
use alphasim_net::{FaultError, LinkTiming, MessageClass};
use alphasim_topology::route::RoutePolicy;
use alphasim_topology::{Degraded, NodeId, Topology, Torus2D};
use proptest::prelude::*;

/// An open-loop driver over a `cols` × `rows` EV7 torus in `regions`
/// row bands.
fn open(cols: usize, rows: usize, regions: usize) -> OpenLoop {
    OpenLoop::new(FabricTables::new(
        &Torus2D::new(cols, rows),
        LinkTiming::ev7_torus(),
        RoutePolicy::Minimal,
        regions,
    ))
}

fn classes() -> impl Strategy<Value = MessageClass> {
    prop::sample::select(vec![
        MessageClass::Request,
        MessageClass::Forward,
        MessageClass::BlockResponse,
        MessageClass::Io,
        MessageClass::Special,
    ])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Conservation: every injected message is delivered exactly once, to
    /// its destination, with a latency no smaller than the zero-load bound.
    #[test]
    fn conservation_and_latency_bound(
        shape in (2usize..=6, 2usize..=4),
        msgs in prop::collection::vec((0usize..24, 0usize..24, 1u64..256, 0u64..100_000), 1..120),
        class in classes(),
    ) {
        let (c, r) = shape;
        let n = c * r;
        let torus = Torus2D::new(c, r);
        let timing = LinkTiming::ev7_torus();
        let mut net = open(c, r, 1);
        let mut expected = std::collections::HashMap::new();
        for (i, &(src, dst, bytes, at)) in msgs.iter().enumerate() {
            let (src, dst) = (src % n, dst % n);
            net.send(
                SimTime::from_ps(at),
                NodeId::new(src),
                NodeId::new(dst),
                class,
                bytes,
                i as u64,
            );
            expected.insert(i as u64, (src, dst, bytes));
        }
        let deliveries = net.drain();
        prop_assert_eq!(deliveries.len(), msgs.len());
        for d in &deliveries {
            let (src, dst, bytes) = expected.remove(&d.tag).expect("duplicate delivery");
            prop_assert_eq!(d.src.index(), src);
            prop_assert_eq!(d.dst.index(), dst);
            prop_assert_eq!(d.bytes, bytes);
            // Zero-load lower bound: distance * min hop cost.
            let hops = torus.hop_distance(d.src, d.dst) as u32;
            prop_assert_eq!(d.hops, hops, "hops are minimal");
            let min_hop = timing.hop(alphasim_topology::LinkClass::Module);
            prop_assert!(d.latency() >= min_hop * u64::from(hops));
        }
        prop_assert!(expected.is_empty());
    }

    /// Utilization stays within [0,1] on every link under arbitrary load,
    /// and delivered bytes match the per-hop accounting.
    #[test]
    fn utilization_bounded(
        burst in 1usize..200,
        dst in 1usize..16,
    ) {
        let mut net = open(4, 4, 1);
        for i in 0..burst {
            net.send(
                SimTime::ZERO,
                NodeId::new(0),
                NodeId::new(dst % 16),
                MessageClass::Request,
                64,
                i as u64,
            );
        }
        net.drain();
        let now = net.now();
        let links = net.links();
        for l in links.iter() {
            prop_assert!((0.0..=1.0).contains(&l.utilization(now)));
        }
        // Each hop of each message moves its bytes over one link.
        let hops = Torus2D::new(4, 4).hop_distance(NodeId::new(0), NodeId::new(dst % 16));
        prop_assert_eq!(links.total_bytes(), (burst * hops) as u64 * 64);
        prop_assert_eq!(links.total_grants(), (burst * hops) as u64);
    }

    /// The conservative-lookahead invariant: the lookahead the fabric
    /// tables hold after cuts made through their fault API equals the
    /// minimum latency over live inter-region links, walked over an
    /// independently built wounded torus, across torus sizes from 4x4 to
    /// 16x16 and under zero, one, or two link cuts (a cut the tables refuse
    /// because it would partition the fabric is skipped); and reviving the
    /// cuts restores the healthy value.
    #[test]
    fn lookahead_is_min_inter_region_latency_under_cuts(
        shape in (4usize..=16, 4usize..=16),
        shards in 2usize..=6,
        picks in prop::collection::vec((0usize..1024, 0usize..8), 0..3),
    ) {
        let (c, r) = shape;
        let torus = Torus2D::new(c, r);
        let timing = LinkTiming::ev7_torus();
        let mut tables = FabricTables::new(&torus, timing, RoutePolicy::Minimal, shards);
        let map = RegionMap::bands(&torus, shards);

        // Resolve the random picks into distinct undirected links and cut
        // each one the fabric survives.
        let mut cuts: Vec<(NodeId, NodeId)> = Vec::new();
        for &(ni, pi) in &picks {
            let a = NodeId::new(ni % (c * r));
            let ports = torus.ports(a);
            let b = ports[pi % ports.len()].to;
            let key = if a.index() <= b.index() { (a, b) } else { (b, a) };
            if cuts.contains(&key) {
                continue;
            }
            match tables.fail_link(key.0, key.1) {
                Ok(_) => cuts.push(key),
                Err(FaultError::Partitioned { .. }) => {}
                Err(e) => prop_assert!(false, "cut {:?} refused: {}", key, e),
            }
        }
        let wounded = Degraded::new(torus.clone(), &cuts);
        prop_assert_eq!(
            tables.conservative_lookahead(),
            lookahead_by_walk(&wounded, &map, &timing),
            "the tables' lookahead is not the walked minimum on a wounded {}x{}",
            c,
            r
        );

        for &(a, b) in &cuts {
            tables.revive_link(a, b).unwrap();
        }
        prop_assert_eq!(
            tables.conservative_lookahead(),
            lookahead_by_walk(&torus, &map, &timing),
            "revives did not recover the healthy lookahead"
        );
    }

    /// Partitioning the fabric must not change a single delivery: same
    /// messages, same times, same hops at any region count, and replays
    /// are identical.
    #[test]
    fn deliveries_are_region_count_invariant(
        msgs in prop::collection::vec((0usize..32, 0usize..32, 0u64..20_000), 1..60),
        regions in 2usize..=5,
    ) {
        let run = |regions: usize| {
            let mut net = open(8, 4, regions);
            for (i, &(src, dst, at)) in msgs.iter().enumerate() {
                net.send(
                    SimTime::from_ps(at),
                    NodeId::new(src),
                    NodeId::new(dst),
                    MessageClass::Request,
                    32,
                    i as u64,
                );
            }
            net.drain()
                .into_iter()
                .map(|d| (d.tag, d.delivered_at, d.hops))
                .collect::<Vec<_>>()
        };
        let reference = run(1);
        prop_assert_eq!(&reference, &run(1));
        prop_assert_eq!(reference, run(regions));
    }
}
