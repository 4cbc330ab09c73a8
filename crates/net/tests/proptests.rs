//! Property tests for the fabric engine.

// Test/harness code may unwrap freely; the workspace denies it in libraries.
#![allow(clippy::unwrap_used)]

use alphasim_kernel::SimTime;
use alphasim_net::partition::{FabricTables, OpenLoop};
use alphasim_net::{LinkTiming, MessageClass};
use alphasim_topology::route::RoutePolicy;
use alphasim_topology::{NodeId, Torus2D};
use proptest::prelude::*;

/// An open-loop driver over a `cols` × `rows` EV7 torus.
fn open(cols: usize, rows: usize) -> OpenLoop {
    OpenLoop::new(FabricTables::new(
        &Torus2D::new(cols, rows),
        LinkTiming::ev7_torus(),
        RoutePolicy::Minimal,
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
        let mut net = open(c, r);
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
        let mut net = open(4, 4);
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

    /// Replays are identical: same messages, same times, same hops, in
    /// the same order.
    #[test]
    fn deliveries_replay_identically(
        msgs in prop::collection::vec((0usize..32, 0usize..32, 0u64..20_000), 1..60),
    ) {
        let run = || {
            let mut net = open(8, 4);
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
        prop_assert_eq!(run(), run());
    }
}
