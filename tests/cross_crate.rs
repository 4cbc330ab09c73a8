//! Cross-crate integration: the substrates agree with each other where
//! they overlap.

// Test/harness code may unwrap freely; the workspace denies it in libraries.
#![allow(clippy::unwrap_used)]

use alphasim::cache::Addr;
use alphasim::coherence::{AccessKind, Directory, ServedBy};
use alphasim::kernel::SimTime;
use alphasim::net::MessageClass;
use alphasim::system::{Gs1280, Gs320};
use alphasim::topology::graph::DistanceMatrix;
use alphasim::topology::{NodeId, Torus2D};
use alphasim::workloads::{Stream, StreamKernel};

/// Replaying a coherence transaction's critical legs through the network
/// simulator yields a latency consistent with the machine's analytic
/// read-dirty probe (within the serialization slack the two paths model
/// differently).
#[test]
fn protocol_legs_replay_through_network() {
    let machine = Gs1280::builder().cpus(16).build();
    let mut dir = Directory::new();
    let (req, home, owner) = (0usize, 5usize, 10usize);
    dir.access(home, owner, 42, AccessKind::Write);
    let t = dir.access(home, req, 42, AccessKind::Read);
    assert_eq!(t.served_by, ServedBy::OwnerCache);

    // Drive the three critical legs sequentially through the fabric.
    let mut net = machine.network();
    let mut now = SimTime::ZERO;
    for (i, leg) in t.critical.iter().enumerate() {
        net.send(
            now,
            NodeId::new(leg.from),
            NodeId::new(leg.to),
            leg.class,
            leg.bytes,
            i as u64,
        );
        now = net.drain()[0].delivered_at;
    }
    let network_ns = now.since(SimTime::ZERO).as_ns();
    let analytic = machine
        .read_dirty(NodeId::new(req), NodeId::new(home), NodeId::new(owner))
        .as_ns();
    // The analytic probe adds fixed front-end/directory/cache costs that
    // the bare network walk does not include; network time must be below
    // the analytic figure but the hop share of it.
    assert!(network_ns < analytic, "{network_ns} vs {analytic}");
    assert!(
        network_ns > 0.4 * (analytic - 84.0),
        "{network_ns} vs {analytic}"
    );
}

/// The machine's one-way latency probe agrees with hop-by-hop composition
/// over the topology's BFS paths.
#[test]
fn analytic_paths_agree_with_bfs_hops() {
    let machine = Gs1280::builder().cpus(16).build();
    let torus = Torus2D::for_cpus(16);
    let d = DistanceMatrix::compute(&torus);
    let timing = machine.timing();
    let min_hop = timing.hop(alphasim::topology::LinkClass::Module);
    let max_hop = timing.hop(alphasim::topology::LinkClass::Cable);
    for a in 0..16 {
        for b in 0..16 {
            let hops = d.distance(NodeId::new(a), NodeId::new(b)) as u64;
            let one_way = machine.one_way(NodeId::new(a), NodeId::new(b));
            assert!(one_way >= min_hop * hops);
            assert!(one_way <= max_hop * hops);
        }
    }
}

/// STREAM's trace replayed against the GS1280's address map touches only
/// the running CPU's own region (PerCpu interleave) — locality is what
/// makes Fig. 7 scale linearly.
#[test]
fn stream_is_local_on_gs1280() {
    let machine = Gs1280::builder().cpus(4).mem_per_cpu(1 << 22).build();
    let s = Stream::new(8 * 1024); // 3 arrays x 64 KB
    for cpu in 0..4u64 {
        let base = cpu * (1 << 22);
        for addr in s.trace(StreamKernel::Triad, base) {
            assert_eq!(machine.home_of(addr).index(), cpu as usize);
        }
    }
}

/// The GS320's network simulator and its analytic probe agree on the
/// two-level structure: cross-QBB messages take strictly longer than
/// in-QBB ones.
#[test]
fn gs320_network_has_two_levels() {
    let m = Gs320::new(16);
    let mut net = m.network();
    net.send(
        SimTime::ZERO,
        NodeId::new(0),
        NodeId::new(1),
        MessageClass::Request,
        16,
        0,
    );
    net.send(
        SimTime::ZERO,
        NodeId::new(0),
        NodeId::new(12),
        MessageClass::Request,
        16,
        1,
    );
    let d = net.drain();
    let local = d.iter().find(|x| x.tag == 0).unwrap().latency();
    let remote = d.iter().find(|x| x.tag == 1).unwrap().latency();
    assert!(remote.as_ns() > local.as_ns() + 150.0);
}

/// The coherence class rules forbid Io on the adaptive channel; the
/// simulator therefore routes Io deterministically even on a machine
/// carrying adaptive coherence traffic.
#[test]
fn io_and_coherence_coexist() {
    let machine = Gs1280::builder().cpus(16).build();
    let mut net = machine.network();
    for i in 0..40 {
        net.send(
            SimTime::ZERO,
            NodeId::new(0),
            NodeId::new(5),
            if i % 2 == 0 {
                MessageClass::Request
            } else {
                MessageClass::Io
            },
            64,
            i,
        );
    }
    let delivered = net.drain();
    assert_eq!(delivered.len(), 40);
}

/// Striping changes line homes exactly as the machine model claims: the
/// Fig. 26 improvement requires half of a hot region to live on the
/// partner.
#[test]
fn striped_homes_split_across_pair() {
    let m = Gs1280::builder()
        .cpus(16)
        .mem_per_cpu(1 << 20)
        .striping(true)
        .build();
    let mut on_partner = 0;
    for line in 0..1024u64 {
        let home = m.home_of(Addr::new(line * 64)).index();
        assert!(home == 0 || home == 1, "line {line} on {home}");
        if home == 1 {
            on_partner += 1;
        }
    }
    assert_eq!(on_partner, 512);
}

/// The traffic matrix predicted from directory transactions matches the
/// bytes the network simulator actually moves, pair by pair (conservation
/// across the coherence/network boundary).
#[test]
fn traffic_matrix_matches_network_bytes() {
    use alphasim::coherence::TrafficMatrix;
    use alphasim::kernel::DetRng;

    let machine = Gs1280::builder().cpus(16).build();
    let mut dir = Directory::new();
    let mut tm = TrafficMatrix::new(16);
    let mut net = machine.network();
    let mut rng = DetRng::seeded(77);
    let mut expected_pairs: std::collections::HashMap<(usize, usize), u64> =
        std::collections::HashMap::new();

    let mut tag = 0u64;
    for _ in 0..300 {
        let cpu = rng.index(16);
        let line = rng.bits() % 64;
        let home = (line % 16) as usize;
        let kind = if rng.chance(0.3) {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        let txn = dir.access(home, cpu, line, kind);
        tm.record(&txn);
        for leg in txn.critical.iter().chain(&txn.side) {
            if leg.is_remote() {
                net.send(
                    net.now(),
                    NodeId::new(leg.from),
                    NodeId::new(leg.to),
                    leg.class,
                    leg.bytes,
                    tag,
                );
                tag += 1;
                *expected_pairs.entry((leg.from, leg.to)).or_default() += leg.bytes;
            }
        }
    }
    let deliveries = net.drain();
    // Every predicted byte arrives, between exactly the predicted pair.
    let mut seen: std::collections::HashMap<(usize, usize), u64> = std::collections::HashMap::new();
    for d in &deliveries {
        *seen.entry((d.src.index(), d.dst.index())).or_default() += d.bytes;
    }
    assert_eq!(seen, expected_pairs);
    for (&(s, t), &b) in &expected_pairs {
        assert_eq!(tm.between(s, t), b, "pair {s}->{t}");
    }
    assert_eq!(
        tm.total(),
        expected_pairs.values().sum::<u64>(),
        "matrix total"
    );
}

/// Hot-spot traffic is recognisable from the matrix alone, before any
/// simulation — the Xmesh §6 workflow.
#[test]
fn traffic_matrix_flags_hot_spot_pattern() {
    use alphasim::coherence::TrafficMatrix;

    let mut dir = Directory::new();
    let mut tm = TrafficMatrix::new(16);
    for cpu in 1..16 {
        for l in 0..20u64 {
            tm.record(&dir.access(0, cpu, cpu as u64 * 1000 + l, AccessKind::Read));
        }
    }
    assert_eq!(tm.hot_spots(4.0), vec![0]);
    // Node 0 carries both the request fan-in and the data fan-out.
    let load: Vec<u64> = tm
        .inbound()
        .iter()
        .zip(tm.outbound())
        .map(|(i, o)| i + o)
        .collect();
    assert!(load[0] > 10 * load[1], "{load:?}");
}
