//! Property tests for the machine models.

// Test/harness code may unwrap freely; the workspace denies it in libraries.
#![allow(clippy::unwrap_used)]

use alphasim_system::{Gs1280, Gs320, Reproducer};
use alphasim_topology::NodeId;
use proptest::prelude::*;

fn sizes() -> impl Strategy<Value = usize> {
    prop::sample::select(vec![4usize, 8, 16, 32, 64])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Read-clean latency is symmetric on the symmetric torus and minimal
    /// at home.
    #[test]
    fn gs1280_read_clean_is_symmetric(cpus in sizes()) {
        let m = Gs1280::builder().cpus(cpus).build();
        for a in 0..cpus {
            for b in 0..cpus {
                let ab = m.read_clean(NodeId::new(a), NodeId::new(b));
                let ba = m.read_clean(NodeId::new(b), NodeId::new(a));
                prop_assert_eq!(ab, ba);
                prop_assert!(ab >= m.local_latency(true));
            }
        }
    }

    /// Every remote read costs at least a 1-hop round trip more than
    /// local, and at most the worst 4-hop corner path.
    #[test]
    fn gs1280_remote_latency_bounds(cpus in sizes(), a in 0usize..64, b in 0usize..64) {
        let m = Gs1280::builder().cpus(cpus).build();
        let (a, b) = (a % cpus, b % cpus);
        prop_assume!(a != b);
        let lat = m.read_clean(NodeId::new(a), NodeId::new(b)).as_ns();
        prop_assert!(lat >= 83.0 + 21.0 + 2.0 * 17.5 - 1e-9, "{lat}");
        // Diameter of the largest machine is 8 hops of <= 25 ns.
        prop_assert!(lat <= 83.0 + 21.0 + 2.0 * 8.0 * 25.0 + 1e-9, "{lat}");
    }

    /// Dirty reads are never cheaper than the bare protocol floor and the
    /// GS320 is always worse than the GS1280 for the same triple.
    #[test]
    fn dirty_reads_ordered_across_machines(r in 0usize..16, h in 0usize..16, o in 0usize..16) {
        prop_assume!(r != h && h != o && r != o);
        let g = Gs1280::builder().cpus(16).build();
        let q = Gs320::new(16);
        let dg = g.read_dirty(NodeId::new(r), NodeId::new(h), NodeId::new(o));
        let dq = q.read_dirty(NodeId::new(r), NodeId::new(h), NodeId::new(o));
        prop_assert!(dq > dg * 3, "GS320 {dq} vs GS1280 {dg}");
    }

    /// STREAM bandwidth is monotone in active CPUs on every machine.
    #[test]
    fn stream_monotone_in_cpus(cpus in sizes()) {
        let g = Gs1280::builder().cpus(cpus).build();
        let mut last = 0.0;
        for n in 1..=cpus {
            let bw = g.stream_triad_gbps(n);
            prop_assert!(bw >= last);
            last = bw;
        }
        let q = Gs320::new(cpus.min(32));
        let mut last = 0.0;
        for n in 1..=cpus.min(32) {
            let bw = q.stream_triad_gbps(n);
            prop_assert!(bw >= last - 1e-12);
            last = bw;
        }
    }
}

/// The committed reproducer corpus, as parsed by `chaos replay`.
const CORPUS: [&str; 2] = [
    include_str!("../../../results/chaos-corpus/chaos-leak-poison-seed50181.json"),
    include_str!("../../../results/chaos-corpus/chaos-off-by-one-retry-seed50184.json"),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A damaged corpus file is an error, never a panic: any truncation of
    /// a committed reproducer, and any single-byte change to one.
    #[test]
    fn reproducer_parsing_never_panics_on_a_damaged_corpus_file(
        file in 0usize..CORPUS.len(),
        at in 0usize..1 << 20,
        byte in any::<u8>(),
    ) {
        let text = CORPUS[file];
        prop_assert!(Reproducer::from_json(text).is_ok());
        let _ = Reproducer::from_json(&text[..at % (text.len() + 1)]);
        let mut bytes = text.as_bytes().to_vec();
        bytes[at % text.len()] = byte;
        let _ = Reproducer::from_json(&String::from_utf8_lossy(&bytes));
    }
}
