//! Property tests for the windowed timeline: merging per-worker window
//! snapshots in input order must reproduce the sequential recording, and
//! folding the windows must reproduce the unwindowed registry exactly.

// Test/harness code may unwrap freely; the workspace denies it in libraries.
#![allow(clippy::unwrap_used)]

use alphasim_telemetry::{Heatmap, Registry, Timeline};
use proptest::prelude::*;

/// One synthetic metric update: a timestamp and an operation.
fn apply(t: &mut Timeline, whole: &mut Registry, &(at, kind, value): &(u64, u8, u64)) {
    match kind % 3 {
        0 => {
            t.counter_add(at, "completed", value);
            whole.counter_add("completed", value);
        }
        1 => {
            t.gauge_max(at, "depth", value);
            whole.gauge_max("depth", value);
        }
        _ => {
            t.record(at, "latency", value);
            whole.record("latency", value);
        }
    }
}

proptest! {
    /// Partitioning an update stream across any number of workers and
    /// merging the per-worker timelines in input order yields the same
    /// timeline (and bytes) as recording sequentially — the property the
    /// partitioned campaign relies on for `results/timeline.json`.
    #[test]
    fn per_worker_merge_in_input_order_matches_sequential(
        updates in prop::collection::vec((0u64..500_000, 0u8..3, 0u64..1_000), 1..300),
        workers in 1usize..6,
        window_ps in 1u64..100_000,
    ) {
        let mut sequential = Timeline::new(window_ps);
        let mut whole = Registry::new();
        for u in &updates {
            apply(&mut sequential, &mut whole, u);
        }
        // Deal updates round-robin to per-worker timelines, then merge in
        // worker (input) order — exactly how a sweep combines its points.
        let mut parts: Vec<Timeline> = (0..workers).map(|_| Timeline::new(window_ps)).collect();
        let mut scratch = Registry::new();
        for (i, u) in updates.iter().enumerate() {
            apply(&mut parts[i % workers], &mut scratch, u);
        }
        let mut merged = Timeline::new(window_ps);
        for p in &parts {
            merged.merge(p);
        }
        prop_assert_eq!(&merged, &sequential);
        prop_assert_eq!(
            serde_json::to_string(&merged.to_json()).unwrap(),
            serde_json::to_string(&sequential.to_json()).unwrap()
        );
        // Exact-sum invariant: the windows partition the run.
        prop_assert_eq!(merged.totals(), whole);
    }

    /// Window bucketing is a pure function of the timestamp: every update
    /// lands in `at / window_ps`, and dense counter series sum to the
    /// total regardless of window width.
    #[test]
    fn window_sums_are_width_invariant(
        ats in prop::collection::vec(0u64..1_000_000, 1..200),
        width_a in 1u64..50_000,
        width_b in 1u64..50_000,
    ) {
        let mut a = Timeline::new(width_a);
        let mut b = Timeline::new(width_b);
        for &at in &ats {
            a.counter_add(at, "c", 1);
            b.counter_add(at, "c", 1);
        }
        let total = ats.len() as u64;
        prop_assert_eq!(a.counter_series("c").iter().sum::<u64>(), total);
        prop_assert_eq!(b.counter_series("c").iter().sum::<u64>(), total);
        prop_assert_eq!(a.totals().counter("c"), b.totals().counter("c"));
    }

    /// Heatmaps merge element-wise in any order; the grid total is the
    /// sum of contributions.
    #[test]
    fn heatmap_merge_any_order(
        hits in prop::collection::vec((0usize..16, 1u64..100), 0..100),
        split in 0usize..100,
    ) {
        let split = if hits.is_empty() { 0 } else { split % (hits.len() + 1) };
        let mut whole = Heatmap::new(4, 4);
        for &(n, v) in &hits {
            whole.add(n, v);
        }
        let mut a = Heatmap::new(4, 4);
        let mut b = Heatmap::new(4, 4);
        for &(n, v) in &hits[..split] {
            a.add(n, v);
        }
        for &(n, v) in &hits[split..] {
            b.add(n, v);
        }
        let mut ab = Heatmap::new(4, 4);
        ab.merge(&a);
        ab.merge(&b);
        let mut ba = Heatmap::new(4, 4);
        ba.merge(&b);
        ba.merge(&a);
        prop_assert_eq!(&ab, &ba);
        prop_assert_eq!(&ab, &whole);
        prop_assert_eq!(ab.total(), hits.iter().map(|&(_, v)| v).sum::<u64>());
    }
}
