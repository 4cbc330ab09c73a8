//! Property tests for the cache models.

// Test/harness code may unwrap freely; the workspace denies it in libraries.
#![allow(clippy::unwrap_used)]

use alphasim_cache::{Addr, CacheGeometry, CacheHierarchy, HierarchyConfig, SetAssocCache};
use alphasim_kernel::SimDuration;
use proptest::prelude::*;

fn small_geometry() -> impl Strategy<Value = CacheGeometry> {
    // sets in {1,2,4,8,16}, ways 1..=8, 64B lines.
    (0u32..5, 1u32..=8).prop_map(|(s, w)| {
        let sets = 1u64 << s;
        CacheGeometry::new(sets * u64::from(w) * 64, 64, w)
    })
}

/// One small level: 1–16 sets, 1–4 ways, 32–128 B lines.
fn small_level() -> impl Strategy<Value = CacheGeometry> {
    (0u32..5, 1u32..=4, 5u32..8).prop_map(|(s, w, l)| {
        let line = 1u64 << l;
        CacheGeometry::new((1u64 << s) * u64::from(w) * line, line, w)
    })
}

/// Two small levels, so L1 lines can be shorter than, equal to or longer
/// than L2 lines.
fn small_hierarchy() -> impl Strategy<Value = HierarchyConfig> {
    (small_level(), small_level()).prop_map(|(l1, l2)| HierarchyConfig {
        l1,
        l1_latency: SimDuration::from_ns(2.0),
        l2,
        l2_latency: SimDuration::from_ns(10.0),
    })
}

/// Loads made before the sweep; half the cases start cold.
fn warm_start() -> impl Strategy<Value = Vec<u64>> {
    (any::<bool>(), prop::collection::vec(0u64..16_384, 1..24)).prop_map(|(cold, loads)| {
        if cold {
            Vec::new()
        } else {
            loads
        }
    })
}

/// Every counter the hierarchy exposes, the miss ratio by its bits.
fn counters(h: &CacheHierarchy) -> [u64; 6] {
    [
        h.l1().hits(),
        h.l1().misses(),
        h.l2().hits(),
        h.l2().misses(),
        h.memory_loads(),
        h.l2_miss_ratio().to_bits(),
    ]
}

proptest! {
    /// Resident lines never exceed capacity, and the line just accessed is
    /// resident: accessing it again, in a clone, hits.
    #[test]
    fn capacity_invariant(geometry in small_geometry(),
                          addrs in prop::collection::vec(0u64..1_000_000, 1..500)) {
        let mut c = SetAssocCache::new(geometry);
        let lines = (geometry.size_bytes() / geometry.line_bytes()) as usize;
        for &a in &addrs {
            let a = Addr::new(a);
            c.access(a);
            prop_assert!(c.clone().access(a), "just-accessed line must be resident");
            prop_assert!(c.resident_lines() <= lines);
        }
        prop_assert_eq!(c.hits() + c.misses(), addrs.len() as u64);
    }

    /// Accessing the same line twice in a row always hits the second time.
    #[test]
    fn immediate_rereference_hits(geometry in small_geometry(), a in 0u64..1_000_000) {
        let mut c = SetAssocCache::new(geometry);
        c.access(Addr::new(a));
        prop_assert!(c.access(Addr::new(a)));
    }

    /// A working set no larger than one set's ways never misses after the
    /// first pass, regardless of access order (true LRU has no thrash for
    /// fitting sets).
    #[test]
    fn fitting_working_set_stops_missing(ways in 2u32..=8, perm_seed in 0u64..1000) {
        let geometry = CacheGeometry::new(u64::from(ways) * 64, 64, ways); // 1 set
        let mut c = SetAssocCache::new(geometry);
        let mut order: Vec<u64> = (0..u64::from(ways)).collect();
        // Deterministic shuffle of the sweep order.
        let mut state = perm_seed;
        for i in (1..order.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            order.swap(i, (state as usize) % (i + 1));
        }
        for &l in &order { c.access(Addr::new(l * 64)); }
        for &l in &order {
            prop_assert!(c.access(Addr::new(l * 64)));
        }
    }

    /// Hierarchy latencies are one of the three configured levels and the
    /// level ordering is respected.
    #[test]
    fn hierarchy_latency_levels(addrs in prop::collection::vec(0u64..100_000, 1..300)) {
        let cfg = HierarchyConfig::ev7();
        let mut h = CacheHierarchy::new(cfg);
        let mem = SimDuration::from_ns(83.0);
        for &a in &addrs {
            let out = h.load(Addr::new(a), |_| mem);
            let l = out.latency;
            prop_assert!(l == cfg.l1_latency || l == cfg.l2_latency || l == mem);
        }
        prop_assert!(cfg.l1_latency < cfg.l2_latency);
        prop_assert!(cfg.l2_latency < mem);
    }

    /// `load_sweep` is `count` loads: same counters, same lines in the
    /// same LRU order and the same loads reported to memory, in the same
    /// order, whether it builds a cold hierarchy's end state directly or
    /// falls back on a warm one (earlier loads). Half the sweeps start
    /// within half their span of `u64::MAX`, so many wrap past it. A
    /// follow-up run of loads over the sweep's tail must then see
    /// identical outcomes and memory loads.
    #[test]
    fn load_sweep_matches_load_loop(
        config in small_hierarchy(),
        warm in warm_start(),
        start in (any::<bool>(), 0u64..10_000),
        stride in prop::sample::select(vec![0u64, 1, 4, 24, 64, 96, 128, 4096, 4160]),
        count in prop::sample::select(vec![0u64, 1, 2, 5, 64, 300, 2000]),
        after in prop::collection::vec(0u64..512, 0..48),
    ) {
        let (near_top, offset) = start;
        let first = if near_top {
            (count * stride / 2 + offset).wrapping_neg()
        } else {
            offset
        };
        let mem = SimDuration::from_ns(83.0);
        let mut swept = CacheHierarchy::new(config);
        for &a in &warm {
            swept.load(Addr::new(a), |_| mem);
        }
        let mut looped = swept.clone();
        let (mut reported, mut asked) = (Vec::new(), Vec::new());
        swept.load_sweep(Addr::new(first), stride, count, |a| reported.push(a));
        for i in 0..count {
            looped.load(Addr::new(first.wrapping_add(i * stride)), |a| {
                asked.push(a);
                mem
            });
        }
        prop_assert_eq!(&reported, &asked);
        prop_assert_eq!(counters(&swept), counters(&looped));
        prop_assert!(swept == looped, "state differs: {swept:?} vs {looped:?}");
        let tail = first.wrapping_add(count.saturating_sub(1) * stride);
        for &back in &after {
            let a = Addr::new(tail.wrapping_sub(back * 32));
            let (mut s, mut l) = (None, None);
            let out = swept.load(a, |a| {
                s = Some(a);
                mem
            });
            prop_assert_eq!(out, looped.load(a, |a| {
                l = Some(a);
                mem
            }));
            prop_assert_eq!(s, l);
        }
        prop_assert_eq!(counters(&swept), counters(&looped));
    }
}
