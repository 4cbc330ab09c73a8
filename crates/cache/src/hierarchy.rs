//! A two-level cache hierarchy that assigns a latency to every load.
//!
//! This is the engine behind the dependent-load figures (Figs. 4–5): a load
//! probes L1, then L2, and only on an L2 miss asks the caller what memory
//! costs. The caller (the machine model in `alphasim-system`) decides
//! that — local open/closed page, or a remote coherence transaction — and,
//! like a Zbox, sees no load that a cache served.

use alphasim_kernel::SimDuration;
use serde::{Deserialize, Serialize};

use crate::geometry::{Addr, CacheGeometry};
use crate::set_assoc::SetAssocCache;

/// Which level of the hierarchy served a load.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum HitLevel {
    /// Served by the L1 data cache.
    L1,
    /// Served by the L2 (on-chip 1.75 MB on EV7; off-chip 16 MB B-cache on
    /// EV68 machines).
    L2,
    /// Missed all caches; served by the memory system.
    Memory,
}

/// The result of one load: where it hit and what it cost.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LoadOutcome {
    /// The level that served the load.
    pub level: HitLevel,
    /// Load-to-use latency, including the caller-supplied memory latency
    /// for [`HitLevel::Memory`].
    pub latency: SimDuration,
}

/// Geometry and load-to-use latency of both cache levels.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HierarchyConfig {
    /// L1 data-cache geometry.
    pub l1: CacheGeometry,
    /// L1 load-to-use latency.
    pub l1_latency: SimDuration,
    /// L2 geometry.
    pub l2: CacheGeometry,
    /// L2 load-to-use latency.
    pub l2_latency: SimDuration,
}

impl HierarchyConfig {
    /// The EV7 (GS1280) hierarchy: 64 KB 2-way L1 at 3 cycles of 1.15 GHz;
    /// 1.75 MB 7-way on-chip L2 at 12 cycles = 10.4 ns (paper §2).
    pub fn ev7() -> Self {
        HierarchyConfig {
            l1: CacheGeometry::alpha_l1d(),
            l1_latency: SimDuration::from_ns(2.6), // 3 cycles @ 1.15 GHz
            l2: CacheGeometry::ev7_l2(),
            l2_latency: SimDuration::from_ns(10.4),
        }
    }

    /// The EV68 (ES45/GS320) hierarchy: same core L1; 16 MB direct-mapped
    /// *off-chip* B-cache at roughly 24 ns load-to-use (fitted to the
    /// 1.75 MB–16 MB plateau of the paper's Fig. 4).
    pub fn ev68() -> Self {
        HierarchyConfig {
            l1: CacheGeometry::alpha_l1d(),
            l1_latency: SimDuration::from_ns(2.4), // 3 cycles @ 1.25 GHz
            l2: CacheGeometry::ev68_bcache(),
            l2_latency: SimDuration::from_ns(24.0),
        }
    }
}

/// A two-level, inclusive-fill cache hierarchy.
///
/// # Examples
///
/// ```
/// use alphasim_cache::{Addr, CacheHierarchy, HierarchyConfig, HitLevel};
/// use alphasim_kernel::SimDuration;
///
/// let mut h = CacheHierarchy::new(HierarchyConfig::ev7());
/// let mem = SimDuration::from_ns(83.0); // local open-page RDRAM
/// let first = h.load(Addr::new(0x40), |_| mem);
/// assert_eq!(first.level, HitLevel::Memory);
/// // A hit never asks what memory would cost.
/// let second = h.load(Addr::new(0x40), |_| unreachable!());
/// assert_eq!(second.level, HitLevel::L1);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CacheHierarchy {
    config: HierarchyConfig,
    l1: SetAssocCache,
    l2: SetAssocCache,
    memory_loads: u64,
}

impl CacheHierarchy {
    /// An empty hierarchy.
    pub fn new(config: HierarchyConfig) -> Self {
        CacheHierarchy {
            config,
            l1: SetAssocCache::new(config.l1),
            l2: SetAssocCache::new(config.l2),
            memory_loads: 0,
        }
    }

    /// The configuration this hierarchy was built with.
    pub fn config(&self) -> &HierarchyConfig {
        &self.config
    }

    /// Perform a load. A miss in both levels fills both levels and costs
    /// `memory_latency(addr)`, which is asked only then: a load that hits
    /// either level never reaches memory, so a stateful memory model (an
    /// open-page table) sees exactly the loads a Zbox would.
    pub fn load(
        &mut self,
        addr: Addr,
        memory_latency: impl FnOnce(Addr) -> SimDuration,
    ) -> LoadOutcome {
        if self.l1.access(addr) {
            return LoadOutcome {
                level: HitLevel::L1,
                latency: self.config.l1_latency,
            };
        }
        if self.l2.access(addr) {
            return LoadOutcome {
                level: HitLevel::L2,
                latency: self.config.l2_latency,
            };
        }
        self.memory_loads += 1;
        LoadOutcome {
            level: HitLevel::Memory,
            latency: memory_latency(addr),
        }
    }

    /// Perform `count` loads at `first`, `first + stride`, `first +
    /// 2 * stride`, …: exactly the state and counters that many [`load`]
    /// calls leave, with the outcomes discarded. `memory_load` is called
    /// once for each of those loads that reaches memory, at its address,
    /// in load order, just as [`load`] would ask for its latency.
    ///
    /// On a cold hierarchy (no access since construction) no load is
    /// simulated. A monotone sweep visits each line in one contiguous run,
    /// so each L2 line's first load misses both levels, every other load
    /// hits a cache, and every set ends up holding the newest `ways`
    /// distinct lines that map to it, oldest in LRU position. The end state
    /// is built directly, in time bounded by the cache capacity, and the
    /// memory loads are enumerated one per L2 line, not per load. A warm
    /// hierarchy, where earlier residents break that closed form, falls
    /// back to the [`load`] loop; so does a sweep that runs past the top of
    /// the address space or an L1 line longer than an L2 line.
    ///
    /// [`load`]: Self::load
    pub fn load_sweep(
        &mut self,
        first: Addr,
        stride: u64,
        count: u64,
        mut memory_load: impl FnMut(Addr),
    ) {
        let sweep = Sweep {
            first: first.get(),
            stride,
            count,
        };
        let (g1, g2) = (self.config.l1, self.config.l2);
        let cold = self.l1.is_cold() && self.l2.is_cold();
        let last = match sweep.last() {
            Some(last) if cold && g1.line_bytes() <= g2.line_bytes() => last,
            _ => {
                let mut a = first;
                for _ in 0..count {
                    self.load(a, |a| {
                        memory_load(a);
                        SimDuration::ZERO
                    });
                    a = a.offset(stride);
                }
                return;
            }
        };
        let d1 = sweep.distinct_lines(g1.line_bytes(), last);
        let d2 = sweep.distinct_lines(g2.line_bytes(), last);
        // L2 sees each L1 line's first load; with L1 lines nested in L2
        // lines, that is every L2 line's first load and d1 - d2 repeats.
        self.l1
            .fill_cold(sweep.lines_newest_first(g1, last), count - d1, d1);
        self.l2
            .fill_cold(sweep.lines_newest_first(g2, last), d1 - d2, d2);
        self.memory_loads = d2;
        sweep.first_loads(g2.line_bytes(), last, |a| memory_load(Addr::new(a)));
    }

    /// Loads that reached memory since construction.
    pub fn memory_loads(&self) -> u64 {
        self.memory_loads
    }

    /// The L1 data cache, for its hit/miss counters and residency.
    pub fn l1(&self) -> &SetAssocCache {
        &self.l1
    }

    /// The L2 cache, for its hit/miss counters and residency.
    pub fn l2(&self) -> &SetAssocCache {
        &self.l2
    }

    /// The L2 miss ratio observed so far.
    pub fn l2_miss_ratio(&self) -> f64 {
        self.l2.miss_ratio()
    }
}

/// The loads `first + i * stride` for `i < count`.
#[derive(Debug, Clone, Copy)]
struct Sweep {
    first: u64,
    stride: u64,
    count: u64,
}

impl Sweep {
    /// The last address, if the sweep is non-empty and does not wrap.
    fn last(self) -> Option<u64> {
        self.count
            .checked_sub(1)?
            .checked_mul(self.stride)?
            .checked_add(self.first)
    }

    /// How many distinct `line_bytes` lines the sweep touches. A stride
    /// shorter than a line skips none between the first and `last`.
    fn distinct_lines(self, line_bytes: u64, last: u64) -> u64 {
        if self.stride >= line_bytes {
            self.count
        } else {
            last / line_bytes - self.first / line_bytes + 1
        }
    }

    /// The distinct lines of `geometry` the sweep touches, newest first,
    /// ending once the newest ones already fill every set they can reach.
    ///
    /// Addresses modulo the set span `sets * line_bytes` repeat with
    /// period `p = span / gcd(stride, span)` loads, and the `ways` newest
    /// periods give every reachable set `ways` distinct lines, so no older
    /// line is kept. A stride of a line or more puts each load in a line
    /// of its own; a shorter one touches every line in between, so the
    /// lines count down one by one.
    fn lines_newest_first(self, geometry: CacheGeometry, last: u64) -> impl Iterator<Item = u64> {
        let line_bytes = geometry.line_bytes();
        let shift = line_bytes.trailing_zeros();
        let span = geometry.sets() * line_bytes;
        let period = span / gcd(self.stride, span);
        let kept = self
            .count
            .min(period.saturating_mul(u64::from(geometry.ways())));
        let (step, lines) = if self.stride >= line_bytes {
            (self.stride, kept)
        } else {
            let oldest = last - (kept - 1) * self.stride;
            (line_bytes, (last >> shift) - (oldest >> shift) + 1)
        };
        (0..lines).map(move |k| (last - k * step) >> shift)
    }

    /// Call `report` with the first load of each `line_bytes` line the
    /// sweep touches, in load order. A stride of a line or more puts each
    /// load in a line of its own. A shorter one touches every line from
    /// the first load's to `last`'s, and past the first line, a line's
    /// first load lies less than a stride into it. With `line_bytes = q *
    /// stride + r`, the next line's first load is then `q` strides on, or
    /// `q + 1` when the current one lies fewer than `r` bytes in.
    fn first_loads(self, line_bytes: u64, last: u64, mut report: impl FnMut(u64)) {
        let stride = self.stride;
        if stride >= line_bytes {
            (0..self.count).for_each(|i| report(self.first + i * stride));
            return;
        }
        let shift = line_bytes.trailing_zeros();
        let into = |a: u64| a & (line_bytes - 1);
        let mut a = self.first;
        report(a);
        let lines = (last >> shift) - (a >> shift);
        if lines == 0 {
            return;
        }
        a += (line_bytes - into(a)).div_ceil(stride) * stride;
        report(a);
        let (q, r) = (line_bytes / stride, line_bytes % stride);
        for _ in 1..lines {
            a += (q + u64::from(into(a) < r)) * stride;
            report(a);
        }
    }
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> SimDuration {
        SimDuration::from_ns(83.0)
    }

    #[test]
    fn load_walks_down_the_hierarchy() {
        let mut h = CacheHierarchy::new(HierarchyConfig::ev7());
        let a = Addr::new(0x1000);
        let first = h.load(a, |_| mem());
        assert_eq!(first.level, HitLevel::Memory);
        assert_eq!(first.latency, mem());
        assert_eq!(h.load(a, |_| mem()).level, HitLevel::L1);
        assert_eq!(h.memory_loads(), 1);
    }

    #[test]
    fn l2_hit_after_l1_eviction() {
        let mut h = CacheHierarchy::new(HierarchyConfig::ev7());
        let a = Addr::new(0);
        h.load(a, |_| mem());
        // Evict `a` from L1 by filling its set (2-way, 512 sets, 64B lines):
        // lines 512 and 1024 map to set 0 like line 0.
        let l1_sets = h.config().l1.sets();
        h.load(Addr::new(l1_sets * 64), |_| mem());
        h.load(Addr::new(2 * l1_sets * 64), |_| mem());
        let back = h.load(a, |_| mem());
        assert_eq!(back.level, HitLevel::L2);
        assert_eq!(back.latency, h.config().l2_latency);
    }

    #[test]
    fn working_set_sizes_select_levels() {
        // A 32 KB working set lives in L1; 512 KB in L2; 4 MB in memory
        // (EV7 geometry). Stream each twice, check the second sweep.
        for (bytes, expected) in [
            (32 * 1024u64, HitLevel::L1),
            (512 * 1024, HitLevel::L2),
            (4 * 1024 * 1024, HitLevel::Memory),
        ] {
            let mut h = CacheHierarchy::new(HierarchyConfig::ev7());
            let lines = bytes / 64;
            for _ in 0..2 {
                for i in 0..lines {
                    h.load(Addr::new(i * 64), |_| mem());
                }
            }
            // Sample the second sweep's outcome via a fresh pass probe.
            let outcome = h.load(Addr::new(0), |_| mem());
            assert_eq!(outcome.level, expected, "{bytes} B working set");
        }
    }

    #[test]
    fn ev68_has_bigger_but_slower_l2() {
        let ev7 = HierarchyConfig::ev7();
        let ev68 = HierarchyConfig::ev68();
        assert!(ev68.l2.size_bytes() > ev7.l2.size_bytes());
        assert!(ev68.l2_latency > ev7.l2_latency);
        // The paper's crossover: an 8 MB working set fits the EV68 B-cache
        // but not the EV7 L2.
        assert!(8 * 1024 * 1024 < ev68.l2.size_bytes());
        assert!(8 * 1024 * 1024 > ev7.l2.size_bytes());
    }

    #[test]
    fn load_sweep_matches_load_loop_on_paper_geometries() {
        // (first, stride, count): line-by-line past the EV68 B-cache; a
        // 16 KB stride that reaches few sets; sub-line, line-straddling
        // and set-skipping strides.
        let sweeps = [
            (0, 64, 300_000),
            (0, 16_384, 2048),
            (0, 4, 100_000),
            (40, 96, 30_000),
            (8, 128, 20_000),
            (40, 24, 50_000),
        ];
        for config in [HierarchyConfig::ev7(), HierarchyConfig::ev68()] {
            for (first, stride, count) in sweeps {
                let (mut reported, mut asked) = (Vec::new(), Vec::new());
                let mut swept = CacheHierarchy::new(config);
                let mut looped = swept.clone();
                swept.load_sweep(Addr::new(first), stride, count, |a| reported.push(a));
                for i in 0..count {
                    looped.load(Addr::new(first + i * stride), |a| {
                        asked.push(a);
                        mem()
                    });
                }
                assert!(swept == looped, "{first} + i * {stride}, {count} loads");
                assert!(reported == asked, "{first} + i * {stride}: memory loads");
                assert_eq!(reported.len() as u64, swept.memory_loads());
            }
        }
    }
}
