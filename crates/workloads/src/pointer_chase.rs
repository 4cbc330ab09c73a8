//! The lmbench-style dependent-load ("pointer chase") kernel behind the
//! paper's Figs. 4 and 5.
//!
//! A chain of pointers is laid out over `size` bytes at a fixed `stride`;
//! each load's address depends on the previous load's value, so no two loads
//! overlap and the measured time per load is the true load-to-use latency of
//! whatever level the chain lands in.

use alphasim_cache::{Addr, CacheHierarchy};
use alphasim_kernel::SimDuration;
use serde::{Deserialize, Serialize};

/// A pointer-chase configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PointerChase {
    /// Total dataset size in bytes.
    pub size: u64,
    /// Stride between consecutive elements in bytes.
    pub stride: u64,
    /// Base address of the dataset.
    pub base: u64,
}

impl PointerChase {
    /// A chase over `size` bytes at `stride`, based at address 0.
    ///
    /// # Panics
    ///
    /// Panics if `stride` is zero or `size < stride`.
    pub fn new(size: u64, stride: u64) -> Self {
        assert!(stride > 0, "stride must be positive");
        assert!(size >= stride, "need at least one element");
        PointerChase {
            size,
            stride,
            base: 0,
        }
    }

    /// Number of elements in the chain.
    pub fn elements(&self) -> u64 {
        self.size / self.stride
    }

    /// The address of element `i` of the cyclic chain.
    pub fn address(&self, i: u64) -> Addr {
        Addr::new(self.base + (i % self.elements()) * self.stride)
    }

    /// Walk the chain through a cache hierarchy for `loads` dependent
    /// loads (after one warm-up pass over the chain) and return the mean
    /// load-to-use latency. `memory_latency` supplies the cost of a full
    /// miss for each address (e.g. open- vs. closed-page from a Zbox
    /// model).
    ///
    /// `memory_latency` is called exactly once per load, as if every load
    /// went through [`CacheHierarchy::load`]: first once for each element
    /// in address order (the warm-up pass), then once for each measured
    /// load `i`, at [`address(i)`](Self::address). A stateful closure, such
    /// as one driving an open-page table, therefore sees the same address
    /// sequence however the hierarchy takes the warm-up.
    pub fn run(
        &self,
        hierarchy: &mut CacheHierarchy,
        mut memory_latency: impl FnMut(Addr) -> SimDuration,
        loads: u64,
    ) -> SimDuration {
        assert!(loads > 0, "need at least one measured load");
        // Warm-up pass: its latencies are discarded, so the caches take it
        // as one sweep while the closure still sees every address.
        let first = Addr::new(self.base);
        let mut a = first;
        for _ in 0..self.elements() {
            memory_latency(a);
            a = a.offset(self.stride);
        }
        hierarchy.load_sweep(first, self.stride, self.elements());
        let mut total = SimDuration::ZERO;
        for i in 0..loads {
            let a = self.address(i);
            let ml = memory_latency(a);
            total += hierarchy.load(a, ml).latency;
        }
        total / loads
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alphasim_cache::HierarchyConfig;
    use alphasim_mem::OpenPageTable;

    fn mem(_a: Addr) -> SimDuration {
        SimDuration::from_ns(83.0)
    }

    #[test]
    fn element_addressing_wraps() {
        let pc = PointerChase::new(1024, 64);
        assert_eq!(pc.elements(), 16);
        assert_eq!(pc.address(0), Addr::new(0));
        assert_eq!(pc.address(16), Addr::new(0));
        assert_eq!(pc.address(17), Addr::new(64));
    }

    #[test]
    fn small_set_measures_l1() {
        let mut h = CacheHierarchy::new(HierarchyConfig::ev7());
        let pc = PointerChase::new(16 * 1024, 64);
        let lat = pc.run(&mut h, mem, 1000);
        assert_eq!(lat, h.config().l1_latency);
    }

    #[test]
    fn mid_set_measures_l2() {
        let mut h = CacheHierarchy::new(HierarchyConfig::ev7());
        let pc = PointerChase::new(512 * 1024, 64);
        let lat = pc.run(&mut h, mem, 2000);
        assert_eq!(lat, h.config().l2_latency);
    }

    #[test]
    fn large_set_measures_memory() {
        let mut h = CacheHierarchy::new(HierarchyConfig::ev7());
        let pc = PointerChase::new(8 * 1024 * 1024, 64);
        let lat = pc.run(&mut h, mem, 2000);
        // LRU over a sequential sweep larger than L2: every load misses.
        assert_eq!(lat.as_ns(), 83.0);
    }

    #[test]
    fn ev68_crossover_band() {
        // The paper's Fig. 4 crossover: at 8 MB the EV68's 16 MB B-cache
        // still hits (24 ns) while the EV7 goes to memory (83 ns).
        let mut ev7 = CacheHierarchy::new(HierarchyConfig::ev7());
        let mut ev68 = CacheHierarchy::new(HierarchyConfig::ev68());
        let pc = PointerChase::new(8 * 1024 * 1024, 64);
        let l7 = pc.run(&mut ev7, mem, 2000);
        let l68 = pc.run(&mut ev68, |_| SimDuration::from_ns(185.0), 2000);
        assert!(l68 < l7, "EV68 {l68} should beat EV7 {l7} at 8 MB");
    }

    /// `run` with the per-load warm-up it had before
    /// [`CacheHierarchy::load_sweep`]: one `load` per element.
    fn reference_run(
        pc: &PointerChase,
        hierarchy: &mut CacheHierarchy,
        mut memory_latency: impl FnMut(Addr) -> SimDuration,
        loads: u64,
    ) -> SimDuration {
        for i in 0..pc.elements() {
            let a = pc.address(i);
            let ml = memory_latency(a);
            hierarchy.load(a, ml);
        }
        let mut total = SimDuration::ZERO;
        for i in 0..loads {
            let a = pc.address(i);
            let ml = memory_latency(a);
            total += hierarchy.load(a, ml).latency;
        }
        total / loads
    }

    /// A recording open/closed-page memory, like `dependent_load_ns`'s.
    fn paged_memory(seen: &mut Vec<Addr>) -> impl FnMut(Addr) -> SimDuration + '_ {
        let mut pages = OpenPageTable::new(2, 2048);
        move |a| {
            seen.push(a);
            if pages.touch(pages.page_of(a.get())) {
                SimDuration::from_ns(83.0)
            } else {
                SimDuration::from_ns(130.0)
            }
        }
    }

    #[test]
    fn run_matches_the_per_load_warm_up_and_shows_every_address() {
        for (config, size, stride, loads) in [
            (HierarchyConfig::ev7(), 4 << 20, 64, 3000),
            (HierarchyConfig::ev7(), 1 << 20, 4, 3000),
            (HierarchyConfig::ev7(), 8 << 20, 16_384, 3000),
            (HierarchyConfig::ev68(), 32 << 20, 1024, 5000),
            (HierarchyConfig::ev68(), 64 * 1024, 96, 100),
        ] {
            let pc = PointerChase {
                base: 3 * 4096 + 8,
                ..PointerChase::new(size, stride)
            };
            let mut seen = Vec::new();
            let mut h = CacheHierarchy::new(config);
            let lat = pc.run(&mut h, paged_memory(&mut seen), loads);
            let order: Vec<Addr> = (0..pc.elements())
                .chain(0..loads)
                .map(|i| pc.address(i))
                .collect();
            assert!(seen == order, "{size} B at stride {stride}: closure calls");

            let mut ref_seen = Vec::new();
            let mut reference = CacheHierarchy::new(config);
            let ref_lat = reference_run(&pc, &mut reference, paged_memory(&mut ref_seen), loads);
            assert_eq!(lat, ref_lat, "{size} B at stride {stride}");
            assert_eq!(h.memory_loads(), reference.memory_loads());
            assert!(h == reference, "{size} B at stride {stride}: cache state");
        }
    }

    #[test]
    fn sub_line_stride_amortizes() {
        // Stride 8: eight loads per 64 B line, 7 of them L1 hits even for
        // huge datasets.
        let mut h = CacheHierarchy::new(HierarchyConfig::ev7());
        let pc = PointerChase::new(8 * 1024 * 1024, 8);
        let lat = pc.run(&mut h, mem, 8000);
        let full_miss = SimDuration::from_ns(83.0);
        assert!(lat < full_miss / 4, "amortized latency {lat}");
    }
}
