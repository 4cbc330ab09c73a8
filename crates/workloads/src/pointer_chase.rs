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
    /// `memory_latency` is called once per load that misses both cache
    /// levels, exactly as [`CacheHierarchy::load`] asks for it, and for no
    /// other load: first for the warm-up pass's memory loads (the warm-up
    /// visits each element in address order), then for those of the
    /// measured loads `i`, at [`address(i)`](Self::address), all in load
    /// order. So it is called [`CacheHierarchy::memory_loads`] times. A
    /// stateful closure, such as one driving an open-page table, sees what
    /// a Zbox would see, however the hierarchy takes the warm-up.
    pub fn run(
        &self,
        hierarchy: &mut CacheHierarchy,
        mut memory_latency: impl FnMut(Addr) -> SimDuration,
        loads: u64,
    ) -> SimDuration {
        assert!(loads > 0, "need at least one measured load");
        // Warm-up pass: its latencies are discarded, so the caches take it
        // as one sweep that reports only its memory loads.
        let (first, elements) = (Addr::new(self.base), self.elements());
        hierarchy.load_sweep(first, self.stride, elements, |a| {
            memory_latency(a);
        });
        let mut total = SimDuration::ZERO;
        let (mut a, mut i) = (first, 0);
        for _ in 0..loads {
            total += hierarchy.load(a, &mut memory_latency).latency;
            i += 1;
            if i == elements {
                (a, i) = (first, 0);
            } else {
                a = a.offset(self.stride);
            }
        }
        total / loads
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alphasim_cache::HierarchyConfig;
    use alphasim_mem::OpenPageTable;
    use alphasim_system::{Calibration, Gs1280, Gs320};

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

    /// `run` as it was under the every-load contract: `memory_latency` is
    /// called for every load, the warm-up pass's in address order and then
    /// each measured load's, and the hierarchy takes the warm-up as a sweep
    /// that reports nothing ([`CacheHierarchy::load_sweep`] is checked
    /// against a plain `load` loop on its own).
    fn reference_run(
        pc: &PointerChase,
        hierarchy: &mut CacheHierarchy,
        mut memory_latency: impl FnMut(Addr) -> SimDuration,
        loads: u64,
    ) -> SimDuration {
        for i in 0..pc.elements() {
            memory_latency(pc.address(i));
        }
        hierarchy.load_sweep(pc.address(0), pc.stride, pc.elements(), |_| {});
        let mut total = SimDuration::ZERO;
        for i in 0..loads {
            let a = pc.address(i);
            let ml = memory_latency(a);
            total += hierarchy.load(a, |_| ml).latency;
        }
        total / loads
    }

    /// An open/closed-page memory like `dependent_load_ns`'s that tells
    /// `asked` each address it is asked about.
    fn paged_memory(
        (page_kib, banks): (u64, usize),
        [open, closed]: [SimDuration; 2],
        mut asked: impl FnMut(Addr),
    ) -> impl FnMut(Addr) -> SimDuration {
        let mut pages = OpenPageTable::new(page_kib, banks);
        move |a| {
            asked(a);
            if pages.touch(pages.page_of(a.get())) {
                open
            } else {
                closed
            }
        }
    }

    /// A Figs. 4–5 machine as `LatencyMachine` reads it from its model:
    /// hierarchy, page size and open-page banks, and local open- and
    /// closed-page latency.
    struct Machine {
        hierarchy: HierarchyConfig,
        pages: (u64, usize),
        latency: [SimDuration; 2],
    }

    /// The GS1280 (both Zboxes' open pages), the ES45 and the GS320 (one
    /// QBB's memory).
    fn machines() -> [Machine; 3] {
        let (g, e) = (Calibration::gs1280(), Calibration::es45());
        let qbb = Gs320::new(Calibration::gs320().cpus_per_mem_site);
        let q = qbb.calibration();
        let both = |f: &dyn Fn(bool) -> SimDuration| [f(true), f(false)];
        [
            Machine {
                hierarchy: g.hierarchy,
                pages: (g.zbox.page_kib, g.zbox.open_pages * Gs1280::ZBOXES_PER_NODE),
                latency: both(&|hit| g.local_latency(hit)),
            },
            Machine {
                hierarchy: e.hierarchy,
                pages: (e.zbox.page_kib, e.zbox.open_pages),
                latency: both(&|hit| e.local_latency(hit)),
            },
            Machine {
                hierarchy: q.hierarchy,
                pages: (q.zbox.page_kib, q.zbox.open_pages),
                latency: both(&|hit| qbb.local_latency(hit)),
            },
        ]
    }

    #[test]
    fn run_matches_the_every_load_oracle_at_every_figure_point() {
        // Fig. 4: every machine at a 64 B stride over 4 KB .. 128 MB;
        // Fig. 5: the GS1280 at every stride over the sizes it spans.
        let sizes: Vec<u64> = (12..=27).map(|p| 1u64 << p).collect();
        let [gs1280, es45, gs320] = machines();
        let mut points = Vec::new();
        for m in [&gs1280, &es45, &gs320] {
            points.extend(sizes.iter().map(|&size| (m, 64, size)));
        }
        for stride in [4, 16, 64, 256, 1024, 4096, 16_384] {
            let spanned = sizes.iter().filter(|&&size| size >= stride);
            points.extend(spanned.map(|&size| (&gs1280, stride, size)));
        }
        assert_eq!(points.len(), 3 * 16 + 6 * 16 + 14);
        for (m, stride, size) in points {
            let pc = PointerChase::new(size, stride);
            let loads = pc.elements().clamp(1, 500);
            let (mut asked, mut every) = (0, 0);
            let mut h = CacheHierarchy::new(m.hierarchy);
            let memory = paged_memory(m.pages, m.latency, |_| asked += 1);
            let lat = pc.run(&mut h, memory, loads);
            let memory = paged_memory(m.pages, m.latency, |_| every += 1);
            let reference =
                reference_run(&pc, &mut CacheHierarchy::new(m.hierarchy), memory, loads);
            assert_eq!(lat, reference, "{size} B at stride {stride}");
            assert_eq!(asked, h.memory_loads(), "{size} B at stride {stride}");
            assert_eq!(every, pc.elements() + loads);
        }
    }

    #[test]
    fn run_asks_memory_only_about_the_loads_that_reach_it() {
        let gs1280 = &machines()[0];
        for (config, size, stride, loads) in [
            (HierarchyConfig::ev7(), 4 << 20, 64, 3000),
            (HierarchyConfig::ev7(), 1 << 20, 4, 3000),
            (HierarchyConfig::ev7(), 8 << 20, 16_384, 3000),
            (HierarchyConfig::ev7(), 64 * 1024, 24, 9000),
            (HierarchyConfig::ev68(), 32 << 20, 1024, 5000),
            (HierarchyConfig::ev68(), 64 * 1024, 96, 100),
        ] {
            let pc = PointerChase {
                base: 3 * 4096 + 8,
                ..PointerChase::new(size, stride)
            };
            let mut seen = Vec::new();
            let mut h = CacheHierarchy::new(config);
            let memory = paged_memory(gs1280.pages, gs1280.latency, |a| seen.push(a));
            let lat = pc.run(&mut h, memory, loads);

            // A plain load loop over the same loads, recording what it
            // sends to memory.
            let mut sent = Vec::new();
            let mut looped = CacheHierarchy::new(config);
            for i in (0..pc.elements()).chain(0..loads) {
                looped.load(pc.address(i), |a| {
                    sent.push(a);
                    SimDuration::ZERO
                });
            }
            assert!(seen == sent, "{size} B at stride {stride}: closure calls");
            assert_eq!(seen.len() as u64, h.memory_loads());
            assert!(h == looped, "{size} B at stride {stride}: cache state");

            let memory = paged_memory(gs1280.pages, gs1280.latency, |_| {});
            let ref_lat = reference_run(&pc, &mut CacheHierarchy::new(config), memory, loads);
            assert_eq!(lat, ref_lat, "{size} B at stride {stride}");
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
