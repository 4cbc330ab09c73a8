//! Figs. 4–5: dependent-load latency through the cache/memory hierarchy.

use alphasim_cache::{CacheHierarchy, HierarchyConfig};
use alphasim_kernel::par::parallel_map;
use alphasim_kernel::SimDuration;
use alphasim_mem::OpenPageTable;
use alphasim_system::{Calibration, Gs1280, Gs320};
use alphasim_workloads::PointerChase;

use crate::types::{Figure, Series};

/// A machine's view for the single-CPU latency experiments, read from its
/// machine model.
#[derive(Debug, Clone, Copy)]
pub struct LatencyMachine {
    /// Display name.
    pub name: &'static str,
    /// Cache hierarchy.
    pub hierarchy: HierarchyConfig,
    /// Open-page memory load-to-use, ns.
    pub open_ns: f64,
    /// Closed-page memory load-to-use, ns.
    pub closed_ns: f64,
    /// RDRAM/SDRAM page size, KiB.
    pub page_kib: u64,
    /// Open-page table capacity.
    pub open_pages: usize,
}

impl LatencyMachine {
    /// The view of a machine with calibration `calib`, local load-to-use
    /// `local_latency(page_hit)` and `open_pages` open pages at each
    /// memory site.
    fn view(
        calib: &Calibration,
        local_latency: impl Fn(bool) -> SimDuration,
        open_pages: usize,
    ) -> Self {
        LatencyMachine {
            name: calib.kind.name(),
            hierarchy: calib.hierarchy,
            open_ns: local_latency(true).as_ns(),
            closed_ns: local_latency(false).as_ns(),
            page_kib: calib.zbox.page_kib,
            open_pages,
        }
    }

    /// The GS1280 (83/130 ns; Figs. 5, 13) in front of both Zboxes' open
    /// pages. A node's local latency is its calibration's, as in
    /// [`Gs1280::local_latency`].
    pub fn gs1280() -> Self {
        let calib = Calibration::gs1280();
        let open_pages = calib.zbox.open_pages * Gs1280::ZBOXES_PER_NODE;
        Self::view(&calib, |hit| calib.local_latency(hit), open_pages)
    }

    /// The ES45 (~185 ns memory plateau in Fig. 4). Its local latency is
    /// its calibration's, as in
    /// [`Es45::local_latency`](alphasim_system::Es45::local_latency).
    pub fn es45() -> Self {
        let calib = Calibration::es45();
        Self::view(
            &calib,
            |hit| calib.local_latency(hit),
            calib.zbox.open_pages,
        )
    }

    /// The GS320 (~330 ns memory plateau in Fig. 4): memory sits behind
    /// the QBB's switch, so the latency is one QBB's.
    pub fn gs320() -> Self {
        let qbb = Gs320::new(Calibration::gs320().cpus_per_mem_site);
        let calib = qbb.calibration();
        Self::view(calib, |hit| qbb.local_latency(hit), calib.zbox.open_pages)
    }

    /// Measured dependent-load latency (ns) for one dataset size and stride.
    pub fn dependent_load_ns(&self, size: u64, stride: u64, max_loads: u64) -> f64 {
        let mut hierarchy = CacheHierarchy::new(self.hierarchy);
        let mut pages = OpenPageTable::new(self.page_kib, self.open_pages);
        let (open, closed) = (
            SimDuration::from_ns(self.open_ns),
            SimDuration::from_ns(self.closed_ns),
        );
        let chase = PointerChase::new(size, stride);
        let loads = chase.elements().clamp(1, max_loads);
        chase
            .run(
                &mut hierarchy,
                |addr| {
                    if pages.touch(pages.page_of(addr.get())) {
                        open
                    } else {
                        closed
                    }
                },
                loads,
            )
            .as_ns()
    }
}

/// The dataset sizes of Fig. 4 (4 KB … 128 MB).
pub fn fig04_sizes() -> Vec<u64> {
    (12..=27).map(|p| 1u64 << p).collect()
}

/// Reproduce Fig. 4: dependent-load latency vs. dataset size at a 64-byte
/// stride, on all three machines. `max_loads` caps the measured loads per
/// point (the full figure uses ~100k; tests pass less).
pub fn fig04(sizes: &[u64], max_loads: u64) -> Figure {
    let mut fig = Figure::new(
        "fig04",
        "Dependent load latency comparison",
        "dataset size (bytes)",
        "latency (ns)",
    );
    // Every (machine, size) point is an independent pure simulation, so the
    // whole grid fans out at once; `parallel_map` keeps input order, which
    // keeps the figure byte-identical to a sequential sweep.
    let machines = [
        LatencyMachine::gs1280(),
        LatencyMachine::es45(),
        LatencyMachine::gs320(),
    ];
    let grid: Vec<(LatencyMachine, u64)> = machines
        .iter()
        .flat_map(|&m| sizes.iter().map(move |&s| (m, s)))
        .collect();
    let latencies = parallel_map(grid, |(m, s)| m.dependent_load_ns(s, 64, max_loads));
    for (i, m) in machines.iter().enumerate() {
        let pts: Vec<(f64, f64)> = sizes
            .iter()
            .zip(&latencies[i * sizes.len()..])
            .map(|(&s, &ns)| (s as f64, ns))
            .collect();
        fig.series.push(Series::from_pairs(m.name, pts));
    }
    fig
}

/// Reproduce Fig. 5: the GS1280 latency surface over dataset size × stride.
/// Returns one series per stride (the figure's depth axis).
pub fn fig05(sizes: &[u64], strides: &[u64], max_loads: u64) -> Figure {
    let m = LatencyMachine::gs1280();
    let mut fig = Figure::new(
        "fig05",
        "GS1280 dependent load latency for various strides",
        "dataset size (bytes)",
        "latency (ns)",
    );
    // Flatten the stride × size surface into one ordered work list.
    let grid: Vec<(u64, u64)> = strides
        .iter()
        .flat_map(|&stride| {
            sizes
                .iter()
                .filter(move |&&s| s >= stride)
                .map(move |&s| (stride, s))
        })
        .collect();
    let latencies = parallel_map(grid.clone(), |(stride, s)| {
        m.dependent_load_ns(s, stride, max_loads)
    });
    for &stride in strides {
        let pts: Vec<(f64, f64)> = grid
            .iter()
            .zip(&latencies)
            .filter(|((st, _), _)| *st == stride)
            .map(|(&(_, s), &ns)| (s as f64, ns))
            .collect();
        fig.series
            .push(Series::from_pairs(format!("stride {stride}B"), pts));
    }
    fig
}

/// Default Fig. 5 strides (4 B … 16 KB, the paper's depth axis).
pub fn fig05_strides() -> Vec<u64> {
    vec![4, 16, 64, 256, 1024, 4096, 16384]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig04_plateaus_match_paper() {
        // Check the three key bands of the figure with reduced sizes.
        let m1280 = LatencyMachine::gs1280();
        let m320 = LatencyMachine::gs320();
        let es45 = LatencyMachine::es45();
        // 64 KB..1.75 MB: GS1280's on-chip L2 (10.4) beats off-chip (24).
        let a = m1280.dependent_load_ns(512 * 1024, 64, 20_000);
        let b = m320.dependent_load_ns(512 * 1024, 64, 20_000);
        assert!((a - 10.4).abs() < 0.5, "GS1280 L2 {a}");
        assert!((b - 24.0).abs() < 0.5, "GS320 B-cache {b}");
        // 1.75..16 MB: GS320/ES45 hit cache, GS1280 goes to memory — the
        // band where the old machines win.
        let a = m1280.dependent_load_ns(8 << 20, 64, 20_000);
        let b = m320.dependent_load_ns(8 << 20, 64, 20_000);
        let c = es45.dependent_load_ns(8 << 20, 64, 20_000);
        assert!(a > 80.0, "GS1280 at 8MB {a}");
        assert!(b < 25.0 && c < 25.0, "old machines at 8MB {b} {c}");
        // >16 MB: GS1280 ~3.8x better than GS320 (32 MB point).
        let a = m1280.dependent_load_ns(32 << 20, 64, 20_000);
        let b = m320.dependent_load_ns(32 << 20, 64, 20_000);
        let ratio = b / a;
        assert!((3.2..=4.4).contains(&ratio), "32MB ratio {ratio}");
    }

    #[test]
    fn each_machine_view_reads_its_model() {
        use alphasim_system::Es45;
        use alphasim_workloads::spec::MachinePerf;

        let (g, e, q) = (Gs1280::builder().build(), Es45::new(1), Gs320::new(4));
        let ns = |f: &dyn Fn(bool) -> SimDuration| [f(true), f(false)].map(|d| d.as_ns().to_bits());
        for (view, calib, local, zboxes) in [
            (
                LatencyMachine::gs1280(),
                g.calibration(),
                ns(&|h| g.local_latency(h)),
                2,
            ),
            (
                LatencyMachine::es45(),
                e.calibration(),
                ns(&|h| e.local_latency(h)),
                1,
            ),
            (
                LatencyMachine::gs320(),
                q.calibration(),
                ns(&|h| q.local_latency(h)),
                1,
            ),
        ] {
            assert_eq!(view.name, calib.kind.to_string());
            assert_eq!(view.hierarchy, calib.hierarchy, "{}", view.name);
            assert_eq!([view.open_ns, view.closed_ns].map(f64::to_bits), local);
            assert_eq!(view.page_kib, calib.zbox.page_kib, "{}", view.name);
            assert_eq!(view.open_pages, calib.zbox.open_pages * zboxes);
        }
        let striped = Gs1280::builder().striping(true).build();
        for (perf, latency) in [
            (MachinePerf::gs1280(), g.local_latency(true)),
            (
                MachinePerf::gs1280_striped(),
                striped.effective_local_latency(),
            ),
            (MachinePerf::es45(), e.local_latency(true)),
            (MachinePerf::gs320(), q.local_latency(true)),
        ] {
            let model = latency.as_ns().to_bits();
            assert_eq!(perf.memory_latency_ns.to_bits(), model, "{}", perf.name);
        }
    }

    #[test]
    fn every_machine_builds_its_page_table() {
        for m in [
            LatencyMachine::gs1280(),
            LatencyMachine::es45(),
            LatencyMachine::gs320(),
        ] {
            let pages = OpenPageTable::new(m.page_kib, m.open_pages);
            assert_eq!(pages.bank_count(), m.open_pages, "{}", m.name);
        }
    }

    #[test]
    fn fig05_stride_raises_latency_toward_closed_page() {
        let m = LatencyMachine::gs1280();
        let small_stride = m.dependent_load_ns(8 << 20, 64, 20_000);
        let large_stride = m.dependent_load_ns(8 << 20, 16384, 20_000);
        assert!(
            (80.0..95.0).contains(&small_stride),
            "open-ish {small_stride}"
        );
        assert!(
            (120.0..135.0).contains(&large_stride),
            "closed {large_stride}"
        );
    }

    #[test]
    fn fig05_sub_line_strides_amortize() {
        let m = LatencyMachine::gs1280();
        let tiny = m.dependent_load_ns(4 << 20, 4, 30_000);
        assert!(tiny < 15.0, "stride-4 amortized {tiny}");
    }

    #[test]
    fn fig04_figure_shape() {
        let sizes: Vec<u64> = (12..=23).map(|p| 1u64 << p).collect();
        let fig = fig04(&sizes, 5_000);
        assert_eq!(fig.series.len(), 3);
        for s in &fig.series {
            assert_eq!(s.points.len(), sizes.len());
            // Latency is monotone non-decreasing in dataset size.
            for w in s.points.windows(2) {
                assert!(w[1].y >= w[0].y - 1.0, "{}: {:?}", s.label, w);
            }
        }
    }
}
