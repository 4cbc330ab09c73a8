//! The three application classes of §5: Fluent (CPU-bound CFD), NAS SP
//! (memory-bandwidth-bound MPI), and the traffic signatures behind their
//! utilization figures (Figs. 19–22). GUPS, the third class, is the load
//! test's uniform-remote pattern in `alphasim-system`.

use alphasim_system::{Gs1280, Gs320, Sc45};
use serde::{Deserialize, Serialize};

/// Which machine an application model is evaluated on.
#[derive(Debug, Clone)]
pub enum AppMachine {
    /// The GS1280.
    Gs1280(Gs1280),
    /// The GS320.
    Gs320(Gs320),
    /// An SC45 cluster (ES45 boxes).
    Sc45(Sc45),
}

impl AppMachine {
    /// Display name.
    pub fn name(&self) -> String {
        match self {
            AppMachine::Gs1280(m) => m.calibration().kind.to_string(),
            AppMachine::Gs320(m) => m.calibration().kind.to_string(),
            AppMachine::Sc45(m) => m.calibration().kind.to_string(),
        }
    }

    /// CPU count.
    pub fn cpus(&self) -> usize {
        match self {
            AppMachine::Gs1280(m) => m.cpus(),
            AppMachine::Gs320(m) => m.cpus(),
            AppMachine::Sc45(m) => m.cpus(),
        }
    }

    fn clock_ghz(&self) -> f64 {
        match self {
            AppMachine::Gs1280(m) => m.calibration().clock.ghz(),
            AppMachine::Gs320(m) => m.calibration().clock.ghz(),
            AppMachine::Sc45(m) => m.calibration().clock.ghz(),
        }
    }

    fn l2_bytes(&self) -> u64 {
        match self {
            AppMachine::Gs1280(m) => m.calibration().hierarchy.l2.size_bytes(),
            AppMachine::Gs320(m) => m.calibration().hierarchy.l2.size_bytes(),
            AppMachine::Sc45(m) => m.calibration().hierarchy.l2.size_bytes(),
        }
    }

    /// Local memory load-to-use latency in ns.
    pub fn local_latency_ns(&self) -> f64 {
        match self {
            AppMachine::Gs1280(m) => m.local_latency(true).as_ns(),
            AppMachine::Gs320(m) => m.local_latency(true).as_ns(),
            AppMachine::Sc45(m) => m.local_latency(true).as_ns(),
        }
    }

    fn stream_gbps(&self, cpus: usize) -> f64 {
        match self {
            AppMachine::Gs1280(m) => m.stream_triad_gbps(cpus),
            AppMachine::Gs320(m) => m.stream_triad_gbps(cpus),
            AppMachine::Sc45(m) => m.stream_triad_gbps(cpus),
        }
    }

    /// Per-message synchronisation cost in microseconds for MPI-style
    /// exchanges.
    fn mpi_overhead_us(&self) -> f64 {
        match self {
            // Shared-memory MPI over the torus: cheap.
            AppMachine::Gs1280(_) => 1.2,
            // GS320's switch makes messaging slower.
            AppMachine::Gs320(_) => 6.0,
            // Quadrics user-level messaging.
            AppMachine::Sc45(_) => 5.0,
        }
    }
}

/// Fluent (§5.1, Figs. 19–20): a cache-blocked CFD solver that stresses
/// neither the memory controllers nor the IP links; the large off-chip
/// caches of the older machines often *help* it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FluentModel {
    /// Mesh cells of the case (the paper's `fl5l1` is ~M-cell scale).
    pub cells: u64,
    /// Per-cell, per-iteration work in FLOP.
    pub flops_per_cell: f64,
    /// Cache-blocked working set per CPU, bytes per cell.
    pub bytes_per_cell: f64,
}

impl FluentModel {
    /// The paper's large `fl5l1` case (flow around a fighter aircraft).
    pub fn fl5l1() -> Self {
        FluentModel {
            cells: 1_200_000,
            flops_per_cell: 2_000.0,
            bytes_per_cell: 400.0,
        }
    }

    /// Fluent "rating" (runs per day, the paper's Fig. 19 metric; higher is
    /// better) on `machine` with `cpus` CPUs.
    pub fn rating(&self, machine: &AppMachine, cpus: usize) -> f64 {
        assert!(
            cpus >= 1 && cpus <= machine.cpus(),
            "CPU count out of range"
        );
        // Per-CPU compute speed: clock-bound, boosted when the per-CPU
        // block fits the cache (blocked solvers re-use aggressively).
        let block_bytes = self.cells as f64 * self.bytes_per_cell / cpus as f64;
        let cache_bonus = if block_bytes <= machine.l2_bytes() as f64 {
            1.15 // fully cache-resident blocks
        } else {
            // Partial reuse; big caches capture more of the block.
            1.0 + 0.15 * (machine.l2_bytes() as f64 / block_bytes).min(1.0)
        };
        // The share of the block the cache cannot capture pays memory
        // latency; the GS320's ~330 ns makes this the visible gap in
        // Fig. 19 despite its big cache.
        let uncovered = (1.0 - machine.l2_bytes() as f64 / block_bytes).max(0.0);
        let mem_penalty = 1.0 + uncovered * machine.local_latency_ns() / 800.0;
        let flops_per_sec_per_cpu = machine.clock_ghz() * 1e9 * 0.8 * cache_bonus / mem_penalty;
        // Parallel efficiency: halo exchanges per iteration.
        let compute_s =
            self.cells as f64 * self.flops_per_cell / (flops_per_sec_per_cpu * cpus as f64);
        let comm_s = (cpus as f64).log2().max(0.0) * machine.mpi_overhead_us() * 1e-6 * 40.0; // exchanges per iteration
        let seconds_per_iter = compute_s + comm_s;
        // Rating = runs/day; one run ≈ 1000 iterations.
        86_400.0 / (seconds_per_iter * 1000.0)
    }

    /// Mean Zbox utilization (fraction): low by construction (Fig. 20
    /// shows ≤ ~12%, average ~5%).
    pub fn zbox_utilization(&self) -> f64 {
        0.05
    }

    /// Mean IP-link utilization (fraction): lower still.
    pub fn ip_utilization(&self) -> f64 {
        0.02
    }
}

/// NAS Parallel SP (§5.2, Figs. 21–22): a memory-bandwidth-bound MPI
/// solver. Throughput in MOPS follows the machine's aggregate sustainable
/// memory bandwidth, with ~26% Zbox utilization on the GS1280 and low IP
/// traffic.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NasSpModel {
    /// Bytes of memory traffic per operation (class C is ~2.4 B/op).
    pub bytes_per_op: f64,
    /// Peak per-CPU op rate when memory is free, MOPS.
    pub peak_mops_per_cpu: f64,
}

impl NasSpModel {
    /// Class C.
    pub fn class_c() -> Self {
        NasSpModel {
            bytes_per_op: 2.4,
            peak_mops_per_cpu: 640.0,
        }
    }

    /// Aggregate MOPS on `machine` with `cpus` CPUs (Fig. 21).
    pub fn mops(&self, machine: &AppMachine, cpus: usize) -> f64 {
        assert!(
            cpus >= 1 && cpus <= machine.cpus(),
            "CPU count out of range"
        );
        let bw_bound = machine.stream_gbps(cpus) * 1e9 / self.bytes_per_op / 1e6;
        let cpu_bound = self.peak_mops_per_cpu * cpus as f64;
        // MPI overhead shaves a few percent per doubling.
        let eff = 0.97f64.powf((cpus as f64).log2().max(0.0));
        bw_bound.min(cpu_bound) * eff
    }

    /// Mean Zbox utilization (Fig. 22 shows ~26% on the GS1280).
    pub fn zbox_utilization(&self) -> f64 {
        0.26
    }

    /// Mean IP-link utilization: low, like most MPI codes (§5.2).
    pub fn ip_utilization(&self) -> f64 {
        0.04
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machines(cpus: usize) -> Vec<AppMachine> {
        vec![
            AppMachine::Gs1280(Gs1280::builder().cpus(cpus).build()),
            AppMachine::Gs320(Gs320::new(cpus.min(32))),
            AppMachine::Sc45(Sc45::new(cpus)),
        ]
    }

    #[test]
    fn fluent_is_comparable_between_gs1280_and_sc45() {
        // §5.1: "GS1280 shows comparable performance to ES45" on Fluent.
        let f = FluentModel::fl5l1();
        for cpus in [4usize, 16] {
            let ms = machines(16);
            let g = f.rating(&ms[0], cpus);
            let s = f.rating(&ms[2], cpus);
            let ratio = g / s;
            assert!((0.6..=1.6).contains(&ratio), "{cpus}P ratio {ratio}");
        }
    }

    #[test]
    fn fluent_scales_with_cpus() {
        let f = FluentModel::fl5l1();
        let m = AppMachine::Gs1280(Gs1280::builder().cpus(32).build());
        let r4 = f.rating(&m, 4);
        let r16 = f.rating(&m, 16);
        let r32 = f.rating(&m, 32);
        assert!(r16 > 2.5 * r4, "r4={r4} r16={r16}");
        assert!(r32 > r16);
    }

    #[test]
    fn fluent_barely_touches_memory_and_links() {
        let f = FluentModel::fl5l1();
        assert!(f.zbox_utilization() < 0.15);
        assert!(f.ip_utilization() < 0.1);
    }

    #[test]
    fn sp_advantage_tracks_memory_bandwidth() {
        // §5.2 / Fig. 21: GS1280 >> SC45 > GS320 on SP.
        let sp = NasSpModel::class_c();
        let ms = machines(16);
        let g = sp.mops(&ms[0], 16);
        let q = sp.mops(&ms[1], 16);
        let s = sp.mops(&ms[2], 16);
        assert!(g > 2.0 * s, "GS1280 {g} vs SC45 {s}");
        assert!(s > q, "SC45 {s} vs GS320 {q}");
        assert!(g > 5.0 * q, "GS1280 {g} vs GS320 {q}");
    }

    #[test]
    fn sp_scales_near_linearly_on_gs1280() {
        let sp = NasSpModel::class_c();
        let m = AppMachine::Gs1280(Gs1280::builder().cpus(32).build());
        let m8 = sp.mops(&m, 8);
        let m32 = sp.mops(&m, 32);
        assert!(m32 > 3.4 * m8, "8P {m8} 32P {m32}");
    }

    #[test]
    fn sp_utilization_signature() {
        let sp = NasSpModel::class_c();
        assert!((0.2..=0.35).contains(&sp.zbox_utilization()));
        assert!(sp.ip_utilization() < 0.1);
    }
}
