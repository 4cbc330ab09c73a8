//! The I/O subsystem (paper §2, §7).
//!
//! Each EV7 drives an I/O chip over a full-duplex link "capable of
//! 3.1 GB/s"; on the GS1280 every CPU can host an I/O port, so aggregate
//! I/O bandwidth scales with the machine — one of Fig. 28's ~8× rows.
//! On the GS320 a handful of PCI bridges hang off the QBBs; on the ES45 a
//! single box shares its host bridges.

use serde::{Deserialize, Serialize};

use crate::calibration::{Calibration, MachineKind};

/// An I/O subsystem configuration: how many ports and what each sustains.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IoSubsystem {
    /// Machine this belongs to.
    pub kind: MachineKind,
    /// Number of I/O ports (per-CPU on GS1280, per-QBB on GS320, per-box
    /// otherwise).
    pub ports: usize,
    /// Sustained bandwidth per port, GB/s, each direction.
    pub per_port_gbps: f64,
    /// Memory bandwidth headroom per port's host, GB/s — DMA ultimately
    /// lands in memory, so a port cannot stream faster than its host
    /// controller sustains (the CPU is idle during pure streaming).
    pub host_headroom_gbps: f64,
}

impl IoSubsystem {
    /// The I/O subsystem of a machine with `cpus` processors.
    ///
    /// # Panics
    ///
    /// Panics if `cpus` is zero.
    pub fn for_machine(calib: &Calibration, cpus: usize) -> Self {
        assert!(cpus > 0, "need at least one CPU");
        let ports = match calib.kind {
            MachineKind::Gs1280 => cpus,
            MachineKind::Gs320 => cpus.div_ceil(4),
            MachineKind::Es45 | MachineKind::Sc45 => cpus.div_ceil(4),
        };
        IoSubsystem {
            kind: calib.kind,
            ports,
            per_port_gbps: calib.io_gbps_per_site,
            host_headroom_gbps: calib.sustained_mem_gbps,
        }
    }

    /// Effective per-port streaming bandwidth: the link, capped by what the
    /// host memory system can absorb.
    pub fn effective_port_gbps(&self) -> f64 {
        self.per_port_gbps.min(self.host_headroom_gbps)
    }

    /// Aggregate sustainable I/O bandwidth, GB/s.
    pub fn aggregate_gbps(&self) -> f64 {
        self.ports as f64 * self.effective_port_gbps()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gs1280_io_scales_per_cpu() {
        let c = Calibration::gs1280();
        let io16 = IoSubsystem::for_machine(&c, 16);
        let io32 = IoSubsystem::for_machine(&c, 32);
        assert_eq!(io16.ports, 16);
        assert_eq!(io32.ports, 32);
        assert!((io32.aggregate_gbps() - 2.0 * io16.aggregate_gbps()).abs() < 1e-9);
    }

    #[test]
    fn fig28_io_ratio_near_8x_at_32p() {
        let g = IoSubsystem::for_machine(&Calibration::gs1280(), 32);
        let q = IoSubsystem::for_machine(&Calibration::gs320(), 32);
        let ratio = g.aggregate_gbps() / q.aggregate_gbps();
        assert!((6.0..=10.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn port_cannot_outrun_host_memory() {
        let mut io = IoSubsystem::for_machine(&Calibration::gs1280(), 4);
        io.host_headroom_gbps = 1.0;
        assert_eq!(io.effective_port_gbps(), 1.0);
    }
}
