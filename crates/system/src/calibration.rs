//! Calibrated constants for each reproduced machine.
//!
//! Every constant here is anchored to a number the paper publishes; the doc
//! comment on each constructor cites the figure it was fitted against.
//! EXPERIMENTS.md tabulates how well the composed model reproduces the
//! original measurements.

use alphasim_cache::HierarchyConfig;
use alphasim_kernel::{Frequency, SimDuration};
use alphasim_mem::ZboxConfig;
use alphasim_net::LinkTiming;
use serde::{Deserialize, Serialize};

/// The identity of a reproduced machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MachineKind {
    /// HP AlphaServer GS1280 (Alpha 21364, torus).
    Gs1280,
    /// HP AlphaServer GS320 (Alpha 21264, hierarchical switch).
    Gs320,
    /// HP AlphaServer ES45 (Alpha 21264, 4-way shared bus).
    Es45,
    /// HP AlphaServer SC45 (ES45 boxes + Quadrics-style cluster).
    Sc45,
}

impl std::fmt::Display for MachineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            MachineKind::Gs1280 => "GS1280/1.15GHz",
            MachineKind::Gs320 => "GS320/1.22GHz",
            MachineKind::Es45 => "ES45/1.25GHz",
            MachineKind::Sc45 => "SC45/1.25GHz",
        };
        f.write_str(s)
    }
}

/// The calibration bundle of one machine.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Calibration {
    /// Which machine this calibrates.
    pub kind: MachineKind,
    /// CPU core clock.
    pub clock: Frequency,
    /// Fixed front-end cost of a memory access: L1+L2 miss detection and
    /// controller entry, paid by every access that reaches memory.
    pub local_fixed: SimDuration,
    /// Extra fixed cost of a *remote* transaction: directory lookup and
    /// forwarding decision at the home node.
    pub remote_fixed: SimDuration,
    /// Cost of serving a block out of the owner's cache on a read-dirty,
    /// replacing the memory access.
    pub dirty_serve: SimDuration,
    /// Extra protocol penalty of a read-dirty (ordering-point traversals);
    /// ~0 on the GS1280, large on the GS320, whose hierarchical protocol
    /// makes dirty reads disproportionately expensive (Fig. 12's 6.6×).
    pub dirty_penalty: SimDuration,
    /// Fabric timing.
    pub timing: LinkTiming,
    /// Per-memory-site controller configuration (per CPU on GS1280, per
    /// QBB on GS320, per box on ES45).
    pub zbox: ZboxConfig,
    /// Cache hierarchy of one CPU.
    pub hierarchy: HierarchyConfig,
    /// Outstanding off-chip misses one CPU can sustain.
    pub mshrs: usize,
    /// Sustained (not peak) memory bandwidth per memory site, GB/s, after
    /// read/write turnaround, refresh and bank-conflict losses.
    pub sustained_mem_gbps: f64,
    /// CPUs sharing one memory site (1, or 4 for QBB/box machines).
    pub cpus_per_mem_site: usize,
    /// I/O bandwidth per I/O site, GB/s (one 3.1 GB/s full-duplex port per
    /// EV7; a shared PCI bridge per box on the older machines).
    pub io_gbps_per_site: f64,
}

impl Calibration {
    /// GS1280 (Alpha 21364, 1.15 GHz).
    ///
    /// * local open-page load-to-use = `local_fixed` 38 ns + Zbox 45 ns
    ///   = 83 ns (Figs. 5, 13); closed-page = 38 + 92 = 130 ns (Fig. 5);
    /// * remote reads add 21 ns of directory overhead plus the Fig. 13 hop
    ///   costs carried by [`LinkTiming::ev7_torus`];
    /// * 16 victim buffers (§2) give 16 × 64 B / 83 ns ≈ 12.3 GB/s of
    ///   latency-covered demand — exactly the Zbox peak — of which ~48 %
    ///   is sustainable, reproducing Fig. 7's ~4.4 GB/s counted triad.
    pub fn gs1280() -> Self {
        Calibration {
            kind: MachineKind::Gs1280,
            clock: Frequency::from_ghz(1.15),
            local_fixed: SimDuration::from_ns(38.0),
            remote_fixed: SimDuration::from_ns(21.0),
            dirty_serve: SimDuration::from_ns(25.0),
            dirty_penalty: SimDuration::from_ns(0.0),
            timing: LinkTiming::ev7_torus(),
            zbox: ZboxConfig::ev7(),
            hierarchy: HierarchyConfig::ev7(),
            mshrs: 16,
            sustained_mem_gbps: 5.9,
            cpus_per_mem_site: 1,
            io_gbps_per_site: 3.1,
        }
    }

    /// GS320 (Alpha 21264, 1.22 GHz).
    ///
    /// * local read ≈ 2 × 75 ns switch hops + 180 ns SDRAM = 330 ns and
    ///   remote read-clean ≈ 760 ns (Fig. 12, Fig. 4's 320 ns plateau);
    /// * the dirty penalty reproduces Fig. 12's observation that GS1280's
    ///   read-dirty advantage (6.6×) exceeds its read-clean advantage (4×);
    /// * 4 CPUs share ~1.5 GB/s sustained per QBB, reproducing Fig. 7's
    ///   sub-linear 0.6 → 1.15 GB/s counted triad scaling.
    pub fn gs320() -> Self {
        Calibration {
            kind: MachineKind::Gs320,
            clock: Frequency::from_ghz(1.22),
            local_fixed: SimDuration::from_ns(0.0),
            remote_fixed: SimDuration::from_ns(0.0),
            dirty_serve: SimDuration::from_ns(60.0),
            dirty_penalty: SimDuration::from_ns(600.0),
            timing: LinkTiming::gs320_switch(),
            zbox: ZboxConfig::gs320_qbb(),
            hierarchy: HierarchyConfig::ev68(),
            mshrs: 4,
            sustained_mem_gbps: 1.5,
            cpus_per_mem_site: 4,
            io_gbps_per_site: 1.55,
        }
    }

    /// ES45 (Alpha 21264, 1.25 GHz, 4-way box).
    ///
    /// * ~185 ns local read (Fig. 4's ES45 memory plateau);
    /// * 8 outstanding misses × 64 B / 185 ns ≈ 2.8 GB/s demand against a
    ///   ~3.7 GB/s sustained crossbar, giving Fig. 7's 2.1 → 2.8 GB/s
    ///   counted triad from 1 to 4 CPUs.
    pub fn es45() -> Self {
        Calibration {
            kind: MachineKind::Es45,
            clock: Frequency::from_ghz(1.25),
            local_fixed: SimDuration::from_ns(65.0),
            remote_fixed: SimDuration::from_ns(0.0),
            dirty_serve: SimDuration::from_ns(50.0),
            dirty_penalty: SimDuration::from_ns(150.0),
            timing: LinkTiming::sc45_cluster(),
            zbox: ZboxConfig::es45(),
            hierarchy: HierarchyConfig::ev68(),
            mshrs: 8,
            sustained_mem_gbps: 3.7,
            cpus_per_mem_site: 4,
            io_gbps_per_site: 1.0,
        }
    }

    /// SC45: ES45 boxes behind a Quadrics-style cluster fabric. Identical
    /// per-box memory behaviour; cross-box traffic pays the cluster's
    /// microsecond-scale messaging costs ([`LinkTiming::sc45_cluster`]).
    pub fn sc45() -> Self {
        Calibration {
            kind: MachineKind::Sc45,
            ..Self::es45()
        }
    }

    /// The machine's local open-page load-to-use latency (front end +
    /// controller DRAM access).
    pub fn local_open_latency(&self) -> SimDuration {
        self.local_fixed + self.zbox.open_page_latency
    }

    /// The machine's local closed-page load-to-use latency.
    pub fn local_closed_latency(&self) -> SimDuration {
        self.local_fixed + self.zbox.closed_page_latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gs1280_local_latencies_match_paper() {
        let c = Calibration::gs1280();
        assert_eq!(c.local_open_latency().as_ns(), 83.0); // Figs. 5, 13
        assert_eq!(c.local_closed_latency().as_ns(), 130.0); // Fig. 5
    }

    #[test]
    fn gs320_local_latency_matches_fig4_plateau() {
        let c = Calibration::gs320();
        // 330 ns composed as 2x75 switch hops + 180 SDRAM happens at the
        // machine level; the calibration's own share is the SDRAM part.
        assert_eq!(c.zbox.open_page_latency.as_ns(), 180.0);
        assert!(c.local_open_latency().as_ns() < 330.0);
    }

    #[test]
    fn mlp_demand_matches_zbox_peak_on_gs1280() {
        // The EV7's 16 victim buffers cover its own local latency: demand
        // equals the 12.3 GB/s peak of its two controllers (paper §2's
        // balance).
        let c = Calibration::gs1280();
        let line = c.hierarchy.l2.line_bytes() as f64;
        let demand = c.mshrs as f64 * line / c.local_open_latency().as_secs() / 1e9;
        assert!((demand - 12.337).abs() < 0.05);
        assert!((demand - 2.0 * c.zbox.bandwidth_gbps).abs() < 0.05);
    }

    #[test]
    fn machine_ranking_local_latency() {
        let g1280 = Calibration::gs1280().local_open_latency();
        let es45 = Calibration::es45().local_open_latency();
        let gs320 = Calibration::gs320().local_open_latency();
        assert!(g1280 < es45);
        assert!(es45 < gs320 + SimDuration::from_ns(150.0));
    }

    #[test]
    fn display_names() {
        assert_eq!(MachineKind::Gs1280.to_string(), "GS1280/1.15GHz");
        assert_eq!(MachineKind::Sc45.to_string(), "SC45/1.25GHz");
    }

    #[test]
    fn io_bandwidth_ratio_is_large() {
        // Fig. 28: ~8x I/O bandwidth advantage at 32P.
        let ratio = (32.0 * Calibration::gs1280().io_gbps_per_site)
            / (8.0 * Calibration::gs320().io_gbps_per_site);
        assert!(ratio > 6.0 && ratio < 50.0);
    }
}
