//! Synthetic SPEC CPU2000 benchmark profiles (paper §3.3, Figs. 8–11;
//! rate runs in Figs. 1 and 25).
//!
//! The paper's own binaries and inputs are not reproducible here, but its
//! analysis reduces each benchmark to a small set of properties: how much
//! core-level ILP it has, how often it reaches past the caches, how big its
//! working set is (the paper calls out facerec's 8 MB set explicitly), and
//! how much memory-level parallelism it exposes. This module encodes those
//! properties per benchmark — calibrated against the paper's published IPC
//! bars and Zbox-utilization histograms — and derives machine-dependent IPC
//! and utilization from a mechanistic model:
//!
//! ```text
//! spill        = max(0, 1 - L2_size / working_set)
//! per_ref      = (1 - spill)·L2_latency + spill·memory_latency
//! effective    = per_ref / (1 + (machine_MLP - 1)·overlap)
//! cycles/kinst = 1000/base_ipc + refs_per_kinst · effective · clock
//! ```
//!
//! The *differences between machines* — the thing Figs. 8–9 measure — then
//! follow from cache sizes and memory latencies alone, which is exactly the
//! paper's explanation of them.

use alphasim_kernel::SimDuration;
use alphasim_system::{Calibration, Gs1280, Gs320, MachineKind};
use serde::{Deserialize, Serialize};

/// Which SPEC CPU2000 suite a benchmark belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Suite {
    /// SPECint2000.
    Int,
    /// SPECfp2000.
    Fp,
}

/// Shape of a benchmark's memory-traffic time series (Figs. 10–11).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PhasePattern {
    /// Steady traffic for the whole run (swim).
    Flat,
    /// Periodic solver sweeps (mgrid, applu).
    Oscillate {
        /// Number of full periods over the run.
        periods: f64,
    },
    /// Traffic grows as data structures build up (mcf).
    Ramp,
    /// Irregular bursts (gcc, art).
    Bursty,
    /// Front-loaded initialisation then quieter compute.
    Decline,
}

impl PhasePattern {
    /// Relative traffic at normalised time `t ∈ [0,1]`; averages ≈ 1.
    pub fn factor(self, t: f64) -> f64 {
        let t = t.clamp(0.0, 1.0);
        match self {
            PhasePattern::Flat => 1.0,
            PhasePattern::Oscillate { periods } => {
                1.0 + 0.45 * (t * periods * std::f64::consts::TAU).sin()
            }
            PhasePattern::Ramp => 0.4 + 1.2 * t,
            PhasePattern::Bursty => {
                // Deterministic burst train.
                let phase = (t * 9.0).fract();
                if phase < 0.35 {
                    1.7
                } else {
                    0.62
                }
            }
            PhasePattern::Decline => 1.6 - 1.2 * t,
        }
    }
}

/// Machine parameters consumed by the SPEC model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MachinePerf {
    /// Display name.
    pub name: String,
    /// Core clock, GHz.
    pub clock_ghz: f64,
    /// L2 (or B-cache) capacity in bytes.
    pub l2_bytes: u64,
    /// L2 load-to-use latency, ns.
    pub l2_latency_ns: f64,
    /// Local memory load-to-use latency, ns.
    pub memory_latency_ns: f64,
    /// Memory-level parallelism the machine can sustain (integrated
    /// controller + 16 victim buffers on EV7; less on the bus machines).
    pub mlp_capacity: f64,
    /// Peak bandwidth of one memory site's controllers, GB/s (used for
    /// utilization percentages).
    pub zbox_peak_gbps: f64,
    /// Sustained memory bandwidth per sharing group, GB/s.
    pub sustained_gbps: f64,
    /// CPUs sharing one memory system (rate-run contention).
    pub cpus_per_mem_site: usize,
}

impl MachinePerf {
    /// Build from a machine's calibration, its local memory latency and
    /// the peak bandwidth of one of its memory sites.
    fn from_machine(calib: &Calibration, local_latency: SimDuration, site_gbps: f64) -> Self {
        let mlp_capacity = match calib.kind {
            MachineKind::Gs1280 => 8.0,
            MachineKind::Es45 | MachineKind::Sc45 => 5.0,
            MachineKind::Gs320 => 4.0,
        };
        MachinePerf {
            name: calib.kind.to_string(),
            clock_ghz: calib.clock.ghz(),
            l2_bytes: calib.hierarchy.l2.size_bytes(),
            l2_latency_ns: calib.hierarchy.l2_latency.as_ns(),
            memory_latency_ns: local_latency.as_ns(),
            mlp_capacity,
            zbox_peak_gbps: site_gbps,
            sustained_gbps: calib.sustained_mem_gbps,
            cpus_per_mem_site: calib.cpus_per_mem_site,
        }
    }

    /// The GS1280 (83 ns local memory, both Zboxes of a node).
    pub fn gs1280() -> Self {
        let m = Gs1280::builder().build();
        Self::from_machine(
            m.calibration(),
            m.local_latency(true),
            m.site_zbox().bandwidth_gbps,
        )
    }

    /// The GS1280 with memory striping: half of each CPU's lines live on
    /// its module partner, raising the average "local" latency to ~111 ns
    /// (§6; drives Fig. 25).
    pub fn gs1280_striped() -> Self {
        let m = Gs1280::builder().striping(true).build();
        let mut perf = Self::from_machine(
            m.calibration(),
            m.effective_local_latency(),
            m.site_zbox().bandwidth_gbps,
        );
        perf.name = "GS1280 (striped)".into();
        // The module pair link caps sustainable memory bandwidth below the
        // Zbox limit, as in the machine's own STREAM model.
        perf.sustained_gbps = perf.sustained_gbps.min(m.pair_link_cap_gbps());
        perf
    }

    /// The ES45 (185 ns memory; its local latency is its calibration's).
    pub fn es45() -> Self {
        let calib = Calibration::es45();
        Self::from_machine(&calib, calib.local_latency(true), calib.zbox.bandwidth_gbps)
    }

    /// The GS320 (330 ns memory), one QBB.
    pub fn gs320() -> Self {
        let m = Gs320::new(Calibration::gs320().cpus_per_mem_site);
        let calib = m.calibration();
        Self::from_machine(calib, m.local_latency(true), calib.zbox.bandwidth_gbps)
    }
}

/// One benchmark's profile.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SpecProfile {
    /// Benchmark name (SPEC's short name).
    pub name: &'static str,
    /// Suite membership.
    pub suite: Suite,
    /// Core-limited IPC with a perfect memory system.
    pub base_ipc: f64,
    /// References per 1000 instructions that miss the L1.
    pub refs_per_kinst: f64,
    /// Working-set size in bytes.
    pub working_set: u64,
    /// Fraction of the machine's MLP this benchmark can exploit (1 =
    /// perfectly streamable, ~0 = dependent pointer chains).
    pub overlap: f64,
    /// Memory-traffic phase shape.
    pub phase: PhasePattern,
}

impl SpecProfile {
    /// Fraction of L1-missing references that also miss a cache of
    /// `cache_bytes`.
    pub fn spill(&self, cache_bytes: u64) -> f64 {
        if self.working_set <= cache_bytes {
            0.0
        } else {
            1.0 - cache_bytes as f64 / self.working_set as f64
        }
    }

    /// Modelled IPC on machine `m`.
    pub fn ipc(&self, m: &MachinePerf) -> f64 {
        let spill = self.spill(m.l2_bytes);
        let per_ref = (1.0 - spill) * m.l2_latency_ns + spill * m.memory_latency_ns;
        let effective = per_ref / (1.0 + (m.mlp_capacity - 1.0) * self.overlap);
        let cycles_per_kinst =
            1000.0 / self.base_ipc + self.refs_per_kinst * effective * m.clock_ghz;
        1000.0 / cycles_per_kinst
    }

    /// Memory bandwidth this benchmark pulls on machine `m`, GB/s (a 64 B
    /// fill plus an eventual 64 B write-back per memory reference).
    pub fn bandwidth_demand_gbps(&self, m: &MachinePerf) -> f64 {
        let spill = self.spill(m.l2_bytes);
        let misses_per_sec = self.refs_per_kinst / 1000.0 * self.ipc(m) * m.clock_ghz * 1e9 * spill;
        misses_per_sec * 128.0 / 1e9
    }

    /// Mean memory-controller utilization on machine `m` (0..=1), as the
    /// EV7 counters report it in Figs. 10–11.
    pub fn zbox_utilization(&self, m: &MachinePerf) -> f64 {
        (self.bandwidth_demand_gbps(m) / m.zbox_peak_gbps).min(1.0)
    }

    /// The Figs. 10–11 time series: `samples` utilization percentages over
    /// the benchmark's run.
    pub fn utilization_series(&self, m: &MachinePerf, samples: usize) -> Vec<f64> {
        let base = self.zbox_utilization(m) * 100.0;
        (0..samples)
            .map(|i| {
                let t = (i as f64 + 0.5) / samples as f64;
                (base * self.phase.factor(t)).clamp(0.0, 100.0)
            })
            .collect()
    }

    /// SPEC-rate throughput score shape with `n` copies (arbitrary units):
    /// per-copy speed derated by contention for each shared memory system.
    pub fn rate(&self, m: &MachinePerf, n: usize) -> f64 {
        assert!(n >= 1, "need at least one copy");
        let demand = self.bandwidth_demand_gbps(m);
        let group = m.cpus_per_mem_site.max(1);
        // Copies fill sharing groups; each group of g copies delivers
        // min(g·demand, sustained) worth of progress.
        let full_groups = n / group;
        let rem = n % group;
        let speed_of = |copies: usize| -> f64 {
            if copies == 0 || demand == 0.0 {
                return copies as f64;
            }
            let wanted = copies as f64 * demand;
            let got = wanted.min(m.sustained_gbps);
            copies as f64 * (got / wanted)
        };
        (full_groups as f64 * speed_of(group) + speed_of(rem)) * self.ipc(m) * m.clock_ghz
    }
}

/// The 14 SPECfp2000 benchmarks, in the paper's Fig. 8 order.
pub fn fp2000() -> Vec<SpecProfile> {
    use PhasePattern::*;
    use Suite::Fp;
    const MB: u64 = 1024 * 1024;
    vec![
        SpecProfile {
            name: "wupwise",
            suite: Fp,
            base_ipc: 1.5,
            refs_per_kinst: 10.0,
            working_set: 176 * MB,
            overlap: 0.75,
            phase: Oscillate { periods: 3.0 },
        },
        SpecProfile {
            name: "swim",
            suite: Fp,
            base_ipc: 1.6,
            refs_per_kinst: 60.0,
            working_set: 190 * MB,
            overlap: 1.0,
            phase: Flat,
        },
        SpecProfile {
            name: "mgrid",
            suite: Fp,
            base_ipc: 1.4,
            refs_per_kinst: 22.0,
            working_set: 56 * MB,
            overlap: 0.9,
            phase: Oscillate { periods: 6.0 },
        },
        SpecProfile {
            name: "applu",
            suite: Fp,
            base_ipc: 1.3,
            refs_per_kinst: 30.0,
            working_set: 180 * MB,
            overlap: 0.85,
            phase: Oscillate { periods: 4.0 },
        },
        SpecProfile {
            name: "mesa",
            suite: Fp,
            base_ipc: 1.6,
            refs_per_kinst: 2.0,
            working_set: 2 * MB,
            overlap: 0.5,
            phase: Flat,
        },
        SpecProfile {
            name: "galgel",
            suite: Fp,
            base_ipc: 1.6,
            refs_per_kinst: 10.0,
            working_set: 30 * MB,
            overlap: 0.6,
            phase: Oscillate { periods: 8.0 },
        },
        SpecProfile {
            name: "art",
            suite: Fp,
            base_ipc: 0.9,
            refs_per_kinst: 35.0,
            working_set: 3_700_000,
            overlap: 0.5,
            phase: Bursty,
        },
        SpecProfile {
            name: "equake",
            suite: Fp,
            base_ipc: 1.0,
            refs_per_kinst: 25.0,
            working_set: 49 * MB,
            overlap: 0.7,
            phase: Decline,
        },
        SpecProfile {
            name: "facerec",
            suite: Fp,
            base_ipc: 1.3,
            refs_per_kinst: 9.0,
            working_set: 8 * MB,
            overlap: 0.65,
            phase: Flat,
        },
        SpecProfile {
            name: "ammp",
            suite: Fp,
            base_ipc: 0.9,
            refs_per_kinst: 12.0,
            working_set: 10 * MB,
            overlap: 0.3,
            phase: Decline,
        },
        SpecProfile {
            name: "lucas",
            suite: Fp,
            base_ipc: 1.2,
            refs_per_kinst: 28.0,
            working_set: 140 * MB,
            overlap: 0.8,
            phase: Flat,
        },
        SpecProfile {
            name: "fma3d",
            suite: Fp,
            base_ipc: 1.1,
            refs_per_kinst: 14.0,
            working_set: 100 * MB,
            overlap: 0.6,
            phase: Ramp,
        },
        SpecProfile {
            name: "sixtrack",
            suite: Fp,
            base_ipc: 1.1,
            refs_per_kinst: 8.0,
            working_set: MB,
            overlap: 0.4,
            phase: Flat,
        },
        SpecProfile {
            name: "apsi",
            suite: Fp,
            base_ipc: 1.2,
            refs_per_kinst: 6.0,
            working_set: 190 * MB,
            overlap: 0.5,
            phase: Oscillate { periods: 5.0 },
        },
    ]
}

/// The 12 SPECint2000 benchmarks, in the paper's Fig. 9 order.
pub fn int2000() -> Vec<SpecProfile> {
    use PhasePattern::*;
    use Suite::Int;
    const MB: u64 = 1024 * 1024;
    vec![
        SpecProfile {
            name: "gzip",
            suite: Int,
            base_ipc: 1.4,
            refs_per_kinst: 3.0,
            working_set: 180 * MB,
            overlap: 0.6,
            phase: Bursty,
        },
        SpecProfile {
            name: "vpr",
            suite: Int,
            base_ipc: 1.0,
            refs_per_kinst: 5.0,
            working_set: 2 * MB,
            overlap: 0.3,
            phase: Flat,
        },
        SpecProfile {
            name: "cc1",
            suite: Int,
            base_ipc: 1.2,
            refs_per_kinst: 9.0,
            working_set: 22 * MB,
            overlap: 0.4,
            phase: Bursty,
        },
        SpecProfile {
            name: "mcf",
            suite: Int,
            base_ipc: 0.9,
            refs_per_kinst: 55.0,
            working_set: 100 * MB,
            overlap: 0.15,
            phase: Ramp,
        },
        SpecProfile {
            name: "crafty",
            suite: Int,
            base_ipc: 1.2,
            refs_per_kinst: 1.0,
            working_set: MB,
            overlap: 0.4,
            phase: Flat,
        },
        SpecProfile {
            name: "parser",
            suite: Int,
            base_ipc: 1.1,
            refs_per_kinst: 12.0,
            working_set: 30 * MB,
            overlap: 0.3,
            phase: Flat,
        },
        SpecProfile {
            name: "eon",
            suite: Int,
            base_ipc: 1.4,
            refs_per_kinst: 0.5,
            working_set: MB / 2,
            overlap: 0.4,
            phase: Flat,
        },
        SpecProfile {
            name: "gap",
            suite: Int,
            base_ipc: 1.1,
            refs_per_kinst: 15.0,
            working_set: 190 * MB,
            overlap: 0.5,
            phase: Oscillate { periods: 3.0 },
        },
        SpecProfile {
            name: "perlbmk",
            suite: Int,
            base_ipc: 1.3,
            refs_per_kinst: 4.0,
            working_set: 60 * MB,
            overlap: 0.4,
            phase: Bursty,
        },
        SpecProfile {
            name: "vortex",
            suite: Int,
            base_ipc: 1.3,
            refs_per_kinst: 6.0,
            working_set: 70 * MB,
            overlap: 0.45,
            phase: Flat,
        },
        SpecProfile {
            name: "bzip2",
            suite: Int,
            base_ipc: 1.3,
            refs_per_kinst: 8.0,
            working_set: 180 * MB,
            overlap: 0.55,
            phase: Bursty,
        },
        SpecProfile {
            name: "twolf",
            suite: Int,
            base_ipc: 1.0,
            refs_per_kinst: 7.0,
            working_set: MB,
            overlap: 0.3,
            phase: Flat,
        },
    ]
}

/// All 26 profiles.
pub fn all2000() -> Vec<SpecProfile> {
    let mut v = fp2000();
    v.extend(int2000());
    v
}

/// Look a profile up by name.
pub fn by_name(name: &str) -> Option<SpecProfile> {
    all2000().into_iter().find(|p| p.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(name: &str) -> SpecProfile {
        by_name(name).unwrap()
    }

    #[test]
    fn swim_ratios_match_paper() {
        // §3.3: "swim shows 2.3 times advantage on GS1280 vs ES45 and 4
        // times advantage vs GS320".
        let swim = get("swim");
        let g = swim.ipc(&MachinePerf::gs1280());
        let e = swim.ipc(&MachinePerf::es45());
        let q = swim.ipc(&MachinePerf::gs320());
        let vs_es45 = g / e;
        let vs_gs320 = g / q;
        assert!((1.8..=3.0).contains(&vs_es45), "vs ES45 {vs_es45}");
        assert!((3.0..=5.5).contains(&vs_gs320), "vs GS320 {vs_gs320}");
    }

    #[test]
    fn facerec_and_ammp_lose_on_gs1280() {
        // §3.3/§8: these fit the 16 MB off-chip cache but not the 1.75 MB
        // on-chip cache, so GS320/ES45 win.
        for name in ["facerec", "ammp"] {
            let p = get(name);
            let g = p.ipc(&MachinePerf::gs1280());
            assert!(p.ipc(&MachinePerf::es45()) > g, "{name} vs ES45");
            assert!(p.ipc(&MachinePerf::gs320()) > g, "{name} vs GS320");
        }
    }

    #[test]
    fn integer_benchmarks_are_comparable_across_machines() {
        // §7: "the exceptions are the small integer benchmarks that fit
        // well in the on-chip caches". Cache-resident int codes land within
        // ~25% across machines.
        for name in ["crafty", "eon", "twolf", "vpr"] {
            let p = get(name);
            let g = p.ipc(&MachinePerf::gs1280());
            let e = p.ipc(&MachinePerf::es45());
            let q = p.ipc(&MachinePerf::gs320());
            for (m, v) in [("es45", e), ("gs320", q)] {
                let ratio = g / v;
                assert!((0.75..=1.35).contains(&ratio), "{name} vs {m}: {ratio}");
            }
        }
    }

    #[test]
    fn fp_suite_favors_gs1280_on_average() {
        let (mut g, mut e, mut q) = (0.0, 0.0, 0.0);
        for p in fp2000() {
            g += p.ipc(&MachinePerf::gs1280());
            e += p.ipc(&MachinePerf::es45());
            q += p.ipc(&MachinePerf::gs320());
        }
        assert!(g > e && e > q, "fp averages: {g} {e} {q}");
    }

    #[test]
    fn swim_utilization_near_53_percent() {
        // Fig. 10's headline: swim at 53% Zbox utilization.
        let u = get("swim").zbox_utilization(&MachinePerf::gs1280()) * 100.0;
        assert!((45.0..=60.0).contains(&u), "swim util {u}%");
    }

    #[test]
    fn utilization_ordering_matches_fig10() {
        // swim > {applu, lucas, equake, mgrid} > {fma3d, art, wupwise,
        // galgel} > facerec ≈ 8%.
        let m = MachinePerf::gs1280();
        let u = |n: &str| get(n).zbox_utilization(&m) * 100.0;
        let swim = u("swim");
        for mid in ["applu", "lucas", "equake", "mgrid"] {
            let v = u(mid);
            assert!(v < swim && v > 15.0, "{mid} {v}");
        }
        for low in ["fma3d", "art", "wupwise", "galgel"] {
            let v = u(low);
            assert!((7.0..33.0).contains(&v), "{low} {v}");
        }
        let f = u("facerec");
        assert!((4.0..14.0).contains(&f), "facerec {f}");
    }

    #[test]
    fn utilization_series_respects_phase() {
        let m = MachinePerf::gs1280();
        let flat = get("swim").utilization_series(&m, 60);
        let spread = flat.iter().cloned().fold(0.0f64, f64::max)
            - flat.iter().cloned().fold(100.0f64, f64::min);
        assert!(spread < 1e-9, "swim is flat");
        let osc = get("mgrid").utilization_series(&m, 60);
        let spread_osc = osc.iter().cloned().fold(0.0f64, f64::max)
            - osc.iter().cloned().fold(100.0f64, f64::min);
        assert!(spread_osc > 5.0, "mgrid oscillates: {spread_osc}");
    }

    #[test]
    fn striping_degrades_memory_bound_fp_10_to_30_percent() {
        // Fig. 25's envelope.
        let plain = MachinePerf::gs1280();
        let striped = MachinePerf::gs1280_striped();
        let mut worst: f64 = 0.0;
        for p in fp2000() {
            let d = 1.0 - p.ipc(&striped) / p.ipc(&plain);
            assert!(d >= -1e-9, "{}: striping can only hurt IPC: {d}", p.name);
            assert!(d < 0.40, "{}: degradation {d}", p.name);
            worst = worst.max(d);
        }
        assert!(worst > 0.10, "heaviest benchmark should lose >10%: {worst}");
        // Cache-resident codes barely notice.
        let mesa = get("mesa");
        assert!(1.0 - mesa.ipc(&striped) / mesa.ipc(&plain) < 0.05);
    }

    #[test]
    fn rate_scales_linearly_on_gs1280_and_saturates_on_gs320() {
        let swim = get("swim");
        let g = MachinePerf::gs1280();
        let q = MachinePerf::gs320();
        let lin = swim.rate(&g, 16) / swim.rate(&g, 1);
        assert!((lin - 16.0).abs() < 0.5, "GS1280 rate scaling {lin}");
        let sat = swim.rate(&q, 4) / swim.rate(&q, 1);
        assert!(sat < 2.5, "GS320 in-QBB rate scaling {sat}");
        // Across QBBs it scales again.
        let eight = swim.rate(&q, 8) / swim.rate(&q, 4);
        assert!((eight - 2.0).abs() < 0.01);
    }

    #[test]
    fn phase_factors_average_near_one() {
        for phase in [
            PhasePattern::Flat,
            PhasePattern::Oscillate { periods: 4.0 },
            PhasePattern::Ramp,
            PhasePattern::Bursty,
            PhasePattern::Decline,
        ] {
            let mean: f64 = (0..1000)
                .map(|i| phase.factor(i as f64 / 1000.0))
                .sum::<f64>()
                / 1000.0;
            assert!((0.85..=1.15).contains(&mean), "{phase:?} mean {mean}");
        }
    }

    #[test]
    fn suites_have_the_right_sizes_and_names() {
        assert_eq!(fp2000().len(), 14);
        assert_eq!(int2000().len(), 12);
        assert_eq!(all2000().len(), 26);
        assert!(by_name("swim").is_some());
        assert!(by_name("nosuch").is_none());
        assert!(fp2000().iter().all(|p| p.suite == Suite::Fp));
        assert!(int2000().iter().all(|p| p.suite == Suite::Int));
    }
}
