//! The machine-wide physical address map: which CPU's memory a line lives
//! in, and which of that CPU's two controllers serves it — including the
//! paper's striping mode (§6).

use alphasim_cache::Addr;
use serde::{Deserialize, Serialize};

/// Where a physical line lives: the home CPU and the Zbox within it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MemTarget {
    /// Home CPU index.
    pub cpu: usize,
    /// Controller index within the CPU (0 or 1).
    pub zbox: usize,
}

/// How consecutive cache lines map onto controllers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Interleave {
    /// Each CPU owns a contiguous region; within it, consecutive lines
    /// alternate between its two controllers. The default GS1280 mode.
    PerCpu,
    /// Memory striping (§6): consecutive cache lines rotate across the two
    /// CPUs of a module pair — CPU0/controller0, CPU0/controller1,
    /// CPU1/controller0, CPU1/controller1 — spreading hot-spot traffic over
    /// two CPUs at the price of extra traffic on the pair's module link.
    StripedPairs,
}

/// The physical address map of a machine: `cpus` nodes, each owning
/// `bytes_per_cpu` of memory.
///
/// # Examples
///
/// ```
/// use alphasim_mem::{AddressMap, Interleave};
/// use alphasim_cache::Addr;
///
/// let map = AddressMap::new(16, 1 << 30, Interleave::PerCpu);
/// let t = map.target_of(Addr::new(0));
/// assert_eq!((t.cpu, t.zbox), (0, 0));
/// let t = map.target_of(Addr::new(1 << 30));
/// assert_eq!(t.cpu, 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AddressMap {
    cpus: usize,
    bytes_per_cpu: u64,
    interleave: Interleave,
    line_bytes: u64,
}

impl AddressMap {
    /// A map over `cpus` nodes of `bytes_per_cpu` each.
    ///
    /// # Panics
    ///
    /// Panics if `cpus` is zero, if `bytes_per_cpu` is not a multiple of the
    /// 64-byte line, or if striping is requested with an odd CPU count.
    pub fn new(cpus: usize, bytes_per_cpu: u64, interleave: Interleave) -> Self {
        assert!(cpus > 0, "need at least one CPU");
        assert!(
            bytes_per_cpu.is_multiple_of(64) && bytes_per_cpu > 0,
            "per-CPU memory must be a positive multiple of 64"
        );
        if interleave == Interleave::StripedPairs {
            assert!(
                cpus.is_multiple_of(2),
                "striping pairs CPUs; need an even count"
            );
        }
        AddressMap {
            cpus,
            bytes_per_cpu,
            interleave,
            line_bytes: 64,
        }
    }

    /// Number of CPUs.
    pub fn cpus(&self) -> usize {
        self.cpus
    }

    /// Memory owned by each CPU, in bytes.
    pub fn bytes_per_cpu(&self) -> u64 {
        self.bytes_per_cpu
    }

    /// Total memory in the machine.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_per_cpu * self.cpus as u64
    }

    /// The interleave mode.
    pub fn interleave(&self) -> Interleave {
        self.interleave
    }

    /// The home of `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is beyond the machine's memory.
    pub fn target_of(&self, addr: Addr) -> MemTarget {
        assert!(addr.get() < self.total_bytes(), "address beyond memory");
        let region = (addr.get() / self.bytes_per_cpu) as usize;
        let line_in_region = (addr.get() % self.bytes_per_cpu) / self.line_bytes;
        match self.interleave {
            Interleave::PerCpu => MemTarget {
                cpu: region,
                zbox: (line_in_region % 2) as usize,
            },
            Interleave::StripedPairs => {
                // The pair partner shares the region pair (2k, 2k+1);
                // consecutive lines rotate over the four controllers.
                let pair_base = region & !1;
                let rot = (line_in_region % 4) as usize;
                MemTarget {
                    cpu: pair_base + rot / 2,
                    zbox: rot % 2,
                }
            }
        }
    }

    /// The home CPU of `addr` (ignoring the controller).
    pub fn home_cpu(&self, addr: Addr) -> usize {
        self.target_of(addr).cpu
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_cpu_regions_are_contiguous() {
        let m = AddressMap::new(4, 1 << 20, Interleave::PerCpu);
        for cpu in 0..4usize {
            let base = (cpu as u64) << 20;
            assert_eq!(m.home_cpu(Addr::new(base)), cpu);
            assert_eq!(m.home_cpu(Addr::new(base + (1 << 20) - 64)), cpu);
        }
    }

    #[test]
    fn per_cpu_alternates_zboxes_by_line() {
        let m = AddressMap::new(2, 1 << 20, Interleave::PerCpu);
        assert_eq!(m.target_of(Addr::new(0)).zbox, 0);
        assert_eq!(m.target_of(Addr::new(64)).zbox, 1);
        assert_eq!(m.target_of(Addr::new(128)).zbox, 0);
        // Offsets within a line share a target.
        assert_eq!(m.target_of(Addr::new(64 + 8)), m.target_of(Addr::new(64)));
    }

    #[test]
    fn striping_rotates_through_four_controllers() {
        // The paper's order: CPU0/z0, CPU0/z1, CPU1/z0, CPU1/z1.
        let m = AddressMap::new(2, 1 << 20, Interleave::StripedPairs);
        let seq: Vec<(usize, usize)> = (0..8)
            .map(|i| {
                let t = m.target_of(Addr::new(i * 64));
                (t.cpu, t.zbox)
            })
            .collect();
        assert_eq!(
            seq,
            [
                (0, 0),
                (0, 1),
                (1, 0),
                (1, 1),
                (0, 0),
                (0, 1),
                (1, 0),
                (1, 1)
            ]
        );
    }

    #[test]
    fn striping_pairs_are_module_neighbors() {
        let m = AddressMap::new(8, 1 << 20, Interleave::StripedPairs);
        // Lines in CPU 4's region land only on CPUs 4 and 5.
        for i in 0..32u64 {
            let t = m.target_of(Addr::new(4 * (1 << 20) + i * 64));
            assert!(t.cpu == 4 || t.cpu == 5, "line {i} on cpu {}", t.cpu);
        }
        // Half of a region's lines are remote under striping.
        let remote = (0..1024u64)
            .filter(|i| m.target_of(Addr::new(i * 64)).cpu != 0)
            .count();
        assert_eq!(remote, 512);
    }

    #[test]
    fn striping_balances_all_four_controllers() {
        let m = AddressMap::new(2, 1 << 20, Interleave::StripedPairs);
        let mut counts = std::collections::HashMap::new();
        for i in 0..4096u64 {
            let t = m.target_of(Addr::new(i * 64));
            *counts.entry((t.cpu, t.zbox)).or_insert(0u64) += 1;
        }
        assert_eq!(counts.len(), 4);
        for (&k, &v) in &counts {
            assert_eq!(v, 1024, "{k:?}");
        }
    }

    #[test]
    #[should_panic(expected = "address beyond memory")]
    fn rejects_out_of_range_address() {
        let m = AddressMap::new(2, 1 << 20, Interleave::PerCpu);
        let _ = m.target_of(Addr::new(2 << 20));
    }

    #[test]
    #[should_panic(expected = "even count")]
    fn striping_needs_even_cpus() {
        let _ = AddressMap::new(3, 1 << 20, Interleave::StripedPairs);
    }
}
