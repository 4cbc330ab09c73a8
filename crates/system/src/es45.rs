//! The ES45 4-way SMP and the SC45 cluster built from it.

use alphasim_kernel::SimDuration;
use alphasim_topology::{NodeId, StarCluster};

use crate::calibration::Calibration;

/// An ES45: four Alpha 21264 CPUs sharing one memory system over a crossbar
/// (paper §1, ref.\[4\]). All memory is equidistant; there is no remote level.
///
/// # Examples
///
/// ```
/// use alphasim_system::Es45;
/// let m = Es45::new(4);
/// assert_eq!(m.local_latency(true).as_ns(), 185.0);
/// ```
#[derive(Debug, Clone)]
pub struct Es45 {
    calib: Calibration,
    cpus: usize,
}

impl Es45 {
    /// An ES45 with `cpus` processors (1..=4).
    ///
    /// # Panics
    ///
    /// Panics if `cpus` is zero or greater than 4.
    pub fn new(cpus: usize) -> Self {
        assert!((1..=4).contains(&cpus), "ES45 holds 1..=4 CPUs");
        Es45 {
            calib: Calibration::es45(),
            cpus,
        }
    }

    /// Number of CPUs.
    pub fn cpus(&self) -> usize {
        self.cpus
    }

    /// The machine's calibration bundle.
    pub fn calibration(&self) -> &Calibration {
        &self.calib
    }

    /// Memory load-to-use latency (Fig. 4's ~185 ns plateau).
    pub fn local_latency(&self, page_hit: bool) -> SimDuration {
        self.calib.local_latency(page_hit)
    }

    /// Read latency between CPUs is the same as local — one shared memory.
    pub fn read_clean(&self, _requester: NodeId, _home: NodeId) -> SimDuration {
        self.local_latency(true)
    }

    /// Dirty reads snoop the owner's off-chip cache over the shared fabric.
    pub fn read_dirty(&self) -> SimDuration {
        self.local_latency(true) + self.calib.dirty_serve + self.calib.dirty_penalty
    }

    /// Counted STREAM-triad bandwidth with `active` CPUs: per-CPU MSHR
    /// demand against the box's shared sustained bandwidth (Fig. 7's
    /// 2.1 → 2.8 GB/s).
    pub fn stream_triad_gbps(&self, active: usize) -> f64 {
        assert!(
            active >= 1 && active <= self.cpus,
            "active CPUs out of range"
        );
        let latency = self.local_latency(true);
        let per_cpu = self.calib.mshrs as f64 * 64.0 / latency.as_secs() / 1e9;
        (active as f64 * per_cpu).min(self.calib.sustained_mem_gbps) * 0.75
    }
}

/// An SC45: ES45 boxes joined by a Quadrics-style cluster interconnect.
/// Shared-memory behaviour exists only within a box; cross-box communication
/// is message passing over the cluster fabric.
#[derive(Debug, Clone)]
pub struct Sc45 {
    calib: Calibration,
    topo: StarCluster,
}

impl Sc45 {
    /// An SC45 with `cpus` processors (multiples of 4).
    ///
    /// # Panics
    ///
    /// Panics if `cpus` is not a positive multiple of 4.
    pub fn new(cpus: usize) -> Self {
        let calib = Calibration::sc45();
        let topo = StarCluster::new(cpus);
        Sc45 { calib, topo }
    }

    /// Number of CPUs.
    pub fn cpus(&self) -> usize {
        self.topo.cpus()
    }

    /// The machine's calibration bundle.
    pub fn calibration(&self) -> &Calibration {
        &self.calib
    }

    /// The cluster topology.
    pub fn topology(&self) -> &StarCluster {
        &self.topo
    }

    /// Local (in-box) memory latency.
    pub fn local_latency(&self, page_hit: bool) -> SimDuration {
        Es45::new(4).local_latency(page_hit)
    }

    /// Counted STREAM-triad bandwidth: boxes scale linearly, CPUs within a
    /// box share (Fig. 6's SC45 estimate).
    pub fn stream_triad_gbps(&self, active: usize) -> f64 {
        assert!(
            active >= 1 && active <= self.cpus(),
            "active CPUs out of range"
        );
        let mut remaining = active;
        let mut total = 0.0;
        let per_box = Es45::new(4);
        while remaining > 0 {
            let here = remaining.min(4);
            total += per_box.stream_triad_gbps(here);
            remaining -= here;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn es45_latency_matches_fig4() {
        let m = Es45::new(4);
        assert_eq!(m.local_latency(true).as_ns(), 185.0);
        assert!(m.local_latency(false) > m.local_latency(true));
        assert_eq!(
            m.read_clean(NodeId::new(0), NodeId::new(3)),
            m.local_latency(true)
        );
    }

    #[test]
    fn es45_stream_matches_fig7() {
        let m = Es45::new(4);
        let one = m.stream_triad_gbps(1);
        let four = m.stream_triad_gbps(4);
        assert!((one - 2.08).abs() < 0.1, "1-CPU {one}");
        assert!((four - 2.775).abs() < 0.1, "4-CPU {four}");
        assert!(four < 2.0 * one, "bus sharing must bite");
    }

    #[test]
    fn machine_ordering_on_stream() {
        // Fig. 7: GS1280 > ES45 > GS320 at both 1 and 4 CPUs.
        use crate::gs1280::Gs1280;
        use crate::gs320::Gs320;
        let g1280 = Gs1280::builder().cpus(4).build();
        let gs320 = Gs320::new(4);
        let es45 = Es45::new(4);
        for n in [1usize, 4] {
            let a = g1280.stream_triad_gbps(n);
            let b = es45.stream_triad_gbps(n);
            let c = gs320.stream_triad_gbps(n);
            assert!(a > b && b > c, "n={n}: {a} {b} {c}");
        }
    }

    #[test]
    fn sc45_stream_scales_by_box() {
        let m = Sc45::new(16);
        let four = m.stream_triad_gbps(4);
        let sixteen = m.stream_triad_gbps(16);
        assert!((sixteen - 4.0 * four).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "1..=4")]
    fn es45_rejects_large_counts() {
        let _ = Es45::new(5);
    }
}
