//! Link and router timing parameters.

use alphasim_kernel::SimDuration;
use alphasim_topology::LinkClass;
use serde::{Deserialize, Serialize};

/// Timing of the fabric: per-hop router pipeline delay, per-class wire
/// latency, and per-direction link bandwidth.
///
/// The constants for the reproduced machines live here because the network
/// simulator and the analytic latency probes in `alphasim-system` must agree
/// on them; each machine constructor documents the paper figures it was
/// fitted against.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkTiming {
    /// Router pipeline latency charged at every hop (input arbitration,
    /// crossbar, output arbitration).
    pub router_latency: SimDuration,
    /// Wire/flight latency of a dual-CPU module link.
    pub module_wire: SimDuration,
    /// Wire latency of a backplane (board) link.
    pub board_wire: SimDuration,
    /// Wire latency of an inter-drawer cable (wrap/shuffle links).
    pub cable_wire: SimDuration,
    /// Wire latency of first-level switch / bus links (GS320 CPU↔QBB
    /// switch, ES45 bus).
    pub switch_wire: SimDuration,
    /// Wire latency of second-level links (GS320 QBB↔global switch, SC45
    /// cluster rails).
    pub global_wire: SimDuration,
    /// Usable bandwidth per direction, GB/s (EV7: 3.1 GB/s per direction of
    /// a 6.2 GB/s link).
    pub bandwidth_gbps: f64,
    /// Extra arbitration delay per already-queued packet when a message is
    /// granted a busy output — the message-level stand-in for head-of-line
    /// blocking and adaptive-channel retry. This is what bends delivered
    /// bandwidth *down* past saturation in Fig. 15.
    pub congestion_ns_per_queued: f64,
    /// Cap on the congestion penalty, in queued packets.
    pub congestion_cap: u32,
}

impl LinkTiming {
    /// The wire latency for a link of `class`.
    pub fn wire(&self, class: LinkClass) -> SimDuration {
        match class {
            LinkClass::Module => self.module_wire,
            LinkClass::Board => self.board_wire,
            LinkClass::Cable | LinkClass::Shuffle => self.cable_wire,
            LinkClass::QbbLocal | LinkClass::Bus => self.switch_wire,
            LinkClass::QbbGlobal | LinkClass::Cluster => self.global_wire,
        }
    }

    /// One-way cost of a hop over a link of `class` (router + wire).
    pub fn hop(&self, class: LinkClass) -> SimDuration {
        self.router_latency + self.wire(class)
    }

    /// The zero-load latency of a `bytes`-sized message over hops of the
    /// given link classes: serialization once (wormhole pipelining), then
    /// router + wire per hop. The partitioned fabric reproduces this to the
    /// picosecond for a lone packet.
    pub fn unloaded_latency(&self, hops: &[LinkClass], bytes: u64) -> SimDuration {
        let mut total = SimDuration::transfer_time(bytes, self.bandwidth_gbps);
        for &class in hops {
            total += self.hop(class);
        }
        total
    }

    /// The EV7 torus fabric, fitted to the paper's Fig. 13 latency map.
    ///
    /// With a local open-page access of 83 ns and a fixed 21 ns remote
    /// (directory/forwarding) overhead, per-hop one-way costs of 17.5 ns
    /// (module), 20.5 ns (board) and 25 ns (cable) reproduce the measured
    /// grid to within ~5 ns: 139/145/154 ns for the three 1-hop flavors,
    /// 186 ns for (0,2), 262 vs. 259 ns for the 4-hop corner.
    pub fn ev7_torus() -> Self {
        LinkTiming {
            router_latency: SimDuration::from_ns(12.0),
            module_wire: SimDuration::from_ns(5.5),
            board_wire: SimDuration::from_ns(8.5),
            cable_wire: SimDuration::from_ns(13.0),
            switch_wire: SimDuration::from_ns(10.0),
            global_wire: SimDuration::from_ns(20.0),
            bandwidth_gbps: 3.1,
            congestion_ns_per_queued: 0.25,
            congestion_cap: 24,
        }
    }

    /// The GS320 hierarchical switch, fitted to Fig. 12: a CPU↔QBB-switch
    /// hop of 75 ns and a QBB↔global-switch hop of 107.5 ns give ~330 ns
    /// local (switch + 180 ns SDRAM) and ~760 ns remote read-clean; the
    /// global switch port carries ~1.6 GB/s.
    pub fn gs320_switch() -> Self {
        LinkTiming {
            router_latency: SimDuration::from_ns(25.0),
            module_wire: SimDuration::from_ns(50.0),
            board_wire: SimDuration::from_ns(50.0),
            cable_wire: SimDuration::from_ns(50.0),
            switch_wire: SimDuration::from_ns(50.0),
            global_wire: SimDuration::from_ns(82.5),
            bandwidth_gbps: 1.6,
            congestion_ns_per_queued: 2.0,
            congestion_cap: 32,
        }
    }

    /// The SC45's Quadrics-style cluster interconnect: user-level messaging
    /// costs microseconds, bandwidth ~0.32 GB/s per rail.
    pub fn sc45_cluster() -> Self {
        LinkTiming {
            router_latency: SimDuration::from_ns(300.0),
            module_wire: SimDuration::from_ns(50.0),
            board_wire: SimDuration::from_ns(50.0),
            cable_wire: SimDuration::from_ns(50.0),
            switch_wire: SimDuration::from_ns(60.0),
            global_wire: SimDuration::from_ns(900.0),
            bandwidth_gbps: 0.32,
            congestion_ns_per_queued: 10.0,
            congestion_cap: 64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_latency_orders_by_reach() {
        let t = LinkTiming::ev7_torus();
        assert!(t.wire(LinkClass::Module) < t.wire(LinkClass::Board));
        assert!(t.wire(LinkClass::Board) < t.wire(LinkClass::Cable));
        assert_eq!(t.wire(LinkClass::Shuffle), t.wire(LinkClass::Cable));
    }

    #[test]
    fn ev7_hop_costs_match_fig13_fit() {
        let t = LinkTiming::ev7_torus();
        assert_eq!(t.hop(LinkClass::Module).as_ns(), 17.5);
        assert_eq!(t.hop(LinkClass::Board).as_ns(), 20.5);
        assert_eq!(t.hop(LinkClass::Cable).as_ns(), 25.0);
    }

    #[test]
    fn gs320_hops_match_fig12_fit() {
        let t = LinkTiming::gs320_switch();
        assert_eq!(t.hop(LinkClass::QbbLocal).as_ns(), 75.0);
        assert_eq!(t.hop(LinkClass::QbbGlobal).as_ns(), 107.5);
    }

    #[test]
    fn machines_rank_as_in_the_paper() {
        let ev7 = LinkTiming::ev7_torus();
        let gs320 = LinkTiming::gs320_switch();
        let sc45 = LinkTiming::sc45_cluster();
        assert!(ev7.router_latency < gs320.router_latency);
        assert!(gs320.router_latency < sc45.router_latency);
        assert!(ev7.bandwidth_gbps > gs320.bandwidth_gbps);
        assert!(gs320.bandwidth_gbps > sc45.bandwidth_gbps);
    }
}
