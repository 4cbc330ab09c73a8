//! The 21364 router's two-level arbitration (paper §2).
//!
//! "Each input port has two first-level arbiters, called the local
//! arbiters, each of which selects a candidate packet among those waiting
//! at the input port. Each output port has a second-level arbiter, called
//! the global arbiter, which selects a packet from those nominated for it
//! by the local arbiters."
//!
//! The fabric engine ([`crate::partition`]) abstracts this into per-link
//! priority queues; this module models the mechanism itself, cycle by
//! arbitration cycle, so its fairness and work-conservation properties can
//! be tested directly — they are the justification for the abstraction.

use alphasim_kernel::DetRng;

use crate::msg::MessageClass;

/// A packet waiting at an input port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitingPacket {
    /// Caller-visible identity.
    pub id: u64,
    /// Coherence class (drives VC priority).
    pub class: MessageClass,
    /// Output port the packet wants.
    pub output: usize,
}

/// One router's arbitration state: `inputs` input ports (each with two
/// local arbiters) feeding `outputs` output ports (one global arbiter
/// each).
#[derive(Debug)]
pub struct TwoLevelArbiter {
    inputs: Vec<Vec<WaitingPacket>>,
    outputs: usize,
    /// Round-robin pointers of the global arbiters (fairness across
    /// inputs).
    rr: Vec<usize>,
    granted: u64,
}

impl TwoLevelArbiter {
    /// Local arbiters per input port ("two first-level arbiters").
    pub const LOCAL_ARBITERS: usize = 2;

    /// A router with `inputs` input and `outputs` output ports.
    ///
    /// # Panics
    ///
    /// Panics if either count is zero.
    pub fn new(inputs: usize, outputs: usize) -> Self {
        assert!(inputs > 0 && outputs > 0, "degenerate router");
        TwoLevelArbiter {
            inputs: vec![Vec::new(); inputs],
            outputs,
            rr: vec![0; outputs],
            granted: 0,
        }
    }

    /// Queue a packet at input port `port`.
    ///
    /// # Panics
    ///
    /// Panics if `port` or the packet's output is out of range.
    pub fn enqueue(&mut self, port: usize, packet: WaitingPacket) {
        assert!(port < self.inputs.len(), "input port out of range");
        assert!(packet.output < self.outputs, "output port out of range");
        self.inputs[port].push(packet);
    }

    /// Packets waiting at input `port`.
    pub fn backlog(&self, port: usize) -> usize {
        self.inputs[port].len()
    }

    /// Total waiting packets.
    pub fn total_backlog(&self) -> usize {
        self.inputs.iter().map(Vec::len).sum()
    }

    /// Grants issued so far.
    pub fn granted(&self) -> u64 {
        self.granted
    }

    /// Run one arbitration cycle: each input's local arbiters nominate up
    /// to [`Self::LOCAL_ARBITERS`] packets (highest class priority first,
    /// distinct outputs where possible); each output's global arbiter
    /// grants one nomination, round-robin across inputs. Returns the
    /// granted packets, removed from their queues — at most one per output
    /// port.
    pub fn arbitrate(&mut self, rng: &mut DetRng) -> Vec<WaitingPacket> {
        // Phase 1: local nomination.
        // nominations[output] = (input, index-in-queue, packet)
        let mut nominations: Vec<Vec<(usize, usize, WaitingPacket)>> =
            vec![Vec::new(); self.outputs];
        for (input, queue) in self.inputs.iter().enumerate() {
            if queue.is_empty() {
                continue;
            }
            // Each local arbiter picks the best packet for a distinct
            // output: sort candidate indices by class priority (stable on
            // arrival order) and take up to LOCAL_ARBITERS with distinct
            // outputs.
            let mut order: Vec<usize> = (0..queue.len()).collect();
            order.sort_by_key(|&i| std::cmp::Reverse(queue[i].class.priority()));
            let mut used_outputs = Vec::new();
            for &i in &order {
                if used_outputs.len() == Self::LOCAL_ARBITERS {
                    break;
                }
                let p = queue[i];
                if used_outputs.contains(&p.output) {
                    continue;
                }
                used_outputs.push(p.output);
                nominations[p.output].push((input, i, p));
            }
        }
        // Phase 2: global grant, round-robin over inputs per output.
        let mut grants: Vec<(usize, usize, WaitingPacket)> = Vec::new();
        for (output, noms) in nominations.iter().enumerate() {
            if noms.is_empty() {
                continue;
            }
            let start = self.rr[output];
            let chosen = noms
                .iter()
                .min_by_key(|(input, _, p)| {
                    (
                        std::cmp::Reverse(p.class.priority()),
                        (input + self.inputs.len() - start) % self.inputs.len(),
                    )
                })
                .copied()
                .expect("non-empty nominations");
            self.rr[output] = (chosen.0 + 1) % self.inputs.len();
            grants.push(chosen);
        }
        // Remove granted packets (highest index first per input so earlier
        // indices stay valid).
        grants.sort_by_key(|&(input, idx, _)| (input, std::cmp::Reverse(idx)));
        let mut out = Vec::with_capacity(grants.len());
        for (input, idx, p) in grants {
            let removed = self.inputs[input].remove(idx);
            debug_assert_eq!(removed.id, p.id);
            out.push(p);
        }
        self.granted += out.len() as u64;
        // Determinism note: rng is reserved for tie-breaks the 21364 makes
        // in hardware (aging); the current policy is fully deterministic.
        let _ = rng;
        out
    }

    /// Drain everything, counting cycles (for work-conservation tests).
    pub fn drain(&mut self, rng: &mut DetRng, max_cycles: usize) -> usize {
        let mut cycles = 0;
        while self.total_backlog() > 0 {
            let granted = self.arbitrate(rng);
            cycles += 1;
            assert!(
                !granted.is_empty() || self.total_backlog() == 0,
                "arbitration stall with {} waiting",
                self.total_backlog()
            );
            assert!(cycles <= max_cycles, "drain exceeded {max_cycles} cycles");
        }
        cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(id: u64, class: MessageClass, output: usize) -> WaitingPacket {
        WaitingPacket { id, class, output }
    }

    #[test]
    fn one_grant_per_output_per_cycle() {
        let mut a = TwoLevelArbiter::new(4, 4);
        let mut rng = DetRng::seeded(1);
        for i in 0..4 {
            a.enqueue(i, pkt(i as u64, MessageClass::Request, 0));
        }
        let g = a.arbitrate(&mut rng);
        assert_eq!(g.len(), 1, "one output can grant once");
        assert_eq!(a.total_backlog(), 3);
    }

    #[test]
    fn distinct_outputs_grant_in_parallel() {
        let mut a = TwoLevelArbiter::new(4, 4);
        let mut rng = DetRng::seeded(1);
        for i in 0..4usize {
            a.enqueue(i, pkt(i as u64, MessageClass::Request, i));
        }
        let g = a.arbitrate(&mut rng);
        assert_eq!(g.len(), 4, "independent outputs all grant");
    }

    #[test]
    fn higher_class_wins_the_output() {
        let mut a = TwoLevelArbiter::new(2, 1);
        let mut rng = DetRng::seeded(1);
        a.enqueue(0, pkt(1, MessageClass::Request, 0));
        a.enqueue(1, pkt(2, MessageClass::BlockResponse, 0));
        let g = a.arbitrate(&mut rng);
        assert_eq!(g[0].id, 2, "response outranks request");
    }

    #[test]
    fn round_robin_is_fair_across_inputs() {
        // Two inputs contending for one output with equal-class packets:
        // grants must alternate.
        let mut a = TwoLevelArbiter::new(2, 1);
        let mut rng = DetRng::seeded(1);
        for i in 0..10u64 {
            a.enqueue(0, pkt(100 + i, MessageClass::Request, 0));
            a.enqueue(1, pkt(200 + i, MessageClass::Request, 0));
        }
        let mut from0 = 0;
        let mut from1 = 0;
        for _ in 0..20 {
            for p in a.arbitrate(&mut rng) {
                if p.id < 200 {
                    from0 += 1;
                } else {
                    from1 += 1;
                }
            }
        }
        assert_eq!(from0 + from1, 20);
        assert!(
            (from0 as i64 - from1 as i64).abs() <= 2,
            "{from0} vs {from1}"
        );
    }

    #[test]
    fn local_arbiters_nominate_two_distinct_outputs() {
        // One input holding packets for two outputs can fill both in one
        // cycle (the point of having two local arbiters).
        let mut a = TwoLevelArbiter::new(1, 4);
        let mut rng = DetRng::seeded(1);
        a.enqueue(0, pkt(1, MessageClass::Request, 0));
        a.enqueue(0, pkt(2, MessageClass::Request, 1));
        a.enqueue(0, pkt(3, MessageClass::Request, 2));
        let g = a.arbitrate(&mut rng);
        assert_eq!(g.len(), TwoLevelArbiter::LOCAL_ARBITERS);
    }

    #[test]
    fn drain_is_work_conserving() {
        let mut a = TwoLevelArbiter::new(4, 4);
        let mut rng = DetRng::seeded(7);
        let mut n = 0u64;
        for input in 0..4 {
            for output in 0..4 {
                for _ in 0..5 {
                    a.enqueue(input, pkt(n, MessageClass::Request, output));
                    n += 1;
                }
            }
        }
        // 80 packets over 4 outputs: lower bound 20 cycles; the two local
        // arbiters per input bound nomination parallelism, but all outputs
        // stay busy: drain in ~20-40 cycles, never stall.
        let cycles = a.drain(&mut rng, 200);
        assert!((20..=60).contains(&cycles), "{cycles} cycles");
        assert_eq!(a.granted(), 80);
    }
}
