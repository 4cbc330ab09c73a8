//! Messages and coherence classes.

use alphasim_kernel::SimTime;
use alphasim_telemetry::HopBreakdown;
use alphasim_topology::NodeId;
use serde::{Deserialize, Serialize};

/// Coherence class of a packet (paper §2). Each class travels in its own
/// virtual channels so that "a Response packet can never block behind a
/// Request packet"; the class order is acyclic — a Request can generate a
/// Block Response, but a Block Response cannot generate a Request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum MessageClass {
    /// I/O packets (lowest priority; excluded from the adaptive channel).
    Io,
    /// Requests from a CPU to a directory.
    Request,
    /// Forwards from a directory to an owner/sharers.
    Forward,
    /// Block responses carrying data (drain ahead of everything they could
    /// block behind).
    BlockResponse,
    /// Short protocol specials (highest priority).
    Special,
}

impl MessageClass {
    /// All classes, lowest priority first.
    pub const ALL: [MessageClass; 5] = [
        MessageClass::Io,
        MessageClass::Request,
        MessageClass::Forward,
        MessageClass::BlockResponse,
        MessageClass::Special,
    ];

    /// Arbitration priority (higher wins the output port).
    pub fn priority(self) -> u8 {
        match self {
            MessageClass::Io => 0,
            MessageClass::Request => 1,
            MessageClass::Forward => 2,
            MessageClass::BlockResponse => 3,
            MessageClass::Special => 4,
        }
    }

    /// The classes a packet of this class may *cause* to be sent. The
    /// relation is acyclic (checked in tests), which is the protocol-level
    /// half of the 21364's deadlock-freedom argument.
    pub fn may_generate(self) -> &'static [MessageClass] {
        match self {
            MessageClass::Request => &[MessageClass::Forward, MessageClass::BlockResponse],
            MessageClass::Forward => &[MessageClass::BlockResponse, MessageClass::Special],
            MessageClass::BlockResponse => &[],
            MessageClass::Special => &[],
            MessageClass::Io => &[MessageClass::Io],
        }
    }

    /// Whether packets of this class may use the Adaptive channel
    /// ("any message other than I/O packets").
    pub fn may_route_adaptively(self) -> bool {
        !matches!(self, MessageClass::Io)
    }

    /// Short display name, used as trace-event and metric labels.
    pub fn name(self) -> &'static str {
        match self {
            MessageClass::Io => "Io",
            MessageClass::Request => "Request",
            MessageClass::Forward => "Forward",
            MessageClass::BlockResponse => "BlockResponse",
            MessageClass::Special => "Special",
        }
    }
}

/// The slab slot of a queued message (link queues hold these).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct MessageId(pub(crate) u32);

impl MessageId {
    /// Dense index of this message.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A delivered message, handed back by
/// [`OpenLoop::drain`](crate::partition::OpenLoop::drain).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Delivery {
    /// Source endpoint.
    pub src: NodeId,
    /// Destination endpoint.
    pub dst: NodeId,
    /// Coherence class.
    pub class: MessageClass,
    /// Payload size in bytes.
    pub bytes: u64,
    /// Caller-supplied correlation tag.
    pub tag: u64,
    /// The packet's identity.
    pub uid: u64,
    /// Injection time.
    pub injected_at: SimTime,
    /// Delivery time.
    pub delivered_at: SimTime,
    /// Hops traversed.
    pub hops: u32,
    /// Per-stage latency attribution accumulated over the route; the
    /// stages sum exactly to [`latency`](Self::latency) (integer
    /// picoseconds, no rounding).
    pub breakdown: HopBreakdown,
}

impl Delivery {
    /// End-to-end network latency.
    pub fn latency(&self) -> alphasim_kernel::SimDuration {
        self.delivered_at.since(self.injected_at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priorities_are_distinct_and_ordered() {
        let mut ps: Vec<u8> = MessageClass::ALL.iter().map(|c| c.priority()).collect();
        let sorted = ps.clone();
        ps.sort_unstable();
        assert_eq!(ps, sorted, "ALL must be lowest-priority-first");
        ps.dedup();
        assert_eq!(ps.len(), 5);
        assert!(MessageClass::BlockResponse.priority() > MessageClass::Request.priority());
    }

    #[test]
    fn generation_relation_is_acyclic() {
        // DFS from every class; no class may be reachable from itself
        // (ignoring Io's self-loop, which rides a disjoint channel set and
        // cannot hold coherence traffic).
        fn reaches(from: MessageClass, to: MessageClass, depth: u8) -> bool {
            if depth == 0 {
                return false;
            }
            from.may_generate()
                .iter()
                .any(|&n| n == to || reaches(n, to, depth - 1))
        }
        for &c in &[
            MessageClass::Request,
            MessageClass::Forward,
            MessageClass::BlockResponse,
            MessageClass::Special,
        ] {
            assert!(!reaches(c, c, 5), "{c:?} can regenerate itself");
        }
        // The paper's specific statement: a Request can generate a Block
        // Response, but a Block Response cannot generate a Request.
        assert!(reaches(
            MessageClass::Request,
            MessageClass::BlockResponse,
            5
        ));
        assert!(!reaches(
            MessageClass::BlockResponse,
            MessageClass::Request,
            5
        ));
    }

    #[test]
    fn io_is_excluded_from_adaptive_channel() {
        assert!(!MessageClass::Io.may_route_adaptively());
        assert!(MessageClass::Request.may_route_adaptively());
        assert!(MessageClass::BlockResponse.may_route_adaptively());
    }
}
