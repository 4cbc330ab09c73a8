//! Deterministic fault schedules for live fault injection.
//!
//! The GS1280's robustness story — the torus routes around wounded cables,
//! the RDRAM subsystem spares a failed channel — only shows up when things
//! fail *while the machine is running*. A [`FaultPlan`] is a reproducible
//! schedule of such failures: link-down/link-up, node drains and RDRAM
//! channel losses, each stamped with the simulation time at which it
//! strikes. Consumers (the system-level fault campaign) strike the plan at
//! epoch barriers, so two runs with the same plan are bit-identical.
//!
//! Node and link identifiers are plain `usize` indices here — the kernel
//! crate sits below the topology crate, so it cannot name `NodeId`; the
//! network layer converts at the boundary.

use serde::{Deserialize, Serialize};

use crate::time::SimTime;

/// One kind of injected fault.
///
/// The derived [`Ord`] is load-bearing: [`FaultPlan::push`] breaks
/// same-timestamp ties by `(kind, site)` — variant declaration order first,
/// then the variant's node/link indices — so plans built from colliding
/// timestamps replay bit-identically regardless of push order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum FaultKind {
    /// The undirected link between nodes `a` and `b` fails (both directions).
    LinkDown {
        /// One end of the link.
        a: usize,
        /// The other end.
        b: usize,
    },
    /// A previously failed link is repaired.
    LinkUp {
        /// One end of the link.
        a: usize,
        /// The other end.
        b: usize,
    },
    /// The undirected link between `a` and `b` degrades — it keeps carrying
    /// traffic but every flit takes [`DEGRADE_FACTOR`]× longer on the wire.
    /// Routing does not react; only latency stretches. [`FaultKind::LinkUp`]
    /// heals it.
    LinkDegrade {
        /// One end of the link.
        a: usize,
        /// The other end.
        b: usize,
    },
    /// A transient: the next flit sent on the directed link `from -> to` is
    /// corrupted in flight. The receiver's CRC catches it and the link layer
    /// retransmits, so the message survives with one extra transfer + wire
    /// flight of latency.
    FlitCorrupt {
        /// The sending end of the directed link.
        from: usize,
        /// The receiving end.
        to: usize,
    },
    /// `node`'s CPU stops sourcing new traffic (its router keeps forwarding,
    /// as a wounded EV7's does).
    NodeDrain {
        /// The drained node.
        node: usize,
    },
    /// A previously drained node resumes sourcing traffic.
    NodeUndrain {
        /// The healed node.
        node: usize,
    },
    /// `node`'s router browns out: its outbound links stall for `ps`
    /// picoseconds, then drain their backlogs. Nothing is dropped or
    /// rerouted.
    RouterPause {
        /// The paused node.
        node: usize,
        /// Pause length in picoseconds (kept as a plain integer so the
        /// variant stays `Copy` + `Ord`).
        ps: u64,
    },
    /// One RDRAM channel of `node`'s memory controller fails (the redundant
    /// 5th channel absorbs the first such failure, paper §2).
    ChannelDown {
        /// The node whose Zbox loses a channel.
        node: usize,
    },
    /// A previously failed RDRAM channel at `node` is restored.
    ChannelUp {
        /// The node whose Zbox regains a channel.
        node: usize,
    },
}

/// Latency stretch applied to a link wounded by [`FaultKind::LinkDegrade`]:
/// wire flight and serialization take this many times longer until the link
/// is repaired.
pub const DEGRADE_FACTOR: u64 = 4;

impl FaultKind {
    /// The variant's name (`"LinkDown"`, …, `"ChannelUp"`): the tag of its
    /// JSON encoding, and the key the chaos report counts struck kinds by.
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::LinkDown { .. } => "LinkDown",
            FaultKind::LinkUp { .. } => "LinkUp",
            FaultKind::LinkDegrade { .. } => "LinkDegrade",
            FaultKind::FlitCorrupt { .. } => "FlitCorrupt",
            FaultKind::NodeDrain { .. } => "NodeDrain",
            FaultKind::NodeUndrain { .. } => "NodeUndrain",
            FaultKind::RouterPause { .. } => "RouterPause",
            FaultKind::ChannelDown { .. } => "ChannelDown",
            FaultKind::ChannelUp { .. } => "ChannelUp",
        }
    }

    /// Short human-readable description, used by watchdog reports and logs.
    pub fn describe(&self) -> String {
        match self {
            FaultKind::LinkDown { a, b } => format!("link {a}<->{b} down"),
            FaultKind::LinkUp { a, b } => format!("link {a}<->{b} repaired"),
            FaultKind::LinkDegrade { a, b } => {
                format!("link {a}<->{b} degraded ({DEGRADE_FACTOR}x slower)")
            }
            FaultKind::FlitCorrupt { from, to } => {
                format!("transient flit corruption on link {from}->{to} (CRC retransmit)")
            }
            FaultKind::NodeDrain { node } => format!("node {node} drained"),
            FaultKind::NodeUndrain { node } => format!("node {node} undrained"),
            FaultKind::RouterPause { node, ps } => {
                format!("router {node} paused for {ps} ps")
            }
            FaultKind::ChannelDown { node } => format!("RDRAM channel lost at node {node}"),
            FaultKind::ChannelUp { node } => format!("RDRAM channel restored at node {node}"),
        }
    }
}

/// One scheduled fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// When the fault strikes.
    pub at: SimTime,
    /// What fails (or recovers).
    pub kind: FaultKind,
}

/// A deterministic schedule of faults, kept sorted by strike time (stable
/// for simultaneous events, so injection order is reproducible).
///
/// # Examples
///
/// ```
/// use alphasim_kernel::fault::{FaultKind, FaultPlan};
/// use alphasim_kernel::{SimDuration, SimTime};
///
/// let mut plan = FaultPlan::new();
/// plan.push(
///     SimTime::ZERO + SimDuration::from_ns(500.0),
///     FaultKind::LinkDown { a: 0, b: 1 },
/// );
/// plan.push(
///     SimTime::ZERO + SimDuration::from_ns(2_000.0),
///     FaultKind::LinkUp { a: 0, b: 1 },
/// );
/// assert_eq!(plan.events().len(), 2);
/// assert!(plan.events()[0].at < plan.events()[1].at);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan (nothing ever fails).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Schedule `kind` to strike at `at`, keeping the plan sorted by
    /// `(time, kind, site)` — ties in strike time are broken by the fault
    /// kind's total order (variant rank, then node/link indices), *not* by
    /// push order, so a plan's replay order is a pure function of its
    /// contents.
    pub fn push(&mut self, at: SimTime, kind: FaultKind) -> &mut Self {
        let idx = self
            .events
            .partition_point(|e| (e.at, e.kind) <= (at, kind));
        self.events.insert(idx, FaultEvent { at, kind });
        self
    }

    /// A plan built from `events`, normalized to `(time, kind, site)` order.
    pub fn from_events(events: impl IntoIterator<Item = FaultEvent>) -> Self {
        let mut plan = FaultPlan::new();
        for e in events {
            plan.push(e.at, e.kind);
        }
        plan
    }

    /// The scheduled faults in strike order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Whether nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.events.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimDuration;

    fn t(ns: f64) -> SimTime {
        SimTime::ZERO + SimDuration::from_ns(ns)
    }

    #[test]
    fn push_orders_by_time_then_kind_then_site() {
        // Same-timestamp faults sort by (kind, site) regardless of push
        // order: LinkUp (variant rank 1) precedes NodeDrain (rank 4), and
        // within a kind the smaller site wins.
        let mut plan = FaultPlan::new();
        plan.push(t(30.0), FaultKind::NodeDrain { node: 2 });
        plan.push(t(10.0), FaultKind::LinkDown { a: 0, b: 1 });
        plan.push(t(30.0), FaultKind::LinkUp { a: 0, b: 1 });
        plan.push(t(30.0), FaultKind::NodeDrain { node: 1 });
        let kinds: Vec<FaultKind> = plan.events().iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                FaultKind::LinkDown { a: 0, b: 1 },
                FaultKind::LinkUp { a: 0, b: 1 },
                FaultKind::NodeDrain { node: 1 },
                FaultKind::NodeDrain { node: 2 },
            ]
        );
        assert!(!plan.is_empty());
        assert_eq!(plan.len(), 4);
    }

    #[test]
    fn colliding_timestamps_normalize_identically_from_any_push_order() {
        let faults = [
            FaultKind::ChannelDown { node: 7 },
            FaultKind::LinkDown { a: 2, b: 3 },
            FaultKind::RouterPause { node: 1, ps: 500 },
            FaultKind::NodeDrain { node: 0 },
            FaultKind::FlitCorrupt { from: 4, to: 5 },
        ];
        let mut fwd = FaultPlan::new();
        for k in faults {
            fwd.push(t(100.0), k);
        }
        let mut rev = FaultPlan::new();
        for k in faults.iter().rev() {
            rev.push(t(100.0), *k);
        }
        assert_eq!(fwd, rev, "tie order must not depend on push order");
        let rebuilt = FaultPlan::from_events(rev.events().iter().copied());
        assert_eq!(fwd, rebuilt);
    }

    #[test]
    fn describe_names_every_kind() {
        let kinds = [
            FaultKind::LinkDown { a: 1, b: 2 },
            FaultKind::LinkUp { a: 1, b: 2 },
            FaultKind::LinkDegrade { a: 1, b: 2 },
            FaultKind::FlitCorrupt { from: 1, to: 2 },
            FaultKind::NodeDrain { node: 3 },
            FaultKind::NodeUndrain { node: 3 },
            FaultKind::RouterPause { node: 3, ps: 1_000 },
            FaultKind::ChannelDown { node: 4 },
            FaultKind::ChannelUp { node: 4 },
        ];
        let mut seen = std::collections::BTreeSet::new();
        let mut names = std::collections::BTreeSet::new();
        for kind in kinds {
            assert!(!kind.describe().is_empty());
            assert!(seen.insert(kind.describe()), "descriptions must differ");
            assert!(names.insert(kind.name()), "names must differ");
        }
        assert_eq!(names.len(), crate::chaos::CHAOS_KINDS);
    }
}
