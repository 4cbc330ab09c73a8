//! A directed physical link with per-class virtual-channel queues.
//!
//! A `Link` does not schedule its own release. It records when its channel
//! frees up ([`Link::free_at`]: the end of the current transfer, or of a
//! router pause) and whether a release event is scheduled for it
//! ([`Link::release_pending`]); the fabric schedules that event only while
//! a packet waits, and otherwise reads "busy" off the release instant.
//! Nor does it know whether it is up: the fabric tables own liveness
//! ([`FabricTables::is_alive`](crate::partition::FabricTables::is_alive)).

use alphasim_kernel::stats::UtilizationMeter;
use alphasim_kernel::{SimDuration, SimTime};
use alphasim_topology::{Direction, LinkClass, NodeId};

use crate::msg::{MessageClass, MessageId};

/// A directed link: per-class FIFO queues (the virtual channels) in front of
/// one serializing physical channel. The output ("global") arbiter grants
/// the highest-priority non-empty class first, so responses drain ahead of
/// requests exactly as the 21364's class VCs guarantee.
#[derive(Debug)]
pub struct Link {
    /// Sending node.
    pub from: NodeId,
    /// Receiving node.
    pub to: NodeId,
    /// Physical class (selects wire latency).
    pub class: LinkClass,
    /// Compass direction for torus links.
    pub dir: Option<Direction>,
    /// Per-class FIFO queues, indexed by `MessageClass::priority()`.
    queues: [std::collections::VecDeque<MessageId>; 5],
    /// Packets waiting across all queues.
    queued: usize,
    /// When the current transfer, or a pause, releases the channel; `None`
    /// while nothing has held it since it was last marked released.
    free_at: Option<SimTime>,
    /// Whether a release event is scheduled for the channel.
    release_pending: bool,
    meter: UtilizationMeter,
    granted: u64,
    /// Bytes moved per message class, indexed by `MessageClass::priority()`.
    class_bytes: [u64; 5],
    /// Latency stretch for a degraded (slowed, not dead) channel; `1` when
    /// healthy. Wire flight and serialization multiply by this.
    degrade: u64,
    /// Router pause/brownout: the channel may not start a transfer before
    /// this instant. `SimTime::ZERO` when healthy.
    pause_until: SimTime,
    /// Transient fault: the next granted flit is corrupted in flight, CRC
    /// caught at the receiver, and retransmitted by the link layer.
    corrupt_next: bool,
    /// CRC-detected corruptions retransmitted on this channel so far.
    crc_retransmits: u64,
}

impl Link {
    /// An idle link.
    pub fn new(from: NodeId, to: NodeId, class: LinkClass, dir: Option<Direction>) -> Self {
        Link {
            from,
            to,
            class,
            dir,
            queues: Default::default(),
            queued: 0,
            free_at: None,
            release_pending: false,
            meter: UtilizationMeter::new(),
            granted: 0,
            class_bytes: [0; 5],
            degrade: 1,
            pause_until: SimTime::ZERO,
            corrupt_next: false,
            crc_retransmits: 0,
        }
    }

    /// Queue a message on its class VC.
    #[inline]
    pub fn enqueue(&mut self, class: MessageClass, id: MessageId) {
        self.queues[class.priority() as usize].push_back(id);
        self.queued += 1;
    }

    /// Total packets waiting across all VCs (the backlog adaptive routing
    /// compares).
    pub fn backlog(&self) -> usize {
        self.queued
    }

    /// Global arbitration: pop the head of the highest-priority non-empty
    /// VC. Returns `None` if nothing waits. The fabric then holds the
    /// channel for the granted transfer.
    #[inline]
    pub fn grant(&mut self) -> Option<MessageId> {
        for q in self.queues.iter_mut().rev() {
            if let Some(id) = q.pop_front() {
                self.queued -= 1;
                self.granted += 1;
                return Some(id);
            }
        }
        None
    }

    /// Count the grant of a packet that found the channel idle and every
    /// VC empty, so it never queued: the grant [`grant`](Self::grant)
    /// would have made at once.
    #[inline]
    pub(crate) fn grant_unqueued(&mut self) {
        debug_assert_eq!(self.queued, 0, "an unqueued grant jumps no queue");
        self.granted += 1;
    }

    /// When the current transfer, or a pause, releases the channel (`None`
    /// while nothing has held it since it was last marked released).
    pub fn free_at(&self) -> Option<SimTime> {
        self.free_at
    }

    /// Hold the channel with a transfer until `until`.
    pub(crate) fn occupy(&mut self, until: SimTime) {
        self.free_at = Some(until);
    }

    /// Forget the release instant, so the channel reads free at any time —
    /// the state once every event of a run has fired.
    pub(crate) fn mark_released(&mut self) {
        self.free_at = None;
    }

    /// Whether a release event is scheduled for the channel.
    pub fn release_pending(&self) -> bool {
        self.release_pending
    }

    /// Record that a release event is (or is no longer) scheduled.
    pub(crate) fn set_release_pending(&mut self, pending: bool) {
        self.release_pending = pending;
    }

    /// Empty every VC queue, returning the evicted messages highest
    /// priority first (FIFO within a class) so a failing link's backlog can
    /// be re-routed deterministically. The message on the wire, if any, is
    /// not touched.
    pub fn drain_queued(&mut self) -> Vec<MessageId> {
        let mut out = Vec::new();
        for q in self.queues.iter_mut().rev() {
            out.extend(q.drain(..));
        }
        self.queued = 0;
        out
    }

    /// Account a transfer of `bytes` of `class` occupying the channel for
    /// `occupancy`.
    #[inline]
    pub fn account(&mut self, class: MessageClass, bytes: u64, occupancy: SimDuration) {
        self.meter.add_bytes(bytes);
        self.meter.add_busy(occupancy);
        self.class_bytes[class.priority() as usize] += bytes;
    }

    /// Fraction of `[0, now]` the channel spent transferring.
    pub fn utilization(&self, now: SimTime) -> f64 {
        self.meter.utilization(now)
    }

    /// Cumulative busy (transfer) time, for interval sampling.
    pub fn busy_time(&self) -> SimDuration {
        self.meter.busy()
    }

    /// Bytes moved so far.
    pub fn bytes(&self) -> u64 {
        self.meter.bytes()
    }

    /// Packets granted so far.
    pub fn granted(&self) -> u64 {
        self.granted
    }

    /// Bytes moved for one message class.
    pub fn class_bytes(&self, class: MessageClass) -> u64 {
        self.class_bytes[class.priority() as usize]
    }

    /// Latency stretch factor; `1` for a healthy channel.
    pub fn degrade_factor(&self) -> u64 {
        self.degrade
    }

    /// Whether the channel is degraded (slowed, not dead).
    pub fn is_degraded(&self) -> bool {
        self.degrade > 1
    }

    /// Set the latency stretch factor (`1` restores full speed).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is zero.
    pub fn set_degrade(&mut self, factor: u64) {
        assert!(factor >= 1, "degrade factor must be at least 1");
        self.degrade = factor;
    }

    /// The instant a router pause on this channel lifts (`SimTime::ZERO`
    /// when not paused).
    pub fn pause_until(&self) -> SimTime {
        self.pause_until
    }

    /// Extend the channel's pause window to at least `until`: the channel
    /// holds until then, like a transfer with no message, and a transfer
    /// already on it keeps its own end if that is later.
    pub fn pause(&mut self, until: SimTime) {
        self.pause_until = self.pause_until.max(until);
        self.free_at = Some(self.free_at.map_or(until, |t| t.max(until)));
    }

    /// Arm a transient: the next granted flit is corrupted and must be
    /// retransmitted after CRC detection.
    pub fn arm_corruption(&mut self) {
        self.corrupt_next = true;
    }

    /// Consume the armed corruption, if any, counting the retransmit.
    pub fn take_corruption(&mut self) -> bool {
        if self.corrupt_next {
            self.corrupt_next = false;
            self.crc_retransmits += 1;
            true
        } else {
            false
        }
    }

    /// CRC-detected corruptions retransmitted on this channel so far.
    pub fn crc_retransmits(&self) -> u64 {
        self.crc_retransmits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link() -> Link {
        Link::new(NodeId::new(0), NodeId::new(1), LinkClass::Board, None)
    }

    fn at_ns(ns: f64) -> SimTime {
        SimTime::ZERO + SimDuration::from_ns(ns)
    }

    #[test]
    fn grants_follow_class_priority() {
        let mut l = link();
        l.enqueue(MessageClass::Request, MessageId(1));
        l.enqueue(MessageClass::BlockResponse, MessageId(2));
        l.enqueue(MessageClass::Request, MessageId(3));
        assert_eq!(l.grant(), Some(MessageId(2)), "response drains first");
        assert_eq!(l.grant(), Some(MessageId(1)));
        assert_eq!(l.grant(), Some(MessageId(3)));
        assert_eq!(l.grant(), None);
        // Arbitration alone neither holds the channel nor books a release.
        assert_eq!((l.free_at(), l.release_pending()), (None, false));
    }

    #[test]
    fn fifo_within_a_class() {
        let mut l = link();
        for i in 0..5 {
            l.enqueue(MessageClass::Forward, MessageId(i));
        }
        for i in 0..5 {
            assert_eq!(l.grant(), Some(MessageId(i)));
        }
        assert_eq!(l.free_at(), None);
    }

    #[test]
    fn backlog_counts_all_classes() {
        let mut l = link();
        l.enqueue(MessageClass::Io, MessageId(0));
        l.enqueue(MessageClass::Special, MessageId(1));
        assert_eq!(l.backlog(), 2);
        l.grant();
        assert_eq!(l.backlog(), 1);
        l.enqueue(MessageClass::Request, MessageId(2));
        assert_eq!(l.drain_queued().len(), 2);
        assert_eq!(l.backlog(), 0, "the count follows an eviction");
    }

    #[test]
    fn utilization_accounting() {
        let mut l = link();
        l.enqueue(MessageClass::Request, MessageId(0));
        l.grant();
        l.account(MessageClass::Request, 64, SimDuration::from_ns(20.0));
        l.occupy(at_ns(20.0));
        assert_eq!(l.free_at(), Some(at_ns(20.0)));
        assert_eq!(l.bytes(), 64);
        assert_eq!(l.granted(), 1);
        let now = at_ns(40.0);
        assert!((l.utilization(now) - 0.5).abs() < 1e-12);
        assert_eq!(l.class_bytes(MessageClass::Request), 64);
        assert_eq!(l.class_bytes(MessageClass::BlockResponse), 0);
        l.mark_released();
        assert_eq!(l.free_at(), None, "released channels read free");
    }

    #[test]
    fn degrade_and_heal() {
        let mut l = link();
        assert_eq!(l.degrade_factor(), 1);
        assert!(!l.is_degraded());
        l.set_degrade(4);
        assert!(l.is_degraded());
        l.set_degrade(1);
        assert!(!l.is_degraded());
    }

    #[test]
    fn pause_marks_idle_channel_busy_once() {
        let mut l = link();
        let until = at_ns(100.0);
        l.pause(until);
        assert_eq!(
            l.free_at(),
            Some(until),
            "an idle channel holds to the pause"
        );
        assert!(!l.release_pending(), "a pause books no release of its own");
        // Extending the pause moves the release; a shorter one does not.
        let later = at_ns(200.0);
        l.pause(later);
        assert_eq!((l.pause_until(), l.free_at()), (later, Some(later)));
        l.pause(until);
        assert_eq!((l.pause_until(), l.free_at()), (later, Some(later)));
        // A transfer ending after the pause keeps its own end.
        let mut busy = link();
        busy.occupy(at_ns(300.0));
        busy.pause(later);
        assert_eq!(
            (busy.pause_until(), busy.free_at()),
            (later, Some(at_ns(300.0)))
        );
        assert!(!busy.release_pending());
        busy.set_release_pending(true);
        assert!(busy.release_pending());
    }

    #[test]
    fn corruption_fires_once() {
        let mut l = link();
        assert!(!l.take_corruption());
        l.arm_corruption();
        assert!(l.take_corruption());
        assert!(!l.take_corruption(), "transient must not repeat");
        assert_eq!(l.crc_retransmits(), 1);
    }
}
