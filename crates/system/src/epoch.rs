//! The closed-loop engine.
//!
//! Every closed-loop experiment runs here: the load test
//! ([`crate::loadtest::LoadTest`], Figs. 15, 18 and 23–27) and the fault
//! campaign ([`crate::faulty::FaultCampaign`], the resilience sweep and the
//! chaos engine). Every CPU keeps a window of reads outstanding to the
//! memory sites its [`TrafficPattern`] picks, on the kernel's epoch
//! scheduler ([`EpochExecutor`]): one worker on one event queue.
//! [`CampaignWorker`] owns the whole run: its [`CampaignCfg`] and CPU
//! list, the [`RegionNet`] (routing tables and link state), a
//! [`Requester`] (pending set and deadline queue) per CPU, the [`Zbox`]
//! controller of every memory site, per-CPU RNGs and issue counters, every
//! result stream (latency samples, completions, poisons, monitor
//! violations, trace events) and its barrier state: the fault-plan cursor,
//! the watchdog, the Fig. 24 sampler, the fault counters and the livelock
//! reports. It strikes fault-plan events, watchdog ticks and samples as
//! its own epoch barriers, changing its routing tables and link state in
//! place. A packet whose wire is cut is lost at its own arrival, which the
//! fabric reports.
//!
//! A run with a retry policy (the campaign) tracks every read in its
//! CPU's pending set until it completes or is poisoned, queues each
//! attempt's deadline on its CPU, and runs the watchdog. Each CPU keeps at
//! most one timer event armed, at its earliest live deadline, so an
//! attempt that completes before it times out (nearly all of them) costs
//! a queue entry, not a heap event. A run without a retry policy (the
//! load test) has no faults to recover from and keeps none of that: each
//! read's issue time rides its packets, and the worker sums latency as
//! reads complete.
//!
//! Determinism is by construction, not by luck: every event carries a
//! tiebreak derived from simulation identities (packet uid, link id,
//! transaction tag, CPU index — never a slot or arrival order) and each CPU
//! draws from its own RNG stream, so events fire in an order the config
//! alone fixes. The per-read streams are kept in that order or folded as
//! they happen (latency samples, completion times, the pending-set depth,
//! whose fold reads the same whatever order same-instant events fire in),
//! and the rest (poisons, violations) is put into a canonical order after
//! the run. The same config therefore produces the same bytes — the
//! invariant `reproduce --check` enforces for every committed artifact.
//!
//! The compiler proves the outbox hand-off: the kernel's [`Outbox`] is the
//! worker's only way into its queue and only the executor builds one, so
//! only the executor delivers an event or strikes a barrier (its
//! `compile_fail` examples show how). The determinism lint
//! (`verify --bin lint`) rejects a shared accumulator field here.

use std::collections::VecDeque;
use std::ops::ControlFlow;

use alphasim_cache::Addr;
use alphasim_coherence::{LivelockReport, PendingSet, PendingTx, RetryPolicy, Watchdog};
use alphasim_kernel::fault::DEGRADE_FACTOR;
use alphasim_kernel::shard::{Outbox, ShardWorker};
use alphasim_kernel::stats::MeanP50P99;
use alphasim_kernel::{DetRng, FaultEvent, FaultKind, SimDuration, SimTime};
use alphasim_mem::Zbox;
use alphasim_net::partition::{
    tb_arrive, tb_inject, tb_timer, Arrival, FabricEvent, Packet, RegionNet,
};
use alphasim_net::MessageClass;
use alphasim_telemetry::trace::PID_MEMORY;
use alphasim_telemetry::{BreakdownTable, HopBreakdown};
use alphasim_topology::NodeId;

use crate::faulty::{
    PoisonedTx, RecoveryMutation, DIRECTORY_ROW, DRAM_CLOSED_ROW, DRAM_OPEN_ROW, FRONT_END_ROW,
    REQUEST_ROWS, RESPONSE_ROWS, STUCK_WINDOW_LIMIT, UNATTRIBUTED_ROW, ZBOX_QUEUE_ROW,
};
use crate::loadtest::{TrafficPattern, UtilSample};
use crate::obs::ObsAcc;

/// What a request and its response carry besides their headers.
#[derive(Debug)]
pub(crate) struct Carried {
    /// When the read's attempt was issued (a retry-free run's latency
    /// clock).
    pub(crate) issued: SimTime,
    /// On a response of a run that collects the latency breakdown, the
    /// attribution of the request leg it answers.
    pub(crate) leg: Option<Box<ServedLeg>>,
}

/// The request-leg attribution a response carries home, so the charge
/// happens wherever the requester lives.
#[derive(Debug, Clone)]
pub(crate) struct ServedLeg {
    /// Per-hop attribution of the request that was served.
    pub(crate) request: HopBreakdown,
    /// Time the read waited for the memory controller.
    pub(crate) zbox_queue_ps: u64,
    /// DRAM service time.
    pub(crate) dram_ps: u64,
    /// Whether the access hit an open page.
    pub(crate) page_hit: bool,
}

/// The campaign's event vocabulary. Tiebreaks are assigned at emission
/// from the `tb_*` constructors, all derived from simulation identities.
#[derive(Debug)]
pub(crate) enum Ev {
    /// A packet lands on `node` (hop-by-hop handoff).
    Arrive {
        /// Node the packet lands on.
        node: NodeId,
        /// The packet in flight.
        pkt: Box<Packet<Carried>>,
    },
    /// A link's channel frees up.
    LinkFree {
        /// Global link id.
        link: usize,
    },
    /// A CPU's retry wake-up: at most one is armed per CPU, at the CPU's
    /// earliest live deadline and keyed exactly as that attempt's own
    /// timer would be (`(deadline, tb_timer(tag))`), so an expiry keeps its
    /// place among simultaneous events.
    Timer {
        /// Tag of the attempt the wake-up is keyed by.
        tag: u64,
    },
    /// Top the CPU's issue window back up (priming and undrain refill).
    /// Idempotent: it refills to `outstanding`, however many are in
    /// flight.
    Inject {
        /// CPU index.
        cpu: usize,
    },
}

impl FabricEvent<Carried> for Ev {
    fn arrive(node: NodeId, pkt: Box<Packet<Carried>>) -> Self {
        Ev::Arrive { node, pkt }
    }

    fn link_free(link: usize) -> Self {
        Ev::LinkFree { link }
    }
}

/// The run's fixed parameters.
pub(crate) struct CampaignCfg {
    /// Outstanding reads per CPU.
    pub(crate) outstanding: usize,
    /// Reads each CPU completes before the run ends.
    pub(crate) requests_per_cpu: u64,
    /// Timeout / backoff / poison policy; `None` runs retry-free (no
    /// timers, pending set, watchdog or per-read streams).
    pub(crate) retry: Option<RetryPolicy>,
    /// Deliberately broken recovery path, if any.
    pub(crate) mutation: Option<RecoveryMutation>,
    /// Traffic pattern.
    pub(crate) pattern: TrafficPattern,
    /// Bisection mirror per CPU (empty for every other pattern).
    pub(crate) partners: Vec<usize>,
    /// The memory site serving each CPU's memory, indexed by CPU number.
    pub(crate) homes: Vec<NodeId>,
    /// Fixed front-end overhead added to every end-to-end latency.
    pub(crate) front_overhead: SimDuration,
    /// Fixed directory lookup before the Zbox serves a request.
    pub(crate) directory_overhead: SimDuration,
    /// Whether the always-on invariant monitors are armed.
    pub(crate) monitored: bool,
}

/// A timer key: an attempt's deadline and its transaction tag.
type Deadline = (SimTime, u64);

/// One requester CPU's retry bookkeeping: its outstanding reads and the
/// deadline of every attempt it launched, plus the key of its one armed
/// wake-up.
///
/// An attempt is *live* while its read is pending and has not been retried
/// to a later deadline; only a live attempt's expiry does anything. A
/// read's deadlines never move earlier (a retry's is `now + backoff +
/// timeout`, and neither `now` nor the backoff ever shrinks), so an
/// attempt that is no longer live never becomes live again, and the
/// attempt-level timer question "is the read pending with `deadline <=
/// at`?" asked at the attempt's own key is exactly "is it live?". Dead
/// attempts stay in the queue until they reach its front or the queue
/// compacts, and no wake-up is ever armed for one; a wake-up armed for an
/// attempt that then completes still fires, finds nothing due, and
/// re-arms.
#[derive(Debug, Default)]
pub(crate) struct Requester {
    /// The CPU's outstanding reads.
    pub(crate) pending: PendingSet,
    /// Every queued attempt, ascending by key.
    deadlines: VecDeque<Deadline>,
    /// Key of the CPU's armed wake-up: at or before its earliest live
    /// deadline whenever it has one.
    armed: Option<Deadline>,
}

impl Requester {
    /// Whether attempt `(deadline, tag)` is live.
    fn is_live(pending: &PendingSet, (deadline, tag): Deadline) -> bool {
        pending.get(tag).is_some_and(|tx| tx.deadline <= deadline)
    }

    /// Queue the attempt of `tag` that times out at `deadline` (its read is
    /// already pending with that deadline), in key order: the insertion
    /// point is found scanning from the back, where a first attempt, whose
    /// deadline is the latest of any first attempt, nearly always lands. A
    /// retry's deadline carries a backoff, so a first attempt issued after
    /// it can time out before it. Returns the key to arm a wake-up at when
    /// this attempt is now the CPU's earliest.
    fn push(&mut self, deadline: SimTime, tag: u64) -> Option<Deadline> {
        let key = (deadline, tag);
        if self.deadlines.len() == self.deadlines.capacity() {
            // Drop dead attempts before the ring buffer grows, and leave
            // room for as many dead attempts as live ones, so compaction
            // costs O(1) per push.
            let pending = &self.pending;
            self.deadlines.retain(|&k| Self::is_live(pending, k));
            self.deadlines.reserve(self.deadlines.len());
        }
        let at = self.deadlines.iter().rposition(|&k| k <= key);
        self.deadlines.insert(at.map_or(0, |i| i + 1), key);
        // The armed wake-up is at or before every other live deadline, so
        // only a key before it needs one of its own.
        if self.armed.is_some_and(|armed| armed <= key) {
            return None;
        }
        self.armed = Some(key);
        Some(key)
    }

    /// The wake-up keyed `key` fired. `None` if it was superseded by an
    /// earlier one (it is spent and does nothing); otherwise whether the
    /// attempt `key` is due, in which case it leaves the queue. The armed
    /// key stays set, so attempts queued while the expiry is handled arm
    /// nothing; [`rearm`](Self::rearm) afterwards.
    fn fire(&mut self, key: Deadline) -> Option<bool> {
        if self.armed != Some(key) {
            return None;
        }
        self.drop_dead();
        let due = self.deadlines.front() == Some(&key);
        if due {
            self.deadlines.pop_front();
        }
        Some(due)
    }

    /// Replace the wake-up that just fired: returns the CPU's earliest
    /// live deadline to arm the next wake-up at, if it has one.
    fn rearm(&mut self) -> Option<Deadline> {
        self.drop_dead();
        self.armed = self.deadlines.front().copied();
        self.armed
    }

    /// Pop dead attempts off the front of the queue.
    fn drop_dead(&mut self) {
        while let Some(&key) = self.deadlines.front() {
            if Self::is_live(&self.pending, key) {
                break;
            }
            self.deadlines.pop_front();
        }
    }
}

/// The event that wakes `key`'s CPU at `key`, with its tiebreak: the
/// attempt's own timer key, so an expiry fires where a timer per attempt
/// would have.
fn wake_up((deadline, tag): Deadline) -> (SimTime, u64, Ev) {
    (deadline, tb_timer(tag), Ev::Timer { tag })
}

/// The pending sets' total occupancy, folded change by change as the run
/// makes them. Changes come in firing order, whose times never decrease,
/// and at one instant the fold counts every release before every insert,
/// as a `(time, ±1)` log sorted after the run would: neither the peak nor
/// an instant's depth depends on the order same-instant events fire in.
#[derive(Debug, Default)]
pub(crate) struct PendingDepth {
    /// Occupancy after every change so far.
    occupancy: i64,
    /// The largest occupancy at the end of any closed instant.
    peak: i64,
    /// The open instant: its time in picoseconds, its occupancy before its
    /// first change, and whether it released anything.
    open: Option<(u64, i64, bool)>,
}

impl PendingDepth {
    /// Fold a change of `delta` at `at_ps`, which is never earlier than the
    /// latest change. Returns the instant this change closes by opening a
    /// later one, as [`close`](Self::close) does.
    pub(crate) fn change(&mut self, at_ps: u64, delta: i64) -> Option<(u64, u64)> {
        let closed = match self.open {
            Some((open_ps, ..)) if open_ps == at_ps => None,
            _ => self.close(),
        };
        if let Some((closed_ps, _)) = closed {
            debug_assert!(
                closed_ps < at_ps,
                "pending-set change at {at_ps} ps after one at {closed_ps} ps"
            );
        }
        let before = self.occupancy;
        let open = self.open.get_or_insert((at_ps, before, false));
        open.2 |= delta < 0;
        self.occupancy += delta;
        closed
    }

    /// Close the open instant, if any, after which only a later change may
    /// come. Folds its final occupancy into the peak and returns `(time_ps,
    /// depth)`, where `depth` is the most the sorted log held at that
    /// instant: the final occupancy or, if the instant released anything,
    /// one below its starting occupancy (after its first release),
    /// whichever is more, and never below zero.
    pub(crate) fn close(&mut self) -> Option<(u64, u64)> {
        let (at_ps, before, released) = self.open.take()?;
        self.peak = self.peak.max(self.occupancy);
        let depth = if released {
            self.occupancy.max(before - 1)
        } else {
            self.occupancy
        };
        Some((at_ps, depth.max(0) as u64))
    }

    /// The largest occupancy at the end of any closed instant (zero before
    /// any).
    pub(crate) fn peak(&self) -> u64 {
        self.peak as u64
    }
}

/// The closed-loop campaign state.
pub(crate) struct CampaignWorker {
    /// The run's parameters.
    pub(crate) cfg: CampaignCfg,
    /// Every CPU endpoint, indexed by CPU number.
    pub(crate) cpus: Vec<NodeId>,
    /// The fabric: routing tables, links and queued packets.
    pub(crate) net: RegionNet<Carried>,
    /// Per-CPU RNG streams.
    pub(crate) rngs: Vec<DetRng>,
    /// Per-CPU issue counters.
    pub(crate) issued: Vec<u64>,
    /// Per-CPU pending sets and deadline queues, indexed by CPU number.
    pub(crate) requesters: Vec<Requester>,
    /// Reads abandoned with a named cause.
    pub(crate) poisoned: Vec<PoisonedTx>,
    /// Highest attempt count any transaction reached.
    pub(crate) max_attempts: u32,
    /// End-to-end latency of every completed read, recorded as it
    /// completes into the summary the run reports (which sorts its
    /// samples once, when it is finished).
    pub(crate) latency_samples: MeanP50P99,
    /// Time of every completion in firing order, so never decreasing, for
    /// the steady-state bandwidth.
    pub(crate) completions: Vec<SimTime>,
    /// The pending sets' total occupancy, folded as it changes.
    pub(crate) depth: PendingDepth,
    /// Timestamped monitor violations `(time_ps, monitor, detail)`: the
    /// run's only list, which the watchdog's hung-transaction escalation
    /// joins.
    pub(crate) violations: Vec<(u64, String, String)>,
    /// Time of the last delivery (request or response).
    pub(crate) last_delivery: SimTime,
    /// Time of the last event handled.
    pub(crate) last_event: SimTime,
    /// Sum of the end-to-end latencies of the reads completed (retry-free
    /// runs).
    pub(crate) total_latency: SimDuration,
    /// Reads completed (retry-free runs; a retrying run counts them in its
    /// pending set).
    pub(crate) completed: u64,
    /// The memory controller of each memory site, indexed by node id
    /// (`None` for nodes without memory).
    pub(crate) zboxes: Vec<Option<Zbox>>,
    /// Per-CPU: whether the node was ever drained (set when a drain
    /// strikes; exempts the CPU from window-refill and issue-quota
    /// checks).
    pub(crate) ever_drained: Vec<bool>,
    /// Latency attribution, present on collecting runs.
    pub(crate) breakdown: Option<BreakdownTable>,
    /// Windowed campaign-plane observability, present on observed runs.
    pub(crate) obs: Option<Box<ObsAcc>>,
    /// Packets of completed reads, which the CPUs' next requests are
    /// rebuilt in, so a read allocates nothing once the windows are
    /// primed. A request's response comes home in the request's own box,
    /// and the list grows only when a completion issues no next read, so
    /// it never outgrows the CPUs' windows. The allocations are what is
    /// kept, so the list holds boxes.
    #[allow(clippy::vec_box)]
    pub(crate) spare: Vec<Box<Packet<Carried>>>,
    /// Served legs of completed reads, which the next responses' legs are
    /// written into, so a collecting run allocates no leg once the windows
    /// are primed; like [`spare`](Self::spare), the list holds boxes.
    #[allow(clippy::vec_box)]
    pub(crate) spare_legs: Vec<Box<ServedLeg>>,
    /// The fault schedule, sorted by strike time.
    pub(crate) plan: Vec<FaultEvent>,
    /// Next unstruck plan entry.
    pub(crate) plan_idx: usize,
    /// The livelock detector; its window is also the watchdog barriers'
    /// pitch.
    pub(crate) dog: Watchdog,
    /// Next watchdog barrier on the fixed grid; `None` once that time
    /// would not fit in `u64` picoseconds.
    pub(crate) dog_next: Option<SimTime>,
    /// Whether watchdog barriers keep coming (a retrying run with plan
    /// remaining or any transaction outstanding).
    pub(crate) live: bool,
    /// Consecutive no-progress windows (monitored runs escalate at
    /// [`STUCK_WINDOW_LIMIT`]).
    pub(crate) consecutive_stuck: u32,
    /// Faults that actually struck, in strike order.
    pub(crate) faults_applied: Vec<FaultKind>,
    /// Livelock reports, in firing order.
    pub(crate) reports: Vec<LivelockReport>,
    /// Packets lost with failed wires.
    pub(crate) dropped: u64,
    /// Queued packets evicted from failing links and re-routed.
    pub(crate) rerouted: u64,
    /// The Fig. 24 sampler, on sampled runs.
    pub(crate) sampler: Option<Sampler>,
}

impl ShardWorker for CampaignWorker {
    type Event = Ev;

    fn handle(&mut self, at: SimTime, ev: Ev, out: &mut Outbox<Ev>) {
        self.last_event = at;
        match ev {
            Ev::Arrive { node, pkt } => match self.net.handle_arrive(at, node, pkt, out) {
                Arrival::Routed => {}
                Arrival::Delivered(pkt) => self.deliver(at, pkt, out),
                // The packet died with its wire: its requester reacts at
                // the instant it would have landed.
                Arrival::Lost(pkt) => self.retry_or_poison(at, pkt.tag, out),
            },
            Ev::LinkFree { link } => self.net.handle_link_free(at, link, out),
            Ev::Timer { tag } => {
                let cpu = (tag >> 32) as usize;
                let Some(due) = self.requesters[cpu].fire((at, tag)) else {
                    return; // superseded by an earlier wake-up
                };
                let pending = &self.requesters[cpu].pending;
                let overdue = due && pending.get(tag).is_some_and(|tx| tx.deadline <= at);
                // IgnoreTimeouts mutation: the expiry is dropped on the
                // floor, so lost transactions hang — which the
                // hung-transaction monitor must catch.
                if overdue && self.cfg.mutation != Some(RecoveryMutation::IgnoreTimeouts) {
                    self.retry_or_poison(at, tag, out);
                }
                if let Some(key) = self.requesters[cpu].rearm() {
                    self.arm(key, out);
                }
            }
            Ev::Inject { cpu } => self.top_up(at, cpu, out),
        }
    }

    fn next_barrier(&self) -> Option<SimTime> {
        let fault = self.plan.get(self.plan_idx).map(|e| e.at);
        let dog = self.dog_next.filter(|_| self.live);
        let sample = self.sampler.as_ref().and_then(|s| s.next_at);
        [fault, dog, sample].into_iter().flatten().min()
    }

    /// Strike the fault-plan events, watchdog tick and sample due at `at`.
    fn at_barrier(&mut self, at: SimTime, out: &mut Outbox<Ev>) -> ControlFlow<()> {
        let mut flow = ControlFlow::Continue(());
        while self.plan_idx < self.plan.len() && self.plan[self.plan_idx].at == at {
            let kind = self.plan[self.plan_idx].kind;
            self.plan_idx += 1;
            self.apply_fault(at, kind, out);
            self.faults_applied.push(kind);
        }
        if self.live {
            if self.dog_next == Some(at) {
                flow = self.dog_tick(at);
                self.dog_next = self.tick_after(at, 1);
            }
            let outstanding = self.pending_sets().any(|set| !set.is_empty());
            let strike = self.plan.get(self.plan_idx).map(|e| e.at);
            self.live = strike.is_some() || outstanding;
            if let (Some(strike), Some(tick)) = (strike, self.dog_next) {
                if tick < strike && !outstanding && out.is_idle() {
                    // Nothing is queued or outstanding until the strike, so
                    // every tick before it would check nothing and clear
                    // the stuck count: clear it and skip those ticks.
                    self.consecutive_stuck = 0;
                    let window = self.dog.window().as_ps();
                    let ticks = (strike.as_ps() - tick.as_ps()).div_ceil(window);
                    self.dog_next = self.tick_after(tick, ticks);
                }
            }
        }
        if self.sampler.as_ref().is_some_and(|s| s.next_at == Some(at)) {
            self.sample(at, out);
        }
        flow
    }
}

impl CampaignWorker {
    /// Consume a delivery: serve a request from the home Zbox, or close
    /// the transaction a response answers.
    fn deliver(&mut self, at: SimTime, mut pkt: Box<Packet<Carried>>, out: &mut Outbox<Ev>) {
        self.last_delivery = self.last_delivery.max(at);
        match pkt.class {
            MessageClass::Request => {
                let home = pkt.dst;
                if self.net.tables().is_drained(home) {
                    // The home's whole node drained: its memory is
                    // unreachable, so the request dies here and the
                    // requester's timeout poisons it.
                    return;
                }
                // Serve even if no longer pending (a poisoned or retried
                // duplicate); the dup response is discarded at the
                // requester.
                let tag = pkt.tag;
                let addr = Addr::new((tag.wrapping_mul(0x9E3779B97F4A7C15) >> 16) & 0x3FFF_FFC0);
                let served_from = at + self.cfg.directory_overhead;
                let zbox = self.zboxes[home.index()]
                    .as_mut()
                    .expect("a request's home is a memory site");
                let acc = zbox.access(served_from, addr, 64);
                if let Some(sink) = self.net.trace_mut() {
                    sink.complete(
                        "dram read",
                        "mem",
                        PID_MEMORY,
                        home.index() as u32,
                        served_from.as_ps(),
                        acc.completed.since(served_from).as_ps(),
                        &[("tag", tag), ("page_hit", u64::from(acc.page_hit))],
                    );
                }
                if let Some(o) = self.obs.as_deref_mut() {
                    o.note_zbox_read(
                        served_from.as_ps(),
                        home.index(),
                        acc.completed.since(acc.started).as_ps(),
                    );
                }
                // The leg rides the response only where a breakdown is
                // charged; a payload never changes what is scheduled.
                let leg = self.breakdown.is_some().then(|| {
                    let leg = ServedLeg {
                        request: pkt.acc,
                        zbox_queue_ps: acc.started.since(served_from).as_ps(),
                        dram_ps: acc.completed.since(acc.started).as_ps(),
                        page_hit: acc.page_hit,
                    };
                    match self.spare_legs.pop() {
                        Some(mut spare) => {
                            *spare = leg;
                            spare
                        }
                        None => Box::new(leg),
                    }
                });
                let uid = pkt.uid | 1;
                let carried = Carried {
                    issued: pkt.payload.issued,
                    leg,
                };
                pkt.reply(MessageClass::BlockResponse, 80, uid, acc.completed, carried);
                out.emit(
                    acc.completed,
                    tb_arrive(uid),
                    Ev::Arrive { node: home, pkt },
                );
            }
            MessageClass::BlockResponse => {
                let tag = pkt.tag;
                let cpu = (tag >> 32) as usize;
                let e2e = if self.cfg.retry.is_some() {
                    let Some(tx) = self.requesters[cpu].pending.complete(tag) else {
                        return; // duplicate response from a retry
                    };
                    self.note_pending(at, -1);
                    let e2e = at.since(tx.first_issued) + self.cfg.front_overhead;
                    self.latency_samples.record(e2e);
                    self.completions.push(at);
                    e2e
                } else {
                    // Retry-free: the one attempt's issue time rode the
                    // response home.
                    let e2e = at.since(pkt.payload.issued) + self.cfg.front_overhead;
                    self.total_latency += e2e;
                    self.completed += 1;
                    e2e
                };
                if let Some(o) = self.obs.as_deref_mut() {
                    o.note_completion(at.as_ps(), e2e.as_ps());
                }
                if let Some(bd) = self.breakdown.as_mut() {
                    charge_completion(
                        bd,
                        &pkt.acc,
                        pkt.payload.leg.as_deref(),
                        self.cfg.directory_overhead.as_ps(),
                        self.cfg.front_overhead.as_ps(),
                        e2e.as_ps(),
                    );
                }
                if let Some(leg) = pkt.payload.leg.take() {
                    self.spare_legs.push(leg);
                }
                self.spare.push(pkt);
                self.inject_next(at, cpu, out);
            }
            other => panic!("unexpected class {other:?}"),
        }
    }

    /// Refill `cpu`'s issue window to `outstanding`. Idempotent, so
    /// duplicate same-time refills are harmless.
    fn top_up(&mut self, at: SimTime, cpu: usize, out: &mut Outbox<Ev>) {
        for _ in self.inflight(cpu)..self.cfg.outstanding {
            if !self.inject_next(at, cpu, out) {
                break;
            }
        }
    }

    /// `cpu`'s tracked reads (none on a retry-free run, whose only
    /// refill is the time-zero prime).
    fn inflight(&self, cpu: usize) -> usize {
        self.requesters[cpu].pending.len()
    }

    /// Every CPU's pending set, in CPU order.
    pub(crate) fn pending_sets(&self) -> impl Iterator<Item = &PendingSet> {
        self.requesters.iter().map(|r| &r.pending)
    }

    /// Fold a pending-set change of `delta` reads at `at` into the depth.
    fn note_pending(&mut self, at: SimTime, delta: i64) {
        let closed = self.depth.change(at.as_ps(), delta);
        self.gauge_depth(closed);
    }

    /// Close the pending-set depth once the run is over and return its
    /// peak.
    pub(crate) fn finish_depth(&mut self) -> u64 {
        let closed = self.depth.close();
        self.gauge_depth(closed);
        self.depth.peak()
    }

    /// Record an instant the depth closed on an observed run.
    fn gauge_depth(&mut self, closed: Option<(u64, u64)>) {
        if let (Some((at_ps, depth)), Some(o)) = (closed, self.obs.as_deref_mut()) {
            o.note_pending_depth(at_ps, depth);
        }
    }

    /// Arm a wake-up at `key`.
    fn arm(&self, key: Deadline, out: &mut Outbox<Ev>) {
        let (at, tiebreak, ev) = wake_up(key);
        out.emit(at, tiebreak, ev);
    }

    /// Queue `cpu`'s attempt of `tag` that times out at `deadline`, arming
    /// a wake-up if it is now the CPU's earliest.
    fn queue_deadline(&mut self, cpu: usize, deadline: SimTime, tag: u64, out: &mut Outbox<Ev>) {
        if let Some(key) = self.requesters[cpu].push(deadline, tag) {
            self.arm(key, out);
        }
    }

    /// Issue `cpu`'s next read if it still has budget and has not drained.
    /// Returns whether a read was issued.
    fn inject_next(&mut self, at: SimTime, cpu: usize, out: &mut Outbox<Ev>) -> bool {
        if self.issued[cpu] < self.cfg.requests_per_cpu
            && !self.net.tables().is_drained(self.cpus[cpu])
        {
            self.inject(at, cpu, out);
            true
        } else {
            false
        }
    }

    /// The memory site `cpu`'s read number `seq` goes to.
    fn pick_home(&mut self, cpu: usize, seq: u64) -> NodeId {
        let target = match self.cfg.pattern {
            TrafficPattern::UniformRemote => {
                if self.cpus.len() == 1 {
                    0
                } else {
                    self.rngs[cpu].index_excluding(self.cpus.len(), cpu)
                }
            }
            TrafficPattern::HotSpot(hot) => hot,
            TrafficPattern::StripedHotSpot(hot, partner) => {
                if seq.is_multiple_of(2) {
                    hot
                } else {
                    partner
                }
            }
            TrafficPattern::Bisection => self.cfg.partners[cpu],
        };
        self.cfg.homes[target]
    }

    /// Issue one read from `cpu` and launch its request packet; a retrying
    /// run also tracks it and queues its deadline.
    fn inject(&mut self, at: SimTime, cpu: usize, out: &mut Outbox<Ev>) {
        let seq = self.issued[cpu];
        self.issued[cpu] += 1;
        let home = self.pick_home(cpu, seq);
        let tag = ((cpu as u64) << 32) | seq;
        if let Some(o) = self.obs.as_deref_mut() {
            o.note_injected(at.as_ps());
        }
        self.send_request(at, cpu, home, tag, 1, out);
        if let Some(retry) = self.cfg.retry {
            let deadline = at + retry.timeout;
            self.requesters[cpu].pending.insert(
                tag,
                PendingTx {
                    src: self.cpus[cpu].index(),
                    home: home.index(),
                    first_issued: at,
                    deadline,
                    attempts: 1,
                },
            );
            self.note_pending(at, 1);
            self.queue_deadline(cpu, deadline, tag, out);
        }
    }

    /// Launch attempt `attempt` of transaction `tag` into the fabric at
    /// `at`, in a spare packet when there is one. The packet uid is
    /// derived from tag and attempt (responses take `uid | 1`).
    fn send_request(
        &mut self,
        at: SimTime,
        cpu: usize,
        home: NodeId,
        tag: u64,
        attempt: u32,
        out: &mut Outbox<Ev>,
    ) {
        let uid = (tag << 16) | (u64::from(attempt) << 1);
        let src = self.cpus[cpu];
        let carried = Carried {
            issued: at,
            leg: None,
        };
        let pkt = match self.spare.pop() {
            Some(mut pkt) => {
                pkt.renew(src, home, MessageClass::Request, 16, tag, uid, at, carried);
                pkt
            }
            None => Packet::new(src, home, MessageClass::Request, 16, tag, uid, at, carried),
        };
        out.emit(at, tb_arrive(uid), Ev::Arrive { node: src, pkt });
    }

    /// A transaction timed out or its packet died with a wire: re-issue
    /// after bounded backoff, or poison it with a named cause past
    /// `max_retries` (or when either end has drained). A poisoned read
    /// frees its window slot, so the CPU issues its next read.
    fn retry_or_poison(&mut self, now: SimTime, tag: u64, out: &mut Outbox<Ev>) {
        let cpu = (tag >> 32) as usize;
        let Some(tx) = self.requesters[cpu].pending.get(tag).copied() else {
            return; // completed in the meantime (e.g. drop of a dup response)
        };
        let retry = self.cfg.retry.expect("only a retrying run tracks reads");
        // OffByOneRetry mutation: the poison threshold slips by one, so
        // transactions overrun the retry bound — which the retry-bound
        // monitor must catch on the extra attempt.
        let max_retries = if self.cfg.mutation == Some(RecoveryMutation::OffByOneRetry) {
            retry.max_retries + 1
        } else {
            retry.max_retries
        };
        let cause = if self.net.tables().is_drained(NodeId::new(tx.src)) {
            Some(format!("source cpu {} drained mid-flight", tx.src))
        } else if self.net.tables().is_drained(NodeId::new(tx.home)) {
            Some(format!("home node {} drained; memory unreachable", tx.home))
        } else if tx.attempts > max_retries {
            Some(format!(
                "exhausted {} retries (timeout {} per attempt)",
                retry.max_retries, retry.timeout
            ))
        } else {
            None
        };
        if let Some(cause) = cause {
            self.max_attempts = self.max_attempts.max(tx.attempts);
            if self.cfg.mutation == Some(RecoveryMutation::LeakPoison) {
                // Deliberately broken: the abandoned entry stays pending.
            } else {
                self.requesters[cpu]
                    .pending
                    .poison(tag)
                    .expect("checked above");
                self.note_pending(now, -1);
            }
            if self.cfg.monitored && self.requesters[cpu].pending.get(tag).is_some() {
                self.violations.push((
                    now.as_ps(),
                    "poison-leak".to_string(),
                    format!("tag {tag:#x} still pending after poisoning"),
                ));
            }
            self.poisoned.push(PoisonedTx {
                tag,
                cpu,
                home: tx.home,
                attempts: tx.attempts,
                cause,
            });
            if let Some(o) = self.obs.as_deref_mut() {
                o.note_poisoned(now.as_ps());
            }
            if self.cfg.mutation == Some(RecoveryMutation::SkipWindowRefill) {
                // Deliberately broken: the freed window slot is not refilled.
            } else {
                self.inject_next(now, cpu, out);
            }
            // Window integrity: a live, never-drained CPU with quota left
            // must run a full window after the slot is recycled.
            if self.cfg.monitored
                && !self.ever_drained[cpu]
                && !self.net.tables().is_drained(self.cpus[cpu])
                && self.issued[cpu] < self.cfg.requests_per_cpu
            {
                let inflight = self.inflight(cpu);
                if inflight < self.cfg.outstanding {
                    self.violations.push((
                        now.as_ps(),
                        "window-refill".to_string(),
                        format!(
                            "cpu {cpu} runs {inflight} of {} window slots after a poison",
                            self.cfg.outstanding
                        ),
                    ));
                }
            }
            return;
        }
        let backoff = retry.backoff(tx.attempts);
        let resend_at = now + backoff;
        let deadline = resend_at + retry.timeout;
        let attempts = self.requesters[cpu].pending.retry(tag, deadline);
        self.max_attempts = self.max_attempts.max(attempts);
        if let Some(o) = self.obs.as_deref_mut() {
            o.note_retry(now.as_ps());
        }
        if self.cfg.monitored && attempts > retry.max_retries + 1 {
            self.violations.push((
                now.as_ps(),
                "retry-bound".to_string(),
                format!(
                    "tag {tag:#x} reached attempt {attempts}; the policy allows {}",
                    retry.max_retries + 1
                ),
            ));
        }
        self.send_request(resend_at, cpu, NodeId::new(tx.home), tag, attempts, out);
        self.queue_deadline(cpu, deadline, tag, out);
    }
}

/// A leg's hop stages, in `HopBreakdown` field order.
fn hop_stages(h: &HopBreakdown) -> [u64; 5] {
    [
        h.queued_ps,
        h.router_ps,
        h.wire_ps,
        h.serialization_ps,
        h.congestion_ps,
    ]
}

/// Charge every attributable picosecond of a completed read's end-to-end
/// latency to a pipeline stage, by row of a table pre-charged with the
/// pipeline stages. On a healthy run the stages sum exactly
/// to `e2e_ps`; anything they cannot explain (retry backoff, time lost
/// with a dropped packet) lands in the `unattributed` stage, so the table
/// always balances.
///
/// The response-leg stages, the directory lookup that produced this
/// response, and the front end always lie on the completing path. The
/// carried request leg might not fit: retransmits reuse the transaction
/// tag, so a response racing a concurrent retry can carry stages that ran
/// *concurrently* with the completing trip. Charging those would
/// overshoot `e2e_ps` and break the exact-sum invariant, so a leg that no
/// longer fits inside the end-to-end budget is left unattributed instead.
///
/// Kept out of line: inlined into `handle`, it slowed the load test 1–2%.
#[inline(never)]
fn charge_completion(
    bd: &mut BreakdownTable,
    response: &HopBreakdown,
    leg: Option<&ServedLeg>,
    directory_ps: u64,
    front_ps: u64,
    e2e_ps: u64,
) {
    let mut known = 0u64;
    for (i, ps) in hop_stages(response).into_iter().enumerate() {
        bd.charge_at(RESPONSE_ROWS + i, ps);
        known += ps;
    }
    for (row, ps) in [(DIRECTORY_ROW, directory_ps), (FRONT_END_ROW, front_ps)] {
        bd.charge_at(row, ps);
        known += ps;
    }
    if let Some(leg) = leg {
        let leg_total = leg.request.total_ps() + leg.zbox_queue_ps + leg.dram_ps;
        if known + leg_total <= e2e_ps {
            for (i, ps) in hop_stages(&leg.request).into_iter().enumerate() {
                bd.charge_at(REQUEST_ROWS + i, ps);
            }
            bd.charge_at(ZBOX_QUEUE_ROW, leg.zbox_queue_ps);
            let dram = if leg.page_hit {
                DRAM_OPEN_ROW
            } else {
                DRAM_CLOSED_ROW
            };
            bd.charge_at(dram, leg.dram_ps);
            known += leg_total;
        }
    }
    bd.charge_at(UNATTRIBUTED_ROW, e2e_ps.saturating_sub(known));
    bd.complete_transaction(e2e_ps);
}

/// Fig. 24's strip chart: at each sampling barrier, the utilization of
/// every CPU's memory site and the mean East–West and North–South link
/// utilization over the interval since the previous sample.
pub(crate) struct Sampler {
    /// Sampling interval.
    pub(crate) every: SimDuration,
    /// The next sample instant (`None` once the run has gone idle).
    pub(crate) next_at: Option<SimTime>,
    /// Cumulative Zbox busy time per CPU's memory site at the last sample.
    pub(crate) prev_zbox_busy: Vec<SimDuration>,
    /// Cumulative mean East–West link busy time at the last sample.
    pub(crate) prev_ew_busy: SimDuration,
    /// Cumulative mean North–South link busy time at the last sample.
    pub(crate) prev_ns_busy: SimDuration,
    /// The samples taken so far.
    pub(crate) samples: Vec<UtilSample>,
}

impl CampaignWorker {
    /// The watchdog barrier `ticks` windows after `from`, or `None` when its
    /// time would not fit in `u64` picoseconds, which stops the ticking.
    fn tick_after(&self, from: SimTime, ticks: u64) -> Option<SimTime> {
        ticks
            .checked_mul(self.dog.window().as_ps())
            .and_then(|d| from.as_ps().checked_add(d))
            .map(SimTime::from_ps)
    }

    /// Take the sample due at barrier `at` — every event before it has
    /// fired, none at or after it has — or stop sampling once nothing is
    /// left to happen: the queue is empty and no link frees up at or
    /// after the barrier.
    fn sample(&mut self, at: SimTime, out: &Outbox<Ev>) {
        let s = self.sampler.as_mut().expect("a sample is due");
        let done = out.is_idle() && self.net.latest_release().is_none_or(|t| t < at);
        if done {
            s.next_at = None;
            return;
        }
        let window = s.every.as_ps() as f64;
        let share = |busy: SimDuration, prev: &mut SimDuration| {
            let delta = busy - (*prev).min(busy);
            *prev = busy;
            (delta.as_ps() as f64 / window).min(1.0)
        };
        let mut zbox = Vec::with_capacity(self.cfg.homes.len());
        for (&site, prev) in self.cfg.homes.iter().zip(&mut s.prev_zbox_busy) {
            let busy = self.zboxes[site.index()]
                .as_ref()
                .map_or(SimDuration::ZERO, Zbox::busy_time);
            zbox.push(share(busy, prev));
        }
        let links = self.net.links();
        let ew = links.mean_busy_where(|d| d.is_some_and(|d| d.is_horizontal()));
        let ns = links.mean_busy_where(|d| d.is_some_and(|d| !d.is_horizontal()));
        let east_west = share(ew, &mut s.prev_ew_busy);
        let north_south = share(ns, &mut s.prev_ns_busy);
        s.samples.push(UtilSample {
            at_ns: at.as_ns(),
            zbox,
            east_west,
            north_south,
        });
        s.next_at = Some(at + s.every);
    }

    /// Apply one fault strike at barrier `b`. The campaign checked its
    /// plan with the kernel's `validate_plan` before the first event, so
    /// the strike is legal by construction: a cut finds its link alive, a
    /// repair finds damage, a channel loss leaves the Zbox a channel.
    fn apply_fault(&mut self, b: SimTime, kind: FaultKind, out: &mut Outbox<Ev>) {
        match kind {
            FaultKind::LinkDown { a, b: other } => {
                // Queued packets re-route from the sending side over the
                // rebuilt tables; the ones on the wires are lost.
                let (na, nb) = (NodeId::new(a), NodeId::new(other));
                let (rerouted, dropped) = self.net.cut_link(b, na, nb, out);
                self.rerouted += rerouted;
                self.dropped += dropped;
            }
            FaultKind::LinkUp { a, b: other } => {
                // A repair heals the cut and the degradation alike.
                let (na, nb) = (NodeId::new(a), NodeId::new(other));
                let ids = self.net.tables().link_ids(na, nb);
                if !self.net.tables().is_alive(ids[0]) {
                    self.net.tables_mut().revive_link(na, nb);
                }
                for id in ids {
                    self.net.link_mut(id).set_degrade(1);
                }
            }
            FaultKind::LinkDegrade { a, b: other } => {
                for id in self
                    .net
                    .tables()
                    .link_ids(NodeId::new(a), NodeId::new(other))
                {
                    self.net.link_mut(id).set_degrade(DEGRADE_FACTOR);
                }
            }
            FaultKind::FlitCorrupt { from, to } => {
                let id = self
                    .net
                    .tables()
                    .directed_link(NodeId::new(from), NodeId::new(to));
                self.net.link_mut(id).arm_corruption();
            }
            FaultKind::RouterPause { node, ps } => {
                let until = b + SimDuration::from_ps(ps);
                self.net.pause_router(NodeId::new(node), until);
            }
            FaultKind::NodeDrain { node } => {
                self.net.tables_mut().set_drained(NodeId::new(node), true);
                if let Some(cpu) = self.cpus.iter().position(|c| c.index() == node) {
                    self.ever_drained[cpu] = true;
                }
            }
            FaultKind::NodeUndrain { node } => {
                self.net.tables_mut().set_drained(NodeId::new(node), false);
                if let Some(cpu) = self.cpus.iter().position(|c| c.index() == node) {
                    // The node resumes service: refill its issue window so
                    // it works toward its quota again.
                    out.emit(b, tb_inject(cpu), Ev::Inject { cpu });
                }
            }
            FaultKind::ChannelDown { node } => {
                self.zboxes[node]
                    .as_mut()
                    .expect("a channel fault strikes a memory site")
                    .fail_channel();
            }
            FaultKind::ChannelUp { node } => {
                self.zboxes[node]
                    .as_mut()
                    .expect("a channel fault strikes a memory site")
                    .restore_channel();
            }
        }
    }

    /// One watchdog tick at barrier `now`: fold the delivery progress into
    /// the detector, check every CPU's pending set, and (on monitored runs)
    /// escalate after [`STUCK_WINDOW_LIMIT`] consecutive silent windows so
    /// a broken recovery path cannot hang the harness.
    fn dog_tick(&mut self, now: SimTime) -> ControlFlow<()> {
        self.dog.note_progress(self.last_delivery);
        let sets: Vec<&PendingSet> = self.requesters.iter().map(|r| &r.pending).collect();
        match self.dog.check(now, &sets) {
            Some(report) => {
                self.reports.push(report);
                if self.cfg.monitored {
                    self.consecutive_stuck += 1;
                    if self.consecutive_stuck >= STUCK_WINDOW_LIMIT {
                        let mut tags: Vec<u64> = sets
                            .iter()
                            .flat_map(|set| set.iter().map(|(tag, _)| tag))
                            .collect();
                        tags.sort_unstable();
                        self.violations.push((
                            now.as_ps(),
                            "hung-transactions".to_string(),
                            format!(
                                "no delivery for {STUCK_WINDOW_LIMIT} watchdog windows; \
                                 stuck tags {tags:x?}"
                            ),
                        ));
                        return ControlFlow::Break(());
                    }
                }
            }
            None => self.consecutive_stuck = 0,
        }
        ControlFlow::Continue(())
    }
}

#[cfg(test)]
mod tests {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    use alphasim_telemetry::Timeline;
    use proptest::prelude::*;

    use super::*;

    /// The CPU under test; nonzero, so its tags differ from its index.
    const CPU: u64 = 5;

    /// Reads the CPU issues in all.
    const QUOTA: u64 = 48;

    /// A pending `(time, tiebreak, tag)` event of the harness.
    type Timed = Reverse<(SimTime, u64, u64)>;

    /// One CPU's [`Requester`] driven next to a reference that arms a
    /// timer per attempt and, at each timer's key, asks whether the read
    /// is pending with `deadline <= at`. Both share the CPU's pending set,
    /// and events of both fire together in `(time, tiebreak)` order.
    struct Harness {
        now: SimTime,
        seq: u64,
        policy: RetryPolicy,
        book: Requester,
        /// The book's outstanding wake-ups.
        wakes: BinaryHeap<Timed>,
        /// The reference's outstanding timers, one per attempt.
        timers: BinaryHeap<Timed>,
        /// What each live expiry does, consumed in turn: `0 | 1` retry,
        /// `2` poison and refill the window, `3` drop it (the
        /// ignore-timeouts mutation).
        reactions: Vec<u8>,
        reacted: usize,
    }

    impl Harness {
        fn new(reactions: Vec<u8>) -> Self {
            Harness {
                now: SimTime::ZERO,
                seq: 0,
                policy: RetryPolicy {
                    timeout: SimDuration::from_ps(20),
                    backoff_base: SimDuration::from_ps(1),
                    backoff_cap: SimDuration::from_ps(8),
                    max_retries: 6,
                },
                book: Requester::default(),
                wakes: BinaryHeap::new(),
                timers: BinaryHeap::new(),
                reactions,
                reacted: 0,
            }
        }

        /// Queue an attempt that the pending set already carries.
        fn queue(&mut self, deadline: SimTime, tag: u64) {
            if let Some(key) = self.book.push(deadline, tag) {
                let (at, tiebreak, _) = wake_up(key);
                self.wakes.push(Reverse((at, tiebreak, tag)));
            }
            self.timers.push(Reverse((deadline, tb_timer(tag), tag)));
        }

        fn issue(&mut self) {
            if self.seq == QUOTA {
                return;
            }
            let tag = (CPU << 32) | self.seq;
            self.seq += 1;
            let deadline = self.now + self.policy.timeout;
            let tx = PendingTx {
                src: CPU as usize,
                home: 0,
                first_issued: self.now,
                deadline,
                attempts: 1,
            };
            self.book.pending.insert(tag, tx);
            self.queue(deadline, tag);
        }

        fn retry(&mut self, tag: u64) {
            let attempts = self.book.pending.get(tag).expect("pending").attempts;
            let deadline = self.now + self.policy.backoff(attempts) + self.policy.timeout;
            self.book.pending.retry(tag, deadline);
            self.queue(deadline, tag);
        }

        /// Handle a live expiry of `tag` as the next reaction says; past
        /// the retry bound it is always poisoned.
        fn react(&mut self, tag: u64) {
            let mut reaction = self.reactions[self.reacted % self.reactions.len()];
            self.reacted += 1;
            if self.book.pending.get(tag).expect("pending").attempts > self.policy.max_retries {
                reaction = 2;
            }
            match reaction {
                0 | 1 => self.retry(tag),
                2 => {
                    self.book.pending.poison(tag);
                    self.issue();
                }
                _ => {}
            }
        }

        /// Fire every event before `until`, checking that the book
        /// delivers each live expiry the reference sees, at its key.
        fn run_until(&mut self, until: SimTime) -> Result<(), TestCaseError> {
            loop {
                let next = [self.wakes.peek(), self.timers.peek()]
                    .into_iter()
                    .flatten()
                    .map(|&Reverse((at, tiebreak, _))| (at, tiebreak))
                    .min();
                let Some(key) = next.filter(|&(at, _)| at < until) else {
                    return Ok(());
                };
                self.now = key.0;
                let at_key = |heap: &BinaryHeap<Timed>| {
                    heap.peek()
                        .is_some_and(|&Reverse((at, tb, _))| (at, tb) == key)
                };
                let overdue = |book: &Requester, tag| {
                    book.pending.get(tag).is_some_and(|tx| tx.deadline <= key.0)
                };
                let mut reference = None;
                if at_key(&self.timers) {
                    let Reverse((_, _, tag)) = self.timers.pop().expect("peeked");
                    reference = overdue(&self.book, tag).then_some(tag);
                }
                let mut book = None;
                let mut fired = false;
                if at_key(&self.wakes) {
                    let Reverse((at, _, tag)) = self.wakes.pop().expect("peeked");
                    if let Some(due) = self.book.fire((at, tag)) {
                        fired = true;
                        book = (due && overdue(&self.book, tag)).then_some(tag);
                    }
                }
                prop_assert_eq!(reference, book, "live expiry at {:?}", key);
                if let Some(tag) = book {
                    self.react(tag);
                }
                if fired {
                    if let Some(key) = self.book.rearm() {
                        let (at, tiebreak, _) = wake_up(key);
                        self.wakes.push(Reverse((at, tiebreak, key.1)));
                    }
                }
                self.check_armed()?;
            }
        }

        /// No wake-up is armed later than the earliest live deadline, and
        /// the armed one is still to fire.
        fn check_armed(&self) -> Result<(), TestCaseError> {
            let earliest = self
                .timers
                .iter()
                .map(|&Reverse((at, _, tag))| (at, tag))
                .filter(|&key| Requester::is_live(&self.book.pending, key))
                .min();
            if let Some(earliest) = earliest {
                let armed = self.book.armed;
                prop_assert!(
                    armed.is_some_and(|a| a <= earliest),
                    "armed {:?} after the earliest live deadline {:?}",
                    armed,
                    earliest
                );
                let outstanding = self
                    .wakes
                    .iter()
                    .any(|&Reverse((at, _, tag))| Some((at, tag)) == armed);
                prop_assert!(outstanding, "armed {:?} has no wake-up", armed);
            }
            Ok(())
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// One wake-up per CPU at its earliest live deadline delivers every
        /// live expiry at the `(time, tiebreak)` key, and in the order, of a
        /// timer per attempt, under random issues, completions, retries,
        /// poisons and expiries, with deadlines colliding often.
        #[test]
        fn deadline_queue_keeps_the_timer_per_attempt_expiry_order(
            steps in prop::collection::vec((0u8..8, 0u8..=255, 0u64..12), 1..160),
            reactions in prop::collection::vec(0u8..4, 1..12),
        ) {
            let mut h = Harness::new(reactions);
            for (op, pick, dt) in steps {
                let at = h.now + SimDuration::from_ps(dt);
                h.run_until(at)?;
                h.now = at;
                let tags: Vec<u64> = h.book.pending.iter().map(|(tag, _)| tag).collect();
                let picked = (!tags.is_empty()).then(|| tags[usize::from(pick) % tags.len()]);
                match (op, picked) {
                    (0..=2, _) if tags.len() < 8 => h.issue(),
                    (3 | 4, Some(tag)) => {
                        h.book.pending.complete(tag);
                    }
                    (5, Some(tag)) => h.retry(tag),
                    (6, Some(tag)) => {
                        h.book.pending.poison(tag);
                    }
                    _ => {}
                }
                h.check_armed()?;
            }
            h.run_until(SimTime::from_ps(u64::MAX))?;
            let stranded = h.book.deadlines.iter().find(|&&k| Requester::is_live(&h.book.pending, k));
            prop_assert!(stranded.is_none(), "live attempt {:?} never expired", stranded);
        }
    }

    /// The gauge the depth feeds on observed runs.
    const DEPTH: &str = "campaign.pending_depth";

    /// The reference for [`PendingDepth`]: log every change as `(time_ps,
    /// ±1)`, sort the log after the run (at one instant a release sorts
    /// before an insert), take the prefix-sum peak, and replay the log into
    /// the windowed gauge.
    fn sorted_log_fold(log: &[(u64, i8)], window_ps: u64) -> (u64, Timeline) {
        let mut deltas = log.to_vec();
        deltas.sort_unstable();
        let mut gauge = Timeline::new(window_ps);
        let (mut occupancy, mut peak) = (0i64, 0i64);
        for &(at_ps, d) in &deltas {
            occupancy += i64::from(d);
            peak = peak.max(occupancy);
            gauge.gauge_max(at_ps, DEPTH, occupancy.max(0) as u64);
        }
        (peak as u64, gauge)
    }

    /// [`PendingDepth`] fed the same log in firing order, as the worker
    /// feeds it.
    fn streamed_fold(log: &[(u64, i8)], window_ps: u64) -> (u64, Timeline) {
        let mut depth = PendingDepth::default();
        let mut gauge = Timeline::new(window_ps);
        for &(at_ps, d) in log {
            if let Some((at_ps, v)) = depth.change(at_ps, i64::from(d)) {
                gauge.gauge_max(at_ps, DEPTH, v);
            }
        }
        if let Some((at_ps, v)) = depth.close() {
            gauge.gauge_max(at_ps, DEPTH, v);
        }
        (depth.peak(), gauge)
    }

    #[test]
    fn depth_counts_an_instant_as_releases_before_inserts() {
        // Three reads out, then at one instant an insert fires before a
        // release: the sorted log dips to 2 and ends at 3, so the instant
        // reads 3 and the peak stays 3, not the 4 the firing order passed.
        let log = [(0, 1), (0, 1), (0, 1), (5, 1), (5, -1), (7, -1), (7, -1)];
        let (peak, gauge) = streamed_fold(&log, 4);
        assert_eq!(peak, 3);
        // Window 1 holds instant 5 (depth 3) and instant 7, whose two
        // releases read one below its starting 3.
        assert_eq!(gauge.gauge_series(DEPTH), [3, 3]);
        assert_eq!((peak, gauge), sorted_log_fold(&log, 4));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "pending-set change at 4 ps after one at 9 ps")]
    fn depth_refuses_a_change_back_in_time() {
        let mut depth = PendingDepth::default();
        depth.change(9, 1);
        depth.change(4, -1);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Folding pending-set changes as they fire gives the peak and the
        /// per-window `campaign.pending_depth` gauge of sorting the whole
        /// log after the run. Times never decrease and often repeat, so
        /// instants mix inserts and releases in any order; narrow windows
        /// put window edges between neighbouring instants; and some reads
        /// leak (poisoned but left pending), so their release never comes.
        #[test]
        fn streamed_depth_matches_the_sorted_log(
            steps in prop::collection::vec((0u64..3, 0u8..5), 1..300),
            window_ps in 1u64..24,
        ) {
            let (mut at_ps, mut releasable) = (0u64, 0u32);
            let mut log = Vec::new();
            for (dt, op) in steps {
                at_ps += dt;
                match op {
                    0 | 1 => {
                        releasable += 1;
                        log.push((at_ps, 1));
                    }
                    2 | 3 if releasable > 0 => {
                        releasable -= 1;
                        log.push((at_ps, -1));
                    }
                    4 if releasable > 0 => releasable -= 1, // leaked
                    _ => {}
                }
            }
            prop_assert_eq!(
                streamed_fold(&log, window_ps),
                sorted_log_fold(&log, window_ps)
            );
        }
    }
}
