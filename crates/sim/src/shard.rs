//! The epoch scheduler: the kernel's one discrete-event engine.
//!
//! [`EpochExecutor`] runs one simulation: one worker (a [`ShardWorker`])
//! that owns every piece of simulation state, and one event queue ordered
//! by `(time, tiebreak)`: a ring of 128 ps time-slot buckets spanning the
//! next 524 ns, in front of a 4-ary heap for everything else, popped in
//! exact key order whatever lands where. The queue lives in the worker's
//! [`Outbox`], so an event the worker emits goes straight into it: one
//! insert and one pop per event.
//!
//! The worker also names its own barrier times (fault strikes, watchdog
//! ticks, samples). The executor pops every event below the next barrier,
//! then strikes it, handing the worker its outbox with the clock at the
//! barrier; the span between two barriers is an epoch. A barrier is not an
//! event: it raises no high-water key and counts toward no event total.
//! Simultaneous events fire in the order of caller-assigned tiebreaks
//! derived from simulation identities (node, link, transaction), never
//! from insertion order, so the same seeds produce the same event order
//! and the same bytes.
//!
//! Those bytes rest on a hand-off the types enforce: a worker reaches its
//! queue only through [`Outbox::emit`], and only the executor builds an
//! outbox, so only the executor delivers an event or strikes a barrier.
//! [`Outbox`] shows, as `compile_fail` examples, the violations it rules
//! out; each example is the program below plus the lines it shows (the
//! per-field examples are a bare worker). The executor steps its worker
//! on the caller's thread, so a worker type carries no bound beyond its
//! event type; a shared `Arc<Mutex<…>>` compiles, and the determinism
//! lint (`verify --bin lint`) rejects it.
//!
//! ```
//! use std::ops::ControlFlow;
//!
//! use alphasim_kernel::shard::{EpochExecutor, Outbox, ShardWorker};
//! use alphasim_kernel::{SimDuration, SimTime};
//!
//! /// Counts its pings and passes each one on, 10 ns later, until its hops
//! /// run out; at its one barrier it notes the pings so far.
//! struct Pinger { pings: u64, barrier: Option<SimTime>, seen: u64 }
//!
//! impl ShardWorker for Pinger {
//!     type Event = u64;
//!     fn handle(&mut self, at: SimTime, hops: u64, out: &mut Outbox<u64>) {
//!         self.pings += 1;
//!         if hops > 0 {
//!             // A follow-up effect: through the outbox, into the queue.
//!             out.emit(at + SimDuration::from_ns(10.0), hops, hops - 1);
//!         }
//!     }
//!     fn next_barrier(&self) -> Option<SimTime> { self.barrier }
//!     fn at_barrier(&mut self, _: SimTime, _: &mut Outbox<u64>) -> ControlFlow<()> {
//!         self.seen = self.pings; // after the pings at 0 and 10 ns, before 20 ns
//!         self.barrier = None;
//!         ControlFlow::Continue(())
//!     }
//! }
//!
//! let barrier = Some(SimTime::from_ps(15_000));
//! let mut exec = EpochExecutor::new(Pinger { pings: 0, barrier, seen: 0 });
//! exec.seed(SimTime::ZERO, 0, 3);
//! exec.run_until_idle();
//! assert_eq!([exec.worker().pings, exec.worker().seen], [4, 2]);
//! ```
//!
//! The outbox also keeps a **high-water key**: the largest
//! `(time, tiebreak)` handled so far, raised before each
//! [`ShardWorker::handle`]. [`Outbox::has_passed`] compares a key against
//! it, which tells a worker whether an event it never scheduled *would
//! already have fired* — so a worker can leave out an event whose only
//! effect is to mark a state as over (the fabric's idle link releases) and
//! still read that state exactly. Why this is exact: keys are unique, and
//! a pending key pops only after every smaller key present in the queue.
//! So before an event keyed `K` fires, every handled key is below `K`;
//! after it fires, the high-water is at least `K`. A key emitted at the
//! current instant may sort *below* the key that emitted it (an arrival
//! emitted by a later-tiebreak event); it still fires after every key
//! handled so far, which is why the comparison is against the high-water
//! and not against the key being handled.

use std::ops::ControlFlow;

use alphasim_telemetry::global::EVENT_QUEUE_PEAK;

use crate::time::{SimDuration, SimTime};

/// Packed event key: `time << 64 | tiebreak` — one `u128` comparison orders
/// events by time, then tiebreak.
#[inline]
fn pack(at: SimTime, tiebreak: u64) -> u128 {
    (u128::from(at.as_ps()) << 64) | u128::from(tiebreak)
}

#[inline]
fn unpack_time(key: u128) -> SimTime {
    SimTime::from_ps((key >> 64) as u64)
}

/// One ring bucket spans `2^SLOT_SHIFT` = 128 ps.
const SLOT_SHIFT: u32 = 7;
/// Ring buckets: 4,096 × 128 ps is a 524 ns near-future window, which
/// holds all but a few hundredths of a percent of the events a torus or
/// switch hop schedules.
const BUCKETS: usize = 4096;
/// Occupancy-bitmap words, one bit per bucket.
const WORDS: usize = BUCKETS / 64;
/// Events one bucket holds before further keys for it go to the far heap,
/// so a same-instant burst never walks a long list.
const BUCKET_CAP: u8 = 32;
/// The end of a bucket's list or of the free list.
const NIL: u32 = u32::MAX;

/// The ring's time slot of a key: its time in 128 ps units.
#[inline]
fn slot_of(key: u128) -> u64 {
    (key >> (64 + SLOT_SHIFT)) as u64
}

/// A ring node: a key, its payload (`None` while on the free list) and the
/// next node of its bucket's list (or of the free list).
struct Node<E> {
    key: u128,
    ev: Option<E>,
    next: u32,
}

/// The executor's pending events: a calendar queue (Brown, CACM 1988) with
/// an exact fallback.
///
/// The **ring** files a key by time slot: bucket `slot % BUCKETS` of a
/// window of `BUCKETS` slots that starts at `base`. Each bucket is an
/// ascending singly linked list threaded through one node pool, and an
/// occupancy bitmap finds the first non-empty bucket. The **far heap** (a
/// 4-ary heap) holds every other key: past the window, for a full bucket,
/// or below `base` after a reseed. A pop takes the smaller of the ring's
/// front and the heap's top; keys are unique, so events come out in exact
/// `(time, tiebreak)` order wherever each one was filed, and the constants
/// above tune speed only.
///
/// `base` follows each popped key's slot, but only forward while the ring
/// holds events (every ring key then stays inside the window, so no two of
/// its slots share a bucket); once the ring is empty it may move anywhere.
struct EventQueue<E> {
    /// First node of each bucket's list, `NIL` when empty.
    heads: Box<[u32]>,
    /// Events in each bucket.
    counts: Box<[u8]>,
    /// Bit `b % 64` of word `b / 64` is set when bucket `b` is non-empty.
    occupied: [u64; WORDS],
    /// Slot of the window's first bucket.
    base: u64,
    /// Events in the ring.
    ring_len: usize,
    nodes: Vec<Node<E>>,
    /// Head of the free-node list, `NIL` when every node is in use.
    free: u32,
    far: Vec<(u128, E)>,
}

impl<E> EventQueue<E> {
    fn new() -> Self {
        EventQueue {
            heads: vec![NIL; BUCKETS].into_boxed_slice(),
            counts: vec![0; BUCKETS].into_boxed_slice(),
            occupied: [0; WORDS],
            base: 0,
            ring_len: 0,
            nodes: Vec::new(),
            free: NIL,
            far: Vec::new(),
        }
    }

    /// Pending events, ring and far heap together.
    fn len(&self) -> usize {
        self.ring_len + self.far.len()
    }

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// File `key` in its bucket's list, in order, when its slot is inside
    /// the window and the bucket has room; otherwise in the far heap.
    fn push(&mut self, key: u128, ev: E) {
        let slot = slot_of(key);
        let b = slot as usize % BUCKETS;
        if slot.wrapping_sub(self.base) >= BUCKETS as u64 || self.counts[b] >= BUCKET_CAP {
            heap_push(&mut self.far, key, ev);
            return;
        }
        let node = if self.free == NIL {
            self.nodes.push(Node {
                key,
                ev: Some(ev),
                next: NIL,
            });
            // Free nodes are reused first, so the pool never exceeds
            // `BUCKETS * BUCKET_CAP` nodes and every index fits a `u32`.
            (self.nodes.len() - 1) as u32
        } else {
            let n = self.free;
            let reused = &mut self.nodes[n as usize];
            self.free = reused.next;
            reused.key = key;
            reused.ev = Some(ev);
            n
        };
        let (mut prev, mut cur) = (NIL, self.heads[b]);
        while cur != NIL && self.nodes[cur as usize].key < key {
            prev = cur;
            cur = self.nodes[cur as usize].next;
        }
        self.nodes[node as usize].next = cur;
        if prev == NIL {
            self.heads[b] = node;
        } else {
            self.nodes[prev as usize].next = node;
        }
        self.counts[b] += 1;
        self.occupied[b / 64] |= 1 << (b % 64);
        self.ring_len += 1;
    }

    /// The non-empty bucket of the smallest slot: the first set bit at or
    /// after `base`'s bucket, wrapping once round the ring.
    fn front_bucket(&self) -> Option<usize> {
        if self.ring_len == 0 {
            return None;
        }
        let start = self.base as usize % BUCKETS;
        let first = start / 64;
        let high = self.occupied[first] & (!0u64 << (start % 64));
        if high != 0 {
            return Some(first * 64 + high.trailing_zeros() as usize);
        }
        // The last step revisits `first`, whose bits at or after `start`
        // are clear, so it finds the wrapped slots below `start`.
        (1..=WORDS)
            .map(|step| (first + step) % WORDS)
            .find(|&w| self.occupied[w] != 0)
            .map(|w| w * 64 + self.occupied[w].trailing_zeros() as usize)
    }

    /// The smallest pending key and where it is: `Some(b)` for the front
    /// of ring bucket `b`, `None` for the far heap's top.
    fn min(&self) -> Option<(u128, Option<usize>)> {
        let ring = self
            .front_bucket()
            .map(|b| (self.nodes[self.heads[b] as usize].key, Some(b)));
        let far = self.far.first().map(|e| (e.0, None));
        match (ring, far) {
            (Some(r), Some(f)) => Some(if r.0 < f.0 { r } else { f }),
            (r, f) => r.or(f),
        }
    }

    fn peek(&self) -> Option<u128> {
        self.min().map(|(key, _)| key)
    }

    /// Pop the smallest pending key if it is below `limit`.
    fn pop_below(&mut self, limit: u128) -> Option<(u128, E)> {
        let (key, bucket) = self.min().filter(|&(key, _)| key < limit)?;
        let ev = match bucket {
            Some(b) => {
                let n = self.heads[b];
                let node = &mut self.nodes[n as usize];
                let ev = node.ev.take().expect("a listed node holds its event");
                self.heads[b] = node.next;
                node.next = self.free;
                self.free = n;
                self.counts[b] -= 1;
                if self.heads[b] == NIL {
                    self.occupied[b / 64] &= !(1 << (b % 64));
                }
                self.ring_len -= 1;
                ev
            }
            None => heap_pop(&mut self.far).expect("peeked entry pops").1,
        };
        let slot = slot_of(key);
        if self.ring_len == 0 || slot > self.base {
            self.base = slot;
        }
        Some((key, ev))
    }
}

/// Push onto a 4-ary implicit min-heap (children of `i` at `4i+1..=4i+4`).
fn heap_push<E>(heap: &mut Vec<(u128, E)>, key: u128, payload: E) {
    heap.push((key, payload));
    let mut i = heap.len() - 1;
    while i > 0 {
        let parent = (i - 1) / 4;
        if key < heap[parent].0 {
            heap.swap(i, parent);
            i = parent;
        } else {
            break;
        }
    }
}

/// Pop the minimum off a 4-ary implicit min-heap.
fn heap_pop<E>(heap: &mut Vec<(u128, E)>) -> Option<(u128, E)> {
    if heap.is_empty() {
        return None;
    }
    let entry = heap.swap_remove(0);
    let len = heap.len();
    if len > 1 {
        let sifted = heap[0].0;
        let mut i = 0;
        loop {
            let first = 4 * i + 1;
            if first >= len {
                break;
            }
            let end = (first + 4).min(len);
            let mut best = first;
            let mut bk = heap[first].0;
            for (off, entry) in heap[first + 1..end].iter().enumerate() {
                if entry.0 < bk {
                    best = first + 1 + off;
                    bk = entry.0;
                }
            }
            if bk < sifted {
                heap.swap(i, best);
                i = best;
            } else {
                break;
            }
        }
    }
    Some(entry)
}

/// The deepest any executor's event queue has been (pending events, ring
/// and far heap together) since the last [`take_peak_event_depth`] call
/// (executors contribute when they hand back their worker or are
/// dropped). Backed by the telemetry registry's process-wide gauge
/// [`alphasim_telemetry::global::EVENT_QUEUE_PEAK`]; read by the
/// reproduction driver for `BENCH_sweep.json`.
pub fn peak_event_depth() -> u64 {
    EVENT_QUEUE_PEAK.get()
}

/// Read and reset the process-wide peak event-queue depth.
pub fn take_peak_event_depth() -> u64 {
    EVENT_QUEUE_PEAK.take()
}

/// A simulation's state, stepped by an [`EpochExecutor`].
///
/// The executor owns the worker; it handles its events in
/// `(time, tiebreak)` order and emits follow-up events through the
/// [`Outbox`]. Nothing else holds the worker while it runs, so it may
/// freely mutate itself without any synchronization.
///
/// A worker may also name barriers, instants at which the executor stops
/// between two events and strikes them (fault strikes, watchdog ticks,
/// samples). What a barrier needs, such as a fault plan's cursor, is the
/// worker's own state like the rest of the run. By default a worker names
/// none.
pub trait ShardWorker {
    /// The event type this simulation processes.
    type Event;

    /// Handle one event firing at `at`, emitting follow-ups via `out`.
    fn handle(&mut self, at: SimTime, ev: Self::Event, out: &mut Outbox<Self::Event>);

    /// The next barrier time, if any. Asked before each epoch; the time
    /// must not be in the executor's past, and once the barrier at `b` is
    /// struck the next one must lie strictly beyond `b`.
    fn next_barrier(&self) -> Option<SimTime> {
        None
    }

    /// Strike the barrier at `at`. Every event before `at` has fired and
    /// none at or after it has, and `out`'s clock reads `at`, so what the
    /// worker emits here fires from `at` on. Invoked even when the queue is
    /// empty: a quiescent simulation can still owe watchdog ticks.
    /// [`ControlFlow::Break`] ends the run with its events still pending.
    fn at_barrier(&mut self, _at: SimTime, _out: &mut Outbox<Self::Event>) -> ControlFlow<()> {
        ControlFlow::Continue(())
    }
}

/// Where a [`ShardWorker`] emits follow-up events.
///
/// The outbox owns the executor's event queue, so each emission is filed
/// there as it is emitted and may fire at any `at >= now`, within the
/// current epoch too. `tiebreak` orders simultaneous events and must be
/// derived from simulation identities (node, link, per-node emission
/// counters), never from insertion order.
///
/// Only the executor builds one: `Outbox` has no constructor and no
/// public field, so every effect passes [`emit`](Self::emit)'s check, and
/// a caller between runs, which holds no outbox, cannot call
/// [`ShardWorker::handle`] (or [`ShardWorker::at_barrier`]) to deliver an
/// event or strike a barrier itself (E0599, E0451):
///
/// ```compile_fail,E0599
/// # use std::ops::ControlFlow;
/// # use alphasim_kernel::{shard::*, SimDuration, SimTime};
/// # struct Pinger { pings: u64, barrier: Option<SimTime>, seen: u64 }
/// # impl ShardWorker for Pinger {
/// #     type Event = u64;
/// #     fn handle(&mut self, at: SimTime, hops: u64, out: &mut Outbox<u64>) {
/// #         self.pings += 1; if hops > 0 { out.emit(at + SimDuration::from_ns(10.0), hops, hops - 1) }
/// #     }
/// #     fn next_barrier(&self) -> Option<SimTime> { self.barrier }
/// #     fn at_barrier(&mut self, _: SimTime, _: &mut Outbox<u64>) -> ControlFlow<()> {
/// #         self.seen = self.pings; self.barrier = None; ControlFlow::Continue(())
/// #     }
/// # }
/// # let barrier = Some(SimTime::from_ps(15_000));
/// # let mut exec = EpochExecutor::new(Pinger { pings: 0, barrier, seen: 0 });
/// # exec.seed(SimTime::ZERO, 0, 3);
/// # exec.run_until_idle();
/// # assert_eq!([exec.worker().pings, exec.worker().seen], [4, 2]);
/// exec.worker_mut().handle(SimTime::ZERO, 1, &mut Outbox::new());
/// ```
///
/// ```compile_fail,E0451
/// # use std::ops::ControlFlow;
/// # use alphasim_kernel::{shard::*, SimDuration, SimTime};
/// # struct Pinger { pings: u64, barrier: Option<SimTime>, seen: u64 }
/// # impl ShardWorker for Pinger {
/// #     type Event = u64;
/// #     fn handle(&mut self, at: SimTime, hops: u64, out: &mut Outbox<u64>) {
/// #         self.pings += 1; if hops > 0 { out.emit(at + SimDuration::from_ns(10.0), hops, hops - 1) }
/// #     }
/// #     fn next_barrier(&self) -> Option<SimTime> { self.barrier }
/// #     fn at_barrier(&mut self, _: SimTime, _: &mut Outbox<u64>) -> ControlFlow<()> {
/// #         self.seen = self.pings; self.barrier = None; ControlFlow::Continue(())
/// #     }
/// # }
/// # let barrier = Some(SimTime::from_ps(15_000));
/// # let mut exec = EpochExecutor::new(Pinger { pings: 0, barrier, seen: 0 });
/// # exec.seed(SimTime::ZERO, 0, 3);
/// # exec.run_until_idle();
/// # assert_eq!([exec.worker().pings, exec.worker().seen], [4, 2]);
/// let mut forged = Outbox { now: SimTime::ZERO, high_water: None, queue: unreachable!() };
/// exec.worker_mut().handle(SimTime::ZERO, 1, &mut forged);
/// ```
///
/// Nor can a worker reach past [`emit`](Self::emit) through a field: each
/// block below is a bare worker whose `handle` reads one field of its
/// outbox (E0616), so making any one field public lets exactly that block
/// compile and fails its doctest. The `queue` field's type is private as
/// well, so its block compiles only once both are public: exactly when a
/// worker could reach the queue.
///
/// ```compile_fail,E0616
/// # use alphasim_kernel::{shard::*, SimTime};
/// # struct Peek;
/// # impl ShardWorker for Peek { type Event = u64; fn handle(&mut self, _: SimTime, _: u64, out: &mut Outbox<u64>) {
/// let _ = &out.now;
/// # } }
/// ```
///
/// ```compile_fail,E0616
/// # use alphasim_kernel::{shard::*, SimTime};
/// # struct Peek;
/// # impl ShardWorker for Peek { type Event = u64; fn handle(&mut self, _: SimTime, _: u64, out: &mut Outbox<u64>) {
/// let _ = &out.high_water;
/// # } }
/// ```
///
/// ```compile_fail,E0616
/// # use alphasim_kernel::{shard::*, SimTime};
/// # struct Peek;
/// # impl ShardWorker for Peek { type Event = u64; fn handle(&mut self, _: SimTime, _: u64, out: &mut Outbox<u64>) {
/// let _ = &out.queue;
/// # } }
/// ```
pub struct Outbox<E> {
    now: SimTime,
    /// The largest packed key handled so far (`None` before the first
    /// event).
    high_water: Option<u128>,
    /// The pending events: an emission is filed here directly.
    queue: EventQueue<E>,
}

impl<E> Outbox<E> {
    /// Whether an event keyed `(at, tiebreak)` would already have fired:
    /// whether the key sorts at or below the high-water key, the largest
    /// key handled so far (the event being handled included). See the
    /// module docs for why this is exact even for events emitted at the
    /// current instant.
    #[inline]
    pub fn has_passed(&self, at: SimTime, tiebreak: u64) -> bool {
        Some(pack(at, tiebreak)) <= self.high_water
    }

    /// Whether nothing is pending: no event is left to fire, so a worker's
    /// periodic barriers (samplers, watchdogs) can stop.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty()
    }

    /// Emit an event at absolute time `at`, straight into the queue.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    #[inline(always)]
    pub fn emit(&mut self, at: SimTime, tiebreak: u64, ev: E) {
        if at < self.now {
            emitted_into_the_past(at, self.now);
        }
        self.queue.push(pack(at, tiebreak), ev);
    }
}

#[cold]
#[inline(never)]
fn emitted_into_the_past(at: SimTime, now: SimTime) -> ! {
    panic!("event emitted into the past: {at} < {now}")
}

/// One epoch of one profiled run: the sim-time span the epoch covered and
/// the events the worker handled inside it. `processed` is a sim-time fact
/// (an event count), identical run to run; `wall_ns` is the optional
/// measured view and is never part of any byte-checked artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochSample {
    /// Earliest pending event time when the epoch began.
    pub start_ps: u64,
    /// The epoch's exclusive end: its barrier, or one picosecond past its
    /// last event when it ran to idle.
    pub end_ps: u64,
    /// Events handled this epoch.
    pub processed: u64,
    /// Wall-clock nanoseconds spent handling them, when wall profiling was
    /// requested: one entry, the one event queue's. A vector because
    /// gsbench's `campaign-par` workload sums it as one, until a benchmark
    /// change retires that workload (ROADMAP item 11.11).
    pub wall_ns: Option<Vec<u64>>,
}

/// The epoch profiler's output: one [`EpochSample`] per epoch that handled
/// an event, in execution order. Collected only when
/// [`EpochExecutor::enable_profile`] was called — the zero-cost-when-off
/// pattern every other instrumentation site follows.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EpochProfile {
    wall: bool,
    /// Per-epoch samples in execution order.
    pub samples: Vec<EpochSample>,
}

impl EpochProfile {
    /// Whether wall-clock spans were collected.
    pub fn wall_clock(&self) -> bool {
        self.wall
    }

    /// Number of profiled epochs.
    pub fn epochs(&self) -> usize {
        self.samples.len()
    }

    /// Events handled in each epoch, in execution order.
    pub fn events_per_epoch(&self) -> Vec<u64> {
        self.samples.iter().map(|s| s.processed).collect()
    }

    /// Event queues profiled: always 1. Kept, with
    /// [`busy_per_shard`](Self::busy_per_shard) and
    /// [`merged_per_shard`](Self::merged_per_shard), for gsbench's
    /// `campaign-par` workload until a benchmark change retires it
    /// (ROADMAP item 11.11).
    pub fn shard_count(&self) -> usize {
        1
    }

    /// Events handled across all epochs, as a one-element series.
    pub fn busy_per_shard(&self) -> Vec<u64> {
        vec![self.samples.iter().map(|s| s.processed).sum()]
    }

    /// Events merged in from other queues: none, as a one-element series.
    pub fn merged_per_shard(&self) -> Vec<u64> {
        vec![0]
    }
}

/// What an executor has done so far, as
/// [`EpochExecutor::run_until_idle`] reports it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochReport {
    /// Events handled.
    pub processed: u64,
    /// The most events pending in the queue at once.
    pub peak_queue_depth: usize,
}

/// The epoch scheduler: one worker and its event queue, stepped in epochs
/// that end at the worker's barriers.
///
/// Each epoch pops every event below the worker's next barrier in
/// `(time, tiebreak)` order and hands it to the worker; an emission lands
/// in the same queue and fires within the epoch if it is due.
/// [`run_until_idle`](Self::run_until_idle) strikes each barrier between
/// two epochs.
pub struct EpochExecutor<W: ShardWorker> {
    worker: W,
    outbox: Outbox<W::Event>,
    processed: u64,
    peak: PeakMark,
    profile: Option<EpochProfile>,
}

/// The most events the queue has held at once. Dropped with its executor
/// (or when the executor hands back its worker), it publishes the mark to
/// the process-wide [`EVENT_QUEUE_PEAK`] gauge (reporting only).
struct PeakMark(usize);

impl Drop for PeakMark {
    fn drop(&mut self) {
        if self.0 > 0 {
            EVENT_QUEUE_PEAK.record_max(self.0 as u64);
        }
    }
}

impl<W: ShardWorker> EpochExecutor<W> {
    /// An executor over `worker`, with an empty queue.
    pub fn new(worker: W) -> Self {
        EpochExecutor {
            worker,
            outbox: Outbox {
                now: SimTime::ZERO,
                high_water: None,
                queue: EventQueue::new(),
            },
            processed: 0,
            peak: PeakMark(0),
            profile: None,
        }
    }

    /// Start collecting an [`EpochProfile`]: one sample per epoch from now
    /// on. With `wall` set, epochs also measure their wall-clock
    /// nanoseconds (measurement only — sim results are unaffected either
    /// way, which the tests assert).
    pub fn enable_profile(&mut self, wall: bool) {
        self.profile = Some(EpochProfile {
            wall,
            samples: Vec::new(),
        });
    }

    /// Detach the collected profile, stopping further collection.
    pub fn take_profile(&mut self) -> Option<EpochProfile> {
        self.profile.take()
    }

    /// Shared access to the worker state (between runs).
    pub fn worker(&self) -> &W {
        &self.worker
    }

    /// Exclusive access to the worker state (between runs; a running
    /// executor is never observable from outside).
    pub fn worker_mut(&mut self) -> &mut W {
        &mut self.worker
    }

    /// Seed an initial event (before or between runs).
    pub fn seed(&mut self, at: SimTime, tiebreak: u64, ev: W::Event) {
        self.outbox.queue.push(pack(at, tiebreak), ev);
    }

    /// Return the high-water key to "nothing handled", so
    /// [`Outbox::has_passed`] answers for a fresh run. For a caller that
    /// reseeds an idle executor, possibly before its last event, once its
    /// worker holds no state keyed to the finished run.
    ///
    /// # Panics
    ///
    /// Panics if an event is still pending.
    pub fn forget_handled(&mut self) {
        assert!(
            self.outbox.queue.is_empty(),
            "forget_handled on an executor with events pending"
        );
        self.outbox.high_water = None;
    }

    /// Run one epoch: handle every pending event below `bound` (all of
    /// them when `None`), in key order, emissions included. With no event
    /// due there is no epoch.
    fn run_epoch(&mut self, bound: Option<SimTime>) {
        let limit = bound.map_or(u128::MAX, |b| pack(b, 0));
        let Some(first) = self.outbox.queue.peek().filter(|&key| key < limit) else {
            return;
        };
        let before = self.processed;
        // Wall-clock here is reporting-only (the epoch profiler's optional
        // overhead view) and never feeds back into simulation decisions; off,
        // it costs one untaken branch.
        let wall = self.profile.as_ref().is_some_and(|p| p.wall);
        let t0 = wall.then(std::time::Instant::now); // lint-allow: wall-clock
        let out = &mut self.outbox;
        while let Some((key, ev)) = out.queue.pop_below(limit) {
            let at = unpack_time(key);
            out.now = at;
            out.high_water = out.high_water.max(Some(key));
            self.worker.handle(at, ev, out);
            self.processed += 1;
            self.peak.0 = self.peak.0.max(out.queue.len());
        }
        if let Some(p) = self.profile.as_mut() {
            let end = bound.unwrap_or(self.outbox.now + SimDuration::from_ps(1));
            p.samples.push(EpochSample {
                start_ps: unpack_time(first).as_ps(),
                end_ps: end.as_ps(),
                processed: self.processed - before,
                wall_ns: t0
                    .map(|t0| vec![u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)]),
            });
        }
    }

    fn report(&self) -> EpochReport {
        EpochReport {
            processed: self.processed,
            peak_queue_depth: self.peak.0,
        }
    }

    /// Run epochs until the queue is empty and the worker names no
    /// barrier, or until a barrier returns [`ControlFlow::Break`].
    ///
    /// Each round asks the worker for its next barrier `b`, handles every
    /// pending event strictly before `b`, then strikes `b` with the
    /// outbox's clock at `b`: no event at or beyond a barrier fires before
    /// it is struck, and what the worker emits there fires from `b` on.
    /// With no barrier left, the round drains the queue and the run ends.
    /// A barrier is not an event: it raises no high-water key, and neither
    /// the report nor the profile counts it.
    ///
    /// # Panics
    ///
    /// Panics if a barrier fails to advance past the one struck before it:
    /// the run could otherwise spin forever.
    pub fn run_until_idle(&mut self) -> EpochReport {
        let mut struck: Option<SimTime> = None;
        loop {
            let barrier = self.worker.next_barrier();
            self.run_epoch(barrier);
            let Some(b) = barrier else { break };
            assert!(
                struck.is_none_or(|p| b > p),
                "barrier did not advance past {b}"
            );
            struck = Some(b);
            self.outbox.now = b;
            if self.worker.at_barrier(b, &mut self.outbox).is_break() {
                break;
            }
        }
        self.report()
    }

    /// Return the worker (and whatever results it accumulated).
    pub fn into_worker(self) -> W {
        self.worker
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy simulation for executor tests: messages hop around a ring of
    /// `nodes` nodes, one hop per `hop_ps`, and the worker logs every
    /// delivery. It strikes the barriers it is given, noting each with the
    /// deliveries logged before it, optionally sends one fresh message from
    /// the first, and breaks the run after a configured number of strikes.
    struct RingWorker {
        nodes: usize,
        hop_ps: u64,
        log: Vec<(u64, u64)>,
        /// Barriers still to strike, ascending, in picoseconds.
        barriers: Vec<u64>,
        /// `(barrier_ps, deliveries before it)` per strike.
        struck: Vec<(u64, usize)>,
        /// A message to deliver at the first barrier's instant, after
        /// `inject_hops` hops.
        inject_msg: Option<u64>,
        inject_hops: u32,
        stop_after: usize,
    }

    #[derive(Clone)]
    struct Hop {
        msg: u64,
        node: usize,
        remaining: u32,
    }

    impl ShardWorker for RingWorker {
        type Event = Hop;

        fn handle(&mut self, at: SimTime, ev: Hop, out: &mut Outbox<Hop>) {
            if ev.remaining == 0 {
                self.log.push((at.as_ps(), ev.msg));
                return;
            }
            // Identity-derived tiebreak: message id and hop countdown.
            let tb = ev.msg * 1_000 + u64::from(ev.remaining);
            out.emit(
                at + SimDuration::from_ps(self.hop_ps),
                tb,
                Hop {
                    msg: ev.msg,
                    node: (ev.node + 1) % self.nodes,
                    remaining: ev.remaining - 1,
                },
            );
        }

        fn next_barrier(&self) -> Option<SimTime> {
            self.barriers.first().map(|&b| SimTime::from_ps(b))
        }

        fn at_barrier(&mut self, at: SimTime, out: &mut Outbox<Hop>) -> ControlFlow<()> {
            self.barriers.remove(0);
            self.struck.push((at.as_ps(), self.log.len()));
            if let Some(msg) = self.inject_msg.take() {
                let hop = Hop {
                    msg,
                    node: 3,
                    remaining: self.inject_hops,
                };
                out.emit(at, msg, hop);
            }
            if self.struck.len() >= self.stop_after {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        }
    }

    fn ring(nodes: usize, hop_ps: u64) -> EpochExecutor<RingWorker> {
        EpochExecutor::new(RingWorker {
            nodes,
            hop_ps,
            log: Vec::new(),
            barriers: Vec::new(),
            struck: Vec::new(),
            inject_msg: None,
            inject_hops: 0,
            stop_after: usize::MAX,
        })
    }

    /// Seed `msgs` messages of 3–11 hops at staggered instants.
    fn seed_ring(exec: &mut EpochExecutor<RingWorker>, msgs: u64) {
        for msg in 0..msgs {
            exec.seed(
                SimTime::from_ps(msg % 7),
                msg,
                Hop {
                    msg,
                    node: (msg as usize * 5) % 16,
                    remaining: 3 + (msg % 9) as u32,
                },
            );
        }
    }

    /// Deliveries of a 48-message ring run, sorted, with the executor's
    /// profile (when `profile` asks for one) and report.
    fn run_ring(profile: Option<bool>) -> (Vec<(u64, u64)>, Option<EpochProfile>, EpochReport) {
        let mut exec = ring(16, 50);
        seed_ring(&mut exec, 48);
        if let Some(wall) = profile {
            exec.enable_profile(wall);
        }
        let report = exec.run_until_idle();
        let profile = exec.take_profile();
        let mut log = exec.into_worker().log;
        log.sort_unstable();
        assert_eq!(log.len(), 48, "every message delivered exactly once");
        (log, profile, report)
    }

    #[test]
    fn profiling_does_not_perturb_results_and_busy_sums_match_the_report() {
        let (plain, none, plain_report) = run_ring(None);
        assert!(none.is_none());
        let (profiled, profile, report) = run_ring(Some(false));
        assert_eq!(profiled, plain, "profiling must not change sim results");
        assert_eq!(report, plain_report);
        let profile = profile.expect("profile was enabled");
        // One run to idle is one epoch, spanning the first pending event
        // to just past the last one handled.
        assert_eq!(profile.epochs(), 1);
        assert_eq!(profile.events_per_epoch(), [report.processed]);
        assert_eq!(profile.busy_per_shard(), [report.processed]);
        assert_eq!(profile.shard_count(), 1);
        assert_eq!(profile.merged_per_shard(), [0]);
        let last = plain.iter().map(|&(at, _)| at).max().unwrap();
        let s = &profile.samples[0];
        assert_eq!((s.start_ps, s.end_ps), (0, last + 1));
        assert!(s.wall_ns.is_none(), "wall profiling was off");
        assert!(report.peak_queue_depth > 0);
    }

    #[test]
    fn wall_profiling_records_spans_without_perturbing_sim_time_fields() {
        let (results, walled, _) = run_ring(Some(true));
        let (reference_results, reference, _) = run_ring(Some(false));
        assert_eq!(results, reference_results);
        let (walled, reference) = (walled.unwrap(), reference.unwrap());
        assert!(walled.wall_clock());
        assert_eq!(walled.epochs(), reference.epochs());
        for (w, r) in walled.samples.iter().zip(&reference.samples) {
            assert_eq!(w.wall_ns.as_ref().map(Vec::len), Some(1));
            assert_eq!((w.start_ps, w.end_ps), (r.start_ps, r.end_ps));
            assert_eq!(w.processed, r.processed);
        }
    }

    #[test]
    fn barriers_end_epochs_and_their_emissions_fire_from_the_barrier_on() {
        let mut exec = ring(16, 50);
        seed_ring(&mut exec, 24);
        exec.enable_profile(false);
        let w = exec.worker_mut();
        w.barriers = vec![120, 250, 1_000_000];
        (w.inject_msg, w.inject_hops) = (Some(77), 4);
        exec.run_until_idle();
        let struck: Vec<u64> = exec.worker().struck.iter().map(|s| s.0).collect();
        assert_eq!(struck, [120, 250, 1_000_000], "all barriers struck");
        // Epochs end at the barriers: before 120, before 250, and the rest
        // (every event fires before the last barrier).
        let profile = exec.take_profile().unwrap();
        let ends: Vec<u64> = profile.samples.iter().map(|s| s.end_ps).collect();
        assert_eq!(ends, [120, 250, 1_000_000]);
        assert_eq!(profile.epochs(), 3);
        let mut log = exec.into_worker().log;
        log.sort_unstable();
        assert!(
            log.iter().any(|&(at, msg)| msg == 77 && at == 120 + 4 * 50),
            "the barrier's message delivered from its barrier on"
        );
        // Barriers only stop the run: without the injection, the
        // deliveries are those of a run without barriers.
        let mut plain = ring(16, 50);
        seed_ring(&mut plain, 24);
        plain.run_until_idle();
        let mut plain = plain.into_worker().log;
        plain.sort_unstable();
        log.retain(|&(_, msg)| msg != 77);
        assert_eq!(log, plain);
    }

    #[test]
    fn a_barrier_is_not_an_event() {
        // The same run with and without barriers that emit nothing: the
        // same events handled, the same queue peak, and a profile whose
        // epochs add up to the events alone.
        let run = |barriers: Vec<u64>| {
            let mut exec = ring(16, 50);
            seed_ring(&mut exec, 48);
            exec.enable_profile(false);
            exec.worker_mut().barriers = barriers;
            let report = exec.run_until_idle();
            let profile = exec.take_profile().unwrap();
            (report, profile.busy_per_shard(), exec.into_worker())
        };
        let (plain, plain_busy, _) = run(Vec::new());
        let (barred, busy, w) = run(vec![1, 120, 121, 400, 5_000]);
        assert_eq!(w.struck.len(), 5);
        assert_eq!(barred, plain);
        assert_eq!(busy, plain_busy);
        assert_eq!(busy, [plain.processed]);
    }

    #[test]
    fn a_barrier_strikes_between_the_events_before_it_and_those_at_it() {
        // Deliveries at 99, 100 (two) and 101 ps, a barrier at 100 ps that
        // sends a message delivered on the spot, keyed between the two.
        let mut exec = ring(4, 10);
        for (at, msg) in [(99, 1), (100, 2), (100, 200), (101, 3)] {
            let hop = Hop {
                msg,
                node: 0,
                remaining: 0,
            };
            exec.seed(SimTime::from_ps(at), msg, hop);
        }
        let w = exec.worker_mut();
        w.barriers = vec![100];
        w.inject_msg = Some(77);
        exec.run_until_idle();
        let w = exec.into_worker();
        assert_eq!(
            w.struck,
            [(100, 1)],
            "only the delivery at 99 ps came first"
        );
        assert_eq!(
            w.log,
            [(99, 1), (100, 2), (100, 77), (100, 200), (101, 3)],
            "the barrier's emission fires at its key among the events at 100 ps"
        );
    }

    #[test]
    fn a_break_at_a_barrier_halts_with_events_pending() {
        let mut exec = ring(4, 10);
        exec.seed(
            SimTime::from_ps(500),
            1,
            Hop {
                msg: 1,
                node: 0,
                remaining: 2,
            },
        );
        let w = exec.worker_mut();
        (w.barriers, w.stop_after) = (vec![100], 1);
        let report = exec.run_until_idle();
        assert_eq!(exec.worker().struck, [(100, 0)]);
        assert_eq!(
            report.processed, 0,
            "the break comes before the seeded event"
        );
        // The seeded message is still pending: the next run delivers it.
        assert_eq!(exec.run_until_idle().processed, 3);
        assert_eq!(exec.worker().log, [(520, 1)]);
    }

    #[test]
    #[should_panic(expected = "barrier did not advance past 0.100ns")]
    fn a_barrier_that_does_not_advance_panics() {
        let mut exec = ring(4, 10);
        exec.worker_mut().barriers = vec![100, 100];
        exec.run_until_idle();
    }

    /// Emits its follow-up 1 ps before the event it handles.
    struct Backwards;

    impl ShardWorker for Backwards {
        type Event = ();

        fn handle(&mut self, at: SimTime, (): (), out: &mut Outbox<()>) {
            out.emit(SimTime::from_ps(at.as_ps() - 1), 0, ());
        }
    }

    #[test]
    #[should_panic(expected = "event emitted into the past")]
    fn an_emission_into_the_past_panics() {
        let mut exec = EpochExecutor::new(Backwards);
        exec.seed(SimTime::from_ps(10), 0, ());
        exec.run_until_idle();
    }

    /// Fans one seed event out into 100 follow-ups.
    struct Fan;

    impl ShardWorker for Fan {
        type Event = u32;

        fn handle(&mut self, at: SimTime, ev: u32, out: &mut Outbox<u32>) {
            if ev == 0 {
                for i in 1..=100u32 {
                    out.emit(at + SimDuration::from_ps(u64::from(i)), u64::from(i), i);
                }
            }
        }
    }

    #[test]
    fn deepest_heap_reaches_the_process_gauge() {
        let mut exec = EpochExecutor::new(Fan);
        exec.seed(SimTime::ZERO, 0, 0);
        assert_eq!(exec.run_until_idle().peak_queue_depth, 100);
        let Fan = exec.into_worker();
        // Other tests only ever raise the gauge, so the floor is exact.
        assert!(peak_event_depth() >= 100, "gauge {}", peak_event_depth());
    }

    /// The event queue beside a sorted reference, for one random walk.
    struct QueueCheck {
        rng: crate::DetRng,
        queue: EventQueue<u64>,
        reference: std::collections::BTreeMap<u128, u64>,
        /// The last popped key, `0` before the first pop.
        last: u128,
        ids: u64,
    }

    impl QueueCheck {
        fn push(&mut self, at: u64, tiebreak: u64) {
            let key = pack(SimTime::from_ps(at), tiebreak);
            // Pending keys are unique, as the executor's are.
            if !self.reference.contains_key(&key) {
                self.ids += 1;
                self.queue.push(key, self.ids);
                self.reference.insert(key, self.ids);
            }
        }

        /// Pop below `limit` from both and require the same answer.
        fn pop(&mut self, limit: u128) -> bool {
            let want = match self.reference.first_key_value() {
                Some((&key, _)) if key < limit => self.reference.pop_first(),
                _ => None,
            };
            let got = self.queue.pop_below(limit);
            assert_eq!(got, want, "pop below {limit:#x} after {:#x}", self.last);
            if let Some((key, _)) = got {
                self.last = key;
            }
            got.is_some()
        }

        fn last_ps(&self) -> u64 {
            unpack_time(self.last).as_ps()
        }

        /// A time at or after the last popped key's: the same instant,
        /// inside one bucket, across the window or past it.
        fn ahead(&mut self) -> u64 {
            let span = [1, 128, 300_000, 600_000, 3_000_000][self.rng.index(5)];
            self.last_ps() + self.rng.bits() % span
        }

        fn step(&mut self) {
            let last_tb = self.last as u64;
            match self.rng.index(8) {
                0..=2 => {
                    let (at, tb) = (self.ahead(), self.rng.bits() % (1 << 20));
                    self.push(at, tb);
                }
                // A same-instant key below the last popped one.
                3 => {
                    let tb = self.rng.bits() % (last_tb + 1);
                    self.push(self.last_ps(), tb);
                }
                // A burst past the bucket cap, on one instant or in one bucket.
                4 => {
                    let at = self.ahead();
                    let spread = [1, 128][self.rng.index(2)];
                    for tb in 0..40 + self.rng.bits() % 40 {
                        let t = at + self.rng.bits() % spread;
                        self.push(t, (1 << 20) + tb);
                    }
                }
                5 | 6 => {
                    for _ in 0..1 + self.rng.index(8) {
                        self.pop(u128::MAX);
                    }
                    let limit = self.last + u128::from(self.rng.bits() % 2) * (1 << 70);
                    self.pop(limit);
                }
                // Drain, then reseed below the window's base (an open-loop
                // drain followed by a send at an earlier instant), with keys
                // near the window's far end and past it as well.
                _ => {
                    while self.pop(u128::MAX) {}
                    let last = self.last_ps();
                    for _ in 0..1 + self.rng.index(6) {
                        let at = last - self.rng.bits() % (last + 1);
                        let tb = self.rng.bits() % (1 << 20);
                        self.push(at, tb);
                    }
                    for span in [400_000, 524_000, 700_000] {
                        let at = last + span + self.rng.bits() % 100_000;
                        let tb = self.rng.bits() % (1 << 20);
                        self.push(at, tb);
                    }
                }
            }
            assert_eq!(self.queue.len(), self.reference.len());
            let front = self.reference.first_key_value().map(|(&k, _)| k);
            assert_eq!(self.queue.peek(), front);
        }
    }

    #[test]
    fn event_queue_matches_a_sorted_reference_in_every_regime() {
        for seed in 0..32 {
            let mut check = QueueCheck {
                rng: crate::DetRng::seeded(seed),
                queue: EventQueue::new(),
                reference: std::collections::BTreeMap::new(),
                last: 0,
                ids: 0,
            };
            for _ in 0..1_500 {
                check.step();
            }
            while check.pop(u128::MAX) {}
            assert!(check.queue.is_empty());
        }
    }
}
