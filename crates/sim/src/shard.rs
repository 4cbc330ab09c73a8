//! The conservative epoch scheduler: the kernel's one discrete-event engine.
//!
//! The GS1280 being reproduced is itself a partitioned machine: a 2-D torus
//! where every hop costs a known, fixed wire latency. This module exploits
//! the same structure *inside* one simulation run. [`EpochExecutor`] gives
//! each region ("shard") its own slice of simulation state (a
//! [`ShardWorker`]) and its own event queue ordered by `(time, tiebreak)`:
//! a ring of 128 ps time-slot buckets spanning the next 524 ns, in front
//! of a 4-ary heap for everything else, popped in exact key order whatever
//! lands where. Shards advance independently up to a **conservative
//! lookahead horizon** — the minimum latency of any inter-region link — and
//! exchange cross-region events at barrier epochs. The lookahead contract
//! is enforced at every emission: a cross-shard event closer than the
//! horizon panics, because it could land in a region's past. One shard with
//! an unbounded lookahead is an ordinary sequential simulation.
//!
//! Within an epoch the shards step inline, one after another, on the
//! caller's thread. Determinism across shard counts does not come from
//! that order: each shard is an **owned value** that shares no mutable
//! state with its peers or the guide, cross-region events carry
//! caller-assigned, shard-count-invariant tiebreak ids, and barrier
//! exchange applies outboxes in ascending region order. The same seeds
//! therefore produce the same event order — and the same bytes — at 1, 2,
//! or 4 shards.
//!
//! Those bytes rest on a state partition, which the types enforce: a
//! worker reaches other regions only through [`Outbox::emit`], and a guide
//! reaches a worker only through the [`EpochControl`] it is handed at a
//! barrier. [`Outbox`], [`ShardWorker`], [`EpochGuide`] and
//! [`EpochControl`] each show, as `compile_fail` examples, the violations
//! they rule out; each example is the program below plus the lines it
//! shows (`Outbox`'s per-field examples are a bare worker). A shared
//! `Arc<Mutex<…>>` is `Send + 'static`, so the compiler admits it; the
//! determinism lint (`verify --bin lint`) rejects it.
//!
//! ```
//! use alphasim_kernel::shard::{BarrierVerdict, EpochControl, EpochExecutor, EpochGuide};
//! use alphasim_kernel::shard::{Outbox, ShardWorker};
//! use alphasim_kernel::{SimDuration, SimTime};
//!
//! /// A region that counts its pings and bounces each one to the other region.
//! struct Region { pings: u64, credit: u64 }
//!
//! impl ShardWorker for Region {
//!     type Event = u64;
//!     fn handle(&mut self, at: SimTime, hops: u64, out: &mut Outbox<u64>) {
//!         self.pings += 1;
//!         if hops > 0 {
//!             // A cross-region effect: through the outbox, one lookahead ahead.
//!             out.emit(hops as usize % 2, at + SimDuration::from_ns(10.0), hops, hops - 1);
//!         }
//!     }
//! }
//!
//! /// Grants region 1 a credit at one barrier.
//! struct Guide(Option<SimTime>);
//!
//! impl EpochGuide<Region> for Guide {
//!     fn next_barrier(&mut self) -> Option<SimTime> { self.0 }
//!     fn at_barrier(&mut self, _: SimTime, ctl: &mut EpochControl<'_, Region>) -> BarrierVerdict {
//!         ctl.worker_mut(1).credit += 1; // a write into a worker, at a barrier
//!         self.0 = None;
//!         BarrierVerdict::Continue
//!     }
//! }
//!
//! let regions = (0..2).map(|_| Region { pings: 0, credit: 0 }).collect();
//! let mut exec = EpochExecutor::new(regions, SimDuration::from_ns(10.0));
//! exec.seed(0, SimTime::ZERO, 0, 3);
//! exec.run_guided(&mut Guide(Some(SimTime::from_ps(15_000))));
//! assert_eq!([exec.worker(0).pings, exec.worker(1).pings, exec.worker(1).credit], [2, 2, 1]);
//! ```
//!
//! Each shard also keeps a **high-water key**: the largest
//! `(time, tiebreak)` it has handled so far, raised before each
//! [`ShardWorker::handle`]. [`Outbox::has_passed`] compares a key against
//! it, which tells a worker whether an event it never scheduled *would
//! already have fired* — so a worker can leave out an event whose only
//! effect is to mark a state as over (the fabric's idle link releases) and
//! still read that state exactly. Why this is exact: keys are unique, and
//! a pending key pops only after every smaller key present in its queue.
//! So before an event keyed `K` fires, every handled key is below `K`;
//! after it fires, the high-water is at least `K`. A key emitted at the
//! current instant may sort *below* the key that emitted it (an arrival
//! emitted by a later-tiebreak event); it still fires after every key
//! handled so far, which is why the comparison is against the high-water
//! and not against the key being handled.

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

/// One shard's pending events: a calendar queue (Brown, CACM 1988) with an
/// exact fallback.
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

    /// Remove every pending event, in no particular order, leaving the
    /// ring empty.
    fn take_all(&mut self) -> Vec<(u128, E)> {
        let mut all = std::mem::take(&mut self.far);
        all.extend(
            self.nodes
                .drain(..)
                .filter_map(|n| n.ev.map(|ev| (n.key, ev))),
        );
        self.heads.fill(NIL);
        self.counts.fill(0);
        self.occupied = [0; WORDS];
        self.ring_len = 0;
        self.free = NIL;
        all
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

/// The deepest any epoch shard's event queue has been (pending events,
/// ring and far heap together) since the last
/// [`take_peak_event_depth`] call (executors contribute when they hand back
/// their workers or are dropped). Backed by the telemetry registry's
/// process-wide gauge [`alphasim_telemetry::global::EVENT_QUEUE_PEAK`];
/// read by the reproduction driver for `BENCH_sweep.json`.
pub fn peak_event_depth() -> u64 {
    EVENT_QUEUE_PEAK.get()
}

/// Read and reset the process-wide peak event-queue depth.
pub fn take_peak_event_depth() -> u64 {
    EVENT_QUEUE_PEAK.take()
}

/// One shard's slice of simulation state in a partitioned run.
///
/// The executor owns one worker per region; during an epoch each worker
/// handles its region's events in `(time, tiebreak)` order and emits
/// follow-up events through the [`Outbox`]. Each worker is owned by its
/// shard and never shared, so a worker may freely mutate itself without
/// any synchronization.
///
/// `Send + 'static` makes a worker own everything it reads. It cannot
/// borrow the guide's state (E0478), and it cannot share state through
/// `Rc<RefCell<…>>` (E0277). Guide-only state, such as a fault plan's
/// cursor, is simply not a field of the worker, so a worker method that
/// names it does not compile either (E0609).
///
/// ```compile_fail,E0478
/// # use alphasim_kernel::{shard::*, SimDuration, SimTime};
/// # struct Region { pings: u64, credit: u64 }
/// # impl ShardWorker for Region {
/// #     type Event = u64;
/// #     fn handle(&mut self, at: SimTime, hops: u64, out: &mut Outbox<u64>) {
/// #         self.pings += 1; if hops > 0 { out.emit(hops as usize % 2, at + SimDuration::from_ns(10.0), hops, hops - 1) }
/// #     }
/// # }
/// # struct Guide(Option<SimTime>);
/// # impl EpochGuide<Region> for Guide {
/// #     fn next_barrier(&mut self) -> Option<SimTime> { self.0 }
/// #     fn at_barrier(&mut self, _: SimTime, ctl: &mut EpochControl<'_, Region>) -> BarrierVerdict {
/// #         ctl.worker_mut(1).credit += 1; self.0 = None; BarrierVerdict::Continue
/// #     }
/// # }
/// # let mut exec = EpochExecutor::new((0..2).map(|_| Region { pings: 0, credit: 0 }).collect(), SimDuration::from_ns(10.0));
/// # exec.seed(0, SimTime::ZERO, 0, 3);
/// # exec.run_guided(&mut Guide(Some(SimTime::from_ps(15_000))));
/// # assert_eq!([exec.worker(0).pings, exec.worker(1).pings, exec.worker(1).credit], [2, 2, 1]);
/// struct Planned<'a> { plan: &'a [u64] } // borrows the guide's plan
/// impl<'a> ShardWorker for Planned<'a> {
///     type Event = u64;
///     fn handle(&mut self, _: SimTime, _: u64, _: &mut Outbox<u64>) {}
/// }
/// ```
///
/// ```compile_fail,E0277
/// # use alphasim_kernel::{shard::*, SimDuration, SimTime};
/// # struct Region { pings: u64, credit: u64 }
/// # impl ShardWorker for Region {
/// #     type Event = u64;
/// #     fn handle(&mut self, at: SimTime, hops: u64, out: &mut Outbox<u64>) {
/// #         self.pings += 1; if hops > 0 { out.emit(hops as usize % 2, at + SimDuration::from_ns(10.0), hops, hops - 1) }
/// #     }
/// # }
/// # struct Guide(Option<SimTime>);
/// # impl EpochGuide<Region> for Guide {
/// #     fn next_barrier(&mut self) -> Option<SimTime> { self.0 }
/// #     fn at_barrier(&mut self, _: SimTime, ctl: &mut EpochControl<'_, Region>) -> BarrierVerdict {
/// #         ctl.worker_mut(1).credit += 1; self.0 = None; BarrierVerdict::Continue
/// #     }
/// # }
/// # let mut exec = EpochExecutor::new((0..2).map(|_| Region { pings: 0, credit: 0 }).collect(), SimDuration::from_ns(10.0));
/// # exec.seed(0, SimTime::ZERO, 0, 3);
/// # exec.run_guided(&mut Guide(Some(SimTime::from_ps(15_000))));
/// # assert_eq!([exec.worker(0).pings, exec.worker(1).pings, exec.worker(1).credit], [2, 2, 1]);
/// struct Shared(std::rc::Rc<std::cell::RefCell<u64>>); // a count the guide also holds
/// impl ShardWorker for Shared {
///     type Event = u64;
///     fn handle(&mut self, _: SimTime, _: u64, _: &mut Outbox<u64>) { *self.0.borrow_mut() += 1 }
/// }
/// ```
pub trait ShardWorker: Send + 'static {
    /// The event type this simulation processes.
    type Event: Send + 'static;

    /// Handle one event firing at `at`, emitting follow-ups via `out`.
    fn handle(&mut self, at: SimTime, ev: Self::Event, out: &mut Outbox<Self::Event>);
}

/// Where a [`ShardWorker`] emits follow-up events.
///
/// Same-shard emissions may fire at any `at >= now` (they are merged into
/// the shard's own queue and can still fire within the current epoch).
/// Cross-shard emissions must respect the **lookahead contract**:
/// `at >= now + lookahead`, where the lookahead is the minimum inter-region
/// link latency. Violations panic immediately, naming the horizon — a
/// too-close event could land in a peer region's already-executed past.
///
/// `tiebreak` orders simultaneous events and must be *shard-count
/// invariant* (derived from simulation identities like node and per-node
/// emission counters, never from shard ids or arrival order), or runs at
/// different shard counts may diverge on ties.
///
/// Only the executor builds one: `Outbox` has no constructor and no
/// public field, so every cross-region effect passes [`emit`](Self::emit)'s
/// lookahead check, and a guide, which holds no outbox, cannot call
/// [`ShardWorker::handle`] to deliver an event itself (E0599, E0451):
///
/// ```compile_fail,E0599
/// # use alphasim_kernel::{shard::*, SimDuration, SimTime};
/// # struct Region { pings: u64, credit: u64 }
/// # impl ShardWorker for Region {
/// #     type Event = u64;
/// #     fn handle(&mut self, at: SimTime, hops: u64, out: &mut Outbox<u64>) {
/// #         self.pings += 1; if hops > 0 { out.emit(hops as usize % 2, at + SimDuration::from_ns(10.0), hops, hops - 1) }
/// #     }
/// # }
/// # struct Guide(Option<SimTime>);
/// # impl EpochGuide<Region> for Guide {
/// #     fn next_barrier(&mut self) -> Option<SimTime> { self.0 }
/// #     fn at_barrier(&mut self, _: SimTime, ctl: &mut EpochControl<'_, Region>) -> BarrierVerdict {
/// #         ctl.worker_mut(1).credit += 1; self.0 = None; BarrierVerdict::Continue
/// #     }
/// # }
/// # let mut exec = EpochExecutor::new((0..2).map(|_| Region { pings: 0, credit: 0 }).collect(), SimDuration::from_ns(10.0));
/// # exec.seed(0, SimTime::ZERO, 0, 3);
/// # exec.run_guided(&mut Guide(Some(SimTime::from_ps(15_000))));
/// # assert_eq!([exec.worker(0).pings, exec.worker(1).pings, exec.worker(1).credit], [2, 2, 1]);
/// exec.worker_mut(0).handle(SimTime::ZERO, 1, &mut Outbox::new(0));
/// ```
///
/// ```compile_fail,E0451
/// # use alphasim_kernel::{shard::*, SimDuration, SimTime};
/// # struct Region { pings: u64, credit: u64 }
/// # impl ShardWorker for Region {
/// #     type Event = u64;
/// #     fn handle(&mut self, at: SimTime, hops: u64, out: &mut Outbox<u64>) {
/// #         self.pings += 1; if hops > 0 { out.emit(hops as usize % 2, at + SimDuration::from_ns(10.0), hops, hops - 1) }
/// #     }
/// # }
/// # struct Guide(Option<SimTime>);
/// # impl EpochGuide<Region> for Guide {
/// #     fn next_barrier(&mut self) -> Option<SimTime> { self.0 }
/// #     fn at_barrier(&mut self, _: SimTime, ctl: &mut EpochControl<'_, Region>) -> BarrierVerdict {
/// #         ctl.worker_mut(1).credit += 1; self.0 = None; BarrierVerdict::Continue
/// #     }
/// # }
/// # let mut exec = EpochExecutor::new((0..2).map(|_| Region { pings: 0, credit: 0 }).collect(), SimDuration::from_ns(10.0));
/// # exec.seed(0, SimTime::ZERO, 0, 3);
/// # exec.run_guided(&mut Guide(Some(SimTime::from_ps(15_000))));
/// # assert_eq!([exec.worker(0).pings, exec.worker(1).pings, exec.worker(1).credit], [2, 2, 1]);
/// let mut forged = Outbox { home: 0, now: SimTime::ZERO, lookahead: SimDuration::ZERO,
///     high_water: None, local: Vec::new(), remote: Vec::new() };
/// exec.worker_mut(0).handle(SimTime::ZERO, 1, &mut forged);
/// ```
///
/// Nor can a worker reach past [`emit`](Self::emit) through a field: each
/// block below is a bare worker whose `handle` reads one field of its
/// outbox (E0616), so making any one field public lets exactly that block
/// compile and fails its doctest.
///
/// ```compile_fail,E0616
/// # use alphasim_kernel::{shard::*, SimTime};
/// # struct Peek;
/// # impl ShardWorker for Peek { type Event = u64; fn handle(&mut self, _: SimTime, _: u64, out: &mut Outbox<u64>) {
/// let _ = &out.home;
/// # } }
/// ```
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
/// let _ = &out.lookahead;
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
/// let _ = &out.local;
/// # } }
/// ```
///
/// ```compile_fail,E0616
/// # use alphasim_kernel::{shard::*, SimTime};
/// # struct Peek;
/// # impl ShardWorker for Peek { type Event = u64; fn handle(&mut self, _: SimTime, _: u64, out: &mut Outbox<u64>) {
/// let _ = &out.remote;
/// # } }
/// ```
pub struct Outbox<E> {
    home: usize,
    now: SimTime,
    lookahead: SimDuration,
    /// The largest packed key this shard has handled (`None` before the
    /// first event).
    high_water: Option<u128>,
    local: Vec<(SimTime, u64, E)>,
    remote: Vec<(usize, SimTime, u64, E)>,
}

impl<E> Outbox<E> {
    /// Whether an event keyed `(at, tiebreak)` would already have fired in
    /// this shard: whether the key sorts at or below the shard's
    /// high-water key, the largest key handled so far (the event being
    /// handled included). See the module docs for why this is exact even
    /// for events emitted at the current instant.
    #[inline]
    pub fn has_passed(&self, at: SimTime, tiebreak: u64) -> bool {
        Some(pack(at, tiebreak)) <= self.high_water
    }

    /// Emit an event for `shard` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past, or if `shard` is not the emitting
    /// shard and `at` is closer than the conservative lookahead horizon.
    pub fn emit(&mut self, shard: usize, at: SimTime, tiebreak: u64, ev: E) {
        assert!(
            at >= self.now,
            "event emitted into the past: {at} < {}",
            self.now
        );
        if shard == self.home {
            self.local.push((at, tiebreak, ev));
        } else {
            assert!(
                at >= self.now + self.lookahead,
                "lookahead violation: region {home} emitted an event for region \
                 {shard} at t={at}, inside the conservative horizon {horizon} \
                 (emitter's now={now} + lookahead {lookahead}); the event could \
                 land in region {shard}'s already-executed past",
                horizon = self.now + self.lookahead,
                lookahead = self.lookahead,
                now = self.now,
                home = self.home,
            );
            self.remote.push((shard, at, tiebreak, ev));
        }
    }
}

/// One shard: its event queue, its owned worker state, and its epoch
/// scratch.
struct ShardSlot<W: ShardWorker> {
    queue: EventQueue<W::Event>,
    worker: W,
    outbox: Outbox<W::Event>,
    /// Exclusive processing bound for the current epoch.
    bound: SimTime,
    processed: u64,
    peak: usize,
    /// Accumulate wall-clock busy time per slot (epoch profiler only).
    time_wall: bool,
    wall_ns: u64,
}

/// Process every local event strictly before the epoch bound, merging
/// same-shard emissions back into the queue as it goes.
fn run_slot<W: ShardWorker>(slot: &mut ShardSlot<W>) {
    // Wall-clock here is reporting-only (the epoch profiler's optional
    // overhead view) and never feeds back into simulation decisions; off,
    // it costs one untaken branch.
    let t0 = slot.time_wall.then(std::time::Instant::now); // lint-allow: wall-clock
    let limit = pack(slot.bound, 0);
    while let Some((key, ev)) = slot.queue.pop_below(limit) {
        let at = unpack_time(key);
        slot.outbox.now = at;
        slot.outbox.high_water = slot.outbox.high_water.max(Some(key));
        slot.worker.handle(at, ev, &mut slot.outbox);
        slot.processed += 1;
        while let Some((t, tb, e)) = slot.outbox.local.pop() {
            slot.queue.push(pack(t, tb), e);
        }
        if slot.queue.len() > slot.peak {
            slot.peak = slot.queue.len();
        }
    }
    if let Some(t0) = t0 {
        slot.wall_ns += u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
    }
}

/// One epoch of one profiled run: the sim-time span the epoch covered and
/// what every shard did inside it. `processed[s]` / `merged[s]` are
/// sim-time facts (event counts), identical run to run;
/// `wall_ns` is the optional measured view and is never part of any
/// byte-checked artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochSample {
    /// Global minimum pending event time when the epoch began.
    pub start_ps: u64,
    /// The epoch's exclusive processing bound.
    pub end_ps: u64,
    /// Events each shard processed this epoch, indexed by shard id.
    pub processed: Vec<u64>,
    /// Cross-region events merged *into* each shard at the barrier.
    pub merged: Vec<u64>,
    /// Wall-clock nanoseconds each shard spent busy, when wall profiling
    /// was requested.
    pub wall_ns: Option<Vec<u64>>,
}

/// The epoch profiler's output: one [`EpochSample`] per barrier
/// epoch, in execution order. Collected only when
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

    /// Number of shards profiled (0 before the first epoch).
    pub fn shard_count(&self) -> usize {
        self.samples.first().map_or(0, |s| s.processed.len())
    }

    /// Total events processed per shard across all epochs — the sim-time
    /// "busy" series behind the load-imbalance metric.
    pub fn busy_per_shard(&self) -> Vec<u64> {
        let mut busy = vec![0u64; self.shard_count()];
        for s in &self.samples {
            for (b, p) in busy.iter_mut().zip(&s.processed) {
                *b += p;
            }
        }
        busy
    }

    /// Total cross-region events merged into each shard at barriers.
    pub fn merged_per_shard(&self) -> Vec<u64> {
        let mut merged = vec![0u64; self.shard_count()];
        for s in &self.samples {
            for (m, v) in merged.iter_mut().zip(&s.merged) {
                *m += v;
            }
        }
        merged
    }

    /// The shard that processed the most events overall (lowest id on
    /// ties) — the critical shard every barrier waits for.
    pub fn critical_shard(&self) -> usize {
        let busy = self.busy_per_shard();
        let max = busy.iter().copied().max().unwrap_or(0);
        busy.iter().position(|&b| b == max).unwrap_or(0)
    }

    /// Load imbalance as `max / mean` of per-shard busy event counts, in
    /// integer milli-units (1000 = perfectly balanced; 0 when no events
    /// were processed). Integer math keeps it byte-stable in artifacts.
    pub fn imbalance_milli(&self) -> u64 {
        let busy = self.busy_per_shard();
        let total: u64 = busy.iter().sum();
        if total == 0 {
            return 0;
        }
        let max = busy.iter().copied().max().unwrap_or(0);
        max * 1000 * busy.len() as u64 / total
    }
}

/// What a guide decides at a barrier it requested (see [`EpochGuide`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BarrierVerdict {
    /// Keep running epochs (the guide may have injected new events).
    Continue,
    /// Stop the run immediately; pending events stay in their queues.
    Stop,
}

/// A coordinator hook driving [`EpochExecutor::run_guided`]: the guide
/// names global barrier times (fault strikes, watchdog ticks) at which the
/// executor stops every shard, hands the guide exclusive access to all
/// worker state through an [`EpochControl`], and only then resumes.
///
/// The executor guarantees that when [`at_barrier`](Self::at_barrier) runs
/// for time `b`, every event strictly before `b` has been processed and no
/// event at or after `b` has — so barrier mutations apply before any event
/// at exactly `b`, in every shard, at every shard count.
///
/// That [`EpochControl`] is a guide's only way into a worker:
/// [`run_guided`](EpochExecutor::run_guided) holds the executor's `&mut`
/// for the whole run, so a guide that keeps its own, to write a worker
/// between barriers, cannot be passed in (E0499):
///
/// ```compile_fail,E0499
/// # use alphasim_kernel::{shard::*, SimDuration, SimTime};
/// # struct Region { pings: u64, credit: u64 }
/// # impl ShardWorker for Region {
/// #     type Event = u64;
/// #     fn handle(&mut self, at: SimTime, hops: u64, out: &mut Outbox<u64>) {
/// #         self.pings += 1; if hops > 0 { out.emit(hops as usize % 2, at + SimDuration::from_ns(10.0), hops, hops - 1) }
/// #     }
/// # }
/// # struct Guide(Option<SimTime>);
/// # impl EpochGuide<Region> for Guide {
/// #     fn next_barrier(&mut self) -> Option<SimTime> { self.0 }
/// #     fn at_barrier(&mut self, _: SimTime, ctl: &mut EpochControl<'_, Region>) -> BarrierVerdict {
/// #         ctl.worker_mut(1).credit += 1; self.0 = None; BarrierVerdict::Continue
/// #     }
/// # }
/// # let mut exec = EpochExecutor::new((0..2).map(|_| Region { pings: 0, credit: 0 }).collect(), SimDuration::from_ns(10.0));
/// # exec.seed(0, SimTime::ZERO, 0, 3);
/// # exec.run_guided(&mut Guide(Some(SimTime::from_ps(15_000))));
/// # assert_eq!([exec.worker(0).pings, exec.worker(1).pings, exec.worker(1).credit], [2, 2, 1]);
/// struct Reacher<'e>(&'e mut EpochExecutor<Region>);
/// impl EpochGuide<Region> for Reacher<'_> {
///     fn next_barrier(&mut self) -> Option<SimTime> { None }
///     fn at_barrier(&mut self, _: SimTime, _: &mut EpochControl<'_, Region>) -> BarrierVerdict {
///         self.0.worker_mut(0).credit += 1; // a write around the control
///         BarrierVerdict::Continue
///     }
/// }
/// let mut reacher = Reacher(&mut exec);
/// exec.run_guided(&mut reacher);
/// ```
pub trait EpochGuide<W: ShardWorker> {
    /// The next barrier time, if any. Called before each epoch; the
    /// returned time must not be in the executor's past, and after
    /// [`at_barrier`](Self::at_barrier) for time `b` it must advance
    /// strictly beyond `b`.
    fn next_barrier(&mut self) -> Option<SimTime>;

    /// Strike the barrier at `at`: mutate workers, inject or extract
    /// events, adjust the lookahead. Invoked even when every queue is empty
    /// — a quiescent simulation can still owe watchdog ticks.
    fn at_barrier(&mut self, at: SimTime, ctl: &mut EpochControl<'_, W>) -> BarrierVerdict;
}

/// The guide's window into a stopped executor: exclusive access to every
/// worker and event queue while all shards sit at a barrier.
///
/// A guide gets one only as [`EpochGuide::at_barrier`]'s argument, and it
/// borrows the stopped executor, so it cannot outlive the barrier: neither
/// a worker nor a later epoch can hold it. A guide that tries to keep it
/// does not compile ("lifetime may not live long enough"):
///
/// ```compile_fail
/// # use alphasim_kernel::{shard::*, SimDuration, SimTime};
/// # struct Region { pings: u64, credit: u64 }
/// # impl ShardWorker for Region {
/// #     type Event = u64;
/// #     fn handle(&mut self, at: SimTime, hops: u64, out: &mut Outbox<u64>) {
/// #         self.pings += 1; if hops > 0 { out.emit(hops as usize % 2, at + SimDuration::from_ns(10.0), hops, hops - 1) }
/// #     }
/// # }
/// # struct Guide(Option<SimTime>);
/// # impl EpochGuide<Region> for Guide {
/// #     fn next_barrier(&mut self) -> Option<SimTime> { self.0 }
/// #     fn at_barrier(&mut self, _: SimTime, ctl: &mut EpochControl<'_, Region>) -> BarrierVerdict {
/// #         ctl.worker_mut(1).credit += 1; self.0 = None; BarrierVerdict::Continue
/// #     }
/// # }
/// # let mut exec = EpochExecutor::new((0..2).map(|_| Region { pings: 0, credit: 0 }).collect(), SimDuration::from_ns(10.0));
/// # exec.seed(0, SimTime::ZERO, 0, 3);
/// # exec.run_guided(&mut Guide(Some(SimTime::from_ps(15_000))));
/// # assert_eq!([exec.worker(0).pings, exec.worker(1).pings, exec.worker(1).credit], [2, 2, 1]);
/// struct Keeper(Option<&'static mut EpochControl<'static, Region>>);
/// impl EpochGuide<Region> for Keeper {
///     fn next_barrier(&mut self) -> Option<SimTime> { None }
///     fn at_barrier(&mut self, _: SimTime, ctl: &mut EpochControl<'_, Region>) -> BarrierVerdict {
///         self.0 = Some(ctl); // kept past the barrier
///         BarrierVerdict::Continue
///     }
/// }
/// ```
pub struct EpochControl<'a, W: ShardWorker> {
    slots: &'a mut Vec<ShardSlot<W>>,
    lookahead: &'a mut SimDuration,
    now: SimTime,
}

impl<W: ShardWorker> EpochControl<'_, W> {
    /// The barrier time being struck.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of region shards.
    pub fn shard_count(&self) -> usize {
        self.slots.len()
    }

    /// Shared access to `shard`'s worker state.
    pub fn worker(&self, shard: usize) -> &W {
        &self.slots[shard].worker
    }

    /// Exclusive access to `shard`'s worker state.
    pub fn worker_mut(&mut self, shard: usize) -> &mut W {
        &mut self.slots[shard].worker
    }

    /// Schedule `ev` on `shard` at `at`. Barrier injections bypass the
    /// lookahead contract: every shard is stopped at the barrier, so
    /// nothing can land in an already-executed past — only `at >= now`
    /// (the barrier time) is required.
    ///
    /// # Panics
    ///
    /// Panics if `at` is before the barrier time.
    pub fn inject(&mut self, shard: usize, at: SimTime, tiebreak: u64, ev: W::Event) {
        assert!(
            at >= self.now,
            "barrier injection into the past: {at} < barrier {now}",
            now = self.now
        );
        self.slots[shard].queue.push(pack(at, tiebreak), ev);
    }

    /// Replace the conservative lookahead for subsequent epochs — e.g.
    /// after a fault kills or restores the fastest cross-region link.
    ///
    /// # Panics
    ///
    /// Panics on a zero horizon (it cannot make progress).
    pub fn set_lookahead(&mut self, lookahead: SimDuration) {
        assert!(
            lookahead > SimDuration::ZERO,
            "conservative lookahead must be positive"
        );
        *self.lookahead = lookahead;
    }

    /// The conservative lookahead currently in force.
    pub fn lookahead(&self) -> SimDuration {
        *self.lookahead
    }

    /// Whether every shard's queue is empty: nothing is left to fire, so a
    /// guide's periodic barriers (samplers, watchdogs) can stop.
    pub fn is_idle(&self) -> bool {
        self.slots.iter().all(|s| s.queue.is_empty())
    }

    /// Remove every pending event on `shard` matching `pred`, returning
    /// the matches as `(time, tiebreak, event)` in ascending key order.
    /// Non-matching events keep their keys. Used to condemn in-flight
    /// work when a barrier fault invalidates it (e.g. a message mid-hop on
    /// a link that just died).
    pub fn extract_events<F>(&mut self, shard: usize, mut pred: F) -> Vec<(SimTime, u64, W::Event)>
    where
        F: FnMut(SimTime, &W::Event) -> bool,
    {
        let queue = &mut self.slots[shard].queue;
        let mut taken = Vec::new();
        for (key, ev) in queue.take_all() {
            if pred(unpack_time(key), &ev) {
                taken.push((key, ev));
            } else {
                queue.push(key, ev);
            }
        }
        taken.sort_unstable_by_key(|&(key, _)| key);
        taken
            .into_iter()
            .map(|(key, ev)| (unpack_time(key), key as u64, ev))
            .collect()
    }
}

/// What one [`EpochExecutor::run_until_idle`] did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochReport {
    /// Barrier epochs executed.
    pub epochs: u64,
    /// Events processed per shard, indexed by shard id.
    pub processed: Vec<u64>,
    /// Per-shard event-queue high-water marks: the most events pending in
    /// a shard's queue at once.
    pub shard_peaks: Vec<usize>,
}

/// The conservative epoch scheduler: per-region workers advancing in
/// lookahead-bounded epochs, exchanging cross-region events at barriers.
///
/// Each epoch the coordinator computes the global minimum next event time
/// `t` and sets every shard's bound to `t + lookahead`; shards then process
/// their local events below the bound, one after another on the caller's
/// thread, and the barrier routes cross-shard emissions into their
/// destination queues in ascending source-shard order. Safety is the
/// emission-time assertion in [`Outbox::emit`]: any event a shard emits
/// for a peer fires at or after every bound the peer could have run to, so
/// no shard ever receives an event in its past.
///
/// The order in which shards step within an epoch cannot change a result:
/// each shard's epoch is a pure function of its owned slot, and the
/// barrier merge order is fixed.
pub struct EpochExecutor<W: ShardWorker> {
    slots: Vec<ShardSlot<W>>,
    lookahead: SimDuration,
    epochs: u64,
    profile: Option<EpochProfile>,
}

impl<W: ShardWorker> EpochExecutor<W> {
    /// An executor over one worker per region, with the given conservative
    /// `lookahead` (must be positive — a zero horizon cannot make
    /// progress).
    pub fn new(workers: Vec<W>, lookahead: SimDuration) -> Self {
        assert!(!workers.is_empty(), "need at least one shard");
        assert!(
            lookahead > SimDuration::ZERO,
            "conservative lookahead must be positive"
        );
        let slots: Vec<ShardSlot<W>> = workers
            .into_iter()
            .enumerate()
            .map(|(i, worker)| ShardSlot {
                queue: EventQueue::new(),
                worker,
                outbox: Outbox {
                    home: i,
                    now: SimTime::ZERO,
                    lookahead,
                    high_water: None,
                    local: Vec::new(),
                    remote: Vec::new(),
                },
                bound: SimTime::ZERO,
                processed: 0,
                peak: 0,
                time_wall: false,
                wall_ns: 0,
            })
            .collect();
        EpochExecutor {
            slots,
            lookahead,
            epochs: 0,
            profile: None,
        }
    }

    /// Start collecting an [`EpochProfile`]: one sample per barrier epoch
    /// from now on. With `wall` set, shards also accumulate wall-clock busy
    /// nanoseconds (measurement only — sim results are unaffected either
    /// way, which the tests assert).
    pub fn enable_profile(&mut self, wall: bool) {
        for slot in &mut self.slots {
            slot.time_wall = wall;
        }
        self.profile = Some(EpochProfile {
            wall,
            samples: Vec::new(),
        });
    }

    /// Detach the collected profile, stopping further collection.
    pub fn take_profile(&mut self) -> Option<EpochProfile> {
        for slot in &mut self.slots {
            slot.time_wall = false;
        }
        self.profile.take()
    }

    /// Number of region shards.
    pub fn shard_count(&self) -> usize {
        self.slots.len()
    }

    /// The conservative lookahead horizon in force.
    pub fn lookahead(&self) -> SimDuration {
        self.lookahead
    }

    /// Shared access to `shard`'s worker state (between runs).
    pub fn worker(&self, shard: usize) -> &W {
        &self.slots[shard].worker
    }

    /// Exclusive access to `shard`'s worker state (between runs; a running
    /// executor is never observable from outside).
    pub fn worker_mut(&mut self, shard: usize) -> &mut W {
        &mut self.slots[shard].worker
    }

    /// Seed an initial event on `shard` (before or between runs).
    pub fn seed(&mut self, shard: usize, at: SimTime, tiebreak: u64, ev: W::Event) {
        self.slots[shard].queue.push(pack(at, tiebreak), ev);
    }

    /// Return every shard's high-water key to "nothing handled", so
    /// [`Outbox::has_passed`] answers for a fresh run. For a caller that
    /// reseeds an idle executor, possibly before its last event, once its
    /// workers hold no state keyed to the finished run.
    ///
    /// # Panics
    ///
    /// Panics if an event is still pending.
    pub fn forget_handled(&mut self) {
        assert!(
            self.min_next().is_none(),
            "forget_handled on an executor with events pending"
        );
        for slot in &mut self.slots {
            slot.outbox.high_water = None;
        }
    }

    /// Timestamp of the globally earliest pending event, if any.
    fn min_next(&self) -> Option<SimTime> {
        self.slots
            .iter()
            .filter_map(|s| s.queue.peek().map(unpack_time))
            .min()
    }

    /// Run one epoch with the given exclusive bound: every shard processes
    /// its local events strictly below `bound`, then the barrier routes
    /// cross-shard emissions into their destination queues in ascending
    /// source-shard order — a fixed, shard-count-independent merge order.
    fn run_epoch(&mut self, bound: SimTime) {
        // Snapshot the profiler's "before" view first: the epoch's start is
        // the global minimum pending event time, its per-shard deltas come
        // from the monotonic processed / wall counters.
        let before = self.profile.as_ref().map(|_| {
            (
                self.min_next().unwrap_or(bound),
                self.slots.iter().map(|s| s.processed).collect::<Vec<_>>(),
                self.slots.iter().map(|s| s.wall_ns).collect::<Vec<_>>(),
            )
        });
        for slot in &mut self.slots {
            slot.bound = bound;
            slot.outbox.lookahead = self.lookahead;
        }
        for slot in &mut self.slots {
            run_slot(slot);
        }
        let mut merged_in = vec![
            0u64;
            if before.is_some() {
                self.slots.len()
            } else {
                0
            }
        ];
        for src in 0..self.slots.len() {
            let remote = std::mem::take(&mut self.slots[src].outbox.remote);
            for (dest, at, tb, ev) in remote {
                debug_assert!(at >= bound, "emit assertion admitted a past event");
                if let Some(m) = merged_in.get_mut(dest) {
                    *m += 1;
                }
                self.slots[dest].queue.push(pack(at, tb), ev);
            }
        }
        self.epochs += 1;
        if let Some((start, processed_before, wall_before)) = before {
            let processed: Vec<u64> = self
                .slots
                .iter()
                .zip(&processed_before)
                .map(|(s, b)| s.processed - b)
                .collect();
            let wall = self.profile.as_ref().is_some_and(|p| p.wall);
            let wall_ns = wall.then(|| {
                self.slots
                    .iter()
                    .zip(&wall_before)
                    .map(|(s, b)| s.wall_ns - b)
                    .collect()
            });
            if let Some(p) = self.profile.as_mut() {
                p.samples.push(EpochSample {
                    start_ps: start.as_ps(),
                    end_ps: bound.as_ps(),
                    processed,
                    merged: merged_in,
                    wall_ns,
                });
            }
        }
    }

    fn report(&self) -> EpochReport {
        EpochReport {
            epochs: self.epochs,
            processed: self.slots.iter().map(|s| s.processed).collect(),
            shard_peaks: self.slots.iter().map(|s| s.peak).collect(),
        }
    }

    /// Run barrier epochs until every shard's queue is empty.
    pub fn run_until_idle(&mut self) -> EpochReport {
        while let Some(t) = self.min_next() {
            self.run_epoch(t + self.lookahead);
        }
        self.report()
    }

    /// Run barrier epochs under a coordinating [`EpochGuide`] until every
    /// queue is empty and the guide has no barriers left (or it votes
    /// [`BarrierVerdict::Stop`]).
    ///
    /// Each iteration the bound is `min(t + lookahead, b)` for global
    /// minimum event time `t` and next guide barrier `b` — the bound is
    /// exclusive, so no event at or beyond a barrier fires before the
    /// guide has struck it. When `b <= t` (or no events remain) the guide
    /// runs first; its injections and lookahead changes take effect for
    /// the following epochs.
    ///
    /// # Panics
    ///
    /// Panics if the guide returns a barrier that fails to advance after
    /// being struck — the run could otherwise spin forever.
    pub fn run_guided<G: EpochGuide<W>>(&mut self, guide: &mut G) -> EpochReport {
        let mut last_struck: Option<SimTime> = None;
        loop {
            let min_next = self.min_next();
            let barrier = guide.next_barrier();
            let bound = match (min_next, barrier) {
                (None, None) => break,
                (Some(t), Some(b)) if b > t => (t + self.lookahead).min(b),
                (Some(t), None) => t + self.lookahead,
                (_, Some(b)) => {
                    // Every event strictly before `b` has fired (either no
                    // events remain or the earliest is at/after `b`):
                    // strike the barrier before anything at exactly `b`.
                    assert!(
                        last_struck.is_none_or(|p| b > p),
                        "EpochGuide barrier did not advance past {b}"
                    );
                    last_struck = Some(b);
                    let mut ctl = EpochControl {
                        slots: &mut self.slots,
                        lookahead: &mut self.lookahead,
                        now: b,
                    };
                    match guide.at_barrier(b, &mut ctl) {
                        BarrierVerdict::Continue => continue,
                        BarrierVerdict::Stop => break,
                    }
                }
            };
            self.run_epoch(bound);
        }
        self.report()
    }

    /// Return the workers (and whatever results they accumulated), in shard
    /// order.
    pub fn into_workers(mut self) -> Vec<W> {
        self.flush_peak();
        self.slots.drain(..).map(|s| s.worker).collect()
    }

    /// Publish the deepest shard queue seen to the process-wide
    /// [`EVENT_QUEUE_PEAK`] gauge (reporting only) and reset the marks.
    fn flush_peak(&mut self) {
        let peak = self.slots.iter().map(|s| s.peak).max().unwrap_or(0);
        if peak > 0 {
            EVENT_QUEUE_PEAK.record_max(peak as u64);
        }
        for slot in &mut self.slots {
            slot.peak = 0;
        }
    }
}

impl<W: ShardWorker> Drop for EpochExecutor<W> {
    fn drop(&mut self) {
        self.flush_peak();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy partitioned simulation for executor tests: messages hop around
    /// a ring of `nodes` nodes, one hop per `HOP_PS`, each shard owning a
    /// contiguous band of nodes and logging the deliveries that terminate
    /// in its band.
    struct RingWorker {
        nodes: usize,
        shards: usize,
        hop_ps: u64,
        log: Vec<(u64, u64)>,
        emitted: u64,
    }

    #[derive(Clone)]
    struct Hop {
        msg: u64,
        node: usize,
        remaining: u32,
    }

    fn region_of(node: usize, nodes: usize, shards: usize) -> usize {
        node * shards / nodes
    }

    impl ShardWorker for RingWorker {
        type Event = Hop;

        fn handle(&mut self, at: SimTime, ev: Hop, out: &mut Outbox<Hop>) {
            if ev.remaining == 0 {
                self.log.push((at.as_ps(), ev.msg));
                return;
            }
            let next = (ev.node + 1) % self.nodes;
            let dest = region_of(next, self.nodes, self.shards);
            // Shard-count-invariant tiebreak: message id and hop countdown.
            let tb = ev.msg * 1_000 + u64::from(ev.remaining);
            self.emitted += 1;
            out.emit(
                dest,
                at + SimDuration::from_ps(self.hop_ps),
                tb,
                Hop {
                    msg: ev.msg,
                    node: next,
                    remaining: ev.remaining - 1,
                },
            );
        }
    }

    fn run_ring(shards: usize, hop_ps: u64, lookahead_ps: u64) -> Vec<(u64, u64)> {
        let nodes = 16;
        let workers: Vec<RingWorker> = (0..shards)
            .map(|_| RingWorker {
                nodes,
                shards,
                hop_ps,
                log: Vec::new(),
                emitted: 0,
            })
            .collect();
        let mut exec = EpochExecutor::new(workers, SimDuration::from_ps(lookahead_ps));
        for msg in 0..48u64 {
            let node = (msg as usize * 5) % nodes;
            exec.seed(
                region_of(node, nodes, shards),
                SimTime::from_ps(msg % 7),
                msg,
                Hop {
                    msg,
                    node,
                    remaining: 3 + (msg % 9) as u32,
                },
            );
        }
        let report = exec.run_until_idle();
        assert!(report.epochs > 0);
        assert_eq!(report.processed.len(), shards);
        let mut merged: Vec<(u64, u64)> = exec
            .into_workers()
            .into_iter()
            .flat_map(|w| w.log)
            .collect();
        merged.sort_unstable();
        assert_eq!(merged.len(), 48, "every message delivered exactly once");
        merged
    }

    #[test]
    fn executor_is_invariant_across_shard_counts() {
        let reference = run_ring(1, 50, 50);
        for shards in [2usize, 4] {
            assert_eq!(
                run_ring(shards, 50, 50),
                reference,
                "{shards} shards diverged"
            );
        }
    }

    fn run_ring_profiled(
        shards: usize,
        wall: bool,
    ) -> (Vec<(u64, u64)>, EpochProfile, EpochReport) {
        let nodes = 16;
        let workers: Vec<RingWorker> = (0..shards)
            .map(|_| RingWorker {
                nodes,
                shards,
                hop_ps: 50,
                log: Vec::new(),
                emitted: 0,
            })
            .collect();
        let mut exec = EpochExecutor::new(workers, SimDuration::from_ps(50));
        for msg in 0..48u64 {
            let node = (msg as usize * 5) % nodes;
            exec.seed(
                region_of(node, nodes, shards),
                SimTime::from_ps(msg % 7),
                msg,
                Hop {
                    msg,
                    node,
                    remaining: 3 + (msg % 9) as u32,
                },
            );
        }
        exec.enable_profile(wall);
        let report = exec.run_until_idle();
        let profile = exec.take_profile().expect("profile was enabled");
        let mut merged: Vec<(u64, u64)> = exec
            .into_workers()
            .into_iter()
            .flat_map(|w| w.log)
            .collect();
        merged.sort_unstable();
        (merged, profile, report)
    }

    #[test]
    fn profiling_does_not_perturb_results_and_busy_sums_match_the_report() {
        let plain = run_ring(4, 50, 50);
        let (profiled, profile, report) = run_ring_profiled(4, false);
        assert_eq!(profiled, plain, "profiling must not change sim results");
        assert_eq!(profile.epochs() as u64, report.epochs);
        assert_eq!(profile.shard_count(), 4);
        assert_eq!(
            profile.busy_per_shard(),
            report.processed,
            "per-epoch processed deltas must sum to the report totals"
        );
        // Epoch spans are well-formed, monotone sim-time intervals.
        let mut prev_end = 0u64;
        for s in &profile.samples {
            assert!(s.start_ps < s.end_ps, "epoch span must be non-empty");
            assert!(s.start_ps >= prev_end.saturating_sub(50), "epochs advance");
            prev_end = s.end_ps;
            assert_eq!(s.processed.len(), 4);
            assert_eq!(s.merged.len(), 4);
            assert!(s.wall_ns.is_none(), "wall profiling was off");
        }
        // The critical shard is the argmax of the busy series, and the
        // imbalance metric is at least 1000 (max >= mean) once work ran.
        let busy = profile.busy_per_shard();
        assert_eq!(busy[profile.critical_shard()], *busy.iter().max().unwrap());
        assert!(profile.imbalance_milli() >= 1000);
        // Single-shard runs merge nothing; multi-shard ring traffic must.
        assert!(profile.merged_per_shard().iter().sum::<u64>() > 0);
    }

    #[test]
    fn wall_profiling_records_spans_without_perturbing_sim_time_fields() {
        let (results, walled, _) = run_ring_profiled(2, true);
        assert!(walled.wall_clock());
        assert_eq!(results, run_ring(2, 50, 50));
        let (_, reference, _) = run_ring_profiled(2, false);
        assert_eq!(walled.epochs(), reference.epochs());
        for (w, r) in walled.samples.iter().zip(&reference.samples) {
            assert_eq!(w.wall_ns.as_ref().map(Vec::len), Some(2));
            assert_eq!((w.start_ps, w.end_ps), (r.start_ps, r.end_ps));
            assert_eq!(&w.processed, &r.processed);
            assert_eq!(&w.merged, &r.merged);
        }
    }

    #[test]
    fn executor_accepts_lookahead_below_actual_link_latency() {
        // The lookahead only needs to be conservative (<= the true minimum
        // inter-region latency); a smaller horizon costs epochs, not
        // correctness.
        assert_eq!(run_ring(4, 50, 20), run_ring(1, 50, 20));
    }

    #[test]
    #[should_panic(expected = "lookahead violation")]
    fn cross_shard_emission_inside_horizon_panics() {
        // Claim a horizon larger than the hop latency: the first
        // cross-region hop violates the contract and must be caught.
        run_ring(4, 10, 500);
    }

    /// A guide for the ring simulation: at each barrier it records the
    /// strike, optionally injects one fresh message, and stops after a
    /// configured number of strikes.
    struct RingGuide {
        barriers: Vec<u64>,
        struck: Vec<u64>,
        inject_msg: Option<u64>,
        stop_after: usize,
        nodes: usize,
        shards: usize,
    }

    impl EpochGuide<RingWorker> for RingGuide {
        fn next_barrier(&mut self) -> Option<SimTime> {
            self.barriers.first().map(|&b| SimTime::from_ps(b))
        }

        fn at_barrier(
            &mut self,
            at: SimTime,
            ctl: &mut EpochControl<'_, RingWorker>,
        ) -> BarrierVerdict {
            self.barriers.remove(0);
            self.struck.push(at.as_ps());
            if let Some(msg) = self.inject_msg.take() {
                let node = 3;
                ctl.inject(
                    region_of(node, self.nodes, self.shards),
                    at,
                    msg,
                    Hop {
                        msg,
                        node,
                        remaining: 4,
                    },
                );
            }
            if self.struck.len() >= self.stop_after {
                BarrierVerdict::Stop
            } else {
                BarrierVerdict::Continue
            }
        }
    }

    fn run_guided_ring(shards: usize) -> (Vec<u64>, Vec<(u64, u64)>) {
        let nodes = 16;
        let workers: Vec<RingWorker> = (0..shards)
            .map(|_| RingWorker {
                nodes,
                shards,
                hop_ps: 50,
                log: Vec::new(),
                emitted: 0,
            })
            .collect();
        let mut exec = EpochExecutor::new(workers, SimDuration::from_ps(50));
        for msg in 0..24u64 {
            let node = (msg as usize * 5) % nodes;
            exec.seed(
                region_of(node, nodes, shards),
                SimTime::from_ps(msg % 7),
                msg,
                Hop {
                    msg,
                    node,
                    remaining: 3 + (msg % 9) as u32,
                },
            );
        }
        let mut guide = RingGuide {
            barriers: vec![120, 250, 1_000_000],
            struck: Vec::new(),
            inject_msg: Some(77),
            stop_after: usize::MAX,
            nodes,
            shards,
        };
        exec.run_guided(&mut guide);
        let mut merged: Vec<(u64, u64)> = exec
            .into_workers()
            .into_iter()
            .flat_map(|w| w.log)
            .collect();
        merged.sort_unstable();
        (guide.struck, merged)
    }

    #[test]
    fn guided_run_is_invariant_and_strikes_every_barrier() {
        let reference = run_guided_ring(1);
        assert_eq!(reference.0, [120, 250, 1_000_000], "all barriers struck");
        assert!(
            reference.1.iter().any(|&(_, msg)| msg == 77),
            "barrier-injected message delivered"
        );
        for shards in [2usize, 4] {
            assert_eq!(
                run_guided_ring(shards),
                reference,
                "{shards} shards diverged under guide"
            );
        }
    }

    #[test]
    fn guide_stop_verdict_halts_with_events_pending() {
        let workers = vec![RingWorker {
            nodes: 4,
            shards: 1,
            hop_ps: 10,
            log: Vec::new(),
            emitted: 0,
        }];
        let mut exec = EpochExecutor::new(workers, SimDuration::from_ps(10));
        exec.seed(
            0,
            SimTime::from_ps(500),
            1,
            Hop {
                msg: 1,
                node: 0,
                remaining: 2,
            },
        );
        let mut guide = RingGuide {
            barriers: vec![100],
            struck: Vec::new(),
            inject_msg: None,
            stop_after: 1,
            nodes: 4,
            shards: 1,
        };
        let report = exec.run_guided(&mut guide);
        assert_eq!(guide.struck, [100]);
        assert_eq!(report.processed, [0], "stop fires before the seeded event");
    }

    #[test]
    fn extract_events_removes_matches_and_keeps_order() {
        let workers = vec![RingWorker {
            nodes: 4,
            shards: 1,
            hop_ps: 10,
            log: Vec::new(),
            emitted: 0,
        }];
        let mut exec = EpochExecutor::new(workers, SimDuration::from_ps(10));
        for msg in 0..6u64 {
            exec.seed(
                0,
                SimTime::from_ps(100 + msg),
                msg,
                Hop {
                    msg,
                    node: 0,
                    remaining: 0,
                },
            );
        }
        struct Extractor(Vec<(u64, u64)>);
        impl EpochGuide<RingWorker> for Extractor {
            fn next_barrier(&mut self) -> Option<SimTime> {
                self.0.is_empty().then_some(SimTime::from_ps(50))
            }
            fn at_barrier(
                &mut self,
                _at: SimTime,
                ctl: &mut EpochControl<'_, RingWorker>,
            ) -> BarrierVerdict {
                let taken = ctl.extract_events(0, |_, ev| ev.msg % 2 == 0);
                self.0 = taken
                    .into_iter()
                    .map(|(at, _, ev)| (at.as_ps(), ev.msg))
                    .collect();
                BarrierVerdict::Continue
            }
        }
        let mut guide = Extractor(Vec::new());
        exec.run_guided(&mut guide);
        assert_eq!(guide.0, [(100, 0), (102, 2), (104, 4)], "ascending order");
        let delivered: Vec<u64> = exec
            .into_workers()
            .remove(0)
            .log
            .iter()
            .map(|l| l.1)
            .collect();
        assert_eq!(delivered, [1, 3, 5], "survivors fire normally");
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_lookahead_is_rejected() {
        let workers = vec![RingWorker {
            nodes: 4,
            shards: 1,
            hop_ps: 10,
            log: Vec::new(),
            emitted: 0,
        }];
        let _ = EpochExecutor::new(workers, SimDuration::ZERO);
    }

    /// Fans one seed event out into 100 same-shard follow-ups.
    struct Fan;

    impl ShardWorker for Fan {
        type Event = u32;

        fn handle(&mut self, at: SimTime, ev: u32, out: &mut Outbox<u32>) {
            if ev == 0 {
                for i in 1..=100u32 {
                    out.emit(0, at + SimDuration::from_ps(u64::from(i)), u64::from(i), i);
                }
            }
        }
    }

    #[test]
    fn deepest_heap_reaches_the_process_gauge() {
        let mut exec = EpochExecutor::new(vec![Fan], SimDuration::from_ps(1 << 40));
        exec.seed(0, SimTime::ZERO, 0, 0);
        exec.run_until_idle();
        drop(exec.into_workers());
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
            match self.rng.index(9) {
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
                // `extract_events`: take everything, keep what survives.
                7 => {
                    let mut all = self.queue.take_all();
                    all.sort_unstable();
                    let want: Vec<(u128, u64)> =
                        self.reference.iter().map(|(&k, &v)| (k, v)).collect();
                    assert_eq!(all, want, "take_all returns every pending event");
                    let condemned = self.rng.bits() % 4;
                    for (key, id) in all {
                        if id % 4 == condemned {
                            self.reference.remove(&key);
                        } else {
                            self.queue.push(key, id);
                        }
                    }
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
