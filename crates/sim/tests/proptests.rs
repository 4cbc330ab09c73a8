//! Property tests for the simulation kernel.

// Test/harness code may unwrap freely; the workspace denies it in libraries.
#![allow(clippy::unwrap_used)]

use alphasim_kernel::shard::{EpochExecutor, Outbox, ShardWorker};
use alphasim_kernel::{DetRng, SimDuration, SimTime};
use proptest::prelude::*;

/// Records `(time, tiebreak)` of every event it handles.
struct Log(Vec<(u64, u64)>);

impl ShardWorker for Log {
    type Event = (u64, u64);

    fn handle(&mut self, _at: SimTime, ev: (u64, u64), _out: &mut Outbox<(u64, u64)>) {
        self.0.push(ev);
    }
}

/// Records the time of every event; a seeded event re-emits itself once,
/// `delay` picoseconds later.
struct Echo(Vec<u64>);

impl ShardWorker for Echo {
    type Event = Option<u64>;

    fn handle(&mut self, at: SimTime, ev: Option<u64>, out: &mut Outbox<Option<u64>>) {
        self.0.push(at.as_ps());
        if let Some(delay) = ev {
            out.emit(0, at + SimDuration::from_ps(delay), 1 << 40, None);
        }
    }
}

proptest! {
    /// A single-shard executor fires events in `(time, tiebreak)` order,
    /// whatever the seeding order: the packed-key 4-ary heap is a total
    /// order.
    #[test]
    fn executor_fires_in_time_then_tiebreak_order(
        events in prop::collection::vec((0u64..1_000, 0u64..8), 1..200),
    ) {
        let mut exec = EpochExecutor::new(vec![Log(Vec::new())], SimDuration::from_ps(1 << 40), 1);
        for (i, &(t, tb)) in events.iter().enumerate() {
            exec.seed(0, SimTime::from_ps(t), (tb << 16) | i as u64, (t, (tb << 16) | i as u64));
        }
        exec.run_until_idle();
        let fired = &exec.worker(0).0;
        let mut sorted = fired.clone();
        sorted.sort_unstable();
        prop_assert_eq!(fired.len(), events.len());
        prop_assert_eq!(fired, &sorted);
    }

    /// Same-shard follow-ups emitted during a run merge back into the heap
    /// and still fire in `(time, tiebreak)` order.
    #[test]
    fn emitted_follow_ups_keep_the_order(
        seeds in prop::collection::vec((0u64..500, 1u64..300), 1..60),
    ) {
        let mut exec = EpochExecutor::new(vec![Echo(Vec::new())], SimDuration::from_ps(1 << 40), 1);
        for (i, &(t, delay)) in seeds.iter().enumerate() {
            exec.seed(0, SimTime::from_ps(t), i as u64, Some(delay));
        }
        exec.run_until_idle();
        let fired = &exec.worker(0).0;
        prop_assert_eq!(fired.len(), 2 * seeds.len());
        for w in fired.windows(2) {
            prop_assert!(w[0] <= w[1], "{:?} fired before {:?}", w[0], w[1]);
        }
    }

    /// Durations compose linearly with transfer sizes.
    #[test]
    fn transfer_time_is_linear(bytes in 1u64..1_000_000, gbps in 0.1f64..100.0) {
        let one = SimDuration::transfer_time(bytes, gbps);
        let two = SimDuration::transfer_time(2 * bytes, gbps);
        let ratio = two.as_ps() as f64 / one.as_ps().max(1) as f64;
        prop_assert!((ratio - 2.0).abs() < 0.01, "ratio {}", ratio);
    }

    /// index_excluding covers exactly the non-excluded range.
    #[test]
    fn rng_exclusion_is_sound(seed in 0u64..10_000, n in 2usize..64, ex in 0usize..64) {
        let ex = ex % n;
        let mut rng = DetRng::seeded(seed);
        for _ in 0..64 {
            let v = rng.index_excluding(n, ex);
            prop_assert!(v < n && v != ex);
        }
    }
}
