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

/// An event carrying its own tiebreak and, for a seeded event, the
/// `(delay, tiebreak)` of the one follow-up it emits.
type EchoEv = (u64, Option<(u64, u64)>);

/// Records `(time, tiebreak)` of every event; a seeded event emits one
/// follow-up, `delay` picoseconds later.
struct Echo(Vec<(u64, u64)>);

impl ShardWorker for Echo {
    type Event = EchoEv;

    fn handle(&mut self, at: SimTime, (tb, next): EchoEv, out: &mut Outbox<EchoEv>) {
        self.0.push((at.as_ps(), tb));
        if let Some((delay, child)) = next {
            out.emit(at + SimDuration::from_ps(delay), child, (child, None));
        }
    }
}

/// Event times that reach every regime of the event queue: inside one
/// 128 ps bucket, across many buckets and past the 524 ns near-future
/// window, and one shared instant (more events on it than a bucket holds).
fn queue_times() -> impl Strategy<Value = u64> {
    (0u8..3, 0u64..2_000_000).prop_map(|(regime, t)| match regime {
        0 => t % 1_000,
        1 => t,
        _ => 777,
    })
}

/// Follow-up delays: none (the emitter's own instant), inside the window,
/// and past it.
fn queue_delays() -> impl Strategy<Value = u64> {
    (0u8..3, 0u64..1_500_000).prop_map(|(regime, d)| match regime {
        0 => 0,
        1 => 1 + d % 299,
        _ => 524_288 + d,
    })
}

/// On each event (named by its tiebreak) records whether a probe key
/// `(instant - 1 ps + dt, tiebreak)` has passed, for every probe; the seeded
/// event `emitter` emits `child` at its own instant, a key that sorts
/// below its emitter's.
struct Probe {
    emitter: u64,
    child: u64,
    probes: Vec<(u64, u64)>,
    seen: Vec<(u64, Vec<bool>)>,
}

impl ShardWorker for Probe {
    type Event = u64;

    fn handle(&mut self, at: SimTime, tb: u64, out: &mut Outbox<u64>) {
        let passed = self
            .probes
            .iter()
            .map(|&(dt, key)| out.has_passed(SimTime::from_ps(at.as_ps() - 1 + dt), key))
            .collect();
        self.seen.push((tb, passed));
        if tb == self.emitter {
            out.emit(at, self.child, self.child);
        }
    }
}

proptest! {
    /// `has_passed` answers whether a key would already have fired: at the
    /// emitter and at the same-instant event it emits below itself alike,
    /// a key has passed exactly when it sorts at or below the emitter's,
    /// the high-water of what the executor has handled. After
    /// `forget_handled`, a reseeded event sees only its own key and below.
    #[test]
    fn a_backward_emission_sees_the_high_water_of_its_emitter(
        at in 1u64..1_000_000,
        emitter in 1u64..1_000,
        below in 1u64..1_000,
        probes in prop::collection::vec((0u64..3, 0u64..2_000), 1..8),
    ) {
        let child = emitter.saturating_sub(below);
        prop_assume!(child < emitter);
        let probe = Probe { emitter, child, probes: probes.clone(), seen: Vec::new() };
        let mut exec = EpochExecutor::new(probe);
        let t = SimTime::from_ps(at);
        exec.seed(t, emitter, emitter);
        exec.run_until_idle();
        // An earlier instant has passed, a later one has not, and at the
        // instant itself the emitter's key is the high-water.
        let passed = |high: u64| -> Vec<bool> {
            probes.iter().map(|&(dt, key)| dt == 0 || (dt == 1 && key <= high)).collect()
        };
        let expect = passed(emitter);
        prop_assert_eq!(
            &exec.worker().seen,
            &vec![(emitter, expect.clone()), (child, expect)]
        );
        exec.forget_handled();
        exec.seed(t, child, child);
        exec.run_until_idle();
        prop_assert_eq!(&exec.worker().seen[2], &(child, passed(child)));
    }

    /// The executor fires events in `(time, tiebreak)` order,
    /// whatever the seeding order: the event queue pops in exact key order
    /// whether the near-future ring or the far heap holds a key.
    #[test]
    fn executor_fires_in_time_then_tiebreak_order(
        events in prop::collection::vec((queue_times(), 0u64..8), 1..200),
    ) {
        let mut exec = EpochExecutor::new(Log(Vec::new()));
        for (i, &(t, tb)) in events.iter().enumerate() {
            exec.seed(SimTime::from_ps(t), (tb << 16) | i as u64, (t, (tb << 16) | i as u64));
        }
        exec.run_until_idle();
        let fired = &exec.worker().0;
        let mut sorted = fired.clone();
        sorted.sort_unstable();
        prop_assert_eq!(fired.len(), events.len());
        prop_assert_eq!(fired, &sorted);
    }

    /// Follow-ups emitted during a run merge back into the
    /// queue and fire exactly when a sorted reference pops them: at the
    /// same instant (also below their emitter's key), inside the window
    /// and past it.
    #[test]
    fn emitted_follow_ups_keep_the_order(
        seeds in prop::collection::vec(
            (
                queue_times(),
                queue_delays(),
                any::<bool>(),
            ),
            1..60,
        ),
    ) {
        let mut exec = EpochExecutor::new(Echo(Vec::new()));
        let mut reference = std::collections::BTreeMap::new();
        for (i, &(t, delay, below)) in seeds.iter().enumerate() {
            let i = i as u64;
            // Unique keys; a child tiebreak `i` sorts below its emitter's.
            let child = if below { i } else { (2 << 32) | i };
            let ev = ((1 << 32) | i, Some((delay, child)));
            exec.seed(SimTime::from_ps(t), ev.0, ev);
            reference.insert((t, ev.0), ev.1);
        }
        exec.run_until_idle();
        let mut expect = Vec::new();
        while let Some(((t, tb), next)) = reference.pop_first() {
            expect.push((t, tb));
            if let Some((delay, child)) = next {
                reference.insert((t + delay, child), None);
            }
        }
        let fired = &exec.worker().0;
        prop_assert_eq!(fired.len(), 2 * seeds.len());
        prop_assert_eq!(fired, &expect);
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
