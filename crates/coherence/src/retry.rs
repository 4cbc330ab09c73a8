//! Timeout-and-retry machinery for coherence transactions under faults.
//!
//! The GS1280's protocol has no ACK/NAK dance in the common case — the
//! fabric delivers every packet. Live fault injection breaks that
//! assumption: a message can be lost with the wire it occupied. This module
//! supplies what the system layer needs to survive that:
//!
//! * [`RetryPolicy`] — per-transaction timeout with bounded exponential
//!   backoff and a poison threshold (the NAK path: a transaction past
//!   `max_retries` is poisoned and reported, never silently hung);
//! * [`PendingSet`] — the outstanding-transaction table, deterministic in
//!   iteration order so the transactions it reports replay bit-identically;
//! * [`Watchdog`] — a livelock detector: if no transaction completes for a
//!   whole window while some are outstanding, it reports the stuck set with
//!   named causes instead of letting the run spin forever.

use alphasim_kernel::{SimDuration, SimTime};
use alphasim_telemetry::Registry;
use serde::{Deserialize, Serialize};

/// When and how often a lost transaction is retried.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// How long a transaction may stay unanswered before it is retried.
    pub timeout: SimDuration,
    /// Backoff before the first retry; doubles per attempt.
    pub backoff_base: SimDuration,
    /// Ceiling on the backoff, so retries never stall unboundedly.
    pub backoff_cap: SimDuration,
    /// Retries allowed before the transaction is poisoned (the NAK path).
    pub max_retries: u32,
}

impl RetryPolicy {
    /// Defaults sized for the GS1280 model: a timeout comfortably above the
    /// worst loaded round trip (~10 µs), microsecond-scale backoff capped at
    /// 16× base, and a handful of attempts before poisoning.
    pub fn gs1280_default() -> Self {
        RetryPolicy {
            timeout: SimDuration::from_us(10.0),
            backoff_base: SimDuration::from_us(1.0),
            backoff_cap: SimDuration::from_us(16.0),
            max_retries: 6,
        }
    }

    /// Backoff before retry number `attempt` (1-based): `base * 2^(attempt-1)`,
    /// saturating, never above [`backoff_cap`](Self::backoff_cap).
    pub fn backoff(&self, attempt: u32) -> SimDuration {
        let doublings = attempt.saturating_sub(1).min(20);
        self.backoff_base
            .saturating_mul(1u64 << doublings)
            .min(self.backoff_cap)
    }
}

/// One outstanding coherence transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PendingTx {
    /// Requesting CPU (node index).
    pub src: usize,
    /// Home directory node index.
    pub home: usize,
    /// When the transaction was first issued (latency is measured from
    /// here, across every retry).
    pub first_issued: SimTime,
    /// When the current attempt times out.
    pub deadline: SimTime,
    /// Issue attempts so far (1 = the original send).
    pub attempts: u32,
}

/// The outstanding-transaction table, keyed by the caller's correlation
/// tag. It is a flat vector of `(tag, record)` pairs kept in ascending tag
/// order, so what is read out of it (the watchdog's stuck list, a
/// hung-transaction report) replays identically. A table holds one CPU's
/// few outstanding reads (the EV7 allows 16 misses in flight), whose tags
/// ascend as they are issued, so an insert appends and a lookup is a
/// binary search over a few hundred bytes.
#[derive(Debug, Clone, Default)]
pub struct PendingSet {
    txs: Vec<(u64, PendingTx)>,
    completed: u64,
    retries: u64,
}

impl PendingSet {
    /// An empty table.
    pub fn new() -> Self {
        PendingSet::default()
    }

    /// Where `tag` is (`Ok`) or would go (`Err`) in the table.
    #[inline]
    fn find(&self, tag: u64) -> Result<usize, usize> {
        self.txs.binary_search_by_key(&tag, |&(t, _)| t)
    }

    /// Track a newly issued transaction.
    ///
    /// # Panics
    ///
    /// Panics if `tag` is already outstanding.
    #[inline]
    pub fn insert(&mut self, tag: u64, tx: PendingTx) {
        if self.txs.last().is_none_or(|&(last, _)| last < tag) {
            self.txs.push((tag, tx));
            return;
        }
        match self.find(tag) {
            Ok(_) => panic!("tag {tag:#x} already outstanding"),
            Err(at) => self.txs.insert(at, (tag, tx)),
        }
    }

    /// Complete `tag`, returning its record — or `None` if it is unknown
    /// (a duplicate response from a retried transaction; callers ignore it).
    #[inline]
    pub fn complete(&mut self, tag: u64) -> Option<PendingTx> {
        let tx = self.poison(tag);
        if tx.is_some() {
            self.completed += 1;
        }
        tx
    }

    /// The record for `tag`, if outstanding.
    #[inline]
    pub fn get(&self, tag: u64) -> Option<&PendingTx> {
        self.find(tag).ok().map(|at| &self.txs[at].1)
    }

    /// Record a retry of `tag`: bump its attempt count and give it a fresh
    /// `deadline`. Returns the new attempt count.
    ///
    /// # Panics
    ///
    /// Panics if `tag` is not outstanding.
    #[inline]
    pub fn retry(&mut self, tag: u64, deadline: SimTime) -> u32 {
        let Ok(at) = self.find(tag) else {
            panic!("retry of unknown tag")
        };
        let tx = &mut self.txs[at].1;
        tx.attempts += 1;
        tx.deadline = deadline;
        self.retries += 1;
        tx.attempts
    }

    /// Drop `tag` from the table without counting a completion (the poison
    /// path). Returns its record.
    #[inline]
    pub fn poison(&mut self, tag: u64) -> Option<PendingTx> {
        let at = self.find(tag).ok()?;
        Some(self.txs.remove(at).1)
    }

    /// Outstanding transactions, in ascending tag order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &PendingTx)> {
        self.txs.iter().map(|(tag, tx)| (*tag, tx))
    }

    /// Outstanding transaction count.
    pub fn len(&self) -> usize {
        self.txs.len()
    }

    /// Whether nothing is outstanding.
    pub fn is_empty(&self) -> bool {
        self.txs.is_empty()
    }

    /// Transactions completed so far.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Retries recorded so far.
    pub fn retries(&self) -> u64 {
        self.retries
    }
}

/// One transaction named by a [`LivelockReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StuckTx {
    /// Correlation tag.
    pub tag: u64,
    /// Requesting CPU.
    pub src: usize,
    /// Home directory node.
    pub home: usize,
    /// Issue attempts so far.
    pub attempts: u32,
    /// How long it has been outstanding (since first issue).
    pub outstanding_for: SimDuration,
}

/// What the watchdog saw when delivery progress stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LivelockReport {
    /// When the watchdog fired.
    pub at: SimTime,
    /// How long the system had made no progress.
    pub stalled_for: SimDuration,
    /// The outstanding transactions, ascending by tag.
    pub stuck: Vec<StuckTx>,
}

impl LivelockReport {
    /// Human-readable summary naming every stuck transaction.
    pub fn describe(&self) -> String {
        let mut s = format!(
            "no delivery progress for {} with {} transaction(s) outstanding:",
            self.stalled_for,
            self.stuck.len()
        );
        for tx in &self.stuck {
            s.push_str(&format!(
                "\n  tag {:#x}: cpu {} -> home {}, attempt {}, outstanding {}",
                tx.tag, tx.src, tx.home, tx.attempts, tx.outstanding_for
            ));
        }
        s
    }
}

/// Livelock detector: fires when no transaction has completed for `window`
/// while some are outstanding.
#[derive(Debug, Clone)]
pub struct Watchdog {
    window: SimDuration,
    last_progress: SimTime,
    fired: u64,
}

impl Watchdog {
    /// A watchdog with the given no-progress window.
    pub fn new(window: SimDuration) -> Self {
        Watchdog {
            window,
            last_progress: SimTime::ZERO,
            fired: 0,
        }
    }

    /// The configured no-progress window.
    pub fn window(&self) -> SimDuration {
        self.window
    }

    /// Record forward progress (a delivery or completion) at `now`.
    pub fn note_progress(&mut self, now: SimTime) {
        self.last_progress = self.last_progress.max(now);
    }

    /// Check for livelock at `now` across `pending`, the
    /// outstanding-transaction tables (the closed loop keeps one per
    /// requester CPU): `Some` report if nothing has completed for a full
    /// window while any transaction is outstanding. The report names the
    /// stuck transactions of every table in ascending tag order, whatever
    /// the order of the tables. Firing counts as progress, so a still-stuck
    /// system re-fires one window later rather than on every check.
    pub fn check(&mut self, now: SimTime, pending: &[&PendingSet]) -> Option<LivelockReport> {
        let outstanding: usize = pending.iter().map(|set| set.len()).sum();
        if outstanding == 0 || now.since(self.last_progress) < self.window {
            return None;
        }
        self.fired += 1;
        let mut stuck: Vec<StuckTx> = pending
            .iter()
            .flat_map(|set| set.iter())
            .map(|(tag, tx)| StuckTx {
                tag,
                src: tx.src,
                home: tx.home,
                attempts: tx.attempts,
                outstanding_for: now.since(tx.first_issued),
            })
            .collect();
        stuck.sort_by_key(|tx| tx.tag);
        let report = LivelockReport {
            at: now,
            stalled_for: now.since(self.last_progress),
            stuck,
        };
        self.last_progress = now;
        Some(report)
    }

    /// How many times the watchdog has fired.
    pub fn fired(&self) -> u64 {
        self.fired
    }

    /// Export the firing count into a telemetry registry under the
    /// `coherence.` namespace.
    pub fn export_metrics(&self, registry: &mut Registry) {
        registry.counter_add("coherence.watchdog_fired", self.fired);
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    use proptest::prelude::*;

    use super::*;

    fn t(us: f64) -> SimTime {
        SimTime::ZERO + SimDuration::from_us(us)
    }

    #[test]
    fn backoff_doubles_then_caps() {
        let p = RetryPolicy::gs1280_default();
        assert_eq!(p.backoff(1), SimDuration::from_us(1.0));
        assert_eq!(p.backoff(2), SimDuration::from_us(2.0));
        assert_eq!(p.backoff(3), SimDuration::from_us(4.0));
        assert_eq!(p.backoff(5), SimDuration::from_us(16.0));
        // The cap binds: every later attempt, however extreme, stays at it.
        for attempt in 6..200 {
            assert_eq!(
                p.backoff(attempt),
                p.backoff_cap,
                "attempt {attempt} exceeded the backoff cap"
            );
        }
    }

    #[test]
    fn backoff_never_overflows() {
        let p = RetryPolicy {
            timeout: SimDuration::from_us(1.0),
            backoff_base: SimDuration::from_us(1.0),
            backoff_cap: SimDuration::from_ps(u64::MAX),
            max_retries: 3,
        };
        // 2^20 doublings saturate instead of wrapping.
        assert!(p.backoff(u32::MAX) <= p.backoff_cap);
    }

    #[test]
    fn pending_set_tracks_completion_and_duplicates() {
        let mut set = PendingSet::new();
        let tx = PendingTx {
            src: 1,
            home: 2,
            first_issued: t(0.0),
            deadline: t(10.0),
            attempts: 1,
        };
        for tag in [9, 7, 3] {
            set.insert(tag, tx);
        }
        let tags: Vec<u64> = set.iter().map(|(tag, _)| tag).collect();
        assert_eq!(tags, vec![3, 7, 9], "ascending tag order");
        assert_eq!(set.len(), 3);
        assert_eq!(set.complete(7).unwrap().home, 2);
        assert!(set.complete(7).is_none(), "duplicate response is ignored");
        assert_eq!(set.completed(), 1);
        assert_eq!(set.len(), 2);
        assert_eq!(set.retry(3, t(40.0)), 2);
        assert_eq!(set.get(3).unwrap().deadline, t(40.0), "retry re-arms");
        assert_eq!(set.retries(), 1);
        assert_eq!(set.completed(), 1, "a retry is not a completion");
    }

    #[test]
    fn poison_threshold_binds_at_exactly_max_retries() {
        // The system layer poisons when `attempts > max_retries`. With
        // max_retries = 2, walk one transaction through both allowed
        // retries and check the threshold flips at attempt 3 exactly —
        // not one retry earlier, not one later.
        let p = RetryPolicy {
            max_retries: 2,
            ..RetryPolicy::gs1280_default()
        };
        let mut set = PendingSet::new();
        set.insert(
            1,
            PendingTx {
                src: 0,
                home: 1,
                first_issued: t(0.0),
                deadline: t(10.0),
                attempts: 1,
            },
        );
        let over = |set: &PendingSet| set.get(1).expect("outstanding").attempts > p.max_retries;
        assert!(!over(&set), "the original send is not past the threshold");
        assert_eq!(set.retry(1, t(20.0)), 2);
        assert!(!over(&set), "retry number max_retries is still allowed");
        assert_eq!(set.retry(1, t(30.0)), 3);
        assert!(over(&set), "attempt max_retries + 1 must poison");
        let tx = set.poison(1).expect("still outstanding");
        assert_eq!(tx.attempts, 3);
        assert!(set.is_empty());
        assert_eq!(set.completed(), 0, "poison is not a completion");
        assert_eq!(set.retries(), 2);
    }

    #[test]
    fn backoff_cap_saturation_is_exact() {
        let p = RetryPolicy::gs1280_default();
        // Attempt 5 is the first at the 16 µs cap (1 → 2 → 4 → 8 → 16);
        // attempt 4 is strictly below it.
        assert!(p.backoff(4) < p.backoff_cap);
        assert_eq!(p.backoff(4), SimDuration::from_us(8.0));
        assert_eq!(p.backoff(5), p.backoff_cap);
        // A cap equal to the base binds from the very first attempt.
        let tight = RetryPolicy {
            backoff_cap: p.backoff_base,
            ..p
        };
        assert_eq!(tight.backoff(1), tight.backoff_cap);
        assert_eq!(tight.backoff(100), tight.backoff_cap);
    }

    #[test]
    fn zero_retry_policy_poisons_on_the_first_timeout() {
        // max_retries = 0: the original send is the only attempt the
        // threshold admits.
        let p = RetryPolicy {
            max_retries: 0,
            ..RetryPolicy::gs1280_default()
        };
        let first_attempt = 1u32;
        assert!(first_attempt > p.max_retries, "attempt 1 is already past");
        // Backoff for the (never-taken) first retry is still well-defined.
        assert_eq!(p.backoff(1), p.backoff_base);
    }

    #[test]
    fn watchdog_fires_only_after_a_quiet_window_with_work_outstanding() {
        let mut dog = Watchdog::new(SimDuration::from_us(50.0));
        let mut set = PendingSet::new();
        // Nothing outstanding: never fires, however long the silence.
        assert!(dog.check(t(1000.0), &[&set]).is_none());
        set.insert(
            0xdead,
            PendingTx {
                src: 3,
                home: 4,
                first_issued: t(1000.0),
                deadline: t(1010.0),
                attempts: 2,
            },
        );
        dog.note_progress(t(1000.0));
        assert!(
            dog.check(t(1040.0), &[&set]).is_none(),
            "window not elapsed"
        );
        let report = dog
            .check(t(1050.0), &[&set])
            .expect("stalled a full window");
        assert_eq!(report.stuck.len(), 1);
        assert_eq!(report.stuck[0].tag, 0xdead);
        assert_eq!(report.stuck[0].attempts, 2);
        assert_eq!(report.stalled_for, SimDuration::from_us(50.0));
        let text = report.describe();
        assert!(text.contains("0xdead"), "{text}");
        assert!(text.contains("cpu 3 -> home 4"), "{text}");
        // Firing re-arms rather than re-firing every check.
        assert!(dog.check(t(1051.0), &[&set]).is_none());
        assert_eq!(dog.fired(), 1);
        let mut registry = Registry::default();
        dog.export_metrics(&mut registry);
        assert_eq!(registry.counter("coherence.watchdog_fired"), 1);
    }

    #[test]
    fn check_many_merges_regions_in_tag_order() {
        let mut dog = Watchdog::new(SimDuration::from_us(50.0));
        let tx = |src: usize| PendingTx {
            src,
            home: src + 1,
            first_issued: t(1000.0),
            deadline: t(1010.0),
            attempts: 1,
        };
        let mut cpu_a = PendingSet::new();
        let mut cpu_b = PendingSet::new();
        cpu_a.insert(9, tx(0));
        cpu_b.insert(2, tx(4));
        cpu_b.insert(5, tx(6));
        dog.note_progress(t(1000.0));
        // No table / no outstanding work: silent.
        assert!(dog.check(t(2000.0), &[]).is_none());
        assert!(dog.check(t(2000.0), &[&PendingSet::new()]).is_none());
        assert!(
            dog.check(t(1040.0), &[&cpu_a, &cpu_b]).is_none(),
            "window not elapsed"
        );
        let report = dog
            .check(t(1050.0), &[&cpu_a, &cpu_b])
            .expect("stalled a full window");
        let tags: Vec<u64> = report.stuck.iter().map(|s| s.tag).collect();
        assert_eq!(tags, vec![2, 5, 9], "merged ascending regardless of table");
        // Same merge, tables swapped: identical report.
        let mut dog2 = Watchdog::new(SimDuration::from_us(50.0));
        dog2.note_progress(t(1000.0));
        let swapped = dog2
            .check(t(1050.0), &[&cpu_b, &cpu_a])
            .expect("fires identically");
        assert_eq!(report, swapped);
        // Firing re-arms.
        assert!(dog.check(t(1051.0), &[&cpu_a]).is_none());
        assert_eq!(dog.fired(), 1);
    }

    #[test]
    #[should_panic(expected = "retry of unknown tag")]
    fn retrying_an_unknown_tag_panics() {
        PendingSet::new().retry(4, t(1.0));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The flat table behaves exactly like a `BTreeMap` keyed by tag
        /// under random inserts (tags in any order), completions, poisons,
        /// retries and lookups, and a duplicate insert panics with the
        /// message it always had, wherever the tag sits in the table.
        #[test]
        fn pending_set_matches_a_btreemap_reference(
            steps in prop::collection::vec((0u8..6, 0u64..24), 1..200),
        ) {
            let mut set = PendingSet::new();
            let mut reference: BTreeMap<u64, PendingTx> = BTreeMap::new();
            let (mut completed, mut retries) = (0u64, 0u64);
            for (i, (op, tag)) in steps.into_iter().enumerate() {
                let now = t(i as f64);
                match op {
                    0 | 1 if reference.contains_key(&tag) => {
                        let mut copy = set.clone();
                        let tx = reference[&tag];
                        let panic = catch_unwind(AssertUnwindSafe(move || copy.insert(tag, tx)))
                            .expect_err("a duplicate insert panics");
                        let message = panic.downcast_ref::<String>().cloned();
                        prop_assert_eq!(message, Some(format!("tag {tag:#x} already outstanding")));
                    }
                    0 | 1 => {
                        let tx = PendingTx {
                            src: i,
                            home: tag as usize,
                            first_issued: now,
                            deadline: now,
                            attempts: 1,
                        };
                        set.insert(tag, tx);
                        reference.insert(tag, tx);
                    }
                    2 => {
                        let want = reference.remove(&tag);
                        completed += u64::from(want.is_some());
                        prop_assert_eq!(set.complete(tag), want);
                    }
                    3 => prop_assert_eq!(set.poison(tag), reference.remove(&tag)),
                    4 => {
                        if let Some(tx) = reference.get_mut(&tag) {
                            tx.attempts += 1;
                            tx.deadline = now;
                            retries += 1;
                            prop_assert_eq!(set.retry(tag, now), tx.attempts);
                        }
                    }
                    _ => prop_assert_eq!(set.get(tag), reference.get(&tag)),
                }
                prop_assert!(set.iter().eq(reference.iter().map(|(&tag, tx)| (tag, tx))));
                prop_assert_eq!(set.len(), reference.len());
                prop_assert_eq!(set.is_empty(), reference.is_empty());
                prop_assert_eq!((set.completed(), set.retries()), (completed, retries));
            }
        }
    }
}
