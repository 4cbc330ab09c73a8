//! Sim-time-windowed metric timelines.
//!
//! The registry ([`crate::Registry`]) answers *how much*; a [`Timeline`]
//! answers *when*. It buckets every update into a fixed-width window of
//! simulated time (`window index = at_ps / window_ps`, so boundaries are a
//! pure function of the timestamp, never of event arrival order) and keeps
//! one registry per window. All three metric types inherit the registry's
//! commutative merge semantics — counters add, gauges max, log2 histograms
//! add bucket-wise — so merging per-worker timelines in input order yields
//! the identical series at any worker count, and folding every
//! window back together ([`Timeline::totals`]) reproduces the whole-run
//! registry exactly. That *exact-sum invariant* is what lets a windowed
//! series be trusted: the timeline is a partition of the totals, not a
//! second (approximate) measurement.

use std::collections::BTreeMap;

use serde_json::{Number, Value};

use crate::registry::Registry;

/// Fixed-width sim-time-windowed series of registries.
///
/// Sparse: only windows that received at least one update exist. Series
/// extraction ([`counter_series`](Self::counter_series)) densifies from
/// window 0 through the last touched window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Timeline {
    window_ps: u64,
    windows: BTreeMap<u64, Registry>,
}

impl Timeline {
    /// An empty timeline of `window_ps`-wide windows.
    ///
    /// # Panics
    ///
    /// Panics if `window_ps` is zero.
    pub fn new(window_ps: u64) -> Self {
        assert!(window_ps > 0, "window width must be positive");
        Timeline {
            window_ps,
            windows: BTreeMap::new(),
        }
    }

    /// The window width in picoseconds.
    pub fn window_ps(&self) -> u64 {
        self.window_ps
    }

    /// The window index `at_ps` falls into — a pure function of the
    /// timestamp, so two workers bucketing the same event agree no matter
    /// who processed it.
    pub fn window_index(&self, at_ps: u64) -> u64 {
        at_ps / self.window_ps
    }

    /// Whether no window was ever touched.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// The highest touched window index, if any.
    pub fn last_index(&self) -> Option<u64> {
        self.windows.keys().next_back().copied()
    }

    /// The registry of window `index`, if it was touched.
    pub fn window(&self, index: u64) -> Option<&Registry> {
        self.windows.get(&index)
    }

    /// Touched windows in ascending index order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &Registry)> {
        self.windows.iter().map(|(&i, r)| (i, r))
    }

    /// Add `delta` to `name`'s counter in the window containing `at_ps`.
    pub fn counter_add(&mut self, at_ps: u64, name: &str, delta: u64) {
        let idx = self.window_index(at_ps);
        self.windows
            .entry(idx)
            .or_default()
            .counter_add(name, delta);
    }

    /// Raise `name`'s high-water gauge in the window containing `at_ps`.
    pub fn gauge_max(&mut self, at_ps: u64, name: &str, value: u64) {
        let idx = self.window_index(at_ps);
        self.windows.entry(idx).or_default().gauge_max(name, value);
    }

    /// Record one histogram sample into the window containing `at_ps`.
    pub fn record(&mut self, at_ps: u64, name: &str, value: u64) {
        let idx = self.window_index(at_ps);
        self.windows.entry(idx).or_default().record(name, value);
    }

    /// Merge another timeline window-by-window. Commutative and
    /// associative because every per-window operation is; merging
    /// per-worker timelines in input order therefore reproduces the
    /// sequential run byte for byte.
    ///
    /// # Panics
    ///
    /// Panics if the window widths differ — windows of different widths
    /// do not partition time the same way and must never be mixed.
    pub fn merge(&mut self, other: &Timeline) {
        assert_eq!(
            self.window_ps, other.window_ps,
            "merging timelines with different window widths"
        );
        for (&idx, reg) in &other.windows {
            self.windows.entry(idx).or_default().merge(reg);
        }
    }

    /// Fold every window into one registry — the exact-sum invariant:
    /// because windows partition the run, the folded counters equal the
    /// whole-run counters, the folded gauges the whole-run high-water
    /// marks, and the folded histograms the whole-run histograms.
    pub fn totals(&self) -> Registry {
        let mut total = Registry::new();
        for reg in self.windows.values() {
            total.merge(reg);
        }
        total
    }

    /// Dense per-window counter values from window 0 through the last
    /// touched window (untouched windows read 0). Empty if nothing was
    /// ever recorded.
    pub fn counter_series(&self, name: &str) -> Vec<u64> {
        self.dense(|r| r.counter(name))
    }

    /// Dense per-window gauge values, like
    /// [`counter_series`](Self::counter_series).
    pub fn gauge_series(&self, name: &str) -> Vec<u64> {
        self.dense(|r| r.gauge(name))
    }

    fn dense(&self, read: impl Fn(&Registry) -> u64) -> Vec<u64> {
        let Some(last) = self.last_index() else {
            return Vec::new();
        };
        (0..=last)
            .map(|i| self.windows.get(&i).map_or(0, &read))
            .collect()
    }

    /// JSON snapshot: the window width plus one entry per touched window
    /// (ascending index), each carrying its full registry snapshot. All
    /// integers, so the bytes are exact at any worker count.
    pub fn to_json(&self) -> Value {
        let windows: Vec<Value> = self
            .windows
            .iter()
            .map(|(&idx, reg)| {
                let mut w = BTreeMap::new();
                w.insert("index".to_owned(), Value::Number(Number::PosInt(idx)));
                w.insert("registry".to_owned(), reg.to_json());
                Value::Object(w)
            })
            .collect();
        let mut root = BTreeMap::new();
        root.insert(
            "window_ps".to_owned(),
            Value::Number(Number::PosInt(self.window_ps)),
        );
        root.insert("windows".to_owned(), Value::Array(windows));
        Value::Object(root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(shift: u64) -> Timeline {
        let mut t = Timeline::new(1_000);
        for k in 0..20u64 {
            let at = shift + k * 137;
            t.counter_add(at, "completed", 1);
            t.gauge_max(at, "depth", k);
            t.record(at, "latency", k * k);
        }
        t
    }

    #[test]
    #[should_panic(expected = "window width must be positive")]
    fn zero_window_is_rejected() {
        Timeline::new(0);
    }

    #[test]
    fn window_boundaries_are_half_open() {
        let mut t = Timeline::new(1_000);
        t.counter_add(0, "c", 1); // window 0
        t.counter_add(999, "c", 1); // still window 0
        t.counter_add(1_000, "c", 1); // exactly the boundary: window 1
        t.counter_add(1_999, "c", 1); // window 1
        t.counter_add(2_000, "c", 1); // window 2
        assert_eq!(t.counter_series("c"), vec![2, 2, 1]);
        assert_eq!(t.window_index(999), 0);
        assert_eq!(t.window_index(1_000), 1);
    }

    #[test]
    fn dense_series_fills_untouched_windows_with_zero() {
        let mut t = Timeline::new(100);
        t.counter_add(50, "c", 3);
        t.counter_add(450, "c", 7);
        assert_eq!(t.counter_series("c"), vec![3, 0, 0, 0, 7]);
        assert_eq!(t.gauge_series("missing"), vec![0, 0, 0, 0, 0]);
        assert!(Timeline::new(100).counter_series("c").is_empty());
    }

    #[test]
    fn merge_is_commutative_and_matches_sequential() {
        let a = sample(0);
        let b = sample(5_000);
        let mut ab = Timeline::new(1_000);
        ab.merge(&a);
        ab.merge(&b);
        let mut ba = Timeline::new(1_000);
        ba.merge(&b);
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(
            serde_json::to_string(&ab.to_json()).expect("serialize"),
            serde_json::to_string(&ba.to_json()).expect("serialize"),
        );
    }

    #[test]
    #[should_panic(expected = "different window widths")]
    fn merging_mismatched_widths_is_rejected() {
        let mut a = Timeline::new(100);
        a.merge(&Timeline::new(200));
    }

    #[test]
    fn totals_reproduce_the_unwindowed_registry_exactly() {
        // The exact-sum invariant: recording through the timeline and
        // through a plain registry must agree once windows are folded.
        let mut t = Timeline::new(777); // width chosen to straddle values
        let mut whole = Registry::new();
        for k in 0..50u64 {
            let at = k * 313;
            t.counter_add(at, "completed", k);
            whole.counter_add("completed", k);
            t.gauge_max(at, "depth", 1000 - k);
            whole.gauge_max("depth", 1000 - k);
            t.record(at, "lat", k * 17);
            whole.record("lat", k * 17);
        }
        assert_eq!(t.totals(), whole);
    }

    #[test]
    fn json_shape_is_integer_only_and_window_ordered() {
        let mut t = Timeline::new(10);
        t.counter_add(95, "c", 2);
        t.counter_add(5, "c", 1);
        let s = serde_json::to_string(&t.to_json()).expect("serialize");
        assert!(s.contains("\"window_ps\":10"), "{s}");
        let first = s.find("\"index\":0").expect("window 0 present");
        let second = s.find("\"index\":9").expect("window 9 present");
        assert!(first < second, "windows must serialize in index order: {s}");
        assert!(!s.contains('.'), "all-integer JSON expected: {s}");
    }
}
