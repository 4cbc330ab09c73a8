//! The deterministic metric registry.
//!
//! Components register named counters, gauges, and histograms at
//! construction and update them through `&mut` access — no globals, no
//! interior mutability, no hashing, no wall clock. Names are ordinary
//! `metric.path` strings stored in `BTreeMap`s, so snapshot order is the
//! lexicographic name order regardless of registration or worker order,
//! and merging the per-worker registries of a `parallel_map` sweep in
//! input order reproduces the sequential run byte for byte.

use std::collections::BTreeMap;

use serde_json::{Number, Value};

use crate::hist::Log2Histogram;

/// A deterministic registry of typed metrics.
///
/// Merge semantics per type: counters add, gauges take the maximum
/// (they record high-water marks), histograms add bucket-wise.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Registry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Log2Histogram>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `delta` to the named counter, creating it at zero first.
    pub fn counter_add(&mut self, name: &str, delta: u64) {
        *self.entry_counter(name) += delta;
    }

    /// Raise the named high-water gauge to at least `value`.
    pub fn gauge_max(&mut self, name: &str, value: u64) {
        let g = self.gauges.entry(name.to_owned()).or_insert(0);
        *g = (*g).max(value);
    }

    /// Record one sample into the named histogram.
    pub fn record(&mut self, name: &str, value: u64) {
        self.histogram_mut(name).record(value);
    }

    /// Mutable access to a named histogram (created empty on first use);
    /// lets hot paths batch-record or components install a pre-filled one.
    pub fn histogram_mut(&mut self, name: &str) -> &mut Log2Histogram {
        self.histograms.entry(name.to_owned()).or_default()
    }

    /// Current value of a counter (0 if never registered).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Current value of a gauge (0 if never registered).
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// A named histogram, if registered.
    pub fn histogram(&self, name: &str) -> Option<&Log2Histogram> {
        self.histograms.get(name)
    }

    /// Whether nothing has been registered.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Merge another registry into this one: counters add, gauges max,
    /// histograms merge bucket-wise. Merging per-worker registries in input
    /// order yields the same snapshot at any worker count because every
    /// operation is commutative and associative and snapshot order is
    /// name order, not arrival order.
    pub fn merge(&mut self, other: &Registry) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            let g = self.gauges.entry(k.clone()).or_insert(0);
            *g = (*g).max(*v);
        }
        for (k, h) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(h);
        }
    }

    /// JSON snapshot: three objects keyed by metric name in lexicographic
    /// order (a `BTreeMap` walk), histograms in sparse form.
    pub fn to_json(&self) -> Value {
        let counters: BTreeMap<String, Value> = self
            .counters
            .iter()
            .map(|(k, &v)| (k.clone(), Value::Number(Number::PosInt(v))))
            .collect();
        let gauges: BTreeMap<String, Value> = self
            .gauges
            .iter()
            .map(|(k, &v)| (k.clone(), Value::Number(Number::PosInt(v))))
            .collect();
        let histograms: BTreeMap<String, Value> = self
            .histograms
            .iter()
            .map(|(k, h)| (k.clone(), h.to_json()))
            .collect();
        let mut root = BTreeMap::new();
        root.insert("counters".to_owned(), Value::Object(counters));
        root.insert("gauges".to_owned(), Value::Object(gauges));
        root.insert("histograms".to_owned(), Value::Object(histograms));
        Value::Object(root)
    }

    fn entry_counter(&mut self, name: &str) -> &mut u64 {
        self.counters.entry(name.to_owned()).or_insert(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_registry(shard: u64) -> Registry {
        let mut r = Registry::new();
        r.counter_add("net.delivered", 10 + shard);
        r.counter_add("campaign.retries", shard);
        r.gauge_max("event_queue.peak_depth", 100 * (shard + 1));
        for v in [0u64, 1, 3, 1 << shard] {
            r.record("latency.e2e_ns", v);
        }
        r
    }

    #[test]
    fn counters_add_and_read_back() {
        let mut r = Registry::new();
        r.counter_add("a.b", 2);
        r.counter_add("a.b", 3);
        assert_eq!(r.counter("a.b"), 5);
        assert_eq!(r.counter("missing"), 0);
    }

    #[test]
    fn gauges_keep_high_water() {
        let mut r = Registry::new();
        r.gauge_max("g", 7);
        r.gauge_max("g", 3);
        assert_eq!(r.gauge("g"), 7);
    }

    #[test]
    fn merge_is_order_independent() {
        let parts: Vec<Registry> = (0..4).map(sample_registry).collect();
        let mut fwd = Registry::new();
        for p in &parts {
            fwd.merge(p);
        }
        let mut rev = Registry::new();
        for p in parts.iter().rev() {
            rev.merge(p);
        }
        assert_eq!(fwd, rev);
        assert_eq!(
            serde_json::to_string(&fwd.to_json()).expect("serialize"),
            serde_json::to_string(&rev.to_json()).expect("serialize")
        );
    }

    #[test]
    fn snapshot_orders_names_lexicographically() {
        let mut r = Registry::new();
        r.counter_add("zzz", 1);
        r.counter_add("aaa", 1);
        let s = serde_json::to_string(&r.to_json()).expect("serialize");
        let a = s.find("aaa").expect("aaa serialized");
        let z = s.find("zzz").expect("zzz serialized");
        assert!(a < z, "lexicographic key order expected: {s}");
    }
}
