//! Chrome-trace ("Trace Event Format") sink.
//!
//! Collects complete ("X") duration events plus process/thread metadata
//! and serializes them as the JSON object form
//! (`{"displayTimeUnit": ..., "traceEvents": [...]}`) that
//! `chrome://tracing` and [Perfetto](https://ui.perfetto.dev) load
//! directly. Timestamps are simulated picoseconds converted to the
//! format's microseconds; nothing reads the wall clock, so a traced run
//! is as reproducible as an untraced one.

use serde_json::{json, Value};

/// Conventional process id for the message-lifetime lanes (one thread row
/// per source node).
pub const PID_MESSAGES: u32 = 1;
/// Conventional process id for link-occupancy lanes (one thread row per
/// directed link).
pub const PID_LINKS: u32 = 2;
/// Conventional process id for memory-controller (Zbox) service lanes.
pub const PID_MEMORY: u32 = 3;
/// Conventional process id for the epoch engine's profiler lane (one
/// thread row: its event queue).
pub const PID_SHARDS: u32 = 4;

/// One complete ("X") duration event.
#[derive(Debug, Clone, PartialEq, Eq)]
struct CompleteEvent {
    name: String,
    cat: String,
    pid: u32,
    tid: u32,
    start_ps: u64,
    dur_ps: u64,
    /// Extra integer arguments shown in the Perfetto detail pane.
    args: Vec<(String, u64)>,
}

/// Process/thread display-name metadata ("M") event.
#[derive(Debug, Clone, PartialEq, Eq)]
struct MetaEvent {
    meta: &'static str,
    pid: u32,
    tid: u32,
    label: String,
}

/// An in-memory event-trace sink. Events keep insertion order, which is
/// the deterministic simulation event order of the run that produced them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceSink {
    events: Vec<CompleteEvent>,
    meta: Vec<MetaEvent>,
}

impl TraceSink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a complete ("X") event spanning
    /// `[start_ps, start_ps + dur_ps]` simulated picoseconds.
    // One parameter per Chrome-trace field; grouping them into a struct
    // would just re-spell the format at every call site.
    #[allow(clippy::too_many_arguments)]
    pub fn complete(
        &mut self,
        name: &str,
        cat: &str,
        pid: u32,
        tid: u32,
        start_ps: u64,
        dur_ps: u64,
        args: &[(&str, u64)],
    ) {
        self.events.push(CompleteEvent {
            name: name.to_owned(),
            cat: cat.to_owned(),
            pid,
            tid,
            start_ps,
            dur_ps,
            args: args.iter().map(|&(k, v)| (k.to_owned(), v)).collect(),
        });
    }

    /// Name a process lane in the viewer.
    pub fn name_process(&mut self, pid: u32, label: &str) {
        self.meta.push(MetaEvent {
            meta: "process_name",
            pid,
            tid: 0,
            label: label.to_owned(),
        });
    }

    /// Name a thread lane in the viewer.
    pub fn name_thread(&mut self, pid: u32, tid: u32, label: &str) {
        self.meta.push(MetaEvent {
            meta: "thread_name",
            pid,
            tid,
            label: label.to_owned(),
        });
    }

    /// Append every event (complete and metadata) of `other` to this sink.
    /// Used by the closed loop to fold the fabric's sink into the
    /// campaign's after a run; follow with
    /// [`canonical_sort`](Self::canonical_sort) so the merged order is a
    /// pure function of the events.
    pub fn merge_from(&mut self, other: TraceSink) {
        self.events.extend(other.events);
        self.meta.extend(other.meta);
    }

    /// Sort complete events into a canonical total order — by start time,
    /// then lane (`pid`, `tid`), then duration, name, category, and args.
    /// Two runs that record the same event *set* then serialize to the
    /// same bytes regardless of recording order; metadata events keep
    /// insertion order (emitters add them once, in a fixed order).
    pub fn canonical_sort(&mut self) {
        self.events.sort_by(|a, b| {
            (a.start_ps, a.pid, a.tid, a.dur_ps, &a.name, &a.cat, &a.args)
                .cmp(&(b.start_ps, b.pid, b.tid, b.dur_ps, &b.name, &b.cat, &b.args))
        });
    }

    /// Number of complete events recorded (metadata excluded).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no complete events were recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The full trace as a Trace-Event-Format JSON value: metadata events
    /// first, then complete events in insertion order. `ts`/`dur` are in
    /// microseconds as the format requires (fractional; exact for any
    /// picosecond count below 2^53 femtosecond-free range).
    pub fn to_json(&self) -> Value {
        let mut events: Vec<Value> = Vec::with_capacity(self.meta.len() + self.events.len());
        for m in &self.meta {
            let name_arg = json!({ "name": m.label });
            events.push(json!({
                "name": m.meta,
                "ph": "M",
                "pid": m.pid,
                "tid": m.tid,
                "args": name_arg,
            }));
        }
        for e in &self.events {
            let mut args = std::collections::BTreeMap::new();
            for (k, v) in &e.args {
                args.insert(k.clone(), json!(*v));
            }
            events.push(json!({
                "name": e.name,
                "cat": e.cat,
                "ph": "X",
                "ts": e.start_ps as f64 / 1e6,
                "dur": e.dur_ps as f64 / 1e6,
                "pid": e.pid,
                "tid": e.tid,
                "args": Value::Object(args),
            }));
        }
        json!({
            "displayTimeUnit": "ns",
            "traceEvents": events,
        })
    }

    /// The trace serialized compactly, newline-terminated — the byte shape
    /// written to the `--trace` output file.
    pub fn to_json_string(&self) -> String {
        let mut s = serde_json::to_string(&self.to_json()).unwrap_or_default();
        s.push('\n');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_has_required_keys_per_event() {
        let mut t = TraceSink::new();
        t.name_process(1, "network");
        t.name_thread(1, 3, "node 3");
        t.complete("Request", "msg", 1, 3, 2_000_000, 500_000, &[("hops", 2)]);
        let s = t.to_json_string();
        assert!(s.contains("\"traceEvents\""), "{s}");
        assert!(s.contains("\"ph\":\"X\""), "{s}");
        assert!(s.contains("\"ph\":\"M\""), "{s}");
        // 2_000_000 ps = 2 µs, 500_000 ps = 0.5 µs.
        assert!(s.contains("\"ts\":2.0"), "{s}");
        assert!(s.contains("\"dur\":0.5"), "{s}");
        assert!(s.contains("\"hops\":2"), "{s}");
        assert!(s.ends_with('\n'), "newline-terminated file body");
    }

    #[test]
    fn merged_sinks_sort_to_recording_order_independent_bytes() {
        let event = |t: &mut TraceSink, n: &str, start: u64| {
            t.complete(n, "msg", 1, 0, start, 10, &[("tag", start)]);
        };
        let mut a = TraceSink::new();
        let mut b = TraceSink::new();
        event(&mut a, "x", 30);
        event(&mut a, "x", 10);
        event(&mut b, "y", 20);
        let mut ab = TraceSink::new();
        ab.merge_from(a.clone());
        ab.merge_from(b.clone());
        let mut ba = TraceSink::new();
        ba.merge_from(b);
        ba.merge_from(a);
        ab.canonical_sort();
        ba.canonical_sort();
        assert_eq!(ab.to_json_string(), ba.to_json_string());
        assert_eq!(ab.len(), 3);
    }

    #[test]
    fn empty_sink_serializes_cleanly() {
        let t = TraceSink::new();
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert!(t.to_json_string().contains("\"traceEvents\":[]"));
    }
}
