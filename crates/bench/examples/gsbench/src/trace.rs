//! Host-time spans recorded around the benchmark's calls into each layer.
//!
//! Spans live in memory for the length of one traced pass and travel to
//! the parent process with the pass result, which writes them out as a
//! Chrome trace (`OUT/trace.json`, accepted by the repository's
//! `tracecheck` binary).

use std::collections::BTreeMap;
use std::time::Instant;

use serde_json::{json, Value};

/// One closed span: host nanoseconds since the pass started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same pass, if any.
    pub parent: Option<usize>,
    /// The sweep point (grid index, window index or cut count) it belongs to.
    pub point: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    pub fn to_json(&self) -> Value {
        json!([
            self.name,
            self.start_ns,
            self.end_ns,
            self.parent.map_or(-1, |p| p as i64),
            self.point
        ])
    }

    pub fn from_json(v: &Value) -> Option<Span> {
        let a = v.as_array()?;
        let parent = a.get(3)?.as_f64()?;
        Some(Span {
            name: a.first()?.as_str()?.to_owned(),
            start_ns: a.get(1)?.as_u64()?,
            end_ns: a.get(2)?.as_u64()?,
            parent: (parent >= 0.0).then_some(parent as usize),
            point: a.get(4)?.as_u64()?,
        })
    }
}

/// Span recorder; a disabled tracer records nothing and costs one branch
/// per call.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool, origin: Instant) -> Self {
        Tracer {
            on,
            origin,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span at `at`, nested in the innermost open span.
    pub fn open_at(&mut self, name: &str, point: u64, at: Instant) {
        if !self.on {
            return;
        }
        let start_ns = self.ns(at);
        self.spans.push(Span {
            name: name.to_owned(),
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            point,
        });
        self.stack.push(self.spans.len() - 1);
    }

    pub fn open(&mut self, name: &str, point: u64) {
        self.open_at(name, point, Instant::now());
    }

    /// Close the innermost open span at `at`.
    pub fn close_at(&mut self, at: Instant) {
        if !self.on {
            return;
        }
        let end_ns = self.ns(at);
        let id = self.stack.pop().expect("close matches an open span");
        self.spans[id].end_ns = end_ns;
    }

    pub fn close(&mut self) {
        self.close_at(Instant::now());
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.stack.is_empty(), "every span is closed");
        self.spans
    }
}

/// Self time per span name, in seconds: each span's duration minus the
/// part of it its child spans cover (children never overlap, since one
/// pass runs on one thread).
pub fn self_times(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    let mut out = BTreeMap::new();
    for (s, c) in spans.iter().zip(child_ns) {
        *out.entry(s.name.clone()).or_insert(0.0) += s.dur_ns().saturating_sub(c) as f64 * 1e-9;
    }
    out
}

/// Total duration per span name, in seconds.
pub fn total_times(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for s in spans {
        *out.entry(s.name.clone()).or_insert(0.0) += s.dur_ns() as f64 * 1e-9;
    }
    out
}

/// The Chrome trace of several traced passes, one process lane per pass.
/// Times are host microseconds from each pass's own start.
pub fn chrome_trace(passes: &[(&str, &[Span])]) -> Value {
    let mut events = Vec::new();
    for (pid, (label, spans)) in passes.iter().enumerate() {
        let pid = pid as u64 + 1;
        events.push(json!({
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0_u64,
            "args": json!({ "name": format!("gsbench: {label} (traced pass)") }),
        }));
        for (id, s) in spans.iter().enumerate() {
            let mut args = BTreeMap::new();
            args.insert("span".to_owned(), json!(id as u64));
            args.insert("point".to_owned(), json!(s.point));
            if let Some(p) = s.parent {
                args.insert("parent".to_owned(), json!(p as u64));
            }
            events.push(json!({
                "name": s.name,
                "cat": s.name.split('.').next().unwrap_or("gsbench"),
                "ph": "X",
                "ts": s.start_ns as f64 / 1e3,
                "dur": s.dur_ns() as f64 / 1e3,
                "pid": pid,
                "tid": 0_u64,
                "args": Value::Object(args),
            }));
        }
    }
    json!({ "displayTimeUnit": "ns", "traceEvents": events })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_owned(),
            start_ns,
            end_ns,
            parent,
            point: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span("pass", 0, 100, None),
            span("build", 0, 10, Some(0)),
            span("run", 10, 90, Some(0)),
        ];
        let st = self_times(&spans);
        assert!((st["pass"] - 10e-9).abs() < 1e-15);
        assert!((st["run"] - 80e-9).abs() < 1e-15);
    }

    #[test]
    fn spans_round_trip_through_json() {
        let s = span("run", 3, 9, Some(2));
        assert_eq!(Span::from_json(&s.to_json()), Some(s));
        let root = span("pass", 0, 1, None);
        assert_eq!(Span::from_json(&root.to_json()), Some(root));
    }
}
