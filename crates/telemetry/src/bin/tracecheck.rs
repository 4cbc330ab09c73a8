//! Schema check for exported Chrome traces.
//!
//! Usage: `tracecheck <trace.json>`
//!
//! Parses the file with the vendored `serde_json::from_str` and validates
//! the Trace Event Format contract Perfetto relies on:
//!
//! * the root is an object with a `traceEvents` array;
//! * every event is an object with string `name`/`ph` and numeric
//!   `pid`/`tid`;
//! * complete (`"X"`) events also carry numeric `ts` and `dur`.
//!
//! Exit status: 0 valid, 1 schema violation, 2 a bad argument (none, or
//! more than one path), an I/O error or a JSON parse error.

#![allow(clippy::unwrap_used)]

use serde_json::Value;
use std::process::ExitCode;

/// Validate the Trace Event Format contract; returns the number of events
/// checked, or a description of the first violation.
fn validate(root: &Value) -> Result<usize, String> {
    if !root.is_object() {
        return Err("root is not an object".to_owned());
    }
    let Some(events) = root.get("traceEvents").and_then(Value::as_array) else {
        return Err("missing traceEvents array".to_owned());
    };
    if events.is_empty() {
        return Err("traceEvents is empty".to_owned());
    }
    let mut complete = 0usize;
    for (i, e) in events.iter().enumerate() {
        if !e.is_object() {
            return Err(format!("event {i} is not an object"));
        }
        let Some(ph) = e.get("ph").and_then(Value::as_str) else {
            return Err(format!("event {i}: missing string \"ph\""));
        };
        if e.get("name").and_then(Value::as_str).is_none() {
            return Err(format!("event {i}: missing string \"name\""));
        }
        for key in ["pid", "tid"] {
            if e.get(key).and_then(Value::as_f64).is_none() {
                return Err(format!("event {i}: missing numeric \"{key}\""));
            }
        }
        if ph == "X" {
            complete += 1;
            for key in ["ts", "dur"] {
                if !e.get(key).and_then(Value::as_f64).is_some_and(|n| n >= 0.0) {
                    return Err(format!(
                        "event {i}: \"X\" event needs non-negative numeric \"{key}\""
                    ));
                }
            }
        }
    }
    if complete == 0 {
        return Err("no complete (\"X\") events in trace".to_owned());
    }
    Ok(events.len())
}

/// The one argument is the trace to check; anything else is a usage error.
fn parse_args(args: &[String]) -> Option<&str> {
    match args {
        [path] if !path.starts_with('-') => Some(path),
        _ => None,
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(path) = parse_args(&args) else {
        eprintln!("usage: tracecheck <trace.json>");
        return ExitCode::from(2);
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("tracecheck: cannot read {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let root = match serde_json::from_str(&text) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("tracecheck: {path} is not valid JSON: {e}");
            return ExitCode::from(2);
        }
    };
    match validate(&root) {
        Ok(n) => {
            println!("tracecheck: {path} OK ({n} events)");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("tracecheck: {path} violates the trace schema: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Value {
        serde_json::from_str(s).expect("valid JSON")
    }

    #[test]
    fn takes_exactly_one_trace_path() {
        let args = |l: &str| l.split_whitespace().map(String::from).collect::<Vec<_>>();
        assert_eq!(parse_args(&args("t.json")), Some("t.json"));
        for bad in ["", "ok.json bad.json", "--bogus", "--help t.json"] {
            assert_eq!(parse_args(&args(bad)), None, "{bad}");
        }
    }

    #[test]
    fn accepts_a_minimal_valid_trace() {
        let t = r#"{"traceEvents":[
            {"name":"thread_name","ph":"M","pid":1,"tid":0,"args":{"name":"n"}},
            {"name":"Request","cat":"msg","ph":"X","ts":1.5,"dur":0.5,"pid":1,"tid":0,"args":{}}
        ]}"#;
        assert_eq!(validate(&parse(t)), Ok(2));
    }

    #[test]
    fn rejects_schema_violations() {
        let missing_dur = r#"{"traceEvents":[
            {"name":"a","ph":"X","ts":1.0,"pid":1,"tid":0}
        ]}"#;
        assert!(validate(&parse(missing_dur)).is_err());
        let no_events = r#"{"traceEvents":[]}"#;
        assert!(validate(&parse(no_events)).is_err());
        let not_object = "[1,2,3]";
        assert!(validate(&parse(not_object)).is_err());
    }

    #[test]
    fn sink_output_validates() {
        let mut sink = alphasim_telemetry::TraceSink::new();
        sink.name_process(1, "network");
        sink.complete("Request", "msg", 1, 0, 0, 1000, &[("tag", 7)]);
        let parsed = parse(&sink.to_json_string());
        assert_eq!(validate(&parsed), Ok(2));
    }
}
