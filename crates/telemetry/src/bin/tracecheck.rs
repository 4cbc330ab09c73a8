//! Schema check for exported Chrome traces.
//!
//! Usage: `tracecheck <trace.json>`
//!
//! The vendored `serde_json` subset serializes but does not parse, so this
//! tool carries its own minimal recursive-descent JSON reader — enough to
//! validate the Trace Event Format contract Perfetto relies on:
//!
//! * the root is an object with a `traceEvents` array;
//! * every event is an object with string `name`/`ph` and numeric
//!   `pid`/`tid`;
//! * complete (`"X"`) events also carry numeric `ts` and `dur`.
//!
//! Exit status: 0 valid, 1 schema violation, 2 a bad argument (none, or
//! more than one path), an I/O error or a JSON parse error.

#![allow(clippy::unwrap_used)]

use std::collections::BTreeMap;
use std::process::ExitCode;

/// Minimal parsed-JSON tree (the vendored serde `Value` cannot be built
/// from text, so the checker has its own).
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Json>),
    Object(BTreeMap<String, Json>),
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn parse(mut self) -> Result<Json, String> {
        let v = self.value()?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(format!("trailing bytes at offset {}", self.pos));
        }
        Ok(v)
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at offset {}",
                char::from(b),
                self.pos
            ))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::String(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!("unexpected {:?} at offset {}", other, self.pos)),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at offset {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(
            self.bytes.get(self.pos),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        s.parse::<f64>()
            .map(Json::Number)
            .map_err(|e| format!("bad number {s:?}: {e}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err("unterminated string".to_owned()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .bytes
                        .get(self.pos)
                        .copied()
                        .ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            self.pos += 4;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => return Err(format!("bad escape \\{}", char::from(other))),
                    }
                }
                Some(&b) if b < 0x80 => {
                    out.push(char::from(b));
                    self.pos += 1;
                }
                Some(_) => {
                    // Multi-byte UTF-8: copy the whole code point.
                    let rest =
                        std::str::from_utf8(&self.bytes[self.pos..]).map_err(|e| e.to_string())?;
                    let ch = rest.chars().next().ok_or("empty continuation")?;
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                other => return Err(format!("expected ',' or ']' but got {other:?}")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            map.insert(key, self.value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(map));
                }
                other => return Err(format!("expected ',' or '}}' but got {other:?}")),
            }
        }
    }
}

fn get<'a>(obj: &'a BTreeMap<String, Json>, key: &str) -> Option<&'a Json> {
    obj.get(key)
}

/// Validate the Trace Event Format contract; returns the number of events
/// checked, or a description of the first violation.
fn validate(root: &Json) -> Result<usize, String> {
    let Json::Object(top) = root else {
        return Err("root is not an object".to_owned());
    };
    let Some(Json::Array(events)) = get(top, "traceEvents") else {
        return Err("missing traceEvents array".to_owned());
    };
    if events.is_empty() {
        return Err("traceEvents is empty".to_owned());
    }
    let mut complete = 0usize;
    for (i, ev) in events.iter().enumerate() {
        let Json::Object(e) = ev else {
            return Err(format!("event {i} is not an object"));
        };
        let Some(Json::String(ph)) = get(e, "ph") else {
            return Err(format!("event {i}: missing string \"ph\""));
        };
        if !matches!(get(e, "name"), Some(Json::String(_))) {
            return Err(format!("event {i}: missing string \"name\""));
        }
        for key in ["pid", "tid"] {
            if !matches!(get(e, key), Some(Json::Number(_))) {
                return Err(format!("event {i}: missing numeric \"{key}\""));
            }
        }
        if ph == "X" {
            complete += 1;
            for key in ["ts", "dur"] {
                match get(e, key) {
                    Some(Json::Number(n)) if *n >= 0.0 => {}
                    _ => {
                        return Err(format!(
                            "event {i}: \"X\" event needs non-negative numeric \"{key}\""
                        ))
                    }
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
    let root = match Parser::new(&text).parse() {
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

    fn parse(s: &str) -> Json {
        Parser::new(s).parse().expect("valid JSON")
    }

    #[test]
    fn parses_round_trippable_values() {
        assert_eq!(parse("null"), Json::Null);
        assert_eq!(parse(" [1, 2.5, -3] "), {
            Json::Array(vec![
                Json::Number(1.0),
                Json::Number(2.5),
                Json::Number(-3.0),
            ])
        });
        assert_eq!(
            parse(r#"{"a": "b\n", "c": true}"#),
            Json::Object(BTreeMap::from([
                ("a".to_owned(), Json::String("b\n".to_owned())),
                ("c".to_owned(), Json::Bool(true)),
            ]))
        );
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
        let body = sink.to_json_string();
        let parsed = Parser::new(&body).parse().expect("sink emits valid JSON");
        assert_eq!(validate(&parsed), Ok(2));
    }
}
