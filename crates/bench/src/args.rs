//! One-pass command-line reading for the `reproduce`, `chaos` and
//! `perfsight` binaries. A flag's value is the argument after it; a
//! missing or malformed value is an error that names the flag, and
//! [`or_usage`] turns any such error into the usage line and exit status 2,
//! so every binary rejects bad input the same way.

use std::str::FromStr;

/// The arguments not yet read, front to back.
pub struct Args<'a>(std::slice::Iter<'a, String>);

impl<'a> Args<'a> {
    /// Read `args` (the command line without the program name).
    pub fn new(args: &'a [String]) -> Self {
        Args(args.iter())
    }

    /// The value of `flag`: the next argument, unless it is missing or is
    /// itself a `--flag`.
    pub fn value(&mut self, flag: &str) -> Result<String, String> {
        match self.0.next() {
            Some(v) if !v.starts_with("--") => Ok(v.clone()),
            _ => Err(format!("{flag} wants a value")),
        }
    }

    /// The value of `flag`, parsed as a number.
    pub fn number<T: FromStr>(&mut self, flag: &str) -> Result<T, String> {
        let v = self.value(flag)?;
        v.parse()
            .map_err(|_| format!("{flag} wants a number, got {v:?}"))
    }
}

impl<'a> Iterator for Args<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        self.0.next().map(String::as_str)
    }
}

/// The parsed options, or — for a bad argument — `program: <why>` and the
/// usage line on stderr, then exit status 2.
pub fn or_usage<T>(parsed: Result<T, String>, program: &str, usage: &str) -> T {
    parsed.unwrap_or_else(|why| {
        eprintln!("{program}: {why}\n{usage}");
        std::process::exit(2)
    })
}

/// The host's available cores.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}
