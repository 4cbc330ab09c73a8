//! `perfsight` — the time-resolved performance report.
//!
//! ```text
//! perfsight [--window-us N] [--wall] [--json PATH]
//! ```
//!
//! Runs the observed timeline campaigns (the same fixtures behind the
//! `timeline` artifact of `reproduce`) and prints, per section:
//!
//! * the windowed table — injections, completions, retries, poisons,
//!   delivered throughput, outstanding depth, and exact p50/p99 latency
//!   per window of simulated time, with the saturation knee marked;
//! * topology heatmaps — messages delivered per node, outgoing-link
//!   occupancy per router, and reads served per home Zbox, as P×Q ASCII
//!   grids;
//! * the epoch engine profile — per-shard busy event counts,
//!   the critical shard, and the load-imbalance ratio.
//!
//! `--window-us N` re-windows at N µs (the committed artifact width is
//! 2 µs). `--wall` additionally measures per-shard wall-clock busy time —
//! a measurement of the host, printed but never part of the JSON, so sim
//! results are byte-identical either way. `--json PATH` writes the report
//! JSON (identical to `results/timeline.json` only at the default width).
//! A bad argument prints the usage line and exits 2; a report it cannot
//! write prints `perfsight: <path>: <error>` and exits 1.

#![cfg_attr(test, allow(clippy::unwrap_used))]

use alphasim::experiments::timeline::{timeline_report_with, WINDOW_PS};
use alphasim_bench::args::{or_usage, Args};
use alphasim_bench::{check_env, write_or_check};

const USAGE: &str = "usage: perfsight [--window-us N] [--wall] [--json PATH]";

/// What the command line asks for.
#[derive(Debug, PartialEq)]
struct Options {
    window_ps: u64,
    wall: bool,
    json: Option<String>,
}

/// Read the arguments in one pass, rejecting unknown flags, stray
/// positionals, and a missing, malformed or zero window.
fn parse(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        window_ps: WINDOW_PS,
        wall: false,
        json: None,
    };
    let mut args = Args::new(args);
    while let Some(arg) = args.next() {
        match arg {
            "--window-us" => {
                o.window_ps = match args.number::<u64>(arg)?.checked_mul(1_000_000) {
                    Some(0) => return Err("--window-us must be positive".into()),
                    Some(ps) => ps,
                    None => return Err("--window-us is out of range".into()),
                }
            }
            "--wall" => o.wall = true,
            "--json" => o.json = Some(args.value(arg)?),
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag}")),
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    Ok(o)
}

fn main() {
    or_usage(check_env(), "perfsight", USAGE);
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Options {
        window_ps,
        wall,
        json: json_path,
    } = or_usage(parse(&args), "perfsight", USAGE);

    eprintln!(
        "perfsight: observing timeline campaigns ({} µs windows{}) ...",
        window_ps / 1_000_000,
        if wall { ", wall-clock profiling" } else { "" },
    );
    let report = timeline_report_with(window_ps, false, wall);
    print!("{}", report.to_text());

    for s in &report.sections {
        println!("{}: outgoing-link occupancy ps per router (P×Q):", s.id);
        for line in s.observability.link_busy.to_ascii().lines() {
            println!("  {line}");
        }
        println!("{}: reads served per home Zbox (P×Q):", s.id);
        for line in s.observability.zbox_reads.to_ascii().lines() {
            println!("  {line}");
        }
        let peak = s.observability.node_delivered.peak_cell();
        let cols = s.observability.node_delivered.cols();
        println!(
            "{}: hottest node {} at ({}, {}) with {} deliveries\n",
            s.id,
            peak,
            peak % cols,
            peak / cols,
            s.observability.node_delivered.peak(),
        );
    }

    if let Some(path) = &json_path {
        let body = serde_json::to_string_pretty(&report.to_json()).expect("report serialises");
        if let Err(e) = write_or_check(std::path::Path::new(path), &body, false) {
            eprintln!("perfsight: {e}");
            std::process::exit(1);
        }
        eprintln!("perfsight: report JSON -> {path}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_line(line: &str) -> Result<Options, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse(&args)
    }

    #[test]
    fn accepts_every_documented_option() {
        assert_eq!(
            parse_line("").unwrap(),
            Options {
                window_ps: WINDOW_PS,
                wall: false,
                json: None,
            }
        );
        assert_eq!(
            parse_line("--window-us 5 --wall --json out.json").unwrap(),
            Options {
                window_ps: 5_000_000,
                wall: true,
                json: Some("out.json".into()),
            }
        );
    }

    #[test]
    fn rejects_bad_arguments() {
        for (line, why) in [
            ("--window-us abc", "--window-us wants a number, got \"abc\""),
            ("--window-us 0", "--window-us must be positive"),
            (
                "--window-us 18446744073709551",
                "--window-us is out of range",
            ),
            ("--window-us", "--window-us wants a value"),
            ("--json --wall", "--json wants a value"),
            ("--walls", "unknown flag --walls"),
            ("report.json", "unexpected argument \"report.json\""),
        ] {
            assert_eq!(parse_line(line).unwrap_err(), why, "{line}");
        }
    }
}
