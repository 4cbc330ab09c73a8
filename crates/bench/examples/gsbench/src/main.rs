//! gsbench — host-time benchmark of the GS1280 simulator on the paper's
//! own workloads.
//!
//! ```text
//! gsbench [--workload W] [--seed S] [--rounds N | --seconds S] [--trace 0|1]
//!         [--smoke] [--json OUT]
//! gsbench --compare BASE.json NEW.json
//! gsbench --selftest
//! ```
//!
//! Run from the repository root (it reads `BENCHMARK.json` and
//! `results/`). Each pass runs in a child process of its own, one at a
//! time; rounds visit the workloads in turn, reversing the order every
//! other round. With `--trace 1` (the default) a traced pass of every
//! workload follows the timed rounds. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics, or with tracing the per-layer ones). See README.md.

mod compare;
mod pass;
mod reference;
mod run;
mod spec;
mod trace;

use std::process::ExitCode;
use std::time::Instant;

use pass::Workload;

fn usage(err: &str) -> ExitCode {
    eprintln!("gsbench: {err}");
    eprintln!(
        "usage: gsbench [--workload W] [--seed S] [--rounds N | --seconds S] [--trace 0|1] [--smoke] [--json OUT]\n       gsbench --compare BASE.json NEW.json\n       gsbench --selftest\nworkloads: chase, loadtest, campaign, campaign-par"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args) {
        Ok(Mode::Pass { w, seed, traced }) => {
            let out = pass::run(w, seed, traced, start);
            println!(
                "{}",
                serde_json::to_string(&out.to_json()).expect("pass report serialises")
            );
            ExitCode::SUCCESS
        }
        Ok(Mode::Run(opts)) => match run::run(&opts) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(e) => {
                eprintln!("gsbench: {e}");
                ExitCode::from(2)
            }
        },
        Ok(Mode::Compare(base, new)) => match compare::compare(&base, &new) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(e) => {
                eprintln!("gsbench: {e}");
                ExitCode::from(2)
            }
        },
        Ok(Mode::Selftest) => match run::selftest() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("gsbench: selftest FAILED: {e}");
                ExitCode::from(1)
            }
        },
        Err(e) => usage(&e),
    }
}

enum Mode {
    Run(run::Options),
    Pass {
        w: Workload,
        seed: u64,
        traced: bool,
    },
    Compare(String, String),
    Selftest,
}

fn parse(args: &[String]) -> Result<Mode, String> {
    let mut opts = run::Options {
        workloads: Workload::ALL.to_vec(),
        seed: 0,
        rounds: 10,
        seconds: None,
        trace: true,
        json_dir: None,
    };
    let mut pass: Option<Workload> = None;
    let mut traced = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" | "--pass" => {
                let v = value()?;
                let w = Workload::parse(v).ok_or(format!("unknown workload {v:?}"))?;
                if flag == "--pass" {
                    pass = Some(w);
                } else {
                    opts.workloads = vec![w];
                }
            }
            "--seed" => {
                let v = value()?;
                opts.seed = v
                    .parse()
                    .map_err(|_| format!("--seed wants a number, got {v:?}"))?;
            }
            "--rounds" => {
                let v = value()?;
                opts.rounds = v
                    .parse()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or(format!("--rounds wants a positive number, got {v:?}"))?;
            }
            "--seconds" => {
                let v = value()?;
                opts.seconds = Some(
                    v.parse()
                        .ok()
                        .filter(|&s: &f64| s > 0.0 && s.is_finite())
                        .ok_or(format!("--seconds wants a positive number, got {v:?}"))?,
                );
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace wants 0 or 1, got {v:?}")),
                };
            }
            "--smoke" => {
                opts.rounds = 1;
                opts.trace = false;
            }
            "--json" => opts.json_dir = Some(value()?.clone()),
            "--traced" => traced = true,
            "--compare" => {
                let base = value()?.clone();
                let new = value()?.clone();
                return Ok(Mode::Compare(base, new));
            }
            "--selftest" => return Ok(Mode::Selftest),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(match pass {
        Some(w) => Mode::Pass {
            w,
            seed: opts.seed,
            traced,
        },
        None => Mode::Run(opts),
    })
}
