//! Chaos campaign driver: fuzz, replay the reproducer corpus, or prove a
//! seeded recovery-path mutation is caught and shrunk.
//!
//! ```text
//! chaos run    [--trials N] [--seed S] [--threads N]   fuzz the intact machine
//! chaos replay <dir-or-file> ...                       re-run committed reproducers
//! chaos mutate <mutation-id> [--write DIR] [--threads N]  catch + shrink a seeded bug
//! ```
//!
//! `--threads N` drives each trial's epoch-parallel closed loop with N pool
//! threads (`ALPHASIM_THREADS` is the environment equivalent; `--threads 0`
//! means all available cores). Results are byte-identical at any value —
//! threads only change which core advances each torus region.
//!
//! `run` draws N seeded random fault schedules (every fault kind: cuts,
//! repairs, degradations, transient corruption, drains, brownouts, RDRAM
//! channel churn), runs each under the always-on invariant monitors, and
//! exits 1 if any monitor fires — printing the automatically shrunk
//! minimal reproducer for each violation.
//!
//! `replay` loads reproducer JSON files (sorted, so output order is
//! stable) and re-runs each exactly as recorded: a reproducer must
//! violate again (the monitors still catch the bug it documents), and a
//! mutated reproducer's schedule must additionally come back clean on the
//! intact machine (the bug lives in the broken recovery path, not the
//! schedule). Exit 1 on any mismatch.
//!
//! `mutate` deliberately breaks one recovery path (`ignore-timeouts`,
//! `leak-poison`, `skip-window-refill`, `off-by-one-retry`), fuzzes until
//! the monitors catch it, shrinks the offending schedule, and with
//! `--write DIR` commits the reproducer to the corpus. Exit 1 if the
//! mutation is never caught — the monitors would have lost their teeth.
//!
//! A bad argument — an unknown subcommand, flag or mutation id, a missing
//! or malformed value, a stray positional — prints the usage and exits 2.

#![cfg_attr(test, allow(clippy::unwrap_used))]

use std::process::ExitCode;

use alphasim::coherence::RetryPolicy;
use alphasim::kernel::SimDuration;
use alphasim::system::chaos::{replay, replay_healthy, run_chaos, ChaosOptions, Reproducer};
use alphasim::system::RecoveryMutation;
use alphasim_bench::args::{or_usage, threads_or_all_cores, Args};

const USAGE: &str = "usage: chaos run [--trials N] [--seed S] [--threads N]
       chaos replay <dir-or-file> ...
       chaos mutate <mutation-id> [--write DIR] [--threads N]";

/// What the command line asks for. `threads` is the campaign pool size:
/// `0` (no `--threads`) defers to `ALPHASIM_THREADS`, then 1.
#[derive(Debug, PartialEq)]
enum Command {
    Run {
        trials: usize,
        seed: u64,
        threads: usize,
    },
    Replay {
        paths: Vec<String>,
    },
    Mutate {
        mutation: RecoveryMutation,
        write: Option<String>,
        threads: usize,
    },
}

/// Read the subcommand and its arguments in one pass, rejecting unknown
/// subcommands, flags and mutation ids, missing or malformed values, and
/// stray positionals.
fn parse(args: &[String]) -> Result<Command, String> {
    let (sub, rest) = args.split_first().ok_or("missing subcommand")?;
    let mut args = Args::new(rest);
    match sub.as_str() {
        "run" => {
            let (mut trials, mut seed, mut threads) = (50, 0xC405, 0);
            while let Some(arg) = args.next() {
                match arg {
                    "--trials" => trials = args.number(arg)?,
                    "--seed" => seed = args.number(arg)?,
                    "--threads" => threads = threads_or_all_cores(args.number(arg)?),
                    flag if flag.starts_with('-') => return Err(format!("unknown flag {flag}")),
                    other => return Err(format!("unexpected argument {other:?}")),
                }
            }
            Ok(Command::Run {
                trials,
                seed,
                threads,
            })
        }
        "replay" => {
            let mut paths = Vec::new();
            for arg in args {
                if arg.starts_with('-') {
                    return Err(format!("unknown flag {arg}"));
                }
                paths.push(arg.to_owned());
            }
            if paths.is_empty() {
                return Err("replay wants at least one reproducer file or directory".into());
            }
            Ok(Command::Replay { paths })
        }
        "mutate" => {
            let (mut mutation, mut write, mut threads) = (None, None, 0);
            while let Some(arg) = args.next() {
                match arg {
                    "--write" => write = Some(args.value(arg)?),
                    "--threads" => threads = threads_or_all_cores(args.number(arg)?),
                    flag if flag.starts_with('-') => return Err(format!("unknown flag {flag}")),
                    id if mutation.is_none() => {
                        mutation = Some(RecoveryMutation::from_id(id).ok_or_else(|| {
                            format!(
                                "unknown mutation {id:?}; known: {:?}",
                                RecoveryMutation::ALL.map(RecoveryMutation::id)
                            )
                        })?);
                    }
                    id => return Err(format!("unexpected argument {id:?}")),
                }
            }
            let mutation = mutation.ok_or_else(|| {
                format!(
                    "mutate wants a mutation id: {:?}",
                    RecoveryMutation::ALL.map(RecoveryMutation::id)
                )
            })?;
            Ok(Command::Mutate {
                mutation,
                write,
                threads,
            })
        }
        other => Err(format!("unknown subcommand {other:?}")),
    }
}

fn cmd_run(trials: usize, seed: u64, threads: usize) -> ExitCode {
    let opts = ChaosOptions {
        trials,
        base_seed: seed,
        threads,
        ..ChaosOptions::default()
    };
    eprintln!(
        "chaos: {} trials from seed {:#x} on {}P ...",
        opts.trials, opts.base_seed, opts.cpus
    );
    let report = run_chaos(&opts);
    let struck = report.kinds_struck();
    let faults: usize = report.trials.iter().map(|t| t.faults_applied.len()).sum();
    println!(
        "{} trials, {} faults struck, {} fault kinds seen: {:?}",
        report.trials.len(),
        faults,
        struck.len(),
        struck
    );
    if report.reproducers.is_empty() {
        println!("all invariant monitors clean");
        return ExitCode::SUCCESS;
    }
    for rep in &report.reproducers {
        println!(
            "VIOLATION {}: monitors {:?}, shrunk to {} fault(s):",
            rep.name,
            rep.violations,
            rep.plan.len()
        );
        print!("{}", rep.to_json());
    }
    ExitCode::FAILURE
}

fn corpus_files(paths: &[String]) -> Vec<String> {
    let mut files = Vec::new();
    for path in paths {
        let meta = std::fs::metadata(path).unwrap_or_else(|e| panic!("{path}: {e}"));
        if meta.is_dir() {
            let mut entries: Vec<String> = std::fs::read_dir(path)
                .unwrap_or_else(|e| panic!("{path}: {e}"))
                .map(|e| e.expect("read dir entry").path().display().to_string())
                .filter(|p| p.ends_with(".json"))
                .collect();
            entries.sort();
            files.extend(entries);
        } else {
            files.push(path.clone());
        }
    }
    files
}

fn cmd_replay(paths: &[String]) -> ExitCode {
    let files = corpus_files(paths);
    if files.is_empty() {
        eprintln!("replay: no reproducer files found in {paths:?}");
        return ExitCode::FAILURE;
    }
    let mut failures = 0usize;
    for file in &files {
        let text = std::fs::read_to_string(file).unwrap_or_else(|e| panic!("{file}: {e}"));
        let rep = Reproducer::from_json(&text).unwrap_or_else(|e| panic!("{file}: {e}"));
        let (_, mutated) = replay(&rep).unwrap_or_else(|e| panic!("{file}: {e}"));
        if mutated.is_clean() {
            println!("{file}: FAILED — reproducer no longer violates");
            failures += 1;
            continue;
        }
        let monitors: std::collections::BTreeSet<&str> = mutated
            .violations
            .iter()
            .map(|v| v.monitor.as_str())
            .collect();
        if rep.mutation.is_some() {
            let (_, healthy) = replay_healthy(&rep).unwrap_or_else(|e| panic!("{file}: {e}"));
            if !healthy.is_clean() {
                println!("{file}: FAILED — schedule violates even without the mutation");
                failures += 1;
                continue;
            }
        }
        println!(
            "{file}: reproduces ({} fault(s), monitors {monitors:?})",
            rep.plan.len()
        );
    }
    if failures > 0 {
        println!("{failures}/{} reproducer(s) failed", files.len());
        return ExitCode::FAILURE;
    }
    println!("all {} reproducer(s) replay as recorded", files.len());
    ExitCode::SUCCESS
}

fn cmd_mutate(mutation: RecoveryMutation, write_dir: Option<String>, threads: usize) -> ExitCode {
    let id = mutation.id();
    // The default 50 us timeout never exhausts its retries inside a ~7 us
    // run, so the off-by-one poison threshold is dead code under it. Hunt
    // that mutation with a hair-trigger policy: congestion from any fault
    // reads as loss, retries exhaust, and the extra attempt shows.
    let retry = if mutation == RecoveryMutation::OffByOneRetry {
        RetryPolicy {
            timeout: SimDuration::from_us(1.0),
            backoff_base: SimDuration::from_ns(250.0),
            backoff_cap: SimDuration::from_us(1.0),
            max_retries: 2,
        }
    } else {
        ChaosOptions::default().retry
    };
    // Scan seed batches until the broken path is exercised: a mutation
    // only shows when a random schedule drives traffic down that path.
    for batch in 0u64..8 {
        let opts = ChaosOptions {
            trials: 12,
            base_seed: 0xC405 + batch * 12,
            retry,
            mutation: Some(mutation),
            threads,
            ..ChaosOptions::default()
        };
        eprintln!("mutate {id}: batch {batch} (seeds {:#x}..)", opts.base_seed);
        let report = run_chaos(&opts);
        let Some(rep) = report.reproducers.first() else {
            continue;
        };
        println!(
            "caught by {:?}, shrunk to {} fault(s):",
            rep.violations,
            rep.plan.len()
        );
        print!("{}", rep.to_json());
        if rep.plan.len() > 3 {
            println!("FAILED: reproducer did not shrink to <= 3 faults");
            return ExitCode::FAILURE;
        }
        if let Some(dir) = write_dir {
            std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("{dir}: {e}"));
            let path = format!("{dir}/{}.json", rep.name);
            std::fs::write(&path, rep.to_json()).unwrap_or_else(|e| panic!("{path}: {e}"));
            println!("wrote {path}");
        }
        return ExitCode::SUCCESS;
    }
    println!("FAILED: mutation {id} was never caught — monitors have lost their teeth");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match or_usage(parse(&args), "chaos", USAGE) {
        Command::Run {
            trials,
            seed,
            threads,
        } => cmd_run(trials, seed, threads),
        Command::Replay { paths } => cmd_replay(&paths),
        Command::Mutate {
            mutation,
            write,
            threads,
        } => cmd_mutate(mutation, write, threads),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_line(line: &str) -> Result<Command, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse(&args)
    }

    #[test]
    fn accepts_every_documented_option() {
        assert_eq!(
            parse_line("run").unwrap(),
            Command::Run {
                trials: 50,
                seed: 0xC405,
                threads: 0
            }
        );
        assert_eq!(
            parse_line("run --trials 12 --seed 7 --threads 3").unwrap(),
            Command::Run {
                trials: 12,
                seed: 7,
                threads: 3
            }
        );
        assert_eq!(
            parse_line("replay results/chaos-corpus a.json").unwrap(),
            Command::Replay {
                paths: vec!["results/chaos-corpus".into(), "a.json".into()]
            }
        );
        assert_eq!(
            parse_line("mutate --threads 2 leak-poison --write corpus").unwrap(),
            Command::Mutate {
                mutation: RecoveryMutation::LeakPoison,
                write: Some("corpus".into()),
                threads: 2
            }
        );
    }

    #[test]
    fn rejects_misspelled_flags_and_stray_arguments() {
        for (line, why) in [
            ("", "missing subcommand"),
            ("fuzz", "unknown subcommand \"fuzz\""),
            ("run --trails 3", "unknown flag --trails"),
            ("run 12", "unexpected argument \"12\""),
            ("replay --all", "unknown flag --all"),
            ("mutate leak-poison --seed 3", "unknown flag --seed"),
            (
                "mutate leak-poison skip-window-refill",
                "unexpected argument \"skip-window-refill\"",
            ),
        ] {
            assert_eq!(parse_line(line).unwrap_err(), why, "{line}");
        }
    }

    #[test]
    fn rejects_missing_and_malformed_values() {
        for (line, why) in [
            ("run --trials x", "--trials wants a number, got \"x\""),
            ("run --seed -1", "--seed wants a number, got \"-1\""),
            ("run --threads", "--threads wants a value"),
            ("mutate leak-poison --write", "--write wants a value"),
            (
                "mutate leak-poison --threads two",
                "--threads wants a number, got \"two\"",
            ),
        ] {
            assert_eq!(parse_line(line).unwrap_err(), why, "{line}");
        }
    }

    #[test]
    fn rejects_missing_or_unknown_targets() {
        assert!(parse_line("replay").unwrap_err().contains("at least one"));
        assert!(parse_line("mutate")
            .unwrap_err()
            .contains("wants a mutation id"));
        assert!(parse_line("mutate --threads 2")
            .unwrap_err()
            .contains("wants a mutation id"));
        let err = parse_line("mutate leak-posion").unwrap_err();
        assert!(err.starts_with("unknown mutation \"leak-posion\""), "{err}");
    }

    #[test]
    fn threads_zero_means_every_core() {
        let threads = |line| match parse_line(line).unwrap() {
            Command::Run { threads, .. } | Command::Mutate { threads, .. } => threads,
            Command::Replay { .. } => unreachable!(),
        };
        assert_eq!(threads("run --threads 0"), threads_or_all_cores(0));
        assert_eq!(
            threads("mutate leak-poison --threads 0"),
            threads_or_all_cores(0)
        );
    }
}
