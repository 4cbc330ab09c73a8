//! Chaos campaign driver: fuzz, replay the reproducer corpus, or prove a
//! seeded recovery-path mutation is caught and shrunk.
//!
//! ```text
//! chaos run    [--trials N] [--seed S]          fuzz the intact machine
//! chaos replay <dir-or-file> ...               re-run committed reproducers
//! chaos mutate <mutation-id> [--write DIR]     catch + shrink a seeded bug
//! ```
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
//! schedule). Exit 1 on any mismatch. An unreadable file, bad JSON, an
//! invalid reproducer or an illegal plan prints `<file>: <error>` and
//! exits 2.
//!
//! `mutate` deliberately breaks one recovery path (`ignore-timeouts`,
//! `leak-poison`, `skip-window-refill`, `off-by-one-retry`), fuzzes until
//! the monitors catch it, shrinks the offending schedule, and with
//! `--write DIR` commits the reproducer to the corpus. Exit 1 if the
//! mutation is never caught — the monitors would have lost their teeth —
//! or if the reproducer cannot be written (`chaos: <path>: <error>`).
//!
//! A bad argument — an unknown subcommand, flag or mutation id, a missing
//! or malformed value, a stray positional — prints the usage and exits 2.

#![cfg_attr(test, allow(clippy::unwrap_used))]

use std::path::Path;
use std::process::ExitCode;

use alphasim::coherence::RetryPolicy;
use alphasim::kernel::SimDuration;
use alphasim::system::chaos::{replay, replay_healthy, run_chaos, ChaosOptions, Reproducer};
use alphasim::system::{MonitorReport, RecoveryMutation};
use alphasim_bench::args::{or_usage, Args};
use alphasim_bench::{check_env, write_or_check};

const USAGE: &str = "usage: chaos run [--trials N] [--seed S]
       chaos replay <dir-or-file> ...
       chaos mutate <mutation-id> [--write DIR]";

/// What the command line asks for.
#[derive(Debug, PartialEq)]
enum Command {
    Run {
        trials: usize,
        seed: u64,
    },
    Replay {
        paths: Vec<String>,
    },
    Mutate {
        mutation: RecoveryMutation,
        write: Option<String>,
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
            let (mut trials, mut seed) = (50, 0xC405);
            while let Some(arg) = args.next() {
                match arg {
                    "--trials" => trials = args.number(arg)?,
                    "--seed" => seed = args.number(arg)?,
                    flag if flag.starts_with('-') => return Err(format!("unknown flag {flag}")),
                    other => return Err(format!("unexpected argument {other:?}")),
                }
            }
            Ok(Command::Run { trials, seed })
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
            let (mut mutation, mut write) = (None, None);
            while let Some(arg) = args.next() {
                match arg {
                    "--write" => write = Some(args.value(arg)?),
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
            Ok(Command::Mutate { mutation, write })
        }
        other => Err(format!("unknown subcommand {other:?}")),
    }
}

fn cmd_run(trials: usize, seed: u64) -> ExitCode {
    let opts = ChaosOptions {
        trials,
        base_seed: seed,
        ..ChaosOptions::default()
    };
    eprintln!(
        "chaos: {} trials from seed {:#x} on {}P ...",
        opts.trials, opts.base_seed, opts.cpus
    );
    let report = run_chaos(&opts);
    let struck = report.kinds_struck();
    let faults: usize = report
        .trials
        .iter()
        .map(|t| t.result.faults_applied.len())
        .sum();
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

/// The reproducer files under `paths`: each directory's `*.json` files in
/// sorted order, and each plain file as given.
fn corpus_files(paths: &[String]) -> Result<Vec<String>, String> {
    let mut files = Vec::new();
    for path in paths {
        let meta = std::fs::metadata(path).map_err(|e| format!("{path}: {e}"))?;
        if meta.is_dir() {
            let mut entries = Vec::new();
            for entry in std::fs::read_dir(path).map_err(|e| format!("{path}: {e}"))? {
                let entry = entry.map_err(|e| format!("{path}: {e}"))?;
                entries.push(entry.path().display().to_string());
            }
            entries.retain(|p| p.ends_with(".json"));
            entries.sort();
            files.extend(entries);
        } else {
            files.push(path.clone());
        }
    }
    Ok(files)
}

/// Replay the reproducer in `text` (read from `file`) as recorded. Bad
/// JSON, an invalid reproducer or an illegal plan is an error naming the
/// file.
fn replay_text(file: &str, text: &str) -> Result<(Reproducer, MonitorReport), String> {
    let named = |e: String| format!("{file}: {e}");
    let rep = Reproducer::from_json(text).map_err(named)?;
    let (_, report) = replay(&rep).map_err(named)?;
    Ok((rep, report))
}

/// [`replay_text`] on the contents of `file`; an unreadable file is an
/// error naming it too.
fn replay_file(file: &str) -> Result<(Reproducer, MonitorReport), String> {
    let text = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
    replay_text(file, &text)
}

fn cmd_replay(paths: &[String]) -> ExitCode {
    let files = match corpus_files(paths) {
        Ok(files) => files,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if files.is_empty() {
        eprintln!("replay: no reproducer files found in {paths:?}");
        return ExitCode::FAILURE;
    }
    let mut failures = 0usize;
    for file in &files {
        let (rep, mutated) = match replay_file(file) {
            Ok(replayed) => replayed,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::from(2);
            }
        };
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

fn cmd_mutate(mutation: RecoveryMutation, write_dir: Option<String>) -> ExitCode {
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
            let path = format!("{dir}/{}.json", rep.name);
            if let Err(e) = write_or_check(Path::new(&path), &rep.to_json(), false) {
                eprintln!("chaos: {e}");
                return ExitCode::FAILURE;
            }
            println!("wrote {path}");
        }
        return ExitCode::SUCCESS;
    }
    println!("FAILED: mutation {id} was never caught — monitors have lost their teeth");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    or_usage(check_env(), "chaos", USAGE);
    let args: Vec<String> = std::env::args().skip(1).collect();
    match or_usage(parse(&args), "chaos", USAGE) {
        Command::Run { trials, seed } => cmd_run(trials, seed),
        Command::Replay { paths } => cmd_replay(&paths),
        Command::Mutate { mutation, write } => cmd_mutate(mutation, write),
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
                seed: 0xC405
            }
        );
        assert_eq!(
            parse_line("run --trials 12 --seed 7").unwrap(),
            Command::Run {
                trials: 12,
                seed: 7
            }
        );
        assert_eq!(
            parse_line("replay results/chaos-corpus a.json").unwrap(),
            Command::Replay {
                paths: vec!["results/chaos-corpus".into(), "a.json".into()]
            }
        );
        assert_eq!(
            parse_line("mutate --write corpus leak-poison").unwrap(),
            Command::Mutate {
                mutation: RecoveryMutation::LeakPoison,
                write: Some("corpus".into())
            }
        );
    }

    #[test]
    fn rejects_misspelled_flags_and_stray_arguments() {
        for (line, why) in [
            ("", "missing subcommand"),
            ("fuzz", "unknown subcommand \"fuzz\""),
            ("run --trails 3", "unknown flag --trails"),
            ("run --threads 2", "unknown flag --threads"),
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
            ("run --trials", "--trials wants a value"),
            ("mutate leak-poison --write", "--write wants a value"),
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
        assert!(parse_line("mutate --write corpus")
            .unwrap_err()
            .contains("wants a mutation id"));
        let err = parse_line("mutate leak-posion").unwrap_err();
        assert!(err.starts_with("unknown mutation \"leak-posion\""), "{err}");
    }

    #[test]
    fn damaged_reproducers_are_errors_naming_the_file() {
        let json =
            include_str!("../../../../results/chaos-corpus/chaos-leak-poison-seed50181.json");
        let file = "corpus/damaged.json";
        for (text, why) in [
            (&json[..json.len() / 2], "bad JSON"),
            (
                &json.replace("\"cpus\": 16", "\"cpus\": 48"),
                "field \"cpus\" must be a machine size",
            ),
            (
                &json.replace("\"outstanding\": 6", "\"outstanding\": 0"),
                "field \"outstanding\" must be at least 1, got 0",
            ),
            (
                &json.replace("\"requests_per_cpu\": 160", "\"requests_per_cpu\": 0"),
                "field \"requests_per_cpu\" must be at least 1, got 0",
            ),
            (
                &json.replace("\"timeout\": 50000000", "\"timeout\": 300000000"),
                "field \"timeout\" must be below the 250000000 ps watchdog window",
            ),
            (&json.replace("\"node\": 0", "\"node\": 99"), "illegal plan"),
            (
                &json.replace(
                    "\"events\": [",
                    "\"events\": [{\"at\": 18446744073709551615, \"kind\": {\"NodeUndrain\": {\"node\": 0}}},",
                ),
                "field \"at\" must leave a NodeUndrain's reads their retry budget",
            ),
            (
                // A repair heals a degraded, then cut, link at once, so a
                // second repair is illegal.
                &json.replace(
                    "\"events\": [",
                    "\"events\": [\
                     {\"at\": 1000000, \"kind\": {\"LinkDegrade\": {\"a\": 0, \"b\": 1}}},\
                     {\"at\": 1100000, \"kind\": {\"LinkDown\": {\"a\": 0, \"b\": 1}}},\
                     {\"at\": 1200000, \"kind\": {\"LinkUp\": {\"a\": 0, \"b\": 1}}},\
                     {\"at\": 1300000, \"kind\": {\"LinkUp\": {\"a\": 0, \"b\": 1}}},",
                ),
                "at 1300.000ns: link 0<->1 is already healthy",
            ),
        ] {
            let err = replay_text(file, text).unwrap_err();
            assert!(err.starts_with("corpus/damaged.json: "), "{err}");
            assert!(err.contains(why), "{err}");
        }
        let err = replay_file("corpus/no-such-file.json").unwrap_err();
        assert!(err.starts_with("corpus/no-such-file.json: "), "{err}");
        let err = corpus_files(&["corpus/no-such-dir".into()]).unwrap_err();
        assert!(err.starts_with("corpus/no-such-dir: "), "{err}");
    }
}
