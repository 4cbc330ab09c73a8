//! Regenerate (or check) the `results/verify.json` verification artifact,
//! or run one targeted analysis for the CI matrix.
//!
//! ```text
//! cargo run --release -p verify --bin report                   # rewrite
//! cargo run --release -p verify --bin report -- --check PATH   # assert byte-identical
//! cargo run --release -p verify --bin report -- --mc 6         # recovery protocol, 6 CPUs
//! cargo run --release -p verify --bin report -- --cdg 32x32    # certify one torus
//! ```
//!
//! `--mc N` exhausts the fault-extended recovery protocol at N CPUs under
//! symmetry + partial-order reduction and re-catches every seeded
//! mutation; `--cdg CxR` certifies the healthy C×R torus acyclic and
//! sweeps its degraded configurations (exhaustively at 8×8 and below,
//! seeded-sampled above). Both exit non-zero on any violation. A bad
//! argument — an unknown flag, a second path, a missing or malformed
//! value — prints the usage and exits 2.

#![cfg_attr(test, allow(clippy::unwrap_used))]

use verify::mc::{check_reduced, Reduction, Verdict};
use verify::protocol::{Mutation, ProtocolModel, MAX_CPUS};
use verify::{cdg, report};

const USAGE: &str = "usage: report [--check] [PATH] | report --mc N | report --cdg COLSxROWS";

/// What the command line asks for.
#[derive(Debug, PartialEq)]
enum Command {
    /// Exhaust the recovery protocol at this many CPUs.
    Mc(usize),
    /// Certify one `COLSxROWS` torus.
    Cdg(usize, usize),
    /// Rewrite the report at `path` (default `results/verify.json`) or,
    /// with `check`, compare it.
    Report { check: bool, path: Option<String> },
}

/// Read the arguments, rejecting unknown flags, a second path, and a
/// missing, malformed or out-of-range `--mc`/`--cdg` value.
fn parse(args: &[String]) -> Result<Command, String> {
    match args.first().map(String::as_str) {
        Some("--mc") => match &args[1..] {
            [n] => n
                .parse()
                .ok()
                .filter(|n| (2..=MAX_CPUS).contains(n))
                .map(Command::Mc)
                .ok_or_else(|| format!("--mc wants a CPU count (2..=8), got {n:?}")),
            _ => Err("--mc wants one CPU count (2..=8)".into()),
        },
        Some("--cdg") => match &args[1..] {
            [spec] => spec
                .split_once('x')
                .and_then(|(c, r)| Some((c.parse().ok()?, r.parse().ok()?)))
                .filter(|&(cols, rows)| cols > 0 && rows > 0)
                .map(|(cols, rows)| Command::Cdg(cols, rows))
                .ok_or_else(|| format!("--cdg wants positive COLSxROWS, got {spec:?}")),
            _ => Err("--cdg wants one COLSxROWS torus spec".into()),
        },
        _ => {
            let (mut check, mut path) = (false, None);
            for arg in args {
                match arg.as_str() {
                    "--check" => check = true,
                    flag if flag.starts_with('-') => return Err(format!("unknown flag {flag}")),
                    p if path.is_none() => path = Some(p.to_owned()),
                    p => return Err(format!("unexpected second path {p:?}")),
                }
            }
            Ok(Command::Report { check, path })
        }
    }
}

fn run_mc(cpus: usize) {
    let max_retries = if cpus <= 3 { 2 } else { 1 };
    let model = ProtocolModel::recovery(cpus, max_retries);
    match check_reduced(&model, 2_000_000, Reduction::FULL) {
        Verdict::Pass(e) => println!(
            "mc: recovery protocol clean at {cpus} CPUs (max_retries {max_retries}): \
             {} states, {} transitions, depth {}",
            e.states, e.transitions, e.depth
        ),
        Verdict::Violated(cex) => {
            eprintln!(
                "mc: recovery protocol violated at {cpus} CPUs:\n{}",
                cex.describe()
            );
            std::process::exit(1);
        }
    }
    for m in Mutation::SEEDED.iter().chain(&Mutation::RECOVERY_SEEDED) {
        let mutated = ProtocolModel::recovery_mutated(cpus.min(4), max_retries, *m);
        match check_reduced(&mutated, 2_000_000, Reduction::FULL) {
            Verdict::Violated(cex) => println!(
                "mc: mutation {} caught in {} steps (violates: {})",
                m.id(),
                cex.steps.len(),
                cex.invariant
            ),
            Verdict::Pass(_) => {
                eprintln!("mc: seeded mutation {} was NOT caught", m.id());
                std::process::exit(1);
            }
        }
    }
}

fn run_cdg(cols: usize, rows: usize) {
    let healthy = cdg::healthy_torus(cols, rows, true)
        .verdict()
        .expect_acyclic();
    println!(
        "cdg: healthy {cols}x{rows} torus acyclic ({} channels, {} edges)",
        healthy.channels, healthy.edges
    );
    let sweep = if cols * rows <= 64 {
        cdg::sweep_single_cuts(cols, rows)
    } else {
        cdg::sweep_sampled_single_cuts(cols, rows, 16, cdg::SAMPLE_SEED)
    };
    match sweep {
        Ok(s) => println!(
            "cdg: {} degraded configuration(s) acyclic (max {} channels, {} edges)",
            s.configs, s.max_channels, s.max_edges
        ),
        Err(e) => {
            eprintln!("cdg: degraded sweep failed: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (check, path) = match parse(&args) {
        Ok(Command::Mc(cpus)) => return run_mc(cpus),
        Ok(Command::Cdg(cols, rows)) => return run_cdg(cols, rows),
        Ok(Command::Report { check, path }) => (check, path),
        Err(why) => {
            eprintln!("report: {why}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let root = verify::workspace_root();
    let path = path.map_or_else(|| root.join("results/verify.json"), Into::into);
    let fresh = report::to_json(&report::build(&root));
    if check {
        let committed = match std::fs::read_to_string(&path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("verify report: cannot read {}: {e}", path.display());
                std::process::exit(2);
            }
        };
        if committed == fresh {
            println!("verify report: {} is up to date", path.display());
        } else {
            eprintln!(
                "verify report: {} is stale — regenerate with `cargo run --release -p verify --bin report`",
                path.display()
            );
            std::process::exit(1);
        }
    } else if let Err(e) = std::fs::write(&path, &fresh) {
        eprintln!("verify report: cannot write {}: {e}", path.display());
        std::process::exit(2);
    } else {
        println!("verify report: wrote {}", path.display());
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
    fn accepts_every_documented_form() {
        assert_eq!(
            parse_line("").unwrap(),
            Command::Report {
                check: false,
                path: None
            }
        );
        assert_eq!(
            parse_line("--check results/verify.json").unwrap(),
            Command::Report {
                check: true,
                path: Some("results/verify.json".into())
            }
        );
        assert_eq!(parse_line("--mc 6").unwrap(), Command::Mc(6));
        assert_eq!(parse_line("--cdg 32x32").unwrap(), Command::Cdg(32, 32));
    }

    #[test]
    fn rejects_unknown_flags_and_a_second_path() {
        for (line, why) in [
            ("--help", "unknown flag --help"),
            ("--chek results/verify.json", "unknown flag --chek"),
            ("a.json b.json", "unexpected second path \"b.json\""),
            (
                "--check a.json --check b.json",
                "unexpected second path \"b.json\"",
            ),
        ] {
            assert_eq!(parse_line(line).unwrap_err(), why, "{line}");
        }
    }

    #[test]
    fn rejects_missing_and_malformed_values() {
        for (line, why) in [
            ("--mc", "--mc wants one CPU count (2..=8)"),
            ("--mc six", "--mc wants a CPU count (2..=8), got \"six\""),
            ("--mc 6 7", "--mc wants one CPU count (2..=8)"),
            ("--mc 0", "--mc wants a CPU count (2..=8), got \"0\""),
            ("--mc 1", "--mc wants a CPU count (2..=8), got \"1\""),
            ("--mc 9", "--mc wants a CPU count (2..=8), got \"9\""),
            ("--cdg", "--cdg wants one COLSxROWS torus spec"),
            ("--cdg 0x4", "--cdg wants positive COLSxROWS, got \"0x4\""),
            ("--cdg 4x0", "--cdg wants positive COLSxROWS, got \"4x0\""),
            ("--cdg 8by8", "--cdg wants positive COLSxROWS, got \"8by8\""),
        ] {
            assert_eq!(parse_line(line).unwrap_err(), why, "{line}");
        }
    }
}
