//! Regenerate every figure and table of the paper.
//!
//! ```text
//! reproduce [--quick] [--jobs N | --sequential] [--shards N] [--threads N]
//!           [--json DIR [--check]] [--trace PATH] [ID ...]
//! ```
//!
//! Builds the artifact registry (`alphasim_bench::ARTIFACTS`, or only the
//! ids given) and prints each artifact's text. `--json DIR` writes
//! `DIR/<id>.json` per artifact and, for a whole sweep, `full_report.txt`
//! (the printed text) and `BENCH_sweep.json`: wall-clock per artifact and
//! in total, worker count, each artifact's engine shape, peak epoch-shard
//! heap depth, host cores and build profile. `--check` compares every file
//! but `BENCH_sweep.json` against DIR instead, names the first value or
//! line that moved, and exits 1 on drift. `--jobs N` pins the artifact
//! fan-out (`--sequential` = `--jobs 1`), `--shards N` splits every fabric
//! run into N torus regions, `--threads N` steps them on N threads (`0` =
//! all cores); `ALPHASIM_{JOBS,SHARDS,THREADS}` are the environment
//! equivalents. Outputs are byte-identical at any combination. `--trace
//! PATH` re-runs the `telemetry` and `timeline` fixtures traced and writes
//! Chrome traces (`ui.perfetto.dev`): the telemetry sweep's to PATH, each
//! timeline section's next to it as `-timeline-<section>`. A bad argument
//! prints the usage line and exits 2.

#![cfg_attr(test, allow(clippy::unwrap_used))]

use std::path::Path;
use std::time::Instant;

use alphasim::experiments::timeline::timeline_report;
use alphasim_bench::args::{host_cores, or_usage, threads_or_all_cores, Args};
use alphasim_bench::{
    build_timed, check_env, files, jobs, report, set_jobs, set_shards, set_threads, shards,
    take_peak_event_depth, telemetry_report, threads, write_or_check, Effort, Entry, ARTIFACTS,
};
use serde_json::json;

const USAGE: &str = "usage: reproduce [--quick] [--jobs N | --sequential] [--shards N] \
                     [--threads N] [--json DIR [--check]] [--trace PATH] [ID ...]";

/// What the command line asks for.
#[derive(Debug, Default, PartialEq)]
struct Options {
    effort: Effort,
    check: bool,
    jobs: Option<usize>,
    shards: Option<usize>,
    threads: Option<usize>,
    json: Option<String>,
    trace: Option<String>,
    ids: Vec<String>,
}

/// Read the arguments in one pass, rejecting unknown flags and ids,
/// missing or malformed values, and `--check` without `--json`.
fn parse(args: &[String]) -> Result<Options, String> {
    let mut o = Options::default();
    let mut args = Args::new(args);
    while let Some(arg) = args.next() {
        match arg {
            "--quick" => o.effort = Effort::Quick,
            "--check" => o.check = true,
            "--sequential" => o.jobs = Some(1),
            "--jobs" => o.jobs = Some(args.number(arg)?),
            "--shards" => o.shards = Some(args.number(arg)?),
            "--threads" => o.threads = Some(args.number(arg)?),
            "--json" => o.json = Some(args.value(arg)?),
            "--trace" => o.trace = Some(args.value(arg)?),
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag}")),
            id if ARTIFACTS.iter().any(|e| e.id == id) => o.ids.push(id.to_owned()),
            id => return Err(format!("unknown artifact id {id:?}")),
        }
    }
    if o.check && o.json.is_none() {
        return Err("--check compares the files --json DIR writes; give --json".into());
    }
    Ok(o)
}

/// `path` with `-suffix` inserted before its extension (appended when the
/// file name has none) — the per-section timeline trace naming.
fn with_suffix(path: &str, suffix: &str) -> String {
    let p = Path::new(path);
    match (p.file_stem().and_then(|s| s.to_str()), p.extension()) {
        (Some(stem), Some(ext)) => p
            .with_file_name(format!("{stem}-{suffix}.{}", ext.to_string_lossy()))
            .to_string_lossy()
            .into_owned(),
        _ => format!("{path}-{suffix}"),
    }
}

/// Re-run the two fixtures with tracing on and write their Chrome traces.
fn write_traces(path: &str) -> Result<(), String> {
    let mut traces = vec![(path.to_owned(), telemetry_report(true).trace)];
    for s in timeline_report(true).sections {
        traces.push((with_suffix(path, &format!("timeline-{}", s.id)), s.trace));
    }
    for (file, trace) in traces {
        let trace = trace.ok_or_else(|| format!("{file}: no trace recorded"))?;
        write_or_check(Path::new(&file), &trace.to_json_string(), false)?;
        eprintln!("trace: {} events -> {file}", trace.len());
    }
    Ok(())
}

fn main() {
    or_usage(check_env(), "reproduce", USAGE);
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = or_usage(parse(&args), "reproduce", USAGE);
    if let Some(n) = opts.jobs {
        set_jobs(n.max(1));
    }
    if let Some(n) = opts.shards {
        set_shards(n.max(1));
    }
    if let Some(n) = opts.threads {
        set_threads(threads_or_all_cores(n));
    }
    let whole = opts.ids.is_empty();
    let selected: Vec<&Entry> = ARTIFACTS
        .iter()
        .filter(|e| whole || opts.ids.iter().any(|id| id == e.id))
        .collect();

    let effort = opts.effort;
    let (workers, shard_count, thread_count) = (jobs(), shards(), threads());
    eprintln!(
        "regenerating {} artifact(s) ({effort:?}, {workers} worker(s), {shard_count} shard(s), {thread_count} fabric thread(s)) ...",
        selected.len()
    );
    take_peak_event_depth(); // start the gauge fresh for this sweep
    let wall = Instant::now(); // lint-allow: wall-clock (harness self-timing)
    let (artifacts, secs): (Vec<_>, Vec<_>) = build_timed(&selected, effort).into_iter().unzip();
    let total_secs = wall.elapsed().as_secs_f64();
    let peak_depth = take_peak_event_depth();
    // The worker count the fan-out actually used: `jobs()` is capped by the
    // number of artifacts, so a `--jobs 64` run of 31 artifacts must not be
    // recorded as having had 64-way parallelism.
    let jobs_used = workers.min(artifacts.len().max(1));
    print!("{}", report(&artifacts));

    let mut failures: Vec<String> = Vec::new();
    if let Some(dir) = opts.json.as_deref().map(Path::new) {
        let mut files = files(&artifacts, whole);
        if whole && !opts.check {
            let mut per_artifact = Vec::new();
            for (entry, secs) in selected.iter().zip(&secs) {
                let (shards, threads) = entry.engine.shape(shard_count, thread_count);
                per_artifact.push(json!({
                    "id": entry.id, "wall_clock_s": secs, "jobs": jobs_used,
                    "shards": shards, "threads": threads,
                }));
            }
            let sweep = json!({
                "effort": format!("{effort:?}"), "jobs": jobs_used, "shards": shard_count,
                "threads": thread_count, "total_wall_clock_s": total_secs,
                "peak_event_queue_depth": peak_depth, "artifacts": per_artifact,
                "host_cores": host_cores(),
                "profile": if cfg!(debug_assertions) { "debug" } else { "release" },
            });
            let body = serde_json::to_string_pretty(&sweep).expect("serialise sweep");
            files.push(("BENCH_sweep.json".to_owned(), body));
        }
        for (name, body) in &files {
            failures.extend(write_or_check(&dir.join(name), body, opts.check).err());
        }
    }
    if let Some(path) = &opts.trace {
        failures.extend(write_traces(path).err());
    }
    for f in &failures {
        eprintln!("{}: {f}", if opts.check { "check FAILED" } else { "error" });
    }
    if !failures.is_empty() {
        std::process::exit(1);
    }
    if opts.check {
        eprintln!("check: every regenerated file is byte-identical to disk");
    }
    eprintln!(
        "done: {} artifacts in {total_secs:.1}s ({jobs_used} worker(s), {shard_count} shard(s), peak event-queue depth {peak_depth})",
        artifacts.len()
    );
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
        assert_eq!(parse_line("").unwrap(), Options::default());
        let all = "--quick --jobs 3 --shards 2 --threads 0 --json out --check --trace t.json \
                   fig13 timeline";
        let expected = Options {
            effort: Effort::Quick,
            check: true,
            jobs: Some(3),
            shards: Some(2),
            threads: Some(0),
            json: Some("out".into()),
            trace: Some("t.json".into()),
            ids: vec!["fig13".into(), "timeline".into()],
        };
        assert_eq!(parse_line(all).unwrap(), expected);
        assert_eq!(parse_line("--sequential").unwrap().jobs, Some(1));
    }

    #[test]
    fn rejects_unknown_flags_and_ids() {
        for (line, why) in [
            ("--telemtry", "unknown flag --telemtry"),
            ("-q", "unknown flag -q"),
            ("fig13 fig99", "unknown artifact id \"fig99\""),
        ] {
            assert_eq!(parse_line(line).unwrap_err(), why, "{line}");
        }
        // The two removed fixture flags: both fixtures are registry ids now.
        for removed in ["telemetry", "timeline"] {
            let err = parse_line(&format!("--json out --{removed}")).unwrap_err();
            assert_eq!(err, format!("unknown flag --{removed}"));
            assert!(parse_line(removed).is_ok());
        }
    }

    #[test]
    fn rejects_missing_and_malformed_values() {
        for (line, why) in [
            ("--json", "--json wants a value"),
            ("--trace", "--trace wants a value"),
            ("--jobs --quick", "--jobs wants a value"),
            ("--jobs abc", "--jobs wants a number, got \"abc\""),
            ("--shards 2x", "--shards wants a number, got \"2x\""),
            ("--threads -1", "--threads wants a number, got \"-1\""),
        ] {
            assert_eq!(parse_line(line).unwrap_err(), why, "{line}");
        }
    }

    #[test]
    fn rejects_check_without_json() {
        let err = parse_line("--quick --check").unwrap_err();
        assert!(err.contains("give --json"), "{err}");
        assert!(parse_line("--check --json results").is_ok());
    }

    #[test]
    fn timeline_traces_sit_next_to_the_named_trace() {
        assert_eq!(
            with_suffix("/tmp/t.json", "timeline-chaos"),
            "/tmp/t-timeline-chaos.json"
        );
        assert_eq!(
            with_suffix("trace", "timeline-chaos"),
            "trace-timeline-chaos"
        );
    }
}
