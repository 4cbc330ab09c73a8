//! Regenerate every figure and table of the paper.
//!
//! ```text
//! reproduce [--quick] [--jobs N | --sequential] [--shards N] [--threads N]
//!           [--json DIR] [--telemetry] [--timeline] [--trace PATH] [--check]
//!           [fig15 fig28 ...]
//! ```
//!
//! With no figure arguments, everything is regenerated in paper order and
//! printed as text; `--json DIR` additionally writes one JSON file per
//! artifact (EXPERIMENTS.md is generated from these) plus a
//! `BENCH_sweep.json` timing record (wall-clock per artifact, total, the
//! worker, region and thread counts actually in force, and the deepest
//! epoch-shard event heap). The sweep fans out across all cores by
//! default; `--jobs N` pins the worker count and `--sequential` is shorthand
//! for `--jobs 1`. `--shards N` partitions every fabric run — the load
//! tests and the fault campaigns alike — into N torus-region shards
//! (`ALPHASIM_SHARDS` is the environment equivalent), and `--threads N`
//! steps those regions with N pool threads (`ALPHASIM_THREADS`;
//! `--threads 0` means all available cores). The
//! artifact outputs are byte-identical at any `--jobs` × `--shards` ×
//! `--threads` combination — only `BENCH_sweep.json`, which records
//! measured times, varies between runs.
//!
//! `--telemetry` additionally runs the instrumented telemetry sweep (a
//! fixed-size healthy 16P campaign, independent of `--quick`) and writes
//! `DIR/telemetry.json`; `--trace PATH` also emits its Chrome trace —
//! load the file at `ui.perfetto.dev` or `chrome://tracing`. `--timeline`
//! runs the observed timeline campaigns (also fixed-size) and writes
//! `DIR/timeline.json` — the sim-time-windowed series, topology heatmaps,
//! and epoch-engine profile; with `--trace PATH` it additionally writes
//! one Chrome trace per timeline section (per-shard profiler lanes
//! included) next to PATH with a `-timeline-<section>` suffix. `--check`
//! compares every file that would be written against what is on disk and
//! exits 1 on any drift instead of writing (`BENCH_sweep.json`, being a
//! timing record, is exempt).

use std::io::Write;
use std::time::Instant;

use alphasim_bench::{
    jobs, run_all_timed, set_jobs, set_shards, set_threads, shards, take_peak_event_depth, threads,
    Effort,
};

/// Write `content` to `path`, or in check mode compare against the file's
/// current bytes and record any drift.
fn emit(path: &str, content: &str, check: bool, drift: &mut Vec<String>) {
    if check {
        match std::fs::read_to_string(path) {
            Ok(existing) if existing == content => {}
            Ok(_) => drift.push(format!("{path}: regenerated bytes differ")),
            Err(e) => drift.push(format!("{path}: {e}")),
        }
    } else {
        std::fs::write(path, content).unwrap_or_else(|e| panic!("write {path}: {e}"));
    }
}

/// `path` with `-suffix` inserted before its extension (appended when the
/// file name has none) — the per-section timeline trace naming.
fn with_suffix(path: &str, suffix: &str) -> String {
    let p = std::path::Path::new(path);
    match (p.file_stem().and_then(|s| s.to_str()), p.extension()) {
        (Some(stem), Some(ext)) => p
            .with_file_name(format!("{stem}-{suffix}.{}", ext.to_string_lossy()))
            .to_string_lossy()
            .into_owned(),
        _ => format!("{path}-{suffix}"),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let telemetry_wanted = args.iter().any(|a| a == "--telemetry");
    let timeline_wanted = args.iter().any(|a| a == "--timeline");
    let check = args.iter().any(|a| a == "--check");
    if args.iter().any(|a| a == "--sequential") {
        set_jobs(1);
    }
    let flag_value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    if let Some(n) = flag_value("--jobs") {
        let n: usize = n
            .parse()
            .unwrap_or_else(|_| panic!("--jobs wants a number, got {n:?}"));
        set_jobs(n.max(1));
    }
    if let Some(n) = flag_value("--shards") {
        let n: usize = n
            .parse()
            .unwrap_or_else(|_| panic!("--shards wants a number, got {n:?}"));
        set_shards(n.max(1));
    }
    if let Some(n) = flag_value("--threads") {
        let n: usize = n
            .parse()
            .unwrap_or_else(|_| panic!("--threads wants a number, got {n:?}"));
        // 0 = auto: all available cores.
        set_threads(if n == 0 {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        } else {
            n
        });
    }
    let json_dir = flag_value("--json");
    let trace_path = flag_value("--trace");
    let mut skip_values: Vec<&str> = Vec::new();
    for flag in ["--json", "--jobs", "--shards", "--threads", "--trace"] {
        if let Some(i) = args.iter().position(|a| a == flag) {
            if let Some(v) = args.get(i + 1) {
                skip_values.push(v.as_str());
            }
        }
    }
    let wanted: Vec<&String> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .filter(|a| !skip_values.contains(&a.as_str()))
        .collect();

    let effort = if quick { Effort::Quick } else { Effort::Full };
    let workers = jobs();
    let shard_count = shards();
    let thread_count = threads();
    eprintln!(
        "regenerating all experiments ({effort:?}, {workers} worker(s), {shard_count} shard(s), {thread_count} fabric thread(s)) ..."
    );
    take_peak_event_depth(); // start the gauge fresh for this sweep
    let wall = Instant::now(); // lint-allow: wall-clock (harness self-timing)
    let timed = run_all_timed(effort);
    let total_secs = wall.elapsed().as_secs_f64();
    let peak_depth = take_peak_event_depth();
    // The worker count the fan-out actually used: `jobs()` is capped by the
    // number of artifacts, so a `--jobs 64` run of 28 artifacts must not be
    // recorded as having had 64-way parallelism.
    let effective_jobs = workers.min(timed.len().max(1));

    let mut drift: Vec<String> = Vec::new();
    if let Some(dir) = &json_dir {
        if !check {
            std::fs::create_dir_all(dir).expect("create json dir");
        }
    }
    let mut stdout = std::io::stdout().lock();
    for (a, _) in &timed {
        if !wanted.is_empty() && !wanted.iter().any(|w| w.as_str() == a.id()) {
            continue;
        }
        writeln!(stdout, "{}", a.to_text()).expect("write stdout");
        if let Some(dir) = &json_dir {
            let path = format!("{dir}/{}.json", a.id());
            let body = serde_json::to_string_pretty(&a.to_json()).expect("serialise");
            emit(&path, &body, check, &mut drift);
        }
    }

    if telemetry_wanted || trace_path.is_some() {
        let report = alphasim_bench::telemetry_report(trace_path.is_some());
        writeln!(stdout, "{}", report.to_text()).expect("write stdout");
        if let Some(dir) = &json_dir {
            let path = format!("{dir}/telemetry.json");
            let body = serde_json::to_string_pretty(&report.to_json()).expect("serialise");
            emit(&path, &body, check, &mut drift);
        }
        if let Some(path) = &trace_path {
            let trace = report.trace.as_ref().expect("trace requested");
            std::fs::write(path, trace.to_json_string())
                .unwrap_or_else(|e| panic!("write {path}: {e}"));
            eprintln!(
                "trace: {} events -> {path} (open at ui.perfetto.dev)",
                trace.len()
            );
        }
    }

    if timeline_wanted {
        let report = alphasim_bench::timeline_report(trace_path.is_some());
        writeln!(stdout, "{}", report.to_text()).expect("write stdout");
        if let Some(dir) = &json_dir {
            let path = format!("{dir}/timeline.json");
            let body = serde_json::to_string_pretty(&report.to_json()).expect("serialise");
            emit(&path, &body, check, &mut drift);
        }
        if let Some(path) = &trace_path {
            for s in &report.sections {
                let trace = s.trace.as_ref().expect("trace requested");
                let section_path = with_suffix(path, &format!("timeline-{}", s.id));
                std::fs::write(&section_path, trace.to_json_string())
                    .unwrap_or_else(|e| panic!("write {section_path}: {e}"));
                eprintln!(
                    "trace: {} events -> {section_path} ({} section, per-shard profiler lanes)",
                    trace.len(),
                    s.id
                );
            }
        }
    }

    if json_dir.is_some() && !check {
        let dir = json_dir.as_deref().expect("checked above");
        let artifacts_json: Vec<serde_json::Value> = timed
            .iter()
            .map(|(a, secs)| {
                // Truthful per-artifact thread count: only the fabric runs
                // consume pool threads; everything else runs on one thread
                // no matter what `--threads` says.
                let artifact_threads = if a.uses_worker_threads() {
                    thread_count
                } else {
                    1
                };
                serde_json::json!({
                    "id": a.id(),
                    "wall_clock_s": secs,
                    "jobs": effective_jobs as u64,
                    "shards": shard_count as u64,
                    "threads": artifact_threads as u64,
                })
            })
            .collect();
        let sweep = serde_json::json!({
            "effort": format!("{effort:?}"),
            "jobs": effective_jobs as u64,
            "shards": shard_count as u64,
            "threads": thread_count as u64,
            "total_wall_clock_s": total_secs,
            "peak_event_queue_depth": peak_depth,
            "artifacts": artifacts_json,
        });
        let path = format!("{dir}/BENCH_sweep.json");
        std::fs::write(
            &path,
            serde_json::to_string_pretty(&sweep).expect("serialise sweep"),
        )
        .unwrap_or_else(|e| panic!("write {path}: {e}"));
    }
    if check {
        if drift.is_empty() {
            eprintln!("check: every regenerated artifact is byte-identical to disk");
        } else {
            for d in &drift {
                eprintln!("check FAILED: {d}");
            }
            std::process::exit(1);
        }
    }
    eprintln!(
        "done: {} artifacts in {total_secs:.1}s ({effective_jobs} worker(s), {shard_count} shard(s), peak event-queue depth {peak_depth})",
        timed.len()
    );
}
