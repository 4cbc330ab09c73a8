//! The parent process: schedule passes in child processes one at a time,
//! judge each, and turn the passes that survive into metrics.

use std::collections::BTreeMap;
use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use serde_json::{json, Value};

use crate::pass::{self, PassOutput, Workload};
use crate::reference::{digest, Curve, Reference};
use crate::spec::Spec;
use crate::trace::{chrome_trace, self_times, Span};

/// Rounds run at least, even when `--seconds` is short.
const MIN_ROUNDS: usize = 2;
/// Traced passes per workload; the per-layer metrics come from the
/// fastest, the one the host disturbed least.
const TRACED_PASSES: usize = 2;
/// A pass that runs past this multiple of its workload's median fails.
const SLOW_FACTOR: f64 = 3.0;
/// Kill timeout of a workload's first pass (no median yet), and the
/// smallest timeout ever applied.
const FIRST_TIMEOUT: Duration = Duration::from_secs(60);
const MIN_TIMEOUT: Duration = Duration::from_secs(10);

pub struct Options {
    pub workloads: Vec<Workload>,
    pub seed: u64,
    /// Rounds to run when no time budget is given.
    pub rounds: usize,
    /// Time budget for the untraced rounds, seconds.
    pub seconds: Option<f64>,
    pub trace: bool,
    pub json_dir: Option<String>,
}

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => samples[n / 2],
        _ => (samples[n / 2 - 1] + samples[n / 2]) / 2.0,
    }
}

/// One end-to-end metric of a run: its value, the same estimate from the
/// even- and the odd-numbered passes alone (their gap is the run's own
/// spread), and the raw per-pass values.
#[derive(Debug, Clone, PartialEq)]
struct Estimate {
    value: f64,
    halves: [f64; 2],
    samples: Vec<f64>,
}

impl Estimate {
    fn spread(&self) -> f64 {
        (self.halves[0] - self.halves[1]).abs() / self.value
    }
}

/// Host and set-up seconds of a set of passes: for every sweep point, the
/// fastest any pass took, summed over the points. Other tenants of the
/// host slow whole stretches of a run by up to 1.5x; the per-point
/// minimum keeps the work's own cost and drops those bursts.
fn fastest(passes: &[&PassOutput]) -> (f64, f64) {
    let points = passes.iter().map(|p| p.segments.len()).min().unwrap_or(0);
    (0..points)
        .map(|i| {
            let best = |f: fn(&(f64, f64)) -> f64| {
                passes
                    .iter()
                    .map(|p| f(&p.segments[i]))
                    .fold(f64::INFINITY, f64::min)
            };
            (best(|s| s.0), best(|s| s.1))
        })
        .fold((0.0, 0.0), |a, b| (a.0 + b.0, a.1 + b.1))
}

/// Every pass of one workload.
#[derive(Default)]
struct Tally {
    /// `(wall seconds, output)` of each untraced pass judged correct.
    timed: Vec<(f64, PassOutput)>,
    traced: Option<PassOutput>,
    attempted: usize,
    failures: Vec<String>,
}

impl Tally {
    /// Count a finished pass; return its output only if it is correct.
    fn record(
        &mut self,
        w: Workload,
        seed: u64,
        reference: &Reference,
        what: &str,
        outcome: Result<PassOutput, String>,
    ) -> Option<PassOutput> {
        self.attempted += 1;
        match outcome.and_then(|o| judge_pass(w, seed, reference, o)) {
            Ok(o) => Some(o),
            Err(e) => {
                self.failures.push(format!("{} {what}: {e}", w.name()));
                None
            }
        }
    }

    fn median_wall(&self) -> Option<f64> {
        (!self.timed.is_empty()).then(|| median(self.timed.iter().map(|p| p.0).collect()))
    }

    fn timeout(&self) -> Duration {
        self.median_wall().map_or(FIRST_TIMEOUT, |m| {
            Duration::from_secs_f64(SLOW_FACTOR * m).max(MIN_TIMEOUT)
        })
    }

    /// Fail the passes that ran past [`SLOW_FACTOR`] × the median or whose
    /// simulated outputs disagree with the majority of the run.
    fn settle(&mut self, w: Workload) {
        let Some(median) = self.median_wall() else {
            return;
        };
        let mut counts: BTreeMap<String, usize> = BTreeMap::new();
        for (_, o) in &self.timed {
            *counts.entry(digest(&o.curves)).or_insert(0) += 1;
        }
        let majority = counts
            .iter()
            .max_by_key(|(_, &n)| n)
            .map(|(d, _)| d.clone())
            .unwrap_or_default();
        let failures = &mut self.failures;
        self.timed.retain(|(wall, o)| {
            let d = digest(&o.curves);
            let why = if *wall > SLOW_FACTOR * median {
                format!("ran {wall:.2} s, over {SLOW_FACTOR}x the median {median:.2} s")
            } else if d != majority {
                format!("sim_digest {d} differs from the run's {majority}")
            } else {
                return true;
            };
            failures.push(format!("{} pass: {why}", w.name()));
            false
        });
    }

    /// The first correct pass: what the run's outputs are.
    fn first(&self) -> Option<&PassOutput> {
        self.timed.first().map(|(_, o)| o).or(self.traced.as_ref())
    }

    fn digest(&self) -> Option<String> {
        self.first().map(|o| digest(&o.curves))
    }

    /// End-to-end metrics of the untraced passes that survived.
    fn e2e(&self, w: Workload) -> BTreeMap<&'static str, Estimate> {
        let all: Vec<&PassOutput> = self.timed.iter().map(|(_, o)| o).collect();
        let half = |r: usize| -> Vec<&PassOutput> {
            let h: Vec<&PassOutput> = all.iter().skip(r).step_by(2).copied().collect();
            if h.is_empty() {
                all.clone()
            } else {
                h
            }
        };
        let halves = [half(0), half(1)];
        let ops = w.nominal_ops() as f64;
        let rss = |p: &[&PassOutput]| median(p.iter().map(|o| o.rss_kib as f64 / 1024.0).collect());
        let estimate =
            |f: &dyn Fn(&[&PassOutput]) -> f64, sample: &dyn Fn(&PassOutput) -> f64| Estimate {
                value: f(&all),
                halves: [f(&halves[0]), f(&halves[1])],
                samples: all.iter().map(|o| sample(o)).collect(),
            };
        BTreeMap::from([
            ("host_s", estimate(&|p| fastest(p).0, &|o| o.host_s)),
            (
                "sim_ops_per_s",
                estimate(&|p| ops / fastest(p).0, &|o| ops / o.host_s),
            ),
            ("setup_s", estimate(&|p| fastest(p).1, &|o| o.setup_s)),
            (
                "peak_rss_mib",
                estimate(&rss, &|o| o.rss_kib as f64 / 1024.0),
            ),
        ])
    }

    fn failed(&self) -> usize {
        self.failures.len()
    }
}

/// A pass is correct when it broke no invariant and, where the committed
/// artifacts hold its outputs, equals them bit for bit; elsewhere it must
/// at least produce every expected series with every point.
fn judge_pass(
    w: Workload,
    seed: u64,
    reference: &Reference,
    out: PassOutput,
) -> Result<PassOutput, String> {
    if !out.violations.is_empty() {
        return Err(out.violations.join("; "));
    }
    if w.validated_at(seed) {
        reference.judge(&out.curves)?;
    } else {
        let shape: Vec<(&str, &str, usize)> = out
            .curves
            .iter()
            .map(|c| (c.artifact.as_str(), c.label.as_str(), c.points.len()))
            .collect();
        let expected = w.expected_series();
        let want: Vec<(&str, &str, usize)> = expected
            .iter()
            .map(|(a, l, n)| (*a, l.as_str(), *n))
            .collect();
        if shape != want {
            return Err(format!("series shape {shape:?}, expected {want:?}"));
        }
    }
    Ok(out)
}

/// Run one pass of `w` in a child process of this executable, killing it
/// after `timeout`. Returns the parent-side wall time and the child's
/// report.
fn spawn_pass(
    w: Workload,
    seed: u64,
    traced: bool,
    timeout: Duration,
) -> (f64, Result<PassOutput, String>) {
    let start = Instant::now();
    let result = (|| {
        let exe =
            std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
        let (shards, threads) = w.engine();
        let mut cmd = Command::new(exe);
        cmd.args(["--pass", w.name(), "--seed", &seed.to_string()])
            .env("ALPHASIM_SHARDS", shards.to_string())
            .env("ALPHASIM_THREADS", threads.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::piped());
        if traced {
            cmd.arg("--traced");
        }
        let mut child = cmd.spawn().map_err(|e| format!("cannot spawn pass: {e}"))?;
        let mut stdout = child.stdout.take().expect("stdout is piped");
        // A thread drains the pipe (so a large report cannot block the
        // child) and signals end of file; this thread sleeps until then or
        // the timeout, without waking the host's cores while the pass runs.
        let (tx, rx) = std::sync::mpsc::channel();
        let reader = std::thread::spawn(move || {
            let mut text = String::new();
            let read = stdout.read_to_string(&mut text).map(|_| text);
            let _ = tx.send(());
            read
        });
        let timed_out = rx.recv_timeout(timeout).is_err();
        if timed_out {
            let _ = child.kill();
        }
        let status = child
            .wait()
            .map_err(|e| format!("cannot wait for pass: {e}"))?;
        let text = reader
            .join()
            .map_err(|_| "pass reader panicked".to_owned())?
            .map_err(|e| format!("cannot read pass report: {e}"))?;
        match status {
            _ if timed_out => Err(format!("timed out after {:.1} s", timeout.as_secs_f64())),
            s if !s.success() => Err(format!("pass process failed ({s})")),
            _ => {
                let line = text.lines().last().unwrap_or_default();
                serde_json::from_str(line)
                    .ok()
                    .as_ref()
                    .and_then(PassOutput::from_json)
                    .ok_or_else(|| format!("unreadable pass report {line:?}"))
            }
        }
    })();
    (start.elapsed().as_secs_f64(), result)
}

/// The largest relative error, in percent, of the chase against the
/// paper's anchors: 83 ns open-page and 130 ns closed-page (stride 16 KB)
/// local latency, and GS320 3.8x slower than GS1280, all at 32 MB.
fn anchor_err_pct(curves: &[Curve]) -> Option<f64> {
    const AT: f64 = 33_554_432.0;
    let y = |artifact: &str, label: &str| {
        curves
            .iter()
            .find(|c| c.artifact == artifact && c.label == label)?
            .points
            .iter()
            .find(|p| p.0 == AT)
            .map(|p| p.1)
    };
    let open = y("fig04", "GS1280/1.15GHz")?;
    let closed = y("fig05", "stride 16384B")?;
    let gs320 = y("fig04", "GS320/1.22GHz")?;
    let errs = [
        (open - 83.0).abs() / 83.0,
        (closed - 130.0).abs() / 130.0,
        (gs320 / open - 3.8).abs() / 3.8,
    ];
    Some(errs.into_iter().fold(0.0, f64::max) * 100.0)
}

/// First line of a command's standard output, or `"unknown"`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

fn manifest(opts: &Options, timed: &[Workload], rounds: usize, passes: usize) -> Value {
    let env: BTreeMap<&str, Value> = ["ALPHASIM_SHARDS", "ALPHASIM_THREADS", "ALPHASIM_JOBS"]
        .into_iter()
        .map(|k| (k, std::env::var(k).map_or(Value::Null, Value::String)))
        .collect();
    let engine: BTreeMap<&str, Value> = Workload::ALL
        .into_iter()
        .map(|w| {
            let (shards, threads) = w.engine();
            (
                w.name(),
                json!({ "ALPHASIM_SHARDS": shards, "ALPHASIM_THREADS": threads }),
            )
        })
        .collect();
    let names: Vec<&str> = timed.iter().map(|w| w.name()).collect();
    json!({
        "nproc": std::thread::available_parallelism().map_or(0, |n| n.get()),
        "profile": if cfg!(debug_assertions) { "debug" } else { "release" },
        "rustc": command_line("rustc", &["-V"]),
        "git_head": command_line("git", &["rev-parse", "HEAD"]),
        "env": env,
        "engine": engine,
        "seed": opts.seed,
        "rounds": rounds,
        "passes": passes,
        "seconds": opts.seconds,
        "trace": opts.trace,
        "workloads": names,
    })
}

fn estimate_json(e: &Estimate, unit: &str) -> Value {
    json!({
        "value": e.value,
        "unit": unit,
        "halves": e.halves,
        "spread": e.spread(),
        "pass_samples": e.samples,
    })
}

/// Run the benchmark; returns whether every pass was correct.
pub fn run(opts: &Options) -> Result<bool, String> {
    let spec = Spec::load("BENCHMARK.json")?;
    let reference = Reference::load("results")?;
    // The traced run covers every layer, so every workload is timed too:
    // its overhead is measured against the untraced passes.
    let mut timed = opts.workloads.clone();
    if opts.trace {
        timed.extend(
            Workload::ALL
                .into_iter()
                .filter(|w| !opts.workloads.contains(w)),
        );
    }
    let mut tallies: BTreeMap<&'static str, Tally> =
        timed.iter().map(|w| (w.name(), Tally::default())).collect();
    let rounds = timed_rounds(opts, &timed, &reference, &mut tallies);
    for &w in &timed {
        tallies.get_mut(w.name()).expect("tally").settle(w);
    }
    if opts.seed != 0 && timed.contains(&Workload::CampaignPar) {
        check_engines_agree(opts.seed, &reference, &mut tallies);
    }
    let traced_passes = if opts.trace { TRACED_PASSES } else { 0 };
    for _ in 0..traced_passes {
        for &w in &timed {
            let tally = tallies.get_mut(w.name()).expect("tally");
            let (_, outcome) = spawn_pass(w, opts.seed, true, tally.timeout());
            let Some(o) = tally.record(w, opts.seed, &reference, "traced pass", outcome) else {
                continue;
            };
            if tally.digest().is_some_and(|d| d != digest(&o.curves)) {
                tally.failures.push(format!(
                    "{} traced pass: sim_digest differs from untraced",
                    w.name()
                ));
                continue;
            }
            eprintln!("gsbench: traced pass {:<12} {:.3} s", w.name(), o.host_s);
            if tally.traced.as_ref().is_none_or(|t| o.host_s < t.host_s) {
                tally.traced = Some(o);
            }
        }
    }
    report(opts, &spec, &timed, rounds, &tallies)
}

/// Run untraced rounds until `opts.rounds` or the `opts.seconds` budget;
/// returns the number of rounds run.
fn timed_rounds(
    opts: &Options,
    timed: &[Workload],
    reference: &Reference,
    tallies: &mut BTreeMap<&'static str, Tally>,
) -> usize {
    let started = Instant::now();
    let mut rounds = 0;
    loop {
        // Reverse every other round, so a burst of host noise lands on
        // every workload rather than always on the same one.
        let mut order = timed.to_vec();
        if rounds % 2 == 1 {
            order.reverse();
        }
        let round_start = Instant::now();
        for &w in &order {
            let tally = tallies.get_mut(w.name()).expect("tally");
            let (wall, outcome) = spawn_pass(w, opts.seed, false, tally.timeout());
            let what = format!("round {} pass", rounds + 1);
            match tally.record(w, opts.seed, reference, &what, outcome) {
                Some(o) => {
                    eprintln!("gsbench: {what} {:<12} {:.3} s", w.name(), o.host_s);
                    tally.timed.push((wall, o));
                }
                None => eprintln!("gsbench: {what} {:<12} FAILED", w.name()),
            }
        }
        rounds += 1;
        let done = match opts.seconds {
            // Stop when another round like this one would overrun.
            Some(budget) => {
                rounds >= MIN_ROUNDS
                    && (started.elapsed() + round_start.elapsed()).as_secs_f64() > budget
            }
            None => rounds >= opts.rounds,
        };
        if done {
            return rounds;
        }
    }
}

/// The parallel engine must reproduce the inline engine exactly. At seed
/// 0 the artifact checks both; at other seeds the inline engine's digest
/// is the reference, from this run's `campaign` passes or a pass of its
/// own.
fn check_engines_agree(
    seed: u64,
    reference: &Reference,
    tallies: &mut BTreeMap<&'static str, Tally>,
) {
    let inline = match tallies
        .get(Workload::Campaign.name())
        .and_then(Tally::digest)
    {
        Some(d) => Some(d),
        None => {
            let (_, outcome) = spawn_pass(Workload::Campaign, seed, false, FIRST_TIMEOUT);
            tallies
                .get_mut(Workload::CampaignPar.name())
                .expect("tally")
                .record(
                    Workload::Campaign,
                    seed,
                    reference,
                    "inline reference pass",
                    outcome,
                )
                .map(|o| digest(&o.curves))
        }
    };
    let tally = tallies
        .get_mut(Workload::CampaignPar.name())
        .expect("tally");
    if let (Some(inline), Some(par)) = (inline, tally.digest()) {
        if inline != par {
            for _ in tally.timed.drain(..) {
                tally.failures.push(format!(
                    "campaign-par pass: sim_digest {par} differs from the inline engine's {inline}"
                ));
            }
        }
    }
}

/// Print every metric, write `result.json` / `trace.json` when asked, and
/// print the closing JSON line.
fn report(
    opts: &Options,
    spec: &Spec,
    timed: &[Workload],
    rounds: usize,
    tallies: &BTreeMap<&'static str, Tally>,
) -> Result<bool, String> {
    let attempted: usize = tallies.values().map(|t| t.attempted).sum();
    let failed: usize = tallies.values().map(Tally::failed).sum();
    let passes: usize = tallies.values().map(|t| t.timed.len()).sum();
    let mut correct = failed == 0 && tallies.values().all(|t| !t.timed.is_empty());
    let anchor = tallies
        .get("chase")
        .and_then(Tally::first)
        .and_then(|o| anchor_err_pct(&o.curves));
    println!(
        "gsbench: seed {}, {rounds} round(s), {passes} timed pass(es), {} CPU(s), {} build",
        opts.seed,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }
    );
    let mut host_s: BTreeMap<&str, f64> = BTreeMap::new();
    let mut workloads_json = BTreeMap::new();
    let mut final_metrics: BTreeMap<String, Value> = BTreeMap::new();
    for &w in timed {
        let t = &tallies[w.name()];
        let e2e = t.e2e(w);
        host_s.insert(w.name(), e2e["host_s"].value);
        let mut metrics_json = BTreeMap::new();
        for def in &spec.end_to_end {
            let Some(e) = e2e.get(def.name.as_str()) else {
                eprintln!(
                    "gsbench: BENCHMARK.json names unknown end-to-end metric {}",
                    def.name
                );
                correct = false;
                continue;
            };
            println!(
                "{:<13} {:<16} {:>14.6} {:<6} {} passes, halves {:.6} / {:.6}, pass median {:.6}",
                w.name(),
                def.name,
                e.value,
                def.unit,
                e.samples.len(),
                e.halves[0],
                e.halves[1],
                median(e.samples.clone())
            );
            metrics_json.insert(def.name.clone(), estimate_json(e, &def.unit));
            let key = if timed.len() == 1 {
                def.name.clone()
            } else {
                format!("{}.{}", w.name(), def.name)
            };
            final_metrics.insert(key, json!({ "value": e.value, "unit": def.unit }));
        }
        let failed_frac = t.failed() as f64 / t.attempted.max(1) as f64;
        println!(
            "{:<13} {:<16} {:>14.6} {:<6} {} of {} passes failed",
            w.name(),
            "failed_frac",
            failed_frac,
            "ratio",
            t.failed(),
            t.attempted
        );
        let anchor_w = anchor.filter(|_| w == Workload::Chase);
        match anchor_w {
            Some(a) => println!("{:<13} {:<16} {:>14.6} %", w.name(), "anchor_err_pct", a),
            None => println!(
                "{:<13} {:<16} {:>14} (no absolute paper values in the repo)",
                w.name(),
                "anchor_err_pct",
                "unvalidated"
            ),
        }
        let d = t.digest().unwrap_or_else(|| "none".into());
        println!("{:<13} {:<16} {:>14}", w.name(), "sim_digest", d);
        workloads_json.insert(
            w.name(),
            json!({
                "passes": t.timed.len(),
                "attempted": t.attempted,
                "failed": t.failed(),
                "failed_frac": failed_frac,
                "failures": t.failures,
                "sim_digest": d,
                "validated": w.validated_at(opts.seed),
                "anchor_err_pct": anchor_w,
                "metrics": metrics_json,
                "self_time_s": t.traced.as_ref().map(|o| self_times(&o.spans)),
            }),
        );
    }

    let mut layer_json = BTreeMap::new();
    let mut notes: BTreeMap<String, String> = BTreeMap::new();
    if opts.trace {
        let mut layer: BTreeMap<String, f64> = BTreeMap::new();
        for (&name, t) in tallies {
            let Some(o) = &t.traced else { continue };
            layer.extend(o.layer.clone());
            notes.extend(o.notes.clone());
            if !t.timed.is_empty() {
                let untraced = t
                    .timed
                    .iter()
                    .map(|(_, p)| p.host_s)
                    .fold(f64::INFINITY, f64::min);
                layer.insert(
                    format!("{name}.trace.overhead_pct"),
                    (o.host_s / untraced - 1.0) * 100.0,
                );
            }
        }
        if let (Some(par), Some(inline)) = (host_s.get("campaign-par"), host_s.get("campaign")) {
            layer.insert("campaign-par.penalty_s".into(), par - inline);
        }
        if let Some(a) = anchor {
            layer.insert("chase.anchor_err_pct".into(), a);
        }
        println!("per-layer metrics (traced pass of every workload):");
        for def in &spec.per_layer {
            let Some(&v) = layer.get(&def.name) else {
                eprintln!("gsbench: per-layer metric {} was not measured", def.name);
                correct = false;
                continue;
            };
            let note = notes
                .get(&def.name)
                .map_or(String::new(), |n| format!("  ({n})"));
            println!("  {:<40} {:>16.6} {}{note}", def.name, v, def.unit);
            layer_json.insert(def.name.clone(), json!({ "value": v, "unit": def.unit }));
        }
        final_metrics = layer_json.clone();
    }
    for f in tallies.values().flat_map(|t| &t.failures) {
        println!("FAILED: {f}");
    }

    if let Some(dir) = &opts.json_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir}: {e}"))?;
        let result = json!({
            "manifest": manifest(opts, timed, rounds, passes),
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "workloads": workloads_json,
            "per_layer": layer_json,
            "notes": notes,
        });
        write(&format!("{dir}/result.json"), &result)?;
        let traced: Vec<(&str, &[Span])> = tallies
            .iter()
            .filter_map(|(&n, t)| t.traced.as_ref().map(|o| (n, o.spans.as_slice())))
            .collect();
        if !traced.is_empty() {
            write(&format!("{dir}/trace.json"), &chrome_trace(&traced))?;
        }
    }
    println!(
        "{}",
        serde_json::to_string(&json!({
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": final_metrics,
        }))
        .expect("result serialises")
    );
    Ok(correct)
}

fn write(path: &str, v: &Value) -> Result<(), String> {
    let mut text = serde_json::to_string_pretty(v).expect("value serialises");
    text.push('\n');
    std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))
}

/// `--selftest`: prove the correctness checks bite.
pub fn selftest() -> Result<(), String> {
    let reference = Reference::load("results")?;
    // The loader finds every series and every point the workloads make.
    for w in Workload::ALL {
        let expected = w.expected_series();
        for (artifact, label, n) in &expected {
            let got = reference
                .series
                .get(&(artifact.to_string(), label.clone()))
                .map_or(0, Vec::len);
            if got != *n {
                return Err(format!(
                    "{artifact} / {label:?}: loaded {got} points, expected {n}"
                ));
            }
        }
        for artifact in crate::reference::ARTIFACTS {
            let want = expected.iter().filter(|(a, _, _)| *a == artifact).count();
            let have = reference.labels(artifact).len();
            if want > 0 && want != have {
                return Err(format!(
                    "{artifact}: loaded {have} series, {} expects {want}",
                    w.name()
                ));
            }
        }
    }
    // One load-test point against its committed value, then against the
    // same value moved by one ulp: the second pass must count as failed.
    let out = pass::first_loadtest_point();
    let (key, points) = reference
        .series
        .iter()
        .find(|((a, l), _)| a == "fig15" && *l == out.curves[0].label)
        .ok_or("fig15 has no GS1280/16P series")?;
    let exact = Reference {
        series: BTreeMap::from([(key.clone(), points[..1].to_vec())]),
    };
    let (x, y) = points[0];
    let moved = Reference {
        series: BTreeMap::from([(key.clone(), vec![(x, f64::from_bits(y.to_bits() + 1))])]),
    };
    let mut tally = Tally::default();
    tally
        .record(
            Workload::LoadTest,
            0,
            &exact,
            "selftest point",
            Ok(out.clone()),
        )
        .ok_or_else(|| format!("exact reference rejected: {:?}", tally.failures))?;
    if tally
        .record(Workload::LoadTest, 0, &moved, "selftest point", Ok(out))
        .is_some()
        || tally.failed() != 1
    {
        return Err("a reference moved by one ulp was not counted as a failed pass".into());
    }
    println!(
        "selftest: loader found every series of {:?}; a one-ulp change fails the pass ({})",
        crate::reference::ARTIFACTS,
        tally.failures[0]
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fastest_sums_the_best_time_of_every_point() {
        let pass = |segments: Vec<(f64, f64)>| PassOutput {
            segments,
            ..Default::default()
        };
        let a = pass(vec![(1.0, 0.1), (5.0, 0.2)]);
        let b = pass(vec![(2.0, 0.05), (3.0, 0.3)]);
        assert_eq!(fastest(&[&a, &b]), (4.0, 0.25));
        assert_eq!(median(vec![3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn anchor_error_is_the_worst_anchor() {
        let at = 33_554_432.0;
        let curves = vec![
            Curve {
                artifact: "fig04".into(),
                label: "GS1280/1.15GHz".into(),
                points: vec![(at, 83.0)],
            },
            Curve {
                artifact: "fig04".into(),
                label: "GS320/1.22GHz".into(),
                points: vec![(at, 83.0 * 3.8)],
            },
            Curve {
                artifact: "fig05".into(),
                label: "stride 16384B".into(),
                points: vec![(at, 143.0)],
            },
        ];
        let err = anchor_err_pct(&curves).unwrap();
        assert!((err - 10.0).abs() < 1e-9, "{err}");
    }
}
