//! The artifact registry behind `reproduce` and the tests.
//!
//! [`ARTIFACTS`] is the one list of what the sweep owns, in paper order:
//! every figure and table of the paper, the ablations, and last the two
//! fixed-size observability fixtures (`telemetry`, `timeline`). Each entry
//! is one `results/<id>.json`; a whole sweep also owns
//! `results/full_report.txt`. [`files`] renders what a sweep writes and
//! [`write_or_check`] writes it or, in check mode, explains any drift from
//! disk. [`Effort`] trades run time for sweep density; `Effort::Full`
//! matches the numbers quoted in EXPERIMENTS.md. [`args`] is the one
//! command-line reader the binaries share.

#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

use std::collections::BTreeSet;
use std::path::Path;

use alphasim::experiments::telemetry::TelemetryReport;
use alphasim::experiments::timeline::timeline_report;
use alphasim::experiments::{
    ablation, apps, chaos, latency, memory, network, resilience, spec, stream, summary, telemetry,
};
use alphasim::kernel::par::parallel_map;
use alphasim::types::{Figure, RatioRow, Table};
use alphasim::workloads::spec::Suite;
use serde_json::Value;

pub mod args;

pub use alphasim::kernel::par::{check_env, jobs, set_jobs};
pub use alphasim::kernel::take_peak_event_depth;

/// How hard to sweep each experiment.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Effort {
    /// Small sweeps for CI, `reproduce --quick` and the tests.
    Quick,
    /// The full sweeps quoted in EXPERIMENTS.md.
    #[default]
    Full,
}

impl Effort {
    fn max_loads(self) -> u64 {
        match self {
            Effort::Quick => 5_000,
            Effort::Full => 60_000,
        }
    }

    fn windows(self) -> Vec<usize> {
        match self {
            Effort::Quick => vec![1, 4, 12, 30],
            Effort::Full => network::default_windows(),
        }
    }

    fn requests(self) -> usize {
        match self {
            Effort::Quick => 40,
            Effort::Full => 200,
        }
    }

    /// The resilience sweep's machine size, deepest wound, and per-CPU read
    /// count: a 16P torus losing up to 2 bisection links for CI, the 64P
    /// machine losing up to 6 of its 8 for the quoted artifact. The full
    /// run is deliberately long (1000 reads/CPU ≈ 75 µs simulated) so the
    /// ~10 µs timeout-and-retry recovery tail is amortized rather than
    /// dominating the delivered-bandwidth denominator.
    fn resilience_params(self) -> (usize, usize, usize) {
        match self {
            Effort::Quick => (16, 2, 40),
            Effort::Full => (64, 6, 1000),
        }
    }

    /// Randomized fault schedules per chaos campaign. The full run's 50
    /// trials satisfy the all-kinds coverage bar the chaos experiment
    /// enforces; the quick run keeps CI honest without the wait.
    fn chaos_trials(self) -> usize {
        match self {
            Effort::Quick => 12,
            Effort::Full => 50,
        }
    }

    fn sizes(self) -> Vec<u64> {
        match self {
            // 4 KB .. 16 MB for quick runs; the paper's 4 KB .. 128 MB full.
            Effort::Quick => (12..=24).map(|p| 1u64 << p).collect(),
            Effort::Full => memory::fig04_sizes(),
        }
    }
}

/// One regenerated artifact: the `results/<id>.json` document and the
/// text the report prints for it.
#[derive(Debug, Clone)]
pub struct Artifact {
    /// Artifact id (e.g. `fig15`), also its file stem under `results/`.
    pub id: String,
    /// The JSON document.
    pub json: Value,
    /// The plain-text rendering.
    pub text: String,
}

impl Artifact {
    fn new(id: &str, json: Value, text: String) -> Self {
        let id = id.to_owned();
        Artifact { id, json, text }
    }
}

impl From<Figure> for Artifact {
    fn from(f: Figure) -> Self {
        let json = serde_json::to_value(&f).expect("figure serialises");
        Artifact::new(&f.id, json, f.to_text())
    }
}

impl From<Table> for Artifact {
    fn from(t: Table) -> Self {
        let json = serde_json::to_value(&t).expect("table serialises");
        Artifact::new(&t.id, json, t.to_text())
    }
}

/// One row of [`ARTIFACTS`].
#[derive(Debug, Clone, Copy)]
pub struct Entry {
    /// Artifact id; the built [`Artifact`] carries the same one.
    pub id: &'static str,
    /// Build the artifact: a pure function of the effort, with its own
    /// simulator state and deterministic seeds.
    pub build: fn(Effort) -> Artifact,
}

/// Every artifact `reproduce` owns, in report order. The two fixtures at
/// the end ignore [`Effort`], so `reproduce --check` holds for them at
/// `--quick` too.
#[rustfmt::skip]
pub static ARTIFACTS: &[Entry] = &[
    Entry { id: "fig01", build: |_| spec::fig01().into() },
    Entry { id: "fig04", build: |e| memory::fig04(&e.sizes(), e.max_loads()).into() },
    Entry { id: "fig05", build: fig05 },
    Entry { id: "fig06", build: |_| stream::fig06().into() },
    Entry { id: "fig07", build: |_| stream::fig07().into() },
    Entry { id: "fig08", build: |_| spec::ipc_figure(Suite::Fp).into() },
    Entry { id: "fig09", build: |_| spec::ipc_figure(Suite::Int).into() },
    Entry { id: "fig10", build: |_| spec::utilization_figure(Suite::Fp, 60).into() },
    Entry { id: "fig11", build: |_| spec::utilization_figure(Suite::Int, 60).into() },
    Entry { id: "fig12", build: |_| latency::fig12().into() },
    Entry { id: "fig13", build: |_| fig13_table().into() },
    Entry { id: "fig14", build: |_| latency::fig14().into() },
    Entry { id: "fig15", build: |e| network::fig15(&e.windows(), e.requests()).into() },
    Entry { id: "table1", build: |_| summary::table1().into() },
    Entry { id: "fig18", build: |e| network::fig18(&e.windows(), e.requests()).into() },
    Entry { id: "fig19", build: |_| apps::fig19().into() },
    Entry { id: "fig20", build: |_| apps::fig20(60).into() },
    Entry { id: "fig21", build: |_| apps::fig21().into() },
    Entry { id: "fig22", build: |_| apps::fig22(60).into() },
    Entry { id: "fig23", build: |e| apps::fig23(e.requests()).into() },
    Entry { id: "fig24", build: |e| apps::fig24(e.requests()).into() },
    Entry { id: "fig25", build: |_| spec::fig25().into() },
    Entry { id: "fig26", build: |e| network::fig26(&e.windows(), e.requests()).into() },
    Entry { id: "fig27", build: |e| fig27_artifact(e.requests()) },
    Entry { id: "fig28", build: |e| summary::fig28(e.requests()).into() },
    // Beyond the paper: ablations and failure injection (DESIGN.md §2).
    Entry { id: "ablation-zbox", build: |e| ablation::controllers_ablation(e.requests()).into() },
    Entry { id: "ablation-failures", build: |e| failure_artifact(e.requests()).into() },
    Entry { id: "resilience", build: resilience_artifact },
    Entry { id: "chaos", build: |e| chaos::chaos(e.chaos_trials()).into() },
    Entry { id: "telemetry", build: telemetry_artifact },
    Entry { id: "timeline", build: timeline_artifact },
];

/// Build every artifact of the registry, in order.
pub fn run_all(effort: Effort) -> Vec<Artifact> {
    let built = build_timed(&ARTIFACTS.iter().collect::<Vec<_>>(), effort);
    built.into_iter().map(|(a, _)| a).collect()
}

/// Build `entries`, each with its build wall-clock in seconds. Entries fan
/// out across OS threads via [`parallel_map`] ([`set_jobs`] or
/// `ALPHASIM_JOBS` sets the worker count) and come back in input order,
/// so the output is byte-identical to a sequential run.
pub fn build_timed(entries: &[&Entry], effort: Effort) -> Vec<(Artifact, f64)> {
    parallel_map(entries.to_vec(), |entry| {
        // Harness self-timing, reported but never fed back into the model.
        let start = std::time::Instant::now(); // lint-allow: wall-clock
        let artifact = (entry.build)(effort);
        (artifact, start.elapsed().as_secs_f64())
    })
}

/// The text report: each artifact's text, newline-terminated, in order.
pub fn report(artifacts: &[Artifact]) -> String {
    artifacts.iter().map(|a| format!("{}\n", a.text)).collect()
}

/// What a sweep writes, as `(file name, content)`: `<id>.json` per
/// artifact and, when `whole` (the artifacts are the entire registry), the
/// [`report`] as `full_report.txt`.
pub fn files(artifacts: &[Artifact], whole: bool) -> Vec<(String, String)> {
    let json = |a: &Artifact| serde_json::to_string_pretty(&a.json).expect("artifact serialises");
    let mut files: Vec<_> = artifacts
        .iter()
        .map(|a| (format!("{}.json", a.id), json(a)))
        .collect();
    if whole {
        files.push(("full_report.txt".to_owned(), report(artifacts)));
    }
    files
}

/// Write `content` to `path` (creating its directory), or with `check`
/// compare it against the file on disk. A failed check or an I/O error
/// comes back as one line naming the file and, via [`explain_drift`], what
/// moved; a directory that cannot be created because an ancestor is a
/// file names that ancestor (`out/x.json: out is not a directory`).
pub fn write_or_check(path: &Path, content: &str, check: bool) -> Result<(), String> {
    let fail = |e: std::io::Error| format!("{}: {e}", path.display());
    if !check {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| {
                // The nearest ancestor that exists; if it is not a
                // directory, that is what stopped the walk.
                match dir.ancestors().find(|a| a.exists()) {
                    Some(a) if !a.is_dir() => {
                        format!("{}: {} is not a directory", path.display(), a.display())
                    }
                    _ => fail(e),
                }
            })?;
        }
        return std::fs::write(path, content).map_err(fail);
    }
    let on_disk = std::fs::read_to_string(path).map_err(fail)?;
    match explain_drift(&on_disk, content) {
        Some(why) => Err(format!("{}: {why}", path.display())),
        None => Ok(()),
    }
}

/// How `new` differs from `old`, or `None` when the bytes are equal.
///
/// Two JSON documents are compared as trees: the first differing path with
/// both values (a length or key mismatch names its container) and how many
/// values differ in all, e.g.
/// `series[2].points[7][1]: 45.51 -> 45.52 (3 values differ)`. Other text,
/// and JSON that differs only in layout, is compared line by line: the
/// first differing line in both versions, terminator included.
pub fn explain_drift(old: &str, new: &str) -> Option<String> {
    if old == new {
        return None;
    }
    if let (Ok(old), Ok(new)) = (serde_json::from_str(old), serde_json::from_str(new)) {
        let mut diffs = Vec::new();
        json_diffs("", &old, &new, &mut diffs);
        if let Some((first, _)) = diffs.first() {
            let count = match diffs.iter().map(|(_, n)| n).sum() {
                1 => "1 value differs".to_owned(),
                n => format!("{n} values differ"),
            };
            return Some(format!("{first} ({count})"));
        }
    }
    // Lines keep their terminators, so every byte difference shows in one.
    let a: Vec<&str> = old.split_inclusive('\n').collect();
    let b: Vec<&str> = new.split_inclusive('\n').collect();
    let quote = |line: Option<&&str>| line.map_or("end of file".into(), |l| format!("{l:?}"));
    let i = (0..).find(|&i| a.get(i) != b.get(i))?;
    Some(format!(
        "line {}: {} -> {}",
        i + 1,
        quote(a.get(i)),
        quote(b.get(i))
    ))
}

/// Push every difference under `path` in document order, each with the
/// number of values it covers.
fn json_diffs(path: &str, old: &Value, new: &Value, out: &mut Vec<(String, usize)>) {
    let at = if path.is_empty() { "(root)" } else { path };
    match (old, new) {
        (Value::Object(a), Value::Object(b)) => {
            for key in a.keys().chain(b.keys()).collect::<BTreeSet<_>>() {
                match (a.get(key), b.get(key)) {
                    (Some(x), Some(y)) if path.is_empty() => json_diffs(key, x, y, out),
                    (Some(x), Some(y)) => json_diffs(&format!("{path}.{key}"), x, y, out),
                    (Some(x), None) => out.push((format!("{at}: key {key:?} removed"), leaves(x))),
                    (_, y) => out.push((format!("{at}: key {key:?} added"), y.map_or(1, leaves))),
                }
            }
        }
        (Value::Array(a), Value::Array(b)) => {
            if a.len() != b.len() {
                let extra = a.iter().skip(b.len()).chain(b.iter().skip(a.len()));
                let what = format!("{at}: {} -> {} elements", a.len(), b.len());
                out.push((what, extra.map(leaves).sum()));
            }
            for (i, (x, y)) in a.iter().zip(b).enumerate() {
                json_diffs(&format!("{path}[{i}]"), x, y, out);
            }
        }
        (x, y) if x != y => {
            let show = |v: &Value| serde_json::to_string(v).unwrap_or_default();
            out.push((
                format!("{at}: {} -> {}", show(x), show(y)),
                leaves(x).max(leaves(y)),
            ));
        }
        _ => {}
    }
}

/// Scalar values inside `v`, counting an empty container as one.
fn leaves(v: &Value) -> usize {
    let inside: usize = match v {
        Value::Array(items) => items.iter().map(leaves).sum(),
        Value::Object(map) => map.values().map(leaves).sum(),
        _ => 1,
    };
    inside.max(1)
}

/// The `telemetry` fixture: the healthy 16P telemetry sweep at a fixed
/// size; `trace` attaches the Chrome trace of its traced window.
pub fn telemetry_report(trace: bool) -> TelemetryReport {
    telemetry::telemetry_report(16, 100, trace)
}

fn telemetry_artifact(_: Effort) -> Artifact {
    let r = telemetry_report(false);
    Artifact::new("telemetry", r.to_json(), r.to_text())
}

fn timeline_artifact(_: Effort) -> Artifact {
    let r = timeline_report(false);
    Artifact::new("timeline", r.to_json(), r.to_text())
}

fn fig05(effort: Effort) -> Artifact {
    memory::fig05(
        &effort.sizes(),
        &memory::fig05_strides(),
        effort.max_loads(),
    )
    .into()
}

/// The resilience figure plus a `"telemetry"` JSON key: the merged
/// component counters of the sweep behind it. The figure's own fields are
/// untouched, so consumers of the plain series never notice the key.
fn resilience_artifact(effort: Effort) -> Artifact {
    let (cpus, max_failures, requests) = effort.resilience_params();
    let (fig, registry) = resilience::resilience_with_telemetry(cpus, max_failures, requests);
    let mut artifact = Artifact::from(fig);
    if let Value::Object(map) = &mut artifact.json {
        map.insert("telemetry".to_owned(), registry.to_json());
    }
    artifact
}

/// Failure-injection sweep rendered as a table.
pub fn failure_artifact(requests: usize) -> Table {
    let rows = ablation::link_failure_resilience(16, &[0, 1, 2], requests)
        .into_iter()
        .map(|(n, bw)| RatioRow {
            label: format!("{n} failed links: delivered GB/s"),
            computed: bw,
            paper: None,
        })
        .collect();
    Table {
        id: "ablation-failures".into(),
        title: "Load-test bandwidth under torus link failures (16P)".into(),
        rows,
    }
}

/// Fig. 13 rendered as a computed-vs-paper table (it is a grid, not a
/// curve).
pub fn fig13_table() -> Table {
    let grid = latency::fig13();
    let mut rows = Vec::new();
    for (y, grid_row) in grid.iter().enumerate().take(4) {
        for (x, &computed) in grid_row.iter().enumerate().take(4) {
            rows.push(RatioRow {
                label: format!("latency 0 -> ({x},{y})  [ns]"),
                computed,
                paper: Some(latency::FIG13_PAPER[y][x]),
            });
        }
    }
    Table {
        id: "fig13".into(),
        title: "Remote memory latencies (ns) on a 16-CPU GS1280 torus".into(),
        rows,
    }
}

/// Fig. 27: the rendered Xmesh hot-spot panel, whose JSON is `{id, text}`.
pub fn fig27_artifact(requests: usize) -> Artifact {
    let body = network::fig27(requests);
    Artifact::new(
        "fig27",
        serde_json::json!({ "id": "fig27", "text": body }),
        body,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn results_dir() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results")
    }

    #[test]
    fn registry_ids_are_the_committed_json_stems() {
        let mut on_disk: Vec<String> = std::fs::read_dir(results_dir())
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .map(|p| p.file_stem().unwrap().to_string_lossy().into_owned())
            .filter(|stem| stem != "BENCH_sweep" && stem != "verify")
            .collect();
        on_disk.sort();
        let mut ids: Vec<&str> = ARTIFACTS.iter().map(|e| e.id).collect();
        ids.sort();
        assert_eq!(ids, on_disk);
    }

    #[test]
    fn quick_sweep_builds_every_entry_under_its_id() {
        let artifacts = run_all(Effort::Quick);
        assert_eq!(artifacts.len(), ARTIFACTS.len());
        for (a, entry) in artifacts.iter().zip(ARTIFACTS) {
            assert_eq!(a.id, entry.id, "entry {} built another artifact", entry.id);
            assert!(!a.text.is_empty(), "{} renders empty", a.id);
            assert!(a.json.is_object(), "{} JSON", a.id);
        }
    }

    #[test]
    fn full_sweep_matches_every_committed_file() {
        // The tier-1 twin of `reproduce --json results --check`.
        let dir = results_dir();
        let drift: Vec<String> = files(&run_all(Effort::Full), true)
            .iter()
            .filter_map(|(name, body)| write_or_check(&dir.join(name), body, true).err())
            .collect();
        assert!(drift.is_empty(), "results/ drifted:\n{}", drift.join("\n"));
    }

    #[test]
    fn sweep_is_byte_identical_across_thread_counts_and_runs() {
        // Fanning the sweep out across threads must not change a single
        // output byte, and consecutive runs must agree.
        let render = || files(&run_all(Effort::Quick), true);
        set_jobs(1);
        let sequential = render();
        set_jobs(4);
        let threaded = render();
        let threaded_again = render();
        set_jobs(0);
        assert_eq!(
            sequential, threaded,
            "4-thread run diverged from sequential"
        );
        assert_eq!(threaded, threaded_again, "consecutive runs diverged");
    }

    #[test]
    fn resilience_artifact_is_byte_identical_across_worker_counts() {
        // The fault campaign's own determinism guarantee: the same fault
        // seed and plan must produce the identical artifact whether the
        // sweep runs sequentially or fanned out over 4 workers, and across
        // consecutive runs.
        let render = || {
            let fig = resilience::resilience(16, 2, 15);
            serde_json::to_string_pretty(&serde_json::to_value(&fig).expect("serialises"))
                .expect("renders")
        };
        set_jobs(1);
        let sequential = render();
        set_jobs(4);
        let threaded = render();
        let threaded_again = render();
        set_jobs(0);
        assert_eq!(sequential, threaded, "worker count changed the artifact");
        assert_eq!(threaded, threaded_again, "same-seed reruns diverged");
    }

    #[test]
    fn resilience_artifact_carries_telemetry_without_touching_series() {
        let (cpus, max_failures, requests) = Effort::Quick.resilience_params();
        let fig = resilience::resilience(cpus, max_failures, requests);
        let plain = serde_json::to_value(&fig).expect("serialises");
        let annotated = resilience_artifact(Effort::Quick).json;
        let (Value::Object(p), Value::Object(a)) = (&plain, &annotated) else {
            panic!("figure JSON is an object");
        };
        assert!(a.contains_key("telemetry"));
        assert_eq!(a.len(), p.len() + 1, "only the telemetry key is added");
        for (k, v) in p {
            assert_eq!(a.get(k), Some(v), "existing field {k} changed");
        }
    }

    #[test]
    fn fig27_text_contains_grid_and_detection() {
        let a = fig27_artifact(40);
        assert!(a.text.contains("Zbox"));
        assert!(a.text.contains("hot spots detected at: [0]"));
        assert_eq!(
            a.json.get("text").and_then(Value::as_str),
            Some(a.text.as_str())
        );
    }

    #[test]
    fn explain_drift_names_the_first_moved_value_and_counts_the_rest() {
        let old = r#"{"id": "fig15", "series": [{"points": [[1, 2.5], [2, 45.51]]}, {"points": [[1, 7]]}]}"#;
        assert_eq!(explain_drift(old, old), None);
        let one = old.replace("45.51", "45.52");
        assert_eq!(
            explain_drift(old, &one).unwrap(),
            "series[0].points[1][1]: 45.51 -> 45.52 (1 value differs)"
        );
        let three = one.replace("2.5", "2.75").replace("[1, 7]", "[1, 8]");
        assert_eq!(
            explain_drift(old, &three).unwrap(),
            "series[0].points[0][1]: 2.5 -> 2.75 (3 values differ)"
        );
        let retitled = old.replace("\"fig15\"", "\"fig16\"");
        assert_eq!(
            explain_drift(old, &retitled).unwrap(),
            r#"id: "fig15" -> "fig16" (1 value differs)"#
        );
        // Same values in another layout: the first differing line.
        let (narrow, wide) = ("{\"x\": 1,\n\"y\": 2}", "{\"x\": 1,\n  \"y\": 2}");
        assert_eq!(
            explain_drift(narrow, wide).unwrap(),
            r#"line 2: "\"y\": 2}" -> "  \"y\": 2}""#
        );
    }

    #[test]
    fn explain_drift_names_the_container_of_a_length_or_key_mismatch() {
        let old = r#"{"series": [{"points": [[1, 2], [2, 3]]}]}"#;
        let longer = old.replace("[2, 3]]", "[2, 3], [3, 4]]");
        assert_eq!(
            explain_drift(old, &longer).unwrap(),
            "series[0].points: 2 -> 3 elements (2 values differ)"
        );
        assert_eq!(
            explain_drift(&longer, old).unwrap(),
            "series[0].points: 3 -> 2 elements (2 values differ)"
        );
        let keyed = r#"{"series": [{"points": [[1, 2], [2, 3]], "label": "x"}]}"#;
        assert_eq!(
            explain_drift(old, keyed).unwrap(),
            r#"series[0]: key "label" added (1 value differs)"#
        );
        let telemetry = r#"{"a": 1, "telemetry": {"x": 1, "y": [2, 3]}}"#;
        assert_eq!(
            explain_drift(telemetry, r#"{"a": 1}"#).unwrap(),
            r#"(root): key "telemetry" removed (3 values differ)"#
        );
        let retyped = r#"{"series": {"points": []}}"#;
        assert_eq!(
            explain_drift(old, retyped).unwrap(),
            r#"series: [{"points":[[1,2],[2,3]]}] -> {"points":[]} (4 values differ)"#
        );
    }

    #[test]
    fn explain_drift_names_the_first_differing_report_line() {
        let old = "fig01\n  a  1.0\n  b  2.0\n";
        assert_eq!(
            explain_drift(old, "fig01\n  a  1.0\n  b  2.5\n").unwrap(),
            r#"line 3: "  b  2.0\n" -> "  b  2.5\n""#
        );
        assert_eq!(
            explain_drift(old, "fig01\n  a  1.0\n").unwrap(),
            r#"line 3: "  b  2.0\n" -> end of file"#
        );
        assert_eq!(
            explain_drift(old, &format!("{old}telemetry\n")).unwrap(),
            r#"line 4: end of file -> "telemetry\n""#
        );
        assert_eq!(
            explain_drift(old, "fig01\r\n  a  1.0\r\n  b  2.0\r\n").unwrap(),
            r#"line 1: "fig01\n" -> "fig01\r\n""#
        );
        assert_eq!(
            explain_drift(old, old.trim_end()).unwrap(),
            r#"line 3: "  b  2.0\n" -> "  b  2.0""#
        );
    }

    #[test]
    fn write_or_check_writes_then_names_drift_and_missing_files() {
        let dir = std::env::temp_dir().join(format!("alphasim-bench-{}", std::process::id()));
        let path = dir.join("nested/fig99.json");
        write_or_check(&path, "{\"x\": 1}", false).unwrap();
        write_or_check(&path, "{\"x\": 1}", true).unwrap();
        let err = write_or_check(&path, "{\"x\": 2}", true).unwrap_err();
        assert!(
            err.ends_with("fig99.json: x: 1 -> 2 (1 value differs)"),
            "{err}"
        );
        let missing = write_or_check(&dir.join("absent.json"), "{}", true).unwrap_err();
        assert!(missing.contains("absent.json: "), "{missing}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn write_or_check_names_a_path_under_a_regular_file() {
        let file = std::env::temp_dir().join(format!("alphasim-bench-file-{}", std::process::id()));
        std::fs::write(&file, "").unwrap();
        let path = file.join("out/report.json");
        let err = write_or_check(&path, "{}", false).unwrap_err();
        std::fs::remove_file(&file).unwrap();
        assert_eq!(
            err,
            format!("{}: {} is not a directory", path.display(), file.display())
        );
    }
}
