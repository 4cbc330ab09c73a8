//! Benchmark-harness support: the full experiment sweep behind the
//! `reproduce` binary and the Criterion benches.
//!
//! Every figure and table of the paper is regenerated by [`run_all`], which
//! returns the rendered text report and the structured JSON for
//! EXPERIMENTS.md. Fidelity knobs ([`Effort`]) trade run time for sweep
//! density; `Effort::Full` matches the numbers quoted in EXPERIMENTS.md.

#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

use alphasim::experiments::{
    ablation, apps, chaos, latency, memory, network, resilience, spec, stream, summary, telemetry,
    timeline,
};
use alphasim::kernel::par::parallel_map;
use alphasim::types::{Figure, RatioRow, Table};
use alphasim::workloads::spec::Suite;

pub use alphasim::experiments::telemetry::TelemetryReport;
pub use alphasim::experiments::timeline::{TimelineReport, WINDOW_PS as TIMELINE_WINDOW_PS};
pub use alphasim::kernel::par::{jobs, set_jobs, set_shards, set_threads, shards, threads};
pub use alphasim::kernel::take_peak_event_depth;

/// How hard to sweep each experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effort {
    /// Small sweeps for CI and Criterion iterations.
    Quick,
    /// The full sweeps quoted in EXPERIMENTS.md.
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

/// One regenerated artifact.
#[derive(Debug, Clone)]
pub enum Artifact {
    /// A figure with series.
    Figure(Figure),
    /// A figure carrying an extra `"telemetry"` JSON block (merged
    /// component counters of the sweep behind it). The figure fields are
    /// untouched — consumers of the plain series never notice the block.
    FigureWithTelemetry(Figure, serde_json::Value),
    /// A ratio table.
    Table(Table),
    /// Pre-rendered text (the Xmesh panel).
    Text {
        /// Artifact id (e.g. `fig27`).
        id: String,
        /// Rendered content.
        body: String,
    },
}

impl Artifact {
    /// The paper id of this artifact.
    pub fn id(&self) -> &str {
        match self {
            Artifact::Figure(f) | Artifact::FigureWithTelemetry(f, _) => &f.id,
            Artifact::Table(t) => &t.id,
            Artifact::Text { id, .. } => id,
        }
    }

    /// Render as plain text.
    pub fn to_text(&self) -> String {
        match self {
            Artifact::Figure(f) | Artifact::FigureWithTelemetry(f, _) => f.to_text(),
            Artifact::Table(t) => t.to_text(),
            Artifact::Text { body, .. } => body.clone(),
        }
    }

    /// Whether this artifact's sweep runs on the partitioned fabric engine
    /// and therefore actually uses the worker-thread knob ([`threads`]).
    /// Every other artifact is a single-threaded simulation whatever
    /// `--threads` says, so `BENCH_sweep.json` records `1` for it.
    pub fn uses_worker_threads(&self) -> bool {
        matches!(
            self.id(),
            "fig15"
                | "fig18"
                | "fig23"
                | "fig24"
                | "fig26"
                | "fig27"
                | "fig28"
                | "ablation-zbox"
                | "ablation-failures"
                | "resilience"
                | "chaos"
        )
    }

    /// Serialise to JSON.
    pub fn to_json(&self) -> serde_json::Value {
        match self {
            Artifact::Figure(f) => serde_json::to_value(f).expect("figure serialises"),
            Artifact::FigureWithTelemetry(f, telemetry) => {
                let mut v = serde_json::to_value(f).expect("figure serialises");
                if let serde_json::Value::Object(map) = &mut v {
                    map.insert("telemetry".to_string(), telemetry.clone());
                }
                v
            }
            Artifact::Table(t) => serde_json::to_value(t).expect("table serialises"),
            Artifact::Text { id, body } => serde_json::json!({ "id": id, "text": body }),
        }
    }
}

/// Regenerate every figure and table of the paper, in paper order.
///
/// Artifacts (and the sweeps inside them) fan out across OS threads via
/// [`parallel_map`]; each is a pure function of `effort` with its own
/// simulator state and deterministic seeds, and results are collected in
/// input order, so the output is byte-identical to a sequential run.
/// Control the worker count with [`set_jobs`] or `ALPHASIM_JOBS`.
pub fn run_all(effort: Effort) -> Vec<Artifact> {
    run_all_timed(effort).into_iter().map(|(a, _)| a).collect()
}

/// [`run_all`], additionally reporting each artifact's build wall-clock in
/// seconds (the `reproduce` binary writes these to `BENCH_sweep.json`).
pub fn run_all_timed(effort: Effort) -> Vec<(Artifact, f64)> {
    type Job = Box<dyn FnOnce() -> Artifact + Send>;
    let jobs: Vec<Job> = vec![
        Box::new(|| Artifact::Figure(spec::fig01())),
        Box::new(move || Artifact::Figure(memory::fig04(&effort.sizes(), effort.max_loads()))),
        Box::new(move || {
            Artifact::Figure(memory::fig05(
                &effort.sizes(),
                &memory::fig05_strides(),
                effort.max_loads(),
            ))
        }),
        Box::new(|| Artifact::Figure(stream::fig06())),
        Box::new(|| Artifact::Figure(stream::fig07())),
        Box::new(|| Artifact::Figure(spec::ipc_figure(Suite::Fp))),
        Box::new(|| Artifact::Figure(spec::ipc_figure(Suite::Int))),
        Box::new(|| Artifact::Figure(spec::utilization_figure(Suite::Fp, 60))),
        Box::new(|| Artifact::Figure(spec::utilization_figure(Suite::Int, 60))),
        Box::new(|| Artifact::Figure(latency::fig12())),
        Box::new(|| Artifact::Table(fig13_table())),
        Box::new(|| Artifact::Figure(latency::fig14())),
        Box::new(move || Artifact::Figure(network::fig15(&effort.windows(), effort.requests()))),
        Box::new(|| Artifact::Table(summary::table1())),
        Box::new(move || Artifact::Figure(network::fig18(&effort.windows(), effort.requests()))),
        Box::new(|| Artifact::Figure(apps::fig19())),
        Box::new(|| Artifact::Figure(apps::fig20(60))),
        Box::new(|| Artifact::Figure(apps::fig21())),
        Box::new(|| Artifact::Figure(apps::fig22(60))),
        Box::new(move || Artifact::Figure(apps::fig23(effort.requests()))),
        Box::new(move || Artifact::Figure(apps::fig24(effort.requests()))),
        Box::new(|| Artifact::Figure(spec::fig25())),
        Box::new(move || Artifact::Figure(network::fig26(&effort.windows(), effort.requests()))),
        Box::new(move || fig27_artifact(effort.requests())),
        Box::new(move || Artifact::Table(summary::fig28(effort.requests()))),
        // Beyond the paper: ablations and failure injection (DESIGN.md §2).
        Box::new(move || Artifact::Table(ablation::controllers_ablation(effort.requests()))),
        Box::new(move || Artifact::Table(failure_artifact(effort.requests()))),
        Box::new(move || {
            let (cpus, max_failures, requests) = effort.resilience_params();
            let (fig, registry) =
                resilience::resilience_with_telemetry(cpus, max_failures, requests);
            Artifact::FigureWithTelemetry(fig, registry.to_json())
        }),
        Box::new(move || Artifact::Figure(chaos::chaos(effort.chaos_trials()))),
    ];
    parallel_map(jobs, |job| {
        // Harness self-timing, reported but never fed back into the model.
        let start = std::time::Instant::now(); // lint-allow: wall-clock
        let artifact = job();
        (artifact, start.elapsed().as_secs_f64())
    })
}

/// The `results/telemetry.json` artifact: the healthy 16P telemetry sweep
/// at a fixed size, deliberately independent of [`Effort`] so
/// `reproduce --check` holds whether the sweep itself ran `--quick` or
/// full.
pub fn telemetry_report(trace: bool) -> TelemetryReport {
    telemetry::telemetry_report(16, 100, trace)
}

/// The `results/timeline.json` artifact: two observed 16P fault campaigns
/// windowed at the committed width, engine knobs pinned inside the
/// experiment — like [`telemetry_report`], a fixed-size fixture
/// independent of [`Effort`] so `reproduce --check` holds either way.
pub fn timeline_report(trace: bool) -> TimelineReport {
    timeline::timeline_report(trace)
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

/// Fig. 27: the rendered Xmesh hot-spot panel.
pub fn fig27_artifact(requests: usize) -> Artifact {
    Artifact::Text {
        id: "fig27".into(),
        body: network::fig27(requests),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_produces_every_artifact() {
        let artifacts = run_all(Effort::Quick);
        let ids: Vec<&str> = artifacts.iter().map(|a| a.id()).collect();
        for expected in [
            "fig01",
            "fig04",
            "fig05",
            "fig06",
            "fig07",
            "fig08",
            "fig09",
            "fig10",
            "fig11",
            "fig12",
            "fig13",
            "fig14",
            "fig15",
            "table1",
            "fig18",
            "fig19",
            "fig20",
            "fig21",
            "fig22",
            "fig23",
            "fig24",
            "fig25",
            "fig26",
            "fig27",
            "fig28",
            "ablation-zbox",
            "ablation-failures",
            "resilience",
            "chaos",
        ] {
            assert!(ids.contains(&expected), "missing {expected}: {ids:?}");
        }
        for a in &artifacts {
            assert!(!a.to_text().is_empty(), "{} renders empty", a.id());
            assert!(a.to_json().is_object(), "{} JSON", a.id());
        }
    }

    #[test]
    fn sweep_is_byte_identical_across_thread_counts_and_runs() {
        // The tentpole's invariant: fanning the sweep out across threads must
        // not change a single output byte, and consecutive runs must agree.
        fn render(artifacts: &[Artifact]) -> Vec<(String, String)> {
            artifacts
                .iter()
                .map(|a| {
                    let json =
                        serde_json::to_string_pretty(&a.to_json()).expect("artifact serialises");
                    (json, a.to_text())
                })
                .collect()
        }
        set_jobs(1);
        let sequential = render(&run_all(Effort::Quick));
        set_jobs(4);
        let threaded = render(&run_all(Effort::Quick));
        let threaded_again = render(&run_all(Effort::Quick));
        set_jobs(0);
        assert_eq!(
            sequential, threaded,
            "4-thread run diverged from sequential"
        );
        assert_eq!(threaded, threaded_again, "consecutive runs diverged");
    }

    #[test]
    fn sweep_is_byte_identical_across_shard_counts() {
        // Every fabric run orders simultaneous events by tiebreaks derived
        // from simulation identities, never by region or arrival order, so
        // every artifact must regenerate byte-for-byte at any region count.
        fn render(artifacts: &[Artifact]) -> Vec<(String, String)> {
            artifacts
                .iter()
                .map(|a| {
                    let json =
                        serde_json::to_string_pretty(&a.to_json()).expect("artifact serialises");
                    (json, a.to_text())
                })
                .collect()
        }
        set_shards(1);
        let unsharded = render(&run_all(Effort::Quick));
        let mut sharded = Vec::new();
        for shards in [2, 4] {
            set_shards(shards);
            sharded.push((shards, render(&run_all(Effort::Quick))));
        }
        set_shards(0);
        for (shards, rendered) in sharded {
            assert_eq!(
                rendered.len(),
                unsharded.len(),
                "{shards} shards changed the artifact count"
            );
            for (i, (r, u)) in rendered.iter().zip(&unsharded).enumerate() {
                assert_eq!(r, u, "artifact #{i} diverged at {shards} shards");
            }
        }
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
        let (fig, registry) = resilience::resilience_with_telemetry(16, 1, 15);
        let plain = serde_json::to_value(&fig).expect("serialises");
        let annotated = Artifact::FigureWithTelemetry(fig, registry.to_json()).to_json();
        let (serde_json::Value::Object(p), serde_json::Value::Object(a)) = (&plain, &annotated)
        else {
            panic!("figure JSON is an object");
        };
        assert!(a.contains_key("telemetry"));
        assert_eq!(a.len(), p.len() + 1, "only the telemetry key is added");
        for (k, v) in p {
            assert_eq!(a.get(k), Some(v), "existing field {k} changed");
        }
    }

    #[test]
    fn fig13_table_cells_track_paper() {
        let t = fig13_table();
        assert_eq!(t.rows.len(), 16);
        for r in &t.rows {
            let paper = r.paper.unwrap();
            assert!(
                (r.computed - paper).abs() / paper < 0.06,
                "{}: {} vs {}",
                r.label,
                r.computed,
                paper
            );
        }
    }

    #[test]
    fn fig27_text_contains_grid_and_detection() {
        let a = fig27_artifact(40);
        let txt = a.to_text();
        assert!(txt.contains("Zbox"));
        assert!(txt.contains("hot spots detected at: [0]"));
    }
}
