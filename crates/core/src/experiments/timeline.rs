//! The timeline artifact: sim-time-resolved metric series, topology
//! heatmaps, and the epoch engine profile for two closed-loop
//! fault campaigns.
//!
//! The paper's figures are endpoint summaries — one number per sweep
//! point after the run has finished. This experiment keeps the *when*:
//! each campaign runs observed ([`FaultCampaign::run_observed`]) and
//! every injection, completion, retry, poison, delivery, and Zbox
//! service is bucketed into fixed [`WINDOW_PS`]-wide windows of
//! simulated time. Two sections ship in `results/timeline.json`:
//!
//! * **resilience** — bisection traffic on the 16P GS1280 while three
//!   bisection links die mid-run (the time-resolved companion of the
//!   `resilience` sweep): throughput sags and the p99 tail grows window
//!   by window as each cut lands;
//! * **chaos** — a fixed schedule striking every [`FaultKind`] once
//!   (cuts, repairs, degradation, flit corruption, drains, a router
//!   brownout, RDRAM channel churn), the windowed view of what each
//!   wound does to the machine.
//!
//! Window boundaries are a pure function of the timestamp, so the artifact
//! regenerates byte-identically at any `--jobs` setting, the embedded
//! epoch profile (epochs and events per epoch, one epoch per barrier
//! interval) included. The window sums equal the whole-run registry totals
//! exactly (the timeline partitions the totals — asserted in tests), and
//! [`saturation_knee`] marks the first window where the latency tail has
//! doubled while delivered throughput stopped growing.
//!
//! [`FaultCampaign::run_observed`]: alphasim_system::FaultCampaign::run_observed
//! [`FaultKind`]: alphasim_kernel::FaultKind

use alphasim_coherence::RetryPolicy;
use alphasim_kernel::par::parallel_map;
use alphasim_kernel::stats::MeanP50P99;
use alphasim_kernel::{FaultKind, FaultPlan, SimDuration, SimTime};
use alphasim_system::{
    gs1280_fault_campaign, CampaignObservability, CampaignPattern, CampaignResult,
    FaultCampaignConfig, Gs1280, ObserveOptions,
};
use alphasim_telemetry::{Registry, TraceSink};
use serde_json::{Number, Value};
use std::collections::BTreeMap;

use super::resilience::bisection_cuts;

/// Fixed window width of the artifact's timelines: 2 µs of simulated
/// time, fine enough to watch each fault land inside a ~30 µs campaign.
pub const WINDOW_PS: u64 = 2_000_000;

/// One window of a section's timeline, every field an exact integer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WindowRow {
    /// Window index (`start = index * window_ps`).
    pub index: u64,
    /// Reads injected (first issues plus retries) in the window.
    pub injected: u64,
    /// Reads completed in the window.
    pub completed: u64,
    /// Retries issued in the window.
    pub retries: u64,
    /// Transactions poisoned in the window.
    pub poisoned: u64,
    /// Fabric messages delivered in the window.
    pub delivered_msgs: u64,
    /// Fabric payload bytes delivered in the window.
    pub delivered_bytes: u64,
    /// Delivered fabric throughput over the window, in exact milli-Gb/s
    /// (`bytes * 8e6 / window_ps`).
    pub milli_gbps: u64,
    /// Peak outstanding-transaction count observed in the window.
    pub pending_peak: u64,
    /// Mean end-to-end latency of reads *completing* in the window, ns.
    pub latency_mean_ns: u64,
    /// Median (nearest-rank) latency of the window's completions, ns.
    pub latency_p50_ns: u64,
    /// 99th-percentile latency of the window's completions, ns.
    pub latency_p99_ns: u64,
}

/// One campaign's time-resolved view.
#[derive(Debug, Clone)]
pub struct SectionTimeline {
    /// Section id (`resilience` / `chaos`).
    pub id: String,
    /// Human title.
    pub title: String,
    /// Dense windows from 0 through the last touched window.
    pub windows: Vec<WindowRow>,
    /// First saturated window per [`saturation_knee`], if any.
    pub knee: Option<usize>,
    /// The raw merged observability (timeline, heatmaps, profile).
    pub observability: CampaignObservability,
    /// The campaign's endpoint summary.
    pub result: CampaignResult,
    /// The whole-run component registry (the exact-sum reference for the
    /// windowed series).
    pub registry: Registry,
    /// Chrome trace with the engine's profiler lane, when requested.
    pub trace: Option<TraceSink>,
}

/// The `results/timeline.json` artifact: both sections at [`WINDOW_PS`].
#[derive(Debug, Clone)]
pub struct TimelineReport {
    /// Window width shared by every section, ps.
    pub window_ps: u64,
    /// The sections, in fixed order (resilience, chaos).
    pub sections: Vec<SectionTimeline>,
}

/// The first window where the machine is visibly saturated: its p99
/// latency has at least doubled over the baseline (the first window with
/// any completions) while delivered throughput stopped growing. `None`
/// when the run never saturates. Series are per-window values in window
/// order; the two must describe the same windows.
pub fn saturation_knee(milli_gbps: &[u64], p99_ns: &[u64]) -> Option<usize> {
    let base = p99_ns.iter().position(|&v| v > 0)?;
    let baseline = p99_ns[base];
    (base + 1..p99_ns.len().min(milli_gbps.len()))
        .find(|&i| p99_ns[i] >= 2 * baseline && milli_gbps[i] <= milli_gbps[i - 1])
}

/// The resilience section's fault schedule: three of the 16P torus's four
/// bisection links die at 4, 8, and 12 µs — each strike lands on live
/// traffic, so the windowed series show the machine re-adapting three
/// times.
fn resilience_plan() -> FaultPlan {
    let mut plan = FaultPlan::new();
    for (i, &(a, b)) in bisection_cuts(16, 3).iter().enumerate() {
        let at = SimTime::ZERO + SimDuration::from_us(4.0) + SimDuration::from_us(4.0) * i as u64;
        plan.push(at, FaultKind::LinkDown { a, b });
    }
    plan
}

/// The chaos section's fault schedule: every [`FaultKind`] exactly once,
/// spread through the first half of the run so each wound (and each
/// repair) is visible as its own feature in the windowed series.
fn chaos_plan() -> FaultPlan {
    let at = |us: f64| SimTime::ZERO + SimDuration::from_us(us);
    let mut plan = FaultPlan::new();
    plan.push(at(2.0), FaultKind::LinkDown { a: 0, b: 1 });
    // A bisection-crossing link, so the armed corruption is guaranteed to
    // meet a flit while the campaign's traffic is crossing.
    plan.push(at(3.0), FaultKind::FlitCorrupt { from: 1, to: 2 });
    plan.push(at(4.0), FaultKind::LinkDegrade { a: 5, b: 6 });
    plan.push(at(5.0), FaultKind::NodeDrain { node: 9 });
    plan.push(
        at(6.0),
        FaultKind::RouterPause {
            node: 4,
            ps: 1_500_000,
        },
    );
    plan.push(at(7.0), FaultKind::ChannelDown { node: 10 });
    plan.push(at(9.0), FaultKind::LinkUp { a: 0, b: 1 });
    plan.push(at(10.0), FaultKind::NodeUndrain { node: 9 });
    plan.push(at(11.0), FaultKind::ChannelUp { node: 10 });
    plan
}

/// Shared campaign shape of both sections: a 16P GS1280 under the
/// resilience sweep's retry policy.
fn section_cfg(
    outstanding: usize,
    requests_per_cpu: usize,
    plan: FaultPlan,
) -> FaultCampaignConfig {
    FaultCampaignConfig {
        outstanding,
        requests_per_cpu,
        pattern: CampaignPattern::Bisection,
        plan,
        retry: RetryPolicy {
            timeout: SimDuration::from_us(50.0),
            backoff_base: SimDuration::from_us(2.0),
            backoff_cap: SimDuration::from_us(32.0),
            max_retries: 6,
        },
        watchdog_window: SimDuration::from_us(250.0),
        ..Default::default()
    }
}

/// Run one observed section campaign and window it.
fn run_section(
    id: &str,
    title: &str,
    cfg: &FaultCampaignConfig,
    window_ps: u64,
    trace: bool,
    wall: bool,
) -> SectionTimeline {
    let machine = Gs1280::builder().cpus(16).build();
    let opts = ObserveOptions {
        window_ps,
        trace,
        wall,
    };
    let (result, telemetry, observability) =
        gs1280_fault_campaign(&machine).run_observed(cfg, opts);
    let windows = window_rows(&observability);
    let knee = saturation_knee(
        &windows.iter().map(|w| w.milli_gbps).collect::<Vec<_>>(),
        &windows.iter().map(|w| w.latency_p99_ns).collect::<Vec<_>>(),
    );
    SectionTimeline {
        id: id.to_owned(),
        title: title.to_owned(),
        windows,
        knee,
        observability,
        result,
        registry: telemetry.registry,
        trace: telemetry.trace,
    }
}

/// Densify the merged observability into per-window rows. Latency
/// quantiles come from the exact completion samples (not the log2
/// histogram), bucketed by completion time with the same boundary rule
/// as every counter.
fn window_rows(obs: &CampaignObservability) -> Vec<WindowRow> {
    let t = &obs.timeline;
    let injected = t.counter_series("campaign.injected");
    let completed = t.counter_series("campaign.completed");
    let retries = t.counter_series("campaign.retries");
    let poisoned = t.counter_series("campaign.poisoned");
    let delivered = t.counter_series("net.delivered");
    let bytes = t.counter_series("net.bytes");
    let pending = t.gauge_series("campaign.pending_depth");
    let count = injected.len();
    let mut quantiles: Vec<MeanP50P99> = (0..count).map(|_| MeanP50P99::new()).collect();
    for &(at_ps, e2e_ps) in &obs.latencies {
        let idx = (at_ps / obs.window_ps) as usize;
        if let Some(q) = quantiles.get_mut(idx) {
            q.record(SimDuration::from_ps(e2e_ps));
        }
    }
    let get = |v: &[u64], i: usize| v.get(i).copied().unwrap_or(0);
    quantiles
        .into_iter()
        .enumerate()
        .map(|(i, q)| {
            let (mean, p50, p99) = q.finish_full();
            let b = get(&bytes, i);
            WindowRow {
                index: i as u64,
                injected: get(&injected, i),
                completed: get(&completed, i),
                retries: get(&retries, i),
                poisoned: get(&poisoned, i),
                delivered_msgs: get(&delivered, i),
                delivered_bytes: b,
                milli_gbps: b * 8_000_000 / obs.window_ps,
                pending_peak: get(&pending, i),
                latency_mean_ns: mean.as_ps() / 1_000,
                latency_p50_ns: p50.as_ps() / 1_000,
                latency_p99_ns: p99.as_ps() / 1_000,
            }
        })
        .collect()
}

/// Build the full timeline report at the committed window width. Like
/// `telemetry.json`, the artifact is a fixed-size fixture independent of
/// the sweep's `--quick`/full effort, so `reproduce --check` holds either
/// way. `trace` attaches the Chrome trace (the engine's profiler lane
/// included) to each section.
pub fn timeline_report(trace: bool) -> TimelineReport {
    timeline_report_with(WINDOW_PS, trace, false)
}

/// [`timeline_report`] with an explicit window width and optional
/// wall-clock profiling (the `perfsight` tool's knobs). Wall-clock values
/// stay out of [`TimelineReport::to_json`], so only the committed width
/// produces the committed artifact bytes.
pub fn timeline_report_with(window_ps: u64, trace: bool, wall: bool) -> TimelineReport {
    struct Spec {
        id: &'static str,
        title: &'static str,
        cfg: FaultCampaignConfig,
    }
    let sections = vec![
        Spec {
            id: "resilience",
            title: "bisection traffic on 16P while 3 bisection links die mid-run",
            cfg: section_cfg(8, 600, resilience_plan()),
        },
        Spec {
            id: "chaos",
            title: "every fault kind striking a loaded 16P once",
            cfg: section_cfg(6, 500, chaos_plan()),
        },
    ];
    let sections = parallel_map(sections, move |s| {
        run_section(s.id, s.title, &s.cfg, window_ps, trace, wall)
    });
    TimelineReport {
        window_ps,
        sections,
    }
}

impl SectionTimeline {
    fn to_json(&self) -> Value {
        let int = |v: u64| Value::Number(Number::PosInt(v));
        let ints = |v: &[u64]| Value::Array(v.iter().map(|&x| int(x)).collect());
        let windows: Vec<Value> = self
            .windows
            .iter()
            .map(|w| {
                let mut m = BTreeMap::new();
                m.insert("index".to_owned(), int(w.index));
                m.insert("injected".to_owned(), int(w.injected));
                m.insert("completed".to_owned(), int(w.completed));
                m.insert("retries".to_owned(), int(w.retries));
                m.insert("poisoned".to_owned(), int(w.poisoned));
                m.insert("delivered_msgs".to_owned(), int(w.delivered_msgs));
                m.insert("delivered_bytes".to_owned(), int(w.delivered_bytes));
                m.insert("milli_gbps".to_owned(), int(w.milli_gbps));
                m.insert("pending_peak".to_owned(), int(w.pending_peak));
                m.insert("latency_mean_ns".to_owned(), int(w.latency_mean_ns));
                m.insert("latency_p50_ns".to_owned(), int(w.latency_p50_ns));
                m.insert("latency_p99_ns".to_owned(), int(w.latency_p99_ns));
                Value::Object(m)
            })
            .collect();
        let obs = &self.observability;
        let mut heat = BTreeMap::new();
        heat.insert("node_delivered".to_owned(), obs.node_delivered.to_json());
        heat.insert("link_busy".to_owned(), obs.link_busy.to_json());
        heat.insert("zbox_reads".to_owned(), obs.zbox_reads.to_json());
        heat.insert("zbox_busy".to_owned(), obs.zbox_busy.to_json());
        let p = &obs.profile;
        let mut profile = BTreeMap::new();
        profile.insert("epochs".to_owned(), int(p.epochs() as u64));
        profile.insert("events_per_epoch".to_owned(), ints(&p.events_per_epoch()));
        let mut totals = BTreeMap::new();
        totals.insert("completed".to_owned(), int(self.result.completed));
        totals.insert("retries".to_owned(), int(self.result.retries));
        totals.insert(
            "poisoned".to_owned(),
            int(self.result.poisoned.len() as u64),
        );
        totals.insert(
            "faults_applied".to_owned(),
            int(self.result.faults_applied.len() as u64),
        );
        totals.insert("elapsed_ps".to_owned(), int(self.result.elapsed.as_ps()));
        totals.insert(
            "latency_mean_ns".to_owned(),
            int(self.result.mean_latency.as_ps() / 1_000),
        );
        totals.insert(
            "latency_p50_ns".to_owned(),
            int(self.result.p50_latency.as_ps() / 1_000),
        );
        totals.insert(
            "latency_p99_ns".to_owned(),
            int(self.result.p99_latency.as_ps() / 1_000),
        );
        totals.insert(
            "events_processed".to_owned(),
            int(self.registry.counter("sim.events_processed")),
        );
        let mut m = BTreeMap::new();
        m.insert("id".to_owned(), Value::String(self.id.clone()));
        m.insert("title".to_owned(), Value::String(self.title.clone()));
        m.insert(
            "knee_window".to_owned(),
            self.knee.map_or(Value::Null, |k| int(k as u64)),
        );
        m.insert("windows".to_owned(), Value::Array(windows));
        m.insert("heatmaps".to_owned(), Value::Object(heat));
        m.insert("profile".to_owned(), Value::Object(profile));
        m.insert("totals".to_owned(), Value::Object(totals));
        Value::Object(m)
    }

    fn to_text(&self) -> String {
        let mut out = format!(
            "{} — {} ({} windows of {} µs)\n",
            self.id,
            self.title,
            self.windows.len(),
            self.observability.window_ps / 1_000_000,
        );
        out.push_str("  win  inject  complete  retry  poison   mGb/s  depth  p50 ns  p99 ns\n");
        for w in &self.windows {
            out.push_str(&format!(
                "  {:>3}  {:>6}  {:>8}  {:>5}  {:>6}  {:>6}  {:>5}  {:>6}  {:>6}\n",
                w.index,
                w.injected,
                w.completed,
                w.retries,
                w.poisoned,
                w.milli_gbps,
                w.pending_peak,
                w.latency_p50_ns,
                w.latency_p99_ns,
            ));
        }
        match self.knee {
            Some(k) => out.push_str(&format!(
                "  saturation knee: window {k} (p99 ≥ 2× baseline, throughput flat)\n"
            )),
            None => out.push_str("  saturation knee: none\n"),
        }
        out.push_str("  messages delivered per node (P×Q):\n");
        for line in self.observability.node_delivered.to_ascii().lines() {
            out.push_str(&format!("    {line}\n"));
        }
        let p = &self.observability.profile;
        out.push_str(&format!(
            "  engine: {} epochs, events per epoch {:?}\n",
            p.epochs(),
            p.events_per_epoch(),
        ));
        if p.wall_clock() {
            let wall: u64 = p
                .samples
                .iter()
                .flat_map(|s| s.wall_ns.iter().flatten())
                .sum();
            out.push_str(&format!("  wall-clock busy: {wall} ns\n"));
        }
        out
    }
}

impl TimelineReport {
    /// The JSON artifact (`results/timeline.json`) — all integers, fixed
    /// section order, wall-clock excluded.
    pub fn to_json(&self) -> Value {
        let mut root = BTreeMap::new();
        root.insert("id".to_owned(), Value::String("timeline".to_owned()));
        root.insert(
            "window_ps".to_owned(),
            Value::Number(Number::PosInt(self.window_ps)),
        );
        root.insert(
            "sections".to_owned(),
            Value::Array(self.sections.iter().map(|s| s.to_json()).collect()),
        );
        Value::Object(root)
    }

    /// Plain-text rendering: one windowed table, heatmap, and engine
    /// profile block per section.
    pub fn to_text(&self) -> String {
        let mut out = String::from(
            "timeline — sim-time-resolved campaign metrics, heatmaps, and engine profile\n\n",
        );
        for s in &self.sections {
            out.push_str(&s.to_text());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alphasim_kernel::par::set_jobs;

    #[test]
    fn knee_finds_first_saturated_window() {
        // p99 doubles at index 3 but throughput still grows there; both
        // conditions first hold at index 4.
        let gbps = [100, 200, 300, 400, 390, 380];
        let p99 = [0, 500, 600, 1000, 1100, 1200];
        assert_eq!(saturation_knee(&gbps, &p99), Some(4));
        // Never saturates.
        assert_eq!(saturation_knee(&[1, 2, 3], &[500, 600, 700]), None);
        // No completions at all.
        assert_eq!(saturation_knee(&[0, 0], &[0, 0]), None);
        // Baseline skips leading empty windows.
        assert_eq!(saturation_knee(&[0, 9, 8], &[0, 400, 800]), Some(2));
    }

    #[test]
    fn window_sums_equal_registry_totals_exactly() {
        let report = timeline_report(false);
        assert_eq!(report.sections.len(), 2);
        for s in &report.sections {
            let totals = s.observability.timeline.totals();
            let sum = |f: &dyn Fn(&WindowRow) -> u64| s.windows.iter().map(f).sum::<u64>();
            assert_eq!(
                sum(&|w| w.completed),
                s.registry.counter("coherence.completed"),
                "{}: windowed completions must partition the registry total",
                s.id
            );
            assert_eq!(sum(&|w| w.retries), s.registry.counter("coherence.retries"));
            assert_eq!(sum(&|w| w.poisoned), s.result.poisoned.len() as u64);
            assert_eq!(sum(&|w| w.completed), s.result.completed);
            assert_eq!(
                sum(&|w| w.delivered_msgs),
                totals.counter("net.delivered"),
                "{}: dense rows must cover every touched window",
                s.id
            );
            assert_eq!(
                s.windows.iter().map(|w| w.latency_p99_ns).max(),
                Some(s.result.p99_latency.as_ps() / 1_000).map(|p| {
                    // The run-wide p99 is bounded by the worst window p99;
                    // compare loosely (windowed quantiles resample).
                    let worst = s.windows.iter().map(|w| w.latency_p99_ns).max().unwrap();
                    assert!(worst >= p / 2, "{}: window p99s lost the tail", s.id);
                    worst
                }),
            );
            // Heatmap mass balances the registry too.
            assert_eq!(
                s.observability.zbox_reads.total(),
                s.registry.counter("zbox.accesses"),
                "{}: Zbox heatmap mass",
                s.id
            );
            // The profile's epochs hold every event the run handled.
            assert_eq!(
                s.observability
                    .profile
                    .events_per_epoch()
                    .iter()
                    .sum::<u64>(),
                s.registry.counter("sim.events_processed")
            );
        }
    }

    #[test]
    fn chaos_section_strikes_every_fault_kind() {
        let report = timeline_report(false);
        let chaos = &report.sections[1];
        assert_eq!(chaos.id, "chaos");
        assert_eq!(
            chaos.result.faults_applied.len(),
            9,
            "all nine fault kinds must strike: {:?}",
            chaos.result.faults_applied
        );
        assert!(chaos.result.crc_retransmits >= 1, "FlitCorrupt must bite");
        // The resilience section loses real traffic to its cuts.
        let res = &report.sections[0];
        assert_eq!(res.result.faults_applied.len(), 3);
        assert!(res.result.retries > 0, "cuts must cost retries");
        assert!(res.windows.len() >= 5, "run must span several windows");
    }

    #[test]
    fn report_is_byte_identical_across_worker_counts() {
        let render = || {
            let r = timeline_report(false);
            (
                serde_json::to_string_pretty(&r.to_json()).expect("serialises"),
                r.to_text(),
            )
        };
        set_jobs(1);
        let sequential = render();
        set_jobs(4);
        let threaded = render();
        set_jobs(0);
        assert_eq!(sequential, threaded, "worker count changed the artifact");
    }

    #[test]
    fn traced_report_carries_profiler_lanes_without_perturbing_windows() {
        let plain = timeline_report(false);
        let traced = timeline_report_with(WINDOW_PS, true, true);
        for (p, t) in plain.sections.iter().zip(&traced.sections) {
            assert_eq!(p.windows, t.windows, "{}: tracing perturbed windows", p.id);
            assert_eq!(p.knee, t.knee);
            let trace = t.trace.as_ref().expect("trace requested");
            let body = trace.to_json_string();
            assert!(
                body.contains("\"engine: epochs\""),
                "{}: profiler lane missing",
                p.id
            );
        }
        // Wall-clock is a measurement: the JSON bytes must not change.
        assert_eq!(
            serde_json::to_string(&plain.to_json()).expect("serialises"),
            serde_json::to_string(&traced.to_json()).expect("serialises"),
        );
    }
}
