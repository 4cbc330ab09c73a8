//! One workload pass, run in a child process of its own.
//!
//! The pass drives each layer from outside through public items only and
//! owns the sweep loops, so it can time set-up apart from simulation and,
//! in a traced pass, wrap every call into a layer with a span. Engine
//! settings reach it only through `ALPHASIM_SHARDS` / `ALPHASIM_THREADS`,
//! which the parent sets per workload.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use alphasim::cache::CacheHierarchy;
use alphasim::coherence::RetryPolicy;
use alphasim::experiments::memory::{fig04_sizes, fig05_strides, LatencyMachine};
use alphasim::experiments::network::default_windows;
use alphasim::experiments::resilience::bisection_cuts;
use alphasim::kernel::{take_peak_event_depth, FaultKind, FaultPlan, SimDuration, SimTime};
use alphasim::mem::OpenPageTable;
use alphasim::system::loadtest::{
    gs1280_load_test, gs320_load_test, LoadTest, LoadTestConfig, LoadTestResult, TrafficPattern,
};
use alphasim::system::{
    gs1280_fault_campaign, CampaignPattern, FabricTopo, FaultCampaign, FaultCampaignConfig, Gs1280,
    Gs320, ObserveOptions,
};
use alphasim::topology::Topology;
use alphasim::workloads::PointerChase;
use serde_json::{json, Value};

use crate::reference::Curve;
use crate::trace::{total_times, Span, Tracer};

/// Measured loads per chase point (the full-effort figures' cap).
const MAX_LOADS: u64 = 60_000;
/// Reads per CPU in each load-test point (Fig. 15 at full effort).
const LOADTEST_REQUESTS: usize = 200;
/// The load-test machines: Fig. 15's GS1280 16/32/64P and GS320 16/32P.
const LOADTEST_MACHINES: [(&str, usize); 5] = [
    ("GS1280", 16),
    ("GS1280", 32),
    ("GS1280", 64),
    ("GS320", 16),
    ("GS320", 32),
];
/// The resilience sweep at full effort: 64P, 0..=6 bisection cuts, 1000
/// reads per CPU.
const CAMPAIGN_CPUS: usize = 64;
const CAMPAIGN_MAX_CUTS: usize = 6;
const CAMPAIGN_REQUESTS: usize = 1000;
/// The resilience artifact's series, in artifact order.
const RESILIENCE_SERIES: [&str; 6] = [
    "achieved bisection bandwidth (GB/s)",
    "end-to-end delivered incl. recovery tail (GB/s)",
    "mean read latency (ns)",
    "p99 read latency (ns)",
    "retries",
    "messages lost to dead links",
];
/// A traced chase times one `OpenPageTable::touch` call in this many.
const TOUCH_SAMPLE: u64 = 64;
/// Timeline window of the observed (epoch-profiled) campaign runs.
const OBSERVE_WINDOW_PS: u64 = 1_000_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Chase,
    LoadTest,
    Campaign,
    CampaignPar,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Chase,
        Workload::LoadTest,
        Workload::Campaign,
        Workload::CampaignPar,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Chase => "chase",
            Workload::LoadTest => "loadtest",
            Workload::Campaign => "campaign",
            Workload::CampaignPar => "campaign-par",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// `(ALPHASIM_SHARDS, ALPHASIM_THREADS)` for the pass process. Only
    /// `campaign-par` differs: the same simulated work on two region
    /// shards, stepped epoch by epoch on one thread. A second thread would
    /// time the host's thread wake-ups at every barrier, which on a shared
    /// two-core host swing a pass by 20-35% from run to run.
    pub fn engine(self) -> (usize, usize) {
        match self {
            Workload::CampaignPar => (2, 1),
            _ => (1, 1),
        }
    }

    /// Simulated operations in one pass, fixed by the inputs: loads
    /// (warm-up included) for the chase, reads for the others.
    pub fn nominal_ops(self) -> u64 {
        match self {
            Workload::Chase => chase_grid()
                .iter()
                .map(|&(_, _, stride, size)| {
                    let elements = size / stride;
                    elements + elements.clamp(1, MAX_LOADS)
                })
                .sum(),
            Workload::LoadTest => LOADTEST_MACHINES
                .iter()
                .map(|&(_, cpus)| (cpus * LOADTEST_REQUESTS * default_windows().len()) as u64)
                .sum(),
            Workload::Campaign | Workload::CampaignPar => {
                ((CAMPAIGN_MAX_CUTS + 1) * CAMPAIGN_CPUS * CAMPAIGN_REQUESTS) as u64
            }
        }
    }

    /// Whether the committed artifacts hold this workload's outputs at
    /// `seed`. The chase has no random input, so it is checked at any seed.
    pub fn validated_at(self, seed: u64) -> bool {
        self == Workload::Chase || seed == 0
    }

    /// `(artifact, series label, point count)` of every curve a pass
    /// produces, known without running it.
    pub fn expected_series(self) -> Vec<(&'static str, String, usize)> {
        match self {
            Workload::Chase => {
                let mut out: Vec<(&'static str, String, usize)> = Vec::new();
                for (curve, _, _, _) in chase_grid() {
                    match out
                        .iter_mut()
                        .find(|(a, l, _)| *a == curve.0 && *l == curve.1)
                    {
                        Some(entry) => entry.2 += 1,
                        None => out.push((curve.0, curve.1, 1)),
                    }
                }
                out
            }
            Workload::LoadTest => LOADTEST_MACHINES
                .iter()
                .map(|&(kind, cpus)| ("fig15", format!("{kind}/{cpus}P"), default_windows().len()))
                .collect(),
            Workload::Campaign | Workload::CampaignPar => RESILIENCE_SERIES
                .iter()
                .map(|&l| ("resilience", l.to_owned(), CAMPAIGN_MAX_CUTS + 1))
                .collect(),
        }
    }
}

/// What one pass reports to the parent.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PassOutput {
    /// Host seconds from process start to the last simulated operation.
    pub host_s: f64,
    /// Host seconds of set-up: process start to the first simulated
    /// operation, plus every later point's machine, routing, fabric or
    /// cache construction.
    pub setup_s: f64,
    /// Peak resident set (`VmHWM`) of the pass process, KiB.
    pub rss_kib: u64,
    /// `(host seconds, set-up seconds)` of each sweep point in order; the
    /// first point also carries the process start-up.
    pub segments: Vec<(f64, f64)>,
    pub curves: Vec<Curve>,
    /// Broken invariants (reads lost, faults not applied, ...).
    pub violations: Vec<String>,
    /// Traced passes only: the layer spans and the per-layer metrics.
    pub spans: Vec<Span>,
    pub layer: BTreeMap<String, f64>,
    /// Free-text annotations, e.g. which chase point was slowest.
    pub notes: BTreeMap<String, String>,
}

impl PassOutput {
    pub fn to_json(&self) -> Value {
        let curves: Vec<Value> = self.curves.iter().map(Curve::to_json).collect();
        let spans: Vec<Value> = self.spans.iter().map(Span::to_json).collect();
        let segments: Vec<Value> = self.segments.iter().map(|&(t, s)| json!([t, s])).collect();
        json!({
            "host_s": self.host_s,
            "setup_s": self.setup_s,
            "rss_kib": self.rss_kib,
            "segments": segments,
            "curves": curves,
            "violations": self.violations,
            "spans": spans,
            "layer": self.layer,
            "notes": self.notes,
        })
    }

    pub fn from_json(v: &Value) -> Option<PassOutput> {
        let layer = v
            .get("layer")?
            .as_object()?
            .iter()
            .map(|(k, x)| Some((k.clone(), x.as_f64()?)))
            .collect::<Option<_>>()?;
        let notes = v
            .get("notes")?
            .as_object()?
            .iter()
            .map(|(k, x)| Some((k.clone(), x.as_str()?.to_owned())))
            .collect::<Option<_>>()?;
        Some(PassOutput {
            host_s: v.get("host_s")?.as_f64()?,
            setup_s: v.get("setup_s")?.as_f64()?,
            rss_kib: v.get("rss_kib")?.as_u64()?,
            segments: v
                .get("segments")?
                .as_array()?
                .iter()
                .map(|p| {
                    let p = p.as_array()?;
                    Some((p.first()?.as_f64()?, p.get(1)?.as_f64()?))
                })
                .collect::<Option<_>>()?,
            curves: v
                .get("curves")?
                .as_array()?
                .iter()
                .map(Curve::from_json)
                .collect::<Option<_>>()?,
            violations: v
                .get("violations")?
                .as_array()?
                .iter()
                .map(|s| s.as_str().map(str::to_owned))
                .collect::<Option<_>>()?,
            spans: v
                .get("spans")?
                .as_array()?
                .iter()
                .map(Span::from_json)
                .collect::<Option<_>>()?,
            layer,
            notes,
        })
    }
}

/// Pass state: the set-up clock, the tracer, and what the pass reports.
struct Pass {
    start: Instant,
    tracer: Tracer,
    /// Start of the current sweep point's segment, and its set-up so far.
    segment_start: Instant,
    segment_setup: Duration,
    simulating: bool,
    /// Duration of the most recent [`Pass::sim`] call.
    last_sim: Duration,
    out: PassOutput,
}

impl Pass {
    fn new(traced: bool, start: Instant) -> Pass {
        Pass {
            start,
            tracer: Tracer::new(traced, start),
            segment_start: start,
            segment_setup: Duration::ZERO,
            simulating: false,
            last_sim: Duration::ZERO,
            out: PassOutput::default(),
        }
    }

    /// Run `f` as set-up (machine, routing, fabric or cache construction).
    fn build<R>(&mut self, name: &str, point: u64, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        self.tracer.open_at(name, point, t);
        let r = black_box(f());
        let end = Instant::now();
        self.tracer.close_at(end);
        if self.simulating {
            self.segment_setup += end - t;
        }
        r
    }

    /// Run `f` as simulation. The first call ends the initial set-up.
    fn sim<R>(&mut self, name: &str, point: u64, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        if !self.simulating {
            self.simulating = true;
            self.segment_setup = t - self.start;
        }
        self.tracer.open_at(name, point, t);
        let r = black_box(f());
        let end = Instant::now();
        self.tracer.close_at(end);
        self.last_sim = end - t;
        r
    }

    /// Close the current sweep point's segment.
    fn end_point(&mut self) {
        let now = Instant::now();
        self.out.segments.push((
            (now - self.segment_start).as_secs_f64(),
            self.segment_setup.as_secs_f64(),
        ));
        self.segment_start = now;
        self.segment_setup = Duration::ZERO;
    }

    fn layer(&mut self, name: String, value: f64) {
        self.out.layer.insert(name, value);
    }

    /// Total seconds of every span named `name` so far.
    fn span_s(&self, name: &str) -> f64 {
        total_times(self.tracer.spans())
            .get(name)
            .copied()
            .unwrap_or(0.0)
    }
}

/// Run one pass of `w`. `start` is the process start; everything from it
/// to the last simulated operation counts as the pass's host time.
pub fn run(w: Workload, seed: u64, traced: bool, start: Instant) -> PassOutput {
    let mut pass = Pass::new(traced, start);
    pass.tracer.open_at(&format!("{}.pass", w.name()), 0, start);
    let probe = match w {
        Workload::Chase => {
            chase(&mut pass);
            false
        }
        Workload::LoadTest => {
            loadtest(&mut pass, seed, &LOADTEST_MACHINES, &default_windows());
            false
        }
        Workload::Campaign | Workload::CampaignPar => campaign(&mut pass, w, seed),
    };
    let end = Instant::now();
    pass.tracer.close_at(end);
    pass.out.host_s = (end - start).as_secs_f64();
    pass.out.setup_s = pass.out.segments.iter().map(|s| s.1).sum();
    // Telemetry overhead is measured after the pass's clock has stopped:
    // the plain runs it needs are not part of the workload. Each point
    // runs twice each way, alternating, and keeps its faster time.
    if probe {
        let (mut plain, mut instrumented) = (0.0, 0.0);
        for cuts in [0, CAMPAIGN_MAX_CUTS] {
            let (mut p, mut i) = (f64::INFINITY, f64::INFINITY);
            for _ in 0..2 {
                let (campaign, cfg) = campaign_setup(cuts, seed);
                let t = Instant::now();
                black_box(campaign.run(&cfg));
                p = p.min(t.elapsed().as_secs_f64());
                let (campaign, cfg) = campaign_setup(cuts, seed);
                let t = Instant::now();
                black_box(campaign.run_instrumented(&cfg, false));
                i = i.min(t.elapsed().as_secs_f64());
            }
            plain += p;
            instrumented += i;
        }
        pass.layer(
            "campaign.telemetry.overhead_pct".into(),
            (instrumented / plain - 1.0) * 100.0,
        );
    }
    pass.out.spans = pass.tracer.into_spans();
    pass.out.rss_kib = peak_rss_kib();
    pass.out
}

/// `VmHWM` of this process in KiB (0 where `/proc` is unavailable).
fn peak_rss_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// The Fig. 4 grid (three machines, 4 KB..128 MB at stride 64) then the
/// Fig. 5 grid (GS1280, strides 4 B..16 KB, sizes at least one stride):
/// `((artifact, series), machine, stride, size)` per point.
fn chase_grid() -> Vec<((&'static str, String), LatencyMachine, u64, u64)> {
    let mut grid = Vec::new();
    for m in [
        LatencyMachine::gs1280(),
        LatencyMachine::es45(),
        LatencyMachine::gs320(),
    ] {
        for size in fig04_sizes() {
            grid.push((("fig04", m.name.to_owned()), m, 64, size));
        }
    }
    let m = LatencyMachine::gs1280();
    for stride in fig05_strides() {
        for size in fig04_sizes().into_iter().filter(|&s| s >= stride) {
            grid.push((("fig05", format!("stride {stride}B")), m, stride, size));
        }
    }
    grid
}

/// What a traced chase measures inside `PointerChase::run`.
#[derive(Default)]
struct ChaseProbe {
    /// `CacheHierarchy::load` calls (one per memory-latency query).
    loads: u64,
    page_hits: u64,
    page_touches: u64,
    /// Pages of 1 touch in [`TOUCH_SAMPLE`] of the current point, in order.
    sampled: Vec<u64>,
    touch_samples: u64,
    touch_replay: Duration,
    warmup: Duration,
}

impl ChaseProbe {
    /// `LatencyMachine::dependent_load_ns`'s walk, counting loads, timing
    /// the warm-up pass and sampling the pages touched.
    fn run(
        &mut self,
        chase: &PointerChase,
        hierarchy: &mut CacheHierarchy,
        pages: &mut OpenPageTable,
        open: SimDuration,
        closed: SimDuration,
        loads: u64,
    ) -> SimDuration {
        let warm = chase.elements();
        let mut calls = 0u64;
        let mut warm_end = None;
        let sampled = &mut self.sampled;
        let start = Instant::now();
        let latency = chase.run(
            hierarchy,
            |addr| {
                if calls == warm {
                    warm_end = Some(Instant::now());
                }
                calls += 1;
                let page = pages.page_of(addr.get());
                if calls.is_multiple_of(TOUCH_SAMPLE) {
                    sampled.push(page);
                }
                if pages.touch(page) {
                    open
                } else {
                    closed
                }
            },
            loads,
        );
        self.warmup += warm_end.map_or(Duration::ZERO, |t| t - start);
        self.loads += calls;
        self.page_hits += pages.hits();
        self.page_touches += pages.hits() + pages.misses();
        latency
    }

    /// Time `OpenPageTable::touch` alone: replay the point's sampled pages,
    /// in order, through `fresh` in one timed loop. A touch is a few
    /// nanoseconds, too short to time call by call.
    fn replay(&mut self, mut fresh: OpenPageTable) {
        let t = Instant::now();
        let hits = self
            .sampled
            .iter()
            .filter(|&&p| fresh.touch(black_box(p)))
            .count();
        self.touch_replay += t.elapsed();
        black_box(hits);
        self.touch_samples += self.sampled.len() as u64;
        self.sampled.clear();
    }
}

fn chase(pass: &mut Pass) {
    let mut probe = pass.tracer.on().then(ChaseProbe::default);
    let mut curves: Vec<Curve> = Vec::new();
    let mut slowest = (Duration::ZERO, String::new());
    for (i, ((artifact, label), m, stride, size)) in chase_grid().into_iter().enumerate() {
        let i = i as u64;
        let point_start = Instant::now();
        pass.tracer.open_at("chase.point", i, point_start);
        let (mut hierarchy, mut pages, chase, loads) = pass.build("chase.build", i, || {
            let chase = PointerChase::new(size, stride);
            (
                CacheHierarchy::new(m.hierarchy),
                OpenPageTable::new(m.page_kib, m.open_pages),
                chase,
                chase.elements().clamp(1, MAX_LOADS),
            )
        });
        let (open, closed) = (
            SimDuration::from_ns(m.open_ns),
            SimDuration::from_ns(m.closed_ns),
        );
        let latency = pass.sim("chase.run", i, || match probe.as_mut() {
            Some(p) => p.run(&chase, &mut hierarchy, &mut pages, open, closed, loads),
            None => chase.run(
                &mut hierarchy,
                |addr| {
                    if pages.touch(pages.page_of(addr.get())) {
                        open
                    } else {
                        closed
                    }
                },
                loads,
            ),
        });
        if let Some(p) = probe.as_mut() {
            pass.tracer.open("chase.pages.replay", i);
            p.replay(OpenPageTable::new(m.page_kib, m.open_pages));
            pass.tracer.close();
        }
        pass.tracer.close();
        pass.end_point();
        let took = point_start.elapsed();
        if took > slowest.0 {
            slowest = (took, format!("{artifact} {label} at {size} B"));
        }
        if curves.last().is_none_or(|c| c.label != label) {
            curves.push(Curve::new(artifact, label));
        }
        let curve = curves.last_mut().expect("pushed above");
        curve.points.push((size as f64, latency.as_ns()));
    }
    pass.out.curves = curves;
    if let Some(p) = probe {
        let run_ns = pass.span_s("chase.run") * 1e9;
        let touch_ns = p.touch_replay.as_secs_f64() * 1e9 / p.touch_samples.max(1) as f64;
        let cache_ns = run_ns - touch_ns * p.page_touches as f64;
        pass.layer("chase.cache.load_ns".into(), cache_ns / p.loads as f64);
        pass.layer("chase.cache.loads".into(), p.loads as f64);
        pass.layer("chase.pages.touch_ns".into(), touch_ns);
        pass.layer("chase.pages.touches".into(), p.page_touches as f64);
        pass.layer(
            "chase.pages.hit_ratio".into(),
            p.page_hits as f64 / p.page_touches.max(1) as f64,
        );
        pass.layer(
            "chase.warmup_share".into(),
            p.warmup.as_secs_f64() * 1e9 / run_ns,
        );
        pass.layer("chase.point_max_s".into(), slowest.0.as_secs_f64());
        pass.out.notes.insert("chase.point_max_s".into(), slowest.1);
    }
}

enum LoadMachine {
    Gs1280(Gs1280),
    Gs320(Gs320),
}

/// One load-test point: build the fabric, then run the closed loop.
fn load_point<T: Topology>(
    pass: &mut Pass,
    id: u64,
    make: impl FnOnce() -> LoadTest<T>,
    cfg: &LoadTestConfig,
) -> LoadTestResult {
    let test = pass.build("loadtest.fabric", id, make);
    pass.sim("loadtest.run", id, || test.run(cfg))
}

/// The first load-test point alone (GS1280/16P, window 1), in this
/// process: what `--selftest` judges against a doctored reference.
pub fn first_loadtest_point() -> PassOutput {
    let mut pass = Pass::new(false, Instant::now());
    loadtest(
        &mut pass,
        0,
        &LOADTEST_MACHINES[..1],
        &default_windows()[..1],
    );
    pass.out
}

fn loadtest(pass: &mut Pass, seed: u64, machines: &[(&str, usize)], windows: &[usize]) {
    let traced = pass.tracer.on();
    if traced {
        take_peak_event_depth();
    }
    // (run ns, reads) per machine, for light (w <= 4) and saturated
    // (w >= 16) windows.
    let mut per_machine = Vec::new();
    let (mut light, mut saturated) = ((0.0, 0u64), (0.0, 0u64));
    for (mi, &(kind, cpus)) in machines.iter().enumerate() {
        pass.tracer.open("loadtest.series", mi as u64);
        let machine = pass.build("loadtest.machine", mi as u64, || match kind {
            "GS1280" => LoadMachine::Gs1280(Gs1280::builder().cpus(cpus).build()),
            _ => LoadMachine::Gs320(Gs320::new(cpus)),
        });
        let mut curve = Curve::new("fig15", format!("{kind}/{cpus}P"));
        let mut machine_total = (0.0, 0u64);
        for (wi, &w) in windows.iter().enumerate() {
            let id = (mi * windows.len() + wi) as u64;
            let cfg = LoadTestConfig {
                outstanding: w,
                requests_per_cpu: LOADTEST_REQUESTS,
                pattern: TrafficPattern::UniformRemote,
                seed: LoadTestConfig::default().seed ^ seed,
                ..Default::default()
            };
            pass.tracer.open("loadtest.point", id);
            let r = match &machine {
                LoadMachine::Gs1280(m) => load_point(pass, id, || gs1280_load_test(m), &cfg),
                LoadMachine::Gs320(m) => load_point(pass, id, || gs320_load_test(m), &cfg),
            };
            pass.tracer.close();
            pass.end_point();
            let expected = (cpus * LOADTEST_REQUESTS) as u64;
            if r.completed != expected {
                pass.out.violations.push(format!(
                    "{kind}/{cpus}P window {w}: {} reads completed of {expected}",
                    r.completed
                ));
            }
            curve
                .points
                .push((r.delivered_gbps * 1000.0, r.mean_latency.as_ns()));
            let ns = pass.last_sim.as_secs_f64() * 1e9;
            for acc in [
                Some(&mut machine_total),
                (w <= 4).then_some(&mut light),
                (w >= 16).then_some(&mut saturated),
            ]
            .into_iter()
            .flatten()
            {
                acc.0 += ns;
                acc.1 += r.completed;
            }
        }
        pass.tracer.close();
        per_machine.push((format!("{}-{cpus}p", kind.to_lowercase()), machine_total));
        pass.out.curves.push(curve);
    }
    if traced {
        let build_s = pass.span_s("loadtest.machine") + pass.span_s("loadtest.fabric");
        pass.layer("loadtest.build_s".into(), build_s);
        for (key, (ns, reads)) in per_machine {
            pass.layer(format!("loadtest.ns_per_read.{key}"), ns / reads as f64);
        }
        pass.layer(
            "loadtest.ns_per_read.light".into(),
            light.0 / light.1 as f64,
        );
        pass.layer(
            "loadtest.ns_per_read.saturated".into(),
            saturated.0 / saturated.1 as f64,
        );
        pass.layer(
            "loadtest.event_queue_peak".into(),
            take_peak_event_depth() as f64,
        );
    }
}

/// The resilience sweep's campaign for one cut count: the bisection
/// pattern with the cuts staggered through the early run, the sweep's
/// retry policy and watchdog, and `seed` XORed into the campaign seed.
fn campaign_setup(cuts: usize, seed: u64) -> (FaultCampaign<FabricTopo>, FaultCampaignConfig) {
    let mut plan = FaultPlan::new();
    for (i, &(a, b)) in bisection_cuts(CAMPAIGN_CPUS, cuts).iter().enumerate() {
        let at = SimTime::ZERO + SimDuration::from_us(2.0) + SimDuration::from_us(1.0) * i as u64;
        plan.push(at, FaultKind::LinkDown { a, b });
    }
    let machine = Gs1280::builder().cpus(CAMPAIGN_CPUS).build();
    let cfg = FaultCampaignConfig {
        outstanding: 8,
        requests_per_cpu: CAMPAIGN_REQUESTS,
        pattern: CampaignPattern::Bisection,
        seed: FaultCampaignConfig::default().seed ^ seed,
        plan,
        retry: RetryPolicy {
            timeout: SimDuration::from_us(50.0),
            backoff_base: SimDuration::from_us(2.0),
            backoff_cap: SimDuration::from_us(32.0),
            max_retries: 6,
        },
        watchdog_window: SimDuration::from_us(250.0),
        ..Default::default()
    };
    (gs1280_fault_campaign(&machine), cfg)
}

/// Per-pass sums behind the traced campaign metrics.
#[derive(Default)]
struct CampaignAcc {
    events: u64,
    run_ns: f64,
    completed: u64,
    retries: u64,
    healthy_ns_per_read: f64,
    wounded_ns_per_read: f64,
    epochs: u64,
    merged: u64,
    wall_ns: u64,
    /// Events processed per shard.
    shard_busy: Vec<u64>,
}

/// Returns whether the pass still owes the telemetry-overhead probe (the
/// traced `campaign` pass does).
fn campaign(pass: &mut Pass, w: Workload, seed: u64) -> bool {
    let traced = pass.tracer.on();
    let observed = traced && w == Workload::CampaignPar;
    let name = |s: &str| format!("{}.{s}", w.name());
    let (point, build, run) = (name("point"), name("build"), name("run"));
    let mut curves: Vec<Curve> = RESILIENCE_SERIES
        .iter()
        .map(|&l| Curve::new("resilience", l))
        .collect();
    let mut acc = CampaignAcc::default();
    for cuts in 0..=CAMPAIGN_MAX_CUTS {
        let k = cuts as u64;
        pass.tracer.open(&point, k);
        let (campaign, cfg) = pass.build(&build, k, || campaign_setup(cuts, seed));
        let (r, telemetry, profile) = if observed {
            let opts = ObserveOptions {
                wall: true,
                ..ObserveOptions::windowed(OBSERVE_WINDOW_PS)
            };
            let (r, t, o) = pass.sim(&run, k, || campaign.run_observed(&cfg, opts));
            (r, t, Some(o.profile))
        } else {
            let (r, t) = pass.sim(&run, k, || campaign.run_instrumented(&cfg, false));
            (r, t, None)
        };
        pass.tracer.close();
        pass.end_point();
        let expected = (CAMPAIGN_CPUS * CAMPAIGN_REQUESTS) as u64;
        if r.completed + r.poisoned.len() as u64 != expected {
            pass.out.violations.push(format!(
                "{cuts} cuts: {} completed + {} poisoned of {expected} reads",
                r.completed,
                r.poisoned.len()
            ));
        }
        if r.faults_applied.len() != cuts {
            pass.out.violations.push(format!(
                "{cuts} cuts: {} faults struck",
                r.faults_applied.len()
            ));
        }
        let values = [
            r.steady_gbps,
            r.delivered_gbps,
            r.mean_latency.as_ns(),
            r.p99_latency.as_ns(),
            r.retries as f64,
            r.dropped as f64,
        ];
        for (c, y) in curves.iter_mut().zip(values) {
            c.points.push((cuts as f64, y));
        }
        let ns = pass.last_sim.as_secs_f64() * 1e9;
        acc.events += telemetry.registry.counter("sim.events_processed");
        acc.run_ns += ns;
        acc.completed += r.completed;
        acc.retries += r.retries;
        if cuts == 0 {
            acc.healthy_ns_per_read = ns / r.completed as f64;
        }
        if cuts == CAMPAIGN_MAX_CUTS {
            acc.wounded_ns_per_read = ns / r.completed as f64;
        }
        if let Some(p) = profile {
            acc.epochs += p.epochs() as u64;
            acc.shard_busy.resize(p.shard_count(), 0);
            for (b, x) in acc.shard_busy.iter_mut().zip(p.busy_per_shard()) {
                *b += x;
            }
            acc.merged += p.merged_per_shard().iter().sum::<u64>();
            for s in &p.samples {
                acc.wall_ns += s.wall_ns.as_ref().map_or(0, |v| v.iter().sum::<u64>());
            }
        }
    }
    pass.out.curves = curves;
    if !traced {
        return false;
    }
    let build_s = pass.span_s(&build);
    pass.layer(name("build_s"), build_s);
    pass.layer(name("events"), acc.events as f64);
    pass.layer(name("ns_per_event"), acc.run_ns / acc.events as f64);
    pass.layer(name("ns_per_read.healthy"), acc.healthy_ns_per_read);
    pass.layer(name("ns_per_read.wounded"), acc.wounded_ns_per_read);
    pass.layer(
        name("coherence.useful_ratio"),
        acc.completed as f64 / (acc.completed + acc.retries) as f64,
    );
    if observed {
        let shards = acc.shard_busy.len().max(1) as f64;
        let busy_total: u64 = acc.shard_busy.iter().sum();
        let busy_max = acc.shard_busy.iter().copied().max().unwrap_or(0);
        pass.layer("epoch.count".into(), acc.epochs as f64);
        pass.layer(
            "epoch.events_per_epoch".into(),
            busy_total as f64 / acc.epochs.max(1) as f64,
        );
        pass.layer(
            "epoch.imbalance_milli".into(),
            busy_max as f64 * 1000.0 * shards / busy_total.max(1) as f64,
        );
        pass.layer(
            "epoch.busy_share".into(),
            acc.wall_ns as f64 / (shards * acc.run_ns),
        );
        pass.layer(
            "epoch.merged_per_event".into(),
            acc.merged as f64 / busy_total.max(1) as f64,
        );
    }
    w == Workload::Campaign
}
