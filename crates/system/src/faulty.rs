//! Closed-loop load testing under live fault injection.
//!
//! [`FaultCampaign`] drives the windowed read loop of
//! [`loadtest`](crate::loadtest) — on the same worker — while a
//! [`FaultPlan`] wounds the machine mid-run: links die (losing the packets
//! on their wires), CPUs drain, RDRAM channels fail. The coherence layer's
//! timeout-and-retry machinery
//! ([`RetryPolicy`], [`alphasim_coherence::PendingSet`], [`Watchdog`])
//! guarantees the robustness contract: **every transaction either
//! completes (possibly after bounded-backoff retries) or is poisoned with
//! a named cause** — nothing hangs silently, and a kernel-level watchdog
//! reports the stuck set if delivery progress ever stops for a whole
//! window.
//!
//! Campaigns execute on the closed-loop engine (`crate::epoch`), the one
//! the load test runs on without its retry machinery: one worker holds the
//! fabric, the per-CPU pending sets and deadline queues, the memory
//! controllers and the fault plan, stepped by
//! [`alphasim_kernel::shard::EpochExecutor`], and strikes its faults and
//! watchdog ticks at its own epoch barriers. Events
//! fire in an order the config alone fixes; the worker folds its per-read
//! streams as they fire, and the rest is put into a canonical order after
//! the run.
//!
//! [`FaultCampaign::run_monitored`] arms the always-on invariant monitors
//! on top of the same loop: hung-transaction detection (with watchdog
//! escalation so a broken recovery path cannot hang the harness), the
//! retry bound, poison hygiene, window-refill integrity, issue quotas and
//! accounting, and the telemetry exact-sum identity. A
//! [`RecoveryMutation`] deliberately breaks one recovery path so the chaos
//! engine can prove those monitors catch real bugs and that the shrinker
//! minimizes the schedule that exposed them.

use alphasim_coherence::{LivelockReport, PendingSet, RetryPolicy, Watchdog};
use alphasim_kernel::chaos::{validate_plan, SiteCatalog};
use alphasim_kernel::shard::{EpochExecutor, EpochProfile, EpochReport};
use alphasim_kernel::stats::MeanP50P99;
use alphasim_kernel::{DetRng, FaultKind, FaultPlan, SimDuration, SimTime};
use alphasim_mem::{Zbox, ZboxConfig};
use alphasim_net::partition::{tb_inject, FabricTables, RegionNet};
use alphasim_net::LinkTiming;
use alphasim_telemetry::trace::{PID_LINKS, PID_MEMORY, PID_MESSAGES, PID_SHARDS};
use alphasim_telemetry::{BreakdownTable, Registry, TraceSink};
use alphasim_topology::route::RoutePolicy;
use alphasim_topology::{NodeId, Topology};
use serde::{Deserialize, Serialize};
use std::marker::PhantomData;

use crate::epoch::{CampaignCfg, CampaignWorker, Ev, PendingDepth, Requester, Sampler};
use crate::loadtest::TrafficPattern;
use crate::obs::{assemble, CampaignObservability, ObsAcc, ObserveOptions};

/// Consecutive no-progress watchdog windows a monitored run tolerates
/// before declaring the pending set hung and stopping. Healthy retry
/// chains deliver something well inside one window, so three silent
/// windows in a row can only mean transactions that will never move.
pub(crate) const STUCK_WINDOW_LIMIT: u32 = 3;

/// A deliberately broken recovery path. Chaos campaigns run each mutation
/// to prove the invariant monitors catch the breakage and the shrinker
/// minimizes the schedule that exposed it — mutation testing for the
/// robustness contract itself. Only honoured by
/// [`FaultCampaign::run_monitored`]; the plain entry points refuse
/// mutations because a broken recovery path can hang an unmonitored run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RecoveryMutation {
    /// Timer expiries are ignored: lost transactions are never retried or
    /// poisoned and hang forever.
    IgnoreTimeouts,
    /// Poisoning skips the pending-set removal: the abandoned entry leaks.
    LeakPoison,
    /// A poisoned read does not refill its CPU's window slot, silently
    /// shrinking the issue window.
    SkipWindowRefill,
    /// Transactions get one more attempt than the retry policy allows.
    OffByOneRetry,
}

impl RecoveryMutation {
    /// Every mutation, in a fixed order.
    pub const ALL: [RecoveryMutation; 4] = [
        RecoveryMutation::IgnoreTimeouts,
        RecoveryMutation::LeakPoison,
        RecoveryMutation::SkipWindowRefill,
        RecoveryMutation::OffByOneRetry,
    ];

    /// Stable identifier (CLI argument, reproducer field).
    pub fn id(self) -> &'static str {
        match self {
            RecoveryMutation::IgnoreTimeouts => "ignore-timeouts",
            RecoveryMutation::LeakPoison => "leak-poison",
            RecoveryMutation::SkipWindowRefill => "skip-window-refill",
            RecoveryMutation::OffByOneRetry => "off-by-one-retry",
        }
    }

    /// Parse a stable identifier back to the mutation.
    pub fn from_id(id: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|m| m.id() == id)
    }
}

/// One invariant violation observed by the always-on monitors.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Violation {
    /// Which monitor fired (`hung-transactions`, `retry-bound`,
    /// `poison-leak`, `window-refill`, `issue-quota`, `telemetry-balance`,
    /// `accounting`).
    pub monitor: String,
    /// What it saw.
    pub detail: String,
}

/// What the always-on monitors observed over one monitored run.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MonitorReport {
    /// Every violation, in detection order. Empty on a healthy machine.
    pub violations: Vec<Violation>,
    /// Highest attempt count any transaction reached (bounded by
    /// `max_retries + 1` when the retry machinery is intact).
    pub max_attempts: u32,
}

impl MonitorReport {
    /// Whether every invariant held.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// How campaign CPUs pick the home of each read: the load test's
/// [`TrafficPattern`] under the name campaign callers use.
pub type CampaignPattern = TrafficPattern;

/// Parameters of one fault campaign.
#[derive(Debug, Clone)]
pub struct FaultCampaignConfig {
    /// Outstanding reads per CPU.
    pub outstanding: usize,
    /// Reads each CPU completes before the run ends.
    pub requests_per_cpu: usize,
    /// Traffic pattern.
    pub pattern: CampaignPattern,
    /// RNG seed.
    pub seed: u64,
    /// The fault schedule (empty plan = healthy baseline run). It must
    /// pass [`validate_plan`] over the fabric's sites; the run refuses an
    /// illegal plan before the first event.
    pub plan: FaultPlan,
    /// Timeout / backoff / poison policy for lost transactions.
    pub retry: RetryPolicy,
    /// Watchdog no-progress window (should exceed the retry timeout, or
    /// ordinary timeouts read as livelock).
    pub watchdog_window: SimDuration,
    /// Deliberately broken recovery path for mutation testing (`None` =
    /// intact machinery). Only honoured by
    /// [`FaultCampaign::run_monitored`].
    pub mutation: Option<RecoveryMutation>,
}

impl Default for FaultCampaignConfig {
    fn default() -> Self {
        FaultCampaignConfig {
            outstanding: 4,
            requests_per_cpu: 100,
            pattern: CampaignPattern::UniformRemote,
            seed: 0xFA117,
            plan: FaultPlan::new(),
            retry: RetryPolicy::gs1280_default(),
            watchdog_window: SimDuration::from_us(200.0),
            mutation: None,
        }
    }
}

/// A transaction abandoned after exhausting its retries (the NAK path).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoisonedTx {
    /// Correlation tag.
    pub tag: u64,
    /// Requesting CPU.
    pub cpu: usize,
    /// Home node of the read.
    pub home: usize,
    /// Issue attempts spent.
    pub attempts: u32,
    /// Why it was abandoned.
    pub cause: String,
}

/// The outcome of one fault campaign.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// Reads completed (every issued read completes or is poisoned).
    pub completed: u64,
    /// Retries issued by the timeout/drop machinery.
    pub retries: u64,
    /// Messages lost with failed wires.
    pub dropped: u64,
    /// Queued messages evicted from failing links and re-routed.
    pub rerouted: u64,
    /// Transactions abandoned with a named cause.
    pub poisoned: Vec<PoisonedTx>,
    /// Livelock reports (normally empty: retries keep making progress).
    pub watchdog_reports: Vec<LivelockReport>,
    /// Faults that actually struck, in strike order.
    pub faults_applied: Vec<FaultKind>,
    /// Link-layer CRC retransmissions triggered by transient flit
    /// corruption.
    pub crc_retransmits: u64,
    /// Mean end-to-end read latency (first issue to data return, across
    /// every retry).
    pub mean_latency: SimDuration,
    /// Median read latency (same nearest-rank rule as the p99).
    pub p50_latency: SimDuration,
    /// 99th-percentile read latency.
    pub p99_latency: SimDuration,
    /// Aggregate delivered read bandwidth, GB/s (64 B per completed read),
    /// measured to the last delivery, not to the last event: a CPU's armed
    /// retry wake-up can fire up to one timeout after its last read
    /// completed. Includes the recovery tail: after the unwounded CPUs
    /// finish their quota, the machine idles while the wounded rows grind
    /// out their remainder, so this understates the sustained rate.
    pub delivered_gbps: f64,
    /// Steady-state delivered bandwidth, GB/s: bytes completed by the
    /// 90th-percentile completion, over that interval. Trimming the
    /// straggler tail measures the rate the wounded machine actually
    /// sustains while all CPUs are active.
    pub steady_gbps: f64,
    /// Time of the last delivery.
    pub elapsed: SimDuration,
}

/// Telemetry gathered by an instrumented campaign run
/// ([`FaultCampaign::run_instrumented`]): the component counters, the
/// per-hop latency breakdown, the engine's queue depth, and (when
/// requested) the Chrome trace.
#[derive(Debug, Clone, Default)]
pub struct CampaignTelemetry {
    /// Component counters, gauges, and histograms (coherence retry
    /// machinery, Zbox page behaviour, network drop/reroute counts).
    pub registry: Registry,
    /// Where every picosecond of load-to-use latency went, stage by stage.
    pub breakdown: BreakdownTable,
    /// The most events the run's event queue held at once. A fact about
    /// the engine, not the machine, so it stays out of
    /// [`registry`](Self::registry), whose machine counters artifacts
    /// merge.
    pub peak_queue_depth: u64,
    /// Chrome-trace sink, present when tracing was enabled.
    pub trace: Option<TraceSink>,
}

/// Stage names of the load-to-use pipeline, in pipeline order. Every
/// breakdown table is pre-charged with all of them at zero
/// ([`pipeline_table`]), so the row order never depends on which
/// transaction happens to finish first, and the worker charges a stage by
/// its row.
pub(crate) const PIPELINE_STAGES: [&str; 16] = [
    "request: queue + arbitration",
    "request: router pipeline",
    "request: wire flight",
    "request: link serialization",
    "request: congestion penalty",
    "directory lookup (fixed)",
    "zbox queue",
    "dram open page",
    "dram closed page",
    "response: queue + arbitration",
    "response: router pipeline",
    "response: wire flight",
    "response: link serialization",
    "response: congestion penalty",
    "front end (fixed)",
    "unattributed (retry / backoff)",
];

// Rows of `PIPELINE_STAGES`: each leg's five hop stages in `HopBreakdown`
// field order, then the memory and fixed stages.
pub(crate) const REQUEST_ROWS: usize = 0;
pub(crate) const DIRECTORY_ROW: usize = 5;
pub(crate) const ZBOX_QUEUE_ROW: usize = 6;
pub(crate) const DRAM_OPEN_ROW: usize = 7;
pub(crate) const DRAM_CLOSED_ROW: usize = 8;
pub(crate) const RESPONSE_ROWS: usize = 9;
pub(crate) const FRONT_END_ROW: usize = 14;
pub(crate) const UNATTRIBUTED_ROW: usize = 15;

/// A breakdown table with every [`PIPELINE_STAGES`] row, in order, at zero.
pub(crate) fn pipeline_table() -> BreakdownTable {
    let mut table = BreakdownTable::default();
    for stage in PIPELINE_STAGES {
        table.charge(stage, 0);
    }
    table
}

/// How one closed-loop run is driven and what it collects besides its
/// result.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Drive {
    /// Run without retry machinery (the load test): no timers, pending
    /// set, watchdog or per-read streams.
    pub(crate) retry_free: bool,
    /// Take a Fig. 24 sample every this long.
    pub(crate) sample_every: Option<SimDuration>,
    /// Collect the registry and the latency breakdown.
    pub(crate) collect: bool,
    /// Also collect the Chrome trace.
    pub(crate) trace: bool,
    /// Arm the invariant monitors.
    pub(crate) monitored: bool,
    /// Collect time-resolved observability.
    pub(crate) observe: Option<ObserveOptions>,
}

/// A machine prepared for fault-injection load testing: a fabric whose
/// link failures lose the packets on their wires, plus the memory sites
/// behind it.
pub struct FaultCampaign<T: Topology> {
    /// The fabric's routing tables, materialized from a `T`.
    tables: FabricTables,
    cpus: Vec<NodeId>,
    /// The node holding each CPU's memory, indexed by the CPU's node id.
    site_of_cpu: Vec<NodeId>,
    /// Configuration of the controller at each distinct memory site.
    zbox: ZboxConfig,
    front_overhead: SimDuration,
    directory_overhead: SimDuration,
    fabric: PhantomData<fn() -> T>,
}

impl<T: Topology> FaultCampaign<T> {
    /// Assemble a closed loop over `fabric` with the given link timing and
    /// routing policy. `site_of_cpu[i]` is the node where CPU `i`'s memory
    /// lives (itself on the GS1280, the QBB switch on the GS320); each
    /// distinct site gets one controller configured as `zbox`. Every read
    /// pays `front_overhead` before it leaves its CPU, and a remote one
    /// `directory_overhead` at its home.
    ///
    /// # Panics
    ///
    /// Panics if the fabric has no CPU endpoints, or `site_of_cpu` is
    /// shorter than the CPU list.
    pub(crate) fn new(
        fabric: &T,
        timing: LinkTiming,
        policy: RoutePolicy,
        site_of_cpu: Vec<NodeId>,
        zbox: ZboxConfig,
        front_overhead: SimDuration,
        directory_overhead: SimDuration,
    ) -> Self {
        let cpus = fabric.endpoints();
        assert!(!cpus.is_empty(), "no CPU endpoints");
        assert!(
            site_of_cpu.len() >= cpus.len(),
            "need a memory site per CPU"
        );
        FaultCampaign {
            tables: FabricTables::new(fabric, timing, policy),
            cpus,
            site_of_cpu,
            zbox,
            front_overhead,
            directory_overhead,
            fabric: PhantomData,
        }
    }

    /// The bisection mirror of `cpu`: same row, column reflected across the
    /// vertical cut.
    fn bisection_partner(&self, cpu: usize) -> usize {
        let coord = |i: usize| {
            self.tables
                .topology()
                .coord(self.cpus[i])
                .expect("bisection pattern needs planar coordinates")
        };
        let cols = (0..self.cpus.len())
            .map(|i| coord(i).x as usize)
            .max()
            .expect("fault campaign has at least one CPU")
            + 1;
        let c = coord(cpu);
        let mx = cols - 1 - c.x as usize;
        (0..self.cpus.len())
            .find(|&i| {
                let o = coord(i);
                o.x as usize == mx && o.y == c.y
            })
            .expect("mirror CPU exists")
    }

    /// Run the campaign to completion.
    ///
    /// # Panics
    ///
    /// Panics before the first event if the fault plan breaks a rule of
    /// [`validate_plan`] over the fabric's sites (the message names the
    /// strike and the rule, e.g. `fault plan is illegal: at 2000.000ns:
    /// cutting link 0<->12 would partition the fabric`), if the traffic
    /// pattern names a CPU the machine does not have, or if `cfg` carries
    /// a [`RecoveryMutation`] — a broken recovery path can hang an
    /// unmonitored run, so mutations require
    /// [`run_monitored`](Self::run_monitored). Every other entry point
    /// panics on the same plans.
    pub fn run(self, cfg: &FaultCampaignConfig) -> CampaignResult {
        self.run_inner(cfg, Drive::default()).0
    }

    /// Run the campaign with the always-on invariant monitors armed: hung
    /// transactions (with watchdog escalation, so even a broken recovery
    /// path terminates), the retry bound, poison hygiene, window-refill
    /// integrity, issue quotas, the telemetry exact-sum identity, and issue
    /// accounting. Violations are reported rather than panicked so the
    /// chaos engine can shrink the schedule that exposed them.
    /// `cfg.mutation` is honoured here, and only here.
    pub fn run_monitored(
        self,
        cfg: &FaultCampaignConfig,
    ) -> (CampaignResult, CampaignTelemetry, MonitorReport) {
        let drive = Drive {
            collect: true,
            monitored: true,
            ..Drive::default()
        };
        let (result, telemetry, report, _) = self.run_inner(cfg, drive);
        (
            result,
            telemetry.expect("collection was requested"),
            report.expect("monitoring was requested"),
        )
    }

    /// Run the campaign with telemetry collection: component counters, the
    /// per-hop latency breakdown, and (with `trace`) a Chrome-trace sink
    /// with message, link, and DRAM lanes. Telemetry never perturbs the
    /// simulation — an instrumented run returns the same
    /// [`CampaignResult`] as [`run`](Self::run).
    pub fn run_instrumented(
        self,
        cfg: &FaultCampaignConfig,
        trace: bool,
    ) -> (CampaignResult, CampaignTelemetry) {
        let drive = Drive {
            collect: true,
            trace,
            ..Drive::default()
        };
        let (result, telemetry, _, _) = self.run_inner(cfg, drive);
        (result, telemetry.expect("collection was requested"))
    }

    /// Run the campaign with full time-resolved observability on top of
    /// the instrumented telemetry: fixed-width windowed metric timelines,
    /// P×Q topology heatmaps, per-completion latency pairs, and the
    /// epoch profiler's spans (exported as a Chrome-trace lane when
    /// `opts.trace` is set).
    ///
    /// Like every other collector, observability never perturbs the
    /// simulation: the [`CampaignResult`] and every sim-time field are
    /// byte-identical to a plain [`run`](Self::run).
    pub fn run_observed(
        self,
        cfg: &FaultCampaignConfig,
        opts: ObserveOptions,
    ) -> (CampaignResult, CampaignTelemetry, CampaignObservability) {
        let drive = Drive {
            collect: true,
            trace: opts.trace,
            observe: Some(opts),
            ..Drive::default()
        };
        let (result, telemetry, _, obs) = self.run_inner(cfg, drive);
        (
            result,
            telemetry.expect("collection was requested"),
            obs.expect("observation was requested"),
        )
    }

    /// Run the closed loop to completion on the epoch engine: check the
    /// fault plan against [`validate_plan`] over the fabric's sites, build
    /// the worker over the fabric, the memory sites, the CPUs and the
    /// plan, prime every CPU's window, and step it through its barriers.
    /// Returns the worker, what the executor did, and (on observed runs)
    /// the epoch profile.
    pub(crate) fn launch(
        self,
        cfg: &FaultCampaignConfig,
        drive: Drive,
    ) -> (CampaignWorker, EpochReport, Option<EpochProfile>) {
        assert!(cfg.outstanding >= 1, "need at least one outstanding read");
        let ncpus = self.cpus.len();
        let named = match cfg.pattern {
            TrafficPattern::HotSpot(hot) => [Some(hot), None],
            TrafficPattern::StripedHotSpot(hot, partner) => [Some(hot), Some(partner)],
            TrafficPattern::UniformRemote | TrafficPattern::Bisection => [None, None],
        };
        for cpu in named.into_iter().flatten() {
            assert!(
                cpu < ncpus,
                "traffic pattern {:?} names CPU {cpu}, but the machine has {ncpus} CPUs",
                cfg.pattern
            );
        }
        assert!(
            cfg.watchdog_window > cfg.retry.timeout,
            "watchdog window must exceed the retry timeout"
        );
        assert!(
            !drive.retry_free || cfg.plan.is_empty(),
            "a retry-free run cannot recover from faults"
        );
        if !cfg.plan.is_empty() {
            if let Err(why) = validate_plan(&site_catalog(self.tables.topology()), &cfg.plan) {
                panic!("fault plan is illegal: {why}");
            }
        }
        let partners: Vec<usize> = match cfg.pattern {
            TrafficPattern::Bisection => {
                (0..ncpus).map(|cpu| self.bisection_partner(cpu)).collect()
            }
            _ => Vec::new(),
        };
        let node_count = self.tables.topology().node_count();
        let homes = self
            .cpus
            .iter()
            .map(|cpu| self.site_of_cpu[cpu.index()])
            .collect();
        let ccfg = CampaignCfg {
            outstanding: cfg.outstanding,
            requests_per_cpu: cfg.requests_per_cpu as u64,
            retry: (!drive.retry_free).then_some(cfg.retry),
            mutation: cfg.mutation,
            pattern: cfg.pattern,
            partners,
            homes,
            front_overhead: self.front_overhead,
            directory_overhead: self.directory_overhead,
            monitored: drive.monitored,
        };
        // One controller per distinct memory site.
        let mut zboxes: Vec<Option<Zbox>> = (0..node_count).map(|_| None).collect();
        for &site in &self.site_of_cpu {
            zboxes[site.index()].get_or_insert_with(|| Zbox::new(self.zbox));
        }
        let mut net = RegionNet::new(self.tables);
        if drive.trace {
            net.enable_trace();
        }
        if let Some(o) = drive.observe {
            net.enable_heat(o.window_ps);
        }
        let worker = CampaignWorker {
            cfg: ccfg,
            cpus: self.cpus,
            net,
            rngs: (0..ncpus)
                .map(|i| DetRng::seeded(cfg.seed).split(i as u64))
                .collect(),
            issued: vec![0u64; ncpus],
            requesters: (0..ncpus).map(|_| Requester::default()).collect(),
            poisoned: Vec::new(),
            max_attempts: 0,
            latency_samples: MeanP50P99::new(),
            completions: Vec::new(),
            depth: PendingDepth::default(),
            violations: Vec::new(),
            last_delivery: SimTime::ZERO,
            last_event: SimTime::ZERO,
            total_latency: SimDuration::ZERO,
            completed: 0,
            zboxes,
            ever_drained: vec![false; ncpus],
            breakdown: drive.collect.then(pipeline_table),
            obs: drive
                .observe
                .map(|o| Box::new(ObsAcc::new(o.window_ps, node_count))),
            spare: Vec::new(),
            spare_legs: Vec::new(),
            plan: cfg.plan.events().to_vec(),
            plan_idx: 0,
            dog: Watchdog::new(cfg.watchdog_window),
            dog_next: Some(SimTime::ZERO + cfg.watchdog_window),
            live: !drive.retry_free,
            consecutive_stuck: 0,
            faults_applied: Vec::new(),
            reports: Vec::new(),
            dropped: 0,
            rerouted: 0,
            sampler: drive.sample_every.map(|every| Sampler {
                every,
                next_at: Some(SimTime::ZERO + every),
                prev_zbox_busy: vec![SimDuration::ZERO; ncpus],
                prev_ew_busy: SimDuration::ZERO,
                prev_ns_busy: SimDuration::ZERO,
                samples: Vec::new(),
            }),
        };
        let mut exec = EpochExecutor::new(worker);
        if let Some(o) = drive.observe {
            exec.enable_profile(o.wall);
        }
        // Prime every CPU's issue window at time zero. Faults scheduled at
        // zero strike first: a barrier strikes before any event at its
        // instant fires.
        for cpu in 0..ncpus {
            exec.seed(SimTime::ZERO, tb_inject(cpu), Ev::Inject { cpu });
        }
        let report = exec.run_until_idle();
        let profile = exec.take_profile();
        (exec.into_worker(), report, profile)
    }

    fn run_inner(
        self,
        cfg: &FaultCampaignConfig,
        drive: Drive,
    ) -> (
        CampaignResult,
        Option<CampaignTelemetry>,
        Option<MonitorReport>,
        Option<CampaignObservability>,
    ) {
        assert!(
            drive.monitored || cfg.mutation.is_none(),
            "recovery mutations require run_monitored"
        );
        let (mut worker, epoch_report, profile) = self.launch(cfg, drive);
        let ncpus = worker.cpus.len();

        // ---- canonical aggregation ------------------------------------
        // Events fire in an order the config alone fixes, and the worker
        // folded its per-read streams as they fired: completion times in
        // firing order, latency samples into the summary (which sorts them,
        // so their recording order cannot leak into the mean/p50/p99), and
        // the pending-set depth (at one instant, releases before inserts).
        // What is left is put into an order that is a pure function of
        // simulation identities (tag, time, node).
        let completed: u64 = worker.pending_sets().map(PendingSet::completed).sum();
        let retries: u64 = worker.pending_sets().map(PendingSet::retries).sum();
        let crc_retransmits = worker.net.crc_retransmits();
        let max_attempts = worker.max_attempts;
        let last_delivery = worker.last_delivery;
        let mut poisoned = std::mem::take(&mut worker.poisoned);
        poisoned.sort_by_key(|p| p.tag);
        let completions = std::mem::take(&mut worker.completions);
        let latencies = std::mem::take(&mut worker.latency_samples);
        let pending_peak = worker.finish_depth();
        let issued_total: u64 = worker.issued.iter().sum();
        let mut pending_tags: Vec<u64> = worker
            .pending_sets()
            .flat_map(|set| set.iter().map(|(tag, _)| tag))
            .collect();
        pending_tags.sort_unstable();
        let pending_total = pending_tags.len();

        let mut monitor_violations = drive.monitored.then(|| {
            let mut timed = std::mem::take(&mut worker.violations);
            timed.sort_unstable();
            let mut violations: Vec<Violation> = timed
                .into_iter()
                .map(|(_, monitor, detail)| Violation { monitor, detail })
                .collect();
            if pending_total > 0 && worker.consecutive_stuck < STUCK_WINDOW_LIMIT {
                violations.push(Violation {
                    monitor: "hung-transactions".to_string(),
                    detail: format!("survived the drain: tags {pending_tags:x?}"),
                });
            }
            // Issue quota: a CPU that was never drained must have issued
            // its full budget (a silently shrinking window stalls early).
            for cpu in 0..ncpus {
                let issued = worker.issued[cpu];
                if !worker.ever_drained[cpu]
                    && !worker.net.tables().is_drained(worker.cpus[cpu])
                    && issued < cfg.requests_per_cpu as u64
                {
                    violations.push(Violation {
                        monitor: "issue-quota".to_string(),
                        detail: format!(
                            "cpu {cpu} issued {issued} of {} reads without ever draining",
                            cfg.requests_per_cpu
                        ),
                    });
                }
            }
            // Accounting: every issued read is completed, poisoned, or
            // (already reported above) still pending.
            let accounted = completed + poisoned.len() as u64 + pending_total as u64;
            if accounted != issued_total {
                violations.push(Violation {
                    monitor: "accounting".to_string(),
                    detail: format!(
                        "completed + poisoned + pending = {accounted} but issued = {issued_total}"
                    ),
                });
            }
            violations
        });
        if !drive.monitored {
            assert!(
                pending_total == 0,
                "hung transactions survived the drain: {pending_tags:?}"
            );
        }

        let (mean_latency, p50_latency, p99_latency) = latencies.finish();
        let elapsed = last_delivery.since(SimTime::ZERO);
        let delivered_gbps = if elapsed > SimDuration::ZERO {
            completed as f64 * 64.0 / elapsed.as_secs() / 1e9
        } else {
            0.0
        };
        let steady_gbps = match completions.len() {
            0 => 0.0,
            n => {
                let idx = ((n * 9) / 10).min(n - 1);
                let t = completions[idx].since(SimTime::ZERO);
                if t > SimDuration::ZERO {
                    (idx + 1) as f64 * 64.0 / t.as_secs() / 1e9
                } else {
                    0.0
                }
            }
        };
        let telemetry = drive.collect.then(|| {
            let mut registry = Registry::default();
            registry.counter_add("coherence.completed", completed);
            registry.counter_add("coherence.retries", retries);
            registry.gauge_max("coherence.pending_peak", pending_peak);
            worker.dog.export_metrics(&mut registry);
            for zbox in worker.zboxes.iter().flatten() {
                zbox.export_metrics(&mut registry);
            }
            registry.counter_add("net.dropped", worker.dropped);
            registry.counter_add("net.rerouted", worker.rerouted);
            registry.counter_add("campaign.poisoned", poisoned.len() as u64);
            registry.counter_add(
                "campaign.faults_applied",
                worker.faults_applied.len() as u64,
            );
            registry.counter_add("sim.events_processed", epoch_report.processed);
            let breakdown = worker
                .breakdown
                .take()
                .expect("a collecting run charges a breakdown");
            let trace_sink = drive.trace.then(|| {
                let mut sink = TraceSink::new();
                sink.name_process(PID_MESSAGES, "network: message lifetimes");
                sink.name_process(PID_LINKS, "network: link occupancy");
                for cpu in &worker.cpus {
                    sink.name_thread(
                        PID_MESSAGES,
                        cpu.index() as u32,
                        &format!("node {}", cpu.index()),
                    );
                }
                sink.name_process(PID_MEMORY, "memory: zbox dram service");
                if let Some(net_sink) = worker.net.take_trace() {
                    sink.merge_from(net_sink);
                }
                // The profiler lane: each epoch becomes a complete event
                // spanning its sim-time bounds, carrying its event count.
                if let Some(p) = profile.as_ref() {
                    sink.name_process(PID_SHARDS, "engine: epochs");
                    sink.name_thread(PID_SHARDS, 0, "event queue");
                    for sample in &p.samples {
                        sink.complete(
                            "epoch",
                            "engine",
                            PID_SHARDS,
                            0,
                            sample.start_ps,
                            sample.end_ps.saturating_sub(sample.start_ps),
                            &[("events", sample.processed)],
                        );
                    }
                }
                sink.canonical_sort();
                sink
            });
            CampaignTelemetry {
                registry,
                breakdown,
                peak_queue_depth: epoch_report.peak_queue_depth as u64,
                trace: trace_sink,
            }
        });
        // Telemetry exact-sum: the breakdown must balance to the last
        // picosecond even on a wounded run (shortfall lands in the
        // unattributed bucket, never vanishes).
        if let (Some(violations), Some(t)) = (monitor_violations.as_mut(), telemetry.as_ref()) {
            if t.breakdown.charged_ps() != t.breakdown.end_to_end_ps() {
                violations.push(Violation {
                    monitor: "telemetry-balance".to_string(),
                    detail: format!(
                        "charged {} ps != end-to-end {} ps",
                        t.breakdown.charged_ps(),
                        t.breakdown.end_to_end_ps()
                    ),
                });
            }
        }
        let report = monitor_violations.map(|violations| MonitorReport {
            violations,
            max_attempts,
        });
        let observability = drive.observe.map(|o| {
            assemble(
                o.window_ps,
                &mut worker,
                profile.expect("profiling was enabled"),
            )
        });
        let result = CampaignResult {
            completed,
            retries,
            dropped: worker.dropped,
            rerouted: worker.rerouted,
            poisoned,
            watchdog_reports: worker.reports,
            faults_applied: worker.faults_applied,
            crc_retransmits,
            mean_latency,
            p50_latency,
            p99_latency,
            delivered_gbps,
            steady_gbps,
            elapsed,
        };
        (result, telemetry, report, observability)
    }
}

/// The fault sites of `topo`: every node and every undirected link, as
/// the kernel's schedule algebra sees them.
pub(crate) fn site_catalog<T: Topology + ?Sized>(topo: &T) -> SiteCatalog {
    let nodes: Vec<usize> = (0..topo.node_count()).collect();
    let links = nodes
        .iter()
        .flat_map(|&n| {
            topo.ports(NodeId::new(n))
                .iter()
                .map(move |p| (n, p.to.index()))
        })
        .filter(|&(n, m)| n < m)
        .collect();
    SiteCatalog::new(nodes, links)
}

/// Convenience: a fault campaign over a GS1280's own fabric, each node's
/// memory served by its [`site_zbox`](crate::Gs1280::site_zbox).
pub fn gs1280_fault_campaign(machine: &crate::Gs1280) -> FaultCampaign<crate::gs1280::FabricTopo> {
    machine.closed_loop(machine.fabric(), machine.site_zbox())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Gs1280;

    fn campaign16() -> FaultCampaign<crate::gs1280::FabricTopo> {
        gs1280_fault_campaign(&Gs1280::builder().cpus(16).build())
    }

    #[test]
    fn zero_retry_policy_poisons_at_the_exact_boundary_with_named_cause() {
        // max_retries = 0 with a timeout far below any remote round trip:
        // every remote read times out on its original send, and the
        // `attempts > max_retries` threshold poisons it immediately — the
        // exact boundary, with the retry count named in the cause. No
        // faults are injected; the policy alone drives the NAK path.
        let r = campaign16().run(&FaultCampaignConfig {
            requests_per_cpu: 20,
            retry: RetryPolicy {
                timeout: SimDuration::from_ps(1),
                max_retries: 0,
                ..RetryPolicy::gs1280_default()
            },
            ..Default::default()
        });
        assert_eq!(
            r.completed + r.poisoned.len() as u64,
            16 * 20,
            "every read completes or is poisoned"
        );
        assert!(!r.poisoned.is_empty(), "a 1 ps timeout must poison reads");
        assert_eq!(r.retries, 0, "max_retries = 0 leaves no room for retries");
        for p in &r.poisoned {
            assert_eq!(p.attempts, 1, "poisoned on the original send");
            assert!(
                p.cause.contains("exhausted 0 retries"),
                "cause must name the exact retry budget: {}",
                p.cause
            );
        }
    }

    #[test]
    fn breakdown_rows_name_their_pipeline_stages() {
        let hops = |first: usize| PIPELINE_STAGES[first..first + 5].to_vec();
        let leg = |side: &str| {
            [
                "queue + arbitration",
                "router pipeline",
                "wire flight",
                "link serialization",
                "congestion penalty",
            ]
            .map(|stage| format!("{side}: {stage}"))
            .to_vec()
        };
        assert_eq!(hops(REQUEST_ROWS), leg("request"));
        assert_eq!(hops(RESPONSE_ROWS), leg("response"));
        for (row, stage) in [
            (DIRECTORY_ROW, "directory lookup (fixed)"),
            (ZBOX_QUEUE_ROW, "zbox queue"),
            (DRAM_OPEN_ROW, "dram open page"),
            (DRAM_CLOSED_ROW, "dram closed page"),
            (FRONT_END_ROW, "front end (fixed)"),
            (UNATTRIBUTED_ROW, "unattributed (retry / backoff)"),
        ] {
            assert_eq!(PIPELINE_STAGES[row], stage);
        }
    }

    #[test]
    fn healthy_baseline_matches_issue_count() {
        let r = campaign16().run(&FaultCampaignConfig {
            requests_per_cpu: 50,
            ..Default::default()
        });
        assert_eq!(r.completed, 16 * 50);
        assert!(r.poisoned.is_empty());
        assert_eq!(r.retries, 0);
        assert_eq!(r.dropped, 0);
        assert!(r.watchdog_reports.is_empty());
        assert!(r.delivered_gbps > 0.0);
        assert!(r.p99_latency >= r.mean_latency);
    }

    #[test]
    fn fault_campaign_smoke() {
        // The CI smoke job: a small torus, two mid-run link failures,
        // watchdog enabled. Every transaction must complete or be poisoned
        // with a named cause — zero hung transactions.
        let mut plan = FaultPlan::new();
        plan.push(
            SimTime::ZERO + SimDuration::from_us(1.0),
            FaultKind::LinkDown { a: 0, b: 1 },
        );
        plan.push(
            SimTime::ZERO + SimDuration::from_us(2.0),
            FaultKind::LinkDown { a: 5, b: 6 },
        );
        let r = campaign16().run(&FaultCampaignConfig {
            outstanding: 8,
            requests_per_cpu: 100,
            plan,
            ..Default::default()
        });
        assert_eq!(
            r.completed + r.poisoned.len() as u64,
            16 * 100,
            "every read completes or is poisoned — none hang"
        );
        assert_eq!(r.faults_applied.len(), 2);
        assert!(r.dropped + r.rerouted > 0, "the cuts hit live traffic");
        for p in &r.poisoned {
            assert!(!p.cause.is_empty(), "poisoned tx must name its cause");
        }
    }

    #[test]
    fn dropped_requests_are_retried_to_completion() {
        // One cut through a bisection-heavy pattern: drops occur, retries
        // recover them, everything completes.
        let mut plan = FaultPlan::new();
        plan.push(
            SimTime::ZERO + SimDuration::from_us(1.5),
            FaultKind::LinkDown { a: 1, b: 2 },
        );
        let r = campaign16().run(&FaultCampaignConfig {
            outstanding: 6,
            requests_per_cpu: 80,
            pattern: CampaignPattern::Bisection,
            plan,
            ..Default::default()
        });
        assert_eq!(r.completed + r.poisoned.len() as u64, 16 * 80);
        if r.dropped > 0 {
            assert!(r.retries > 0, "drops must trigger retries");
        }
    }

    #[test]
    fn drained_node_poisons_its_outstanding_reads() {
        let mut plan = FaultPlan::new();
        plan.push(
            SimTime::ZERO + SimDuration::from_us(1.0),
            FaultKind::NodeDrain { node: 3 },
        );
        let r = campaign16().run(&FaultCampaignConfig {
            outstanding: 4,
            requests_per_cpu: 200,
            plan,
            ..Default::default()
        });
        // Node 3 stops issuing and its memory goes dark: reads touching it
        // are poisoned with a named cause, everything else completes, and
        // nothing hangs.
        assert!(r.completed < 16 * 200);
        assert!(r.completed > 15 * 200 / 2, "other CPUs keep running");
        assert!(!r.poisoned.is_empty(), "reads to the dead node must poison");
        for p in &r.poisoned {
            assert!(
                p.cpu == 3 || p.home == 3,
                "only reads touching the drained node may poison: {p:?}"
            );
            assert!(p.cause.contains("drained"), "{}", p.cause);
        }
    }

    #[test]
    fn channel_failure_is_applied_to_the_zbox() {
        let mut plan = FaultPlan::new();
        plan.push(
            SimTime::ZERO + SimDuration::from_us(1.0),
            FaultKind::ChannelDown { node: 0 },
        );
        plan.push(
            SimTime::ZERO + SimDuration::from_us(1.2),
            FaultKind::ChannelDown { node: 0 },
        );
        let r = campaign16().run(&FaultCampaignConfig {
            requests_per_cpu: 60,
            plan,
            ..Default::default()
        });
        assert_eq!(r.completed, 16 * 60);
        assert_eq!(r.faults_applied.len(), 2);
    }

    #[test]
    fn deterministic_given_seed_and_plan() {
        let run = || {
            let mut plan = FaultPlan::new();
            plan.push(
                SimTime::ZERO + SimDuration::from_us(1.0),
                FaultKind::LinkDown { a: 0, b: 1 },
            );
            campaign16().run(&FaultCampaignConfig {
                outstanding: 6,
                requests_per_cpu: 60,
                plan,
                ..Default::default()
            })
        };
        let (a, b) = (run(), run());
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.retries, b.retries);
        assert_eq!(a.dropped, b.dropped);
        assert_eq!(a.mean_latency, b.mean_latency);
        assert_eq!(a.p99_latency, b.p99_latency);
        assert_eq!(a.elapsed, b.elapsed);
    }

    #[test]
    fn healthy_instrumented_run_attributes_every_picosecond() {
        let cfg = FaultCampaignConfig {
            requests_per_cpu: 40,
            ..Default::default()
        };
        let (r, t) = campaign16().run_instrumented(&cfg, false);
        assert_eq!(r.completed, 16 * 40);
        assert_eq!(t.breakdown.transactions(), r.completed);
        // On a healthy run the pipeline stages explain the entire
        // load-to-use latency with nothing left over: the table's charged
        // total equals the end-to-end total exactly (integer picoseconds),
        // and the unattributed bucket is empty.
        assert_eq!(t.breakdown.charged_ps(), t.breakdown.end_to_end_ps());
        assert_eq!(t.breakdown.stage_ps("unattributed (retry / backoff)"), 0);
        // Fixed overheads are charged once per completed read.
        let dir_ps = t.breakdown.stage_ps("directory lookup (fixed)");
        assert_eq!(
            dir_ps,
            campaign16().directory_overhead.as_ps() * r.completed,
            "directory overhead charged exactly once per read"
        );
        // Counters mirror the campaign result and the zbox totals.
        assert_eq!(t.registry.counter("coherence.completed"), r.completed);
        assert_eq!(t.registry.counter("coherence.retries"), 0);
        assert_eq!(t.registry.counter("net.dropped"), 0);
        assert_eq!(t.registry.counter("zbox.accesses"), r.completed);
        assert_eq!(
            t.registry.counter("zbox.page_hits") + t.registry.counter("zbox.page_misses"),
            r.completed
        );
        assert!(t.registry.counter("sim.events_processed") > 0);
        assert!(t.registry.gauge("coherence.pending_peak") >= cfg.outstanding as u64);
        assert!(t.trace.is_none(), "tracing was not requested");
    }

    #[test]
    fn instrumentation_never_perturbs_the_simulation() {
        let mut plan = FaultPlan::new();
        plan.push(
            SimTime::ZERO + SimDuration::from_us(1.0),
            FaultKind::LinkDown { a: 0, b: 1 },
        );
        let cfg = FaultCampaignConfig {
            outstanding: 6,
            requests_per_cpu: 60,
            plan,
            ..Default::default()
        };
        let plain = campaign16().run(&cfg);
        let (instrumented, t) = campaign16().run_instrumented(&cfg, true);
        assert_eq!(plain.completed, instrumented.completed);
        assert_eq!(plain.retries, instrumented.retries);
        assert_eq!(plain.dropped, instrumented.dropped);
        assert_eq!(plain.mean_latency, instrumented.mean_latency);
        assert_eq!(plain.p99_latency, instrumented.p99_latency);
        assert_eq!(plain.elapsed, instrumented.elapsed);
        // The wounded run still balances its breakdown: whatever the
        // stages cannot explain (backoff, lost flights) is charged to the
        // unattributed bucket, never silently dropped.
        assert_eq!(t.breakdown.charged_ps(), t.breakdown.end_to_end_ps());
        let trace = t.trace.expect("tracing was requested");
        assert!(!trace.is_empty(), "traced run must record events");
    }

    #[test]
    fn bisection_pattern_mirrors_across_the_cut() {
        let c = campaign16();
        // 4x4 torus: (x, y) -> (3 - x, y).
        assert_eq!(c.bisection_partner(0), 3);
        assert_eq!(c.bisection_partner(1), 2);
        assert_eq!(c.bisection_partner(5), 6);
        assert_eq!(c.bisection_partner(12), 15);
    }

    fn at_us(us: f64) -> SimTime {
        SimTime::ZERO + SimDuration::from_us(us)
    }

    #[test]
    fn link_flapping_across_retry_boundaries_recovers() {
        // fail -> heal -> fail -> heal on two links, with the second cut
        // landing a full retry timeout (10 us) after the first repair, so
        // transactions cross every phase of the cycle. Everything must
        // complete; the healed machine must finish the drain.
        let mut plan = FaultPlan::new();
        plan.push(at_us(1.0), FaultKind::LinkDown { a: 0, b: 1 });
        plan.push(at_us(2.0), FaultKind::LinkDown { a: 5, b: 6 });
        plan.push(at_us(3.0), FaultKind::LinkUp { a: 0, b: 1 });
        plan.push(at_us(6.0), FaultKind::LinkUp { a: 5, b: 6 });
        plan.push(at_us(14.0), FaultKind::LinkDown { a: 0, b: 1 });
        plan.push(at_us(16.0), FaultKind::LinkUp { a: 0, b: 1 });
        let r = campaign16().run(&FaultCampaignConfig {
            outstanding: 8,
            requests_per_cpu: 550,
            plan,
            ..Default::default()
        });
        assert_eq!(r.completed, 16 * 550, "healed links drain everything");
        assert!(r.poisoned.is_empty(), "flaps recover without poisons");
        assert_eq!(r.faults_applied.len(), 6);
        assert!(r.dropped + r.rerouted > 0, "the flaps hit live traffic");
        assert!(r.retries > 0, "lost responses push reads into retry");
    }

    #[test]
    fn channel_loss_and_restore_cycles_under_load() {
        let mut plan = FaultPlan::new();
        plan.push(at_us(1.0), FaultKind::ChannelDown { node: 0 });
        plan.push(at_us(1.2), FaultKind::ChannelDown { node: 0 });
        plan.push(at_us(5.0), FaultKind::ChannelUp { node: 0 });
        plan.push(at_us(8.0), FaultKind::ChannelDown { node: 5 });
        let r = campaign16().run(&FaultCampaignConfig {
            requests_per_cpu: 60,
            plan,
            ..Default::default()
        });
        assert_eq!(r.completed, 16 * 60, "channel churn slows, never loses");
        assert_eq!(r.faults_applied.len(), 4);
        assert!(r.poisoned.is_empty());
    }

    #[test]
    fn undrained_cpu_resumes_and_finishes_its_quota() {
        let mut plan = FaultPlan::new();
        plan.push(at_us(1.0), FaultKind::NodeDrain { node: 3 });
        plan.push(at_us(40.0), FaultKind::NodeUndrain { node: 3 });
        let r = campaign16().run(&FaultCampaignConfig {
            outstanding: 4,
            requests_per_cpu: 80,
            plan,
            ..Default::default()
        });
        // The drain poisons some in-flight reads, but once the node comes
        // back its window refills and every CPU works off its whole quota.
        assert_eq!(
            r.completed + r.poisoned.len() as u64,
            16 * 80,
            "the undrained cpu must finish its quota"
        );
        assert!(
            !r.poisoned.is_empty(),
            "reads touching the node during the outage must poison"
        );
        assert_eq!(r.faults_applied.len(), 2);
    }

    #[test]
    fn heal_mid_backoff_resumes_without_watchdog_noise() {
        // The node drains at 1 us and heals at 30 us — before the 50 us
        // retry timeout of the reads black-holed during the outage. The
        // victims are still waiting out their timeout when the fault
        // clears; their retries then land on live memory, everything
        // completes with zero poisons, and the watchdog never reports
        // livelock.
        let mut plan = FaultPlan::new();
        plan.push(at_us(1.0), FaultKind::NodeDrain { node: 3 });
        plan.push(at_us(30.0), FaultKind::NodeUndrain { node: 3 });
        let r = campaign16().run(&FaultCampaignConfig {
            outstanding: 6,
            requests_per_cpu: 120,
            plan,
            retry: RetryPolicy {
                timeout: SimDuration::from_us(50.0),
                backoff_base: SimDuration::from_us(2.0),
                backoff_cap: SimDuration::from_us(32.0),
                max_retries: 6,
            },
            watchdog_window: SimDuration::from_us(250.0),
            ..Default::default()
        });
        assert_eq!(r.completed, 16 * 120, "healed retries complete everything");
        assert!(r.poisoned.is_empty(), "the heal beats every retry budget");
        assert!(r.retries > 0, "the outage must push reads into retry");
        assert!(
            r.watchdog_reports.is_empty(),
            "retries keep making progress"
        );
    }

    #[test]
    fn transient_corruption_retransmits_and_completes() {
        let mut plan = FaultPlan::new();
        plan.push(at_us(1.0), FaultKind::FlitCorrupt { from: 0, to: 1 });
        plan.push(at_us(2.0), FaultKind::LinkDegrade { a: 2, b: 3 });
        plan.push(
            at_us(3.0),
            FaultKind::RouterPause {
                node: 5,
                ps: SimDuration::from_us(2.0).as_ps(),
            },
        );
        let r = campaign16().run(&FaultCampaignConfig {
            requests_per_cpu: 100,
            plan,
            ..Default::default()
        });
        assert_eq!(r.completed, 16 * 100);
        assert!(r.poisoned.is_empty(), "transients never lose transactions");
        assert_eq!(
            r.crc_retransmits, 1,
            "the armed flit is resent exactly once"
        );
        assert_eq!(r.faults_applied.len(), 3);
    }

    #[test]
    fn monitored_run_is_clean_and_matches_plain_run() {
        let cfg = || {
            let mut plan = FaultPlan::new();
            plan.push(at_us(1.0), FaultKind::LinkDown { a: 0, b: 1 });
            plan.push(at_us(20.0), FaultKind::LinkUp { a: 0, b: 1 });
            FaultCampaignConfig {
                outstanding: 6,
                requests_per_cpu: 60,
                plan,
                ..Default::default()
            }
        };
        let plain = campaign16().run(&cfg());
        let (monitored, t, report) = campaign16().run_monitored(&cfg());
        assert!(report.is_clean(), "violations: {:?}", report.violations);
        assert!(report.max_attempts <= RetryPolicy::gs1280_default().max_retries + 1);
        assert_eq!(plain.completed, monitored.completed);
        assert_eq!(plain.retries, monitored.retries);
        assert_eq!(plain.mean_latency, monitored.mean_latency);
        assert_eq!(plain.elapsed, monitored.elapsed);
        assert_eq!(t.breakdown.charged_ps(), t.breakdown.end_to_end_ps());
    }

    /// The observed-run stage: a mid-run cut through bisection traffic, so
    /// drops, retries, reroutes, and (with a short retry budget) poisons
    /// all leave windowed footprints.
    fn observed_cfg() -> FaultCampaignConfig {
        let mut plan = FaultPlan::new();
        plan.push(at_us(1.0), FaultKind::LinkDown { a: 0, b: 1 });
        plan.push(at_us(20.0), FaultKind::LinkUp { a: 0, b: 1 });
        FaultCampaignConfig {
            outstanding: 6,
            requests_per_cpu: 60,
            pattern: CampaignPattern::Bisection,
            plan,
            ..Default::default()
        }
    }

    #[test]
    fn observed_run_matches_plain_and_window_sums_equal_registry_totals() {
        let cfg = observed_cfg();
        let plain = campaign16().run(&cfg);
        // A deliberately awkward window width (prime picoseconds, aligned
        // to nothing): windows straddle epoch barriers, fault strikes and
        // watchdog ticks, and the sums must still balance exactly.
        let (r, t, obs) = campaign16().run_observed(&cfg, ObserveOptions::windowed(333_337));
        assert_eq!(plain.completed, r.completed);
        assert_eq!(plain.retries, r.retries);
        assert_eq!(plain.dropped, r.dropped);
        assert_eq!(plain.mean_latency, r.mean_latency);
        assert_eq!(plain.p99_latency, r.p99_latency);
        assert_eq!(plain.elapsed, r.elapsed);
        // Exact-sum: every windowed counter folds back to its registry (or
        // result) total — nothing double-counted, nothing dropped.
        let totals = obs.timeline.totals();
        assert_eq!(
            totals.counter("campaign.completed"),
            t.registry.counter("coherence.completed")
        );
        assert_eq!(
            totals.counter("campaign.retries"),
            t.registry.counter("coherence.retries")
        );
        assert_eq!(totals.counter("campaign.poisoned"), r.poisoned.len() as u64);
        assert_eq!(
            totals.counter("campaign.zbox_reads"),
            t.registry.counter("zbox.accesses")
        );
        assert_eq!(totals.counter("net.delivered"), obs.node_delivered.total());
        // The router grid is the link meters' busy time, dead links
        // included: the windowed occupancy counter folds back to it.
        assert_eq!(totals.counter("net.link_busy_ps"), obs.link_busy.total());
        assert_eq!(totals.counter("campaign.injected"), 16 * 60 + r.retries);
        assert_eq!(obs.latencies.len() as u64, r.completed);
        assert_eq!(
            totals.histogram("campaign.latency_ns").map(|h| h.count()),
            Some(r.completed)
        );
        // The engine's queue depth stays out of the machine registry.
        assert!(t.peak_queue_depth > 0);
        let registry = serde_json::to_string(&t.registry.to_json()).expect("serialises");
        assert!(!registry.contains("engine."));
        // The profiler's event counts are the engine's processed total.
        assert_eq!(
            obs.profile.events_per_epoch().iter().sum::<u64>(),
            t.registry.counter("sim.events_processed")
        );
        // Heat landed where the traffic went.
        assert!(obs.link_busy.total() > 0);
        assert_eq!(obs.zbox_reads.total(), t.registry.counter("zbox.accesses"));
    }

    #[test]
    fn observed_trace_carries_profiler_lanes_and_wall_clock_is_optional() {
        let opts = ObserveOptions {
            window_ps: 20_000_000,
            trace: true,
            wall: true,
        };
        let (r, t, obs) = campaign16().run_observed(&observed_cfg(), opts);
        assert_eq!(r.completed + r.poisoned.len() as u64, 16 * 60);
        let trace = t.trace.expect("tracing was requested");
        assert!(trace.to_json_string().contains("\"engine: epochs\""));
        let p = &obs.profile;
        assert!(p.wall_clock());
        // What gsbench's `campaign-par` workload reads off the profile:
        // one lane, that lane's event count, nothing merged, and one
        // wall-clock entry per epoch.
        assert_eq!(p.shard_count(), 1);
        assert_eq!(p.merged_per_shard(), [0]);
        assert_eq!(
            p.busy_per_shard(),
            [t.registry.counter("sim.events_processed")]
        );
        assert!(p.epochs() > 0);
        assert_eq!(p.epochs(), p.samples.len());
        for s in &p.samples {
            assert_eq!(s.wall_ns.as_ref().map(Vec::len), Some(1));
        }
        // Wall measurement never leaks into sim-time fields: the same run
        // without it produces the identical profile modulo wall_ns.
        let (_, _, plain) =
            campaign16().run_observed(&observed_cfg(), ObserveOptions::windowed(20_000_000));
        assert_eq!(plain.profile.epochs(), p.epochs());
        for (a, b) in plain.profile.samples.iter().zip(&p.samples) {
            assert_eq!((a.start_ps, a.end_ps), (b.start_ps, b.end_ps));
            assert_eq!(a.processed, b.processed);
            assert!(a.wall_ns.is_none());
        }
    }

    #[test]
    #[should_panic(expected = "require run_monitored")]
    fn plain_run_refuses_mutations() {
        campaign16().run(&FaultCampaignConfig {
            mutation: Some(RecoveryMutation::LeakPoison),
            ..Default::default()
        });
    }

    /// A config whose 1 ps timeout poisons every remote read on its first
    /// attempt — the deterministic stage for the poison-path mutations.
    fn instant_poison_cfg(mutation: RecoveryMutation) -> FaultCampaignConfig {
        FaultCampaignConfig {
            requests_per_cpu: 10,
            retry: RetryPolicy {
                timeout: SimDuration::from_ps(1),
                max_retries: 0,
                ..RetryPolicy::gs1280_default()
            },
            mutation: Some(mutation),
            ..Default::default()
        }
    }

    #[test]
    fn monitor_catches_off_by_one_retry() {
        let (_, _, report) =
            campaign16().run_monitored(&instant_poison_cfg(RecoveryMutation::OffByOneRetry));
        assert!(
            report.violations.iter().any(|v| v.monitor == "retry-bound"),
            "the extra attempt must trip the retry bound: {:?}",
            report.violations
        );
        assert!(
            report.max_attempts > 1,
            "the mutation grants a second attempt"
        );
    }

    #[test]
    fn monitor_catches_poison_leak() {
        let (_, _, report) =
            campaign16().run_monitored(&instant_poison_cfg(RecoveryMutation::LeakPoison));
        assert!(
            report.violations.iter().any(|v| v.monitor == "poison-leak"),
            "the leaked entry must be seen immediately: {:?}",
            report.violations
        );
    }

    #[test]
    fn monitor_catches_skipped_window_refill() {
        let (_, _, report) =
            campaign16().run_monitored(&instant_poison_cfg(RecoveryMutation::SkipWindowRefill));
        let monitors: Vec<&str> = report
            .violations
            .iter()
            .map(|v| v.monitor.as_str())
            .collect();
        assert!(
            monitors.contains(&"window-refill"),
            "the shrunken window must be seen at the poison: {monitors:?}"
        );
        assert!(
            monitors.contains(&"issue-quota"),
            "the stalled quota must be seen at the drain: {monitors:?}"
        );
    }

    #[test]
    fn monitor_catches_ignored_timeouts_as_hung_transactions() {
        // A drained home plus ignored timer expiries: reads to the dead
        // node are never retried or poisoned. The watchdog escalation must
        // stop the run and name the hang instead of spinning forever.
        let mut plan = FaultPlan::new();
        plan.push(at_us(1.0), FaultKind::NodeDrain { node: 3 });
        let (r, _, report) = campaign16().run_monitored(&FaultCampaignConfig {
            requests_per_cpu: 60,
            plan,
            mutation: Some(RecoveryMutation::IgnoreTimeouts),
            ..Default::default()
        });
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.monitor == "hung-transactions"),
            "violations: {:?}",
            report.violations
        );
        assert!(
            r.completed < 16 * 60,
            "wedged windows keep some quota unfinished"
        );
    }

    #[test]
    fn a_strike_past_the_run_skips_the_idle_watchdog_ticks() {
        // A drain that strikes long after every read completed. Every
        // watchdog tick before it would find nothing queued and nothing
        // outstanding, so the worker moves straight to the first tick at or
        // after the strike; a strike so late that no such tick fits in
        // `u64` picoseconds stops the ticking instead. Both runs end as
        // ticking through the idle windows would: the strike lands and
        // changes nothing.
        let run = |at: u64| {
            let mut plan = FaultPlan::new();
            plan.push(SimTime::from_ps(at), FaultKind::NodeDrain { node: 0 });
            let cfg = FaultCampaignConfig {
                requests_per_cpu: 20,
                plan,
                ..Default::default()
            };
            let (worker, ..) = campaign16().launch(&cfg, Drive::default());
            (worker, campaign16().run_monitored(&cfg))
        };
        let near = 1_000_000_000_001; // 5,000 idle windows, and 1 ps
        let (near_worker, (near_r, near_t, near_report)) = run(near);
        let (far_worker, (far_r, far_t, far_report)) = run(u64::MAX);
        let window = FaultCampaignConfig::default().watchdog_window.as_ps();
        assert_eq!(
            near_worker.dog_next,
            Some(SimTime::from_ps(near.div_ceil(window) * window))
        );
        assert_eq!(far_worker.dog_next, None, "the tick past u64::MAX stops");
        for worker in [&near_worker, &far_worker] {
            assert_eq!(worker.faults_applied, [FaultKind::NodeDrain { node: 0 }]);
            assert_eq!(worker.consecutive_stuck, 0);
            assert!(worker.reports.is_empty());
        }
        assert_eq!(near_r.completed, 16 * 20);
        assert_eq!(near_r.completed, far_r.completed);
        assert_eq!(near_r.elapsed, far_r.elapsed);
        assert_eq!(near_r.p99_latency, far_r.p99_latency);
        assert_eq!(near_t.registry, far_t.registry);
        assert!(near_report.is_clean());
        assert_eq!(near_report, far_report);
    }

    #[test]
    #[should_panic(
        expected = "fault plan is illegal: at 2000.000ns: cutting link 0<->12 would partition the fabric"
    )]
    fn a_plan_that_isolates_a_node_is_refused_before_the_run() {
        let mut plan = FaultPlan::new();
        for (i, b) in [1, 3, 4, 12].into_iter().enumerate() {
            plan.push(at_us(0.5 * (i + 1) as f64), FaultKind::LinkDown { a: 0, b });
        }
        campaign16().run(&FaultCampaignConfig {
            plan,
            ..Default::default()
        });
    }

    /// Every sequence of 1 to `len` strikes drawn from `kinds`, 200 ns
    /// apart from 200 ns.
    fn strike_sequences(kinds: &[FaultKind], len: u32) -> Vec<FaultPlan> {
        let mut plans = Vec::new();
        for n in 1..=len {
            for code in 0..kinds.len().pow(n) {
                let mut plan = FaultPlan::new();
                let mut rest = code;
                for i in 1..=u64::from(n) {
                    plan.push(
                        SimTime::ZERO + SimDuration::from_ns(200.0) * i,
                        kinds[rest % kinds.len()],
                    );
                    rest /= kinds.len();
                }
                plans.push(plan);
            }
        }
        plans
    }

    #[test]
    fn the_engine_runs_every_plan_the_rule_book_accepts() {
        // Every sequence of strikes on one link (up to 4) and on one node
        // (up to 3) that `validate_plan` accepts is applied, strike for
        // strike. The engine keeps no rules of its own, so a plan the rule
        // book wrongly accepts trips an assert of the routing tables or
        // the Zbox here. Link 0-4 of the 8P torus is two cables (North and
        // South), which the rule book counts as one link.
        let node = 0;
        let site = [
            FaultKind::NodeDrain { node },
            FaultKind::NodeUndrain { node },
            FaultKind::RouterPause { node, ps: 100_000 },
            FaultKind::ChannelDown { node },
            FaultKind::ChannelUp { node },
        ];
        for (cpus, (a, b), at_least) in [(16, (0, 1), 100), (8, (0, 4), 60)] {
            let link = [
                FaultKind::LinkDown { a, b },
                FaultKind::LinkUp { a, b },
                FaultKind::LinkDegrade { a, b },
                FaultKind::FlitCorrupt { from: a, to: b },
            ];
            let machine = Gs1280::builder().cpus(cpus).build();
            let catalog = crate::chaos::catalog_for(cpus);
            let cfg = |plan| FaultCampaignConfig {
                requests_per_cpu: 16,
                plan,
                ..Default::default()
            };
            // The strikes land on live traffic: a healthy run outlasts the
            // last of them.
            let healthy = gs1280_fault_campaign(&machine).run(&cfg(FaultPlan::new()));
            assert!(healthy.elapsed > SimDuration::from_ns(800.0), "{cpus}P");
            let mut legal = 0;
            let mut plans = strike_sequences(&link, 4);
            if cpus == 16 {
                plans.extend(strike_sequences(&site, 3));
            }
            for plan in plans
                .into_iter()
                .filter(|plan| validate_plan(&catalog, plan).is_ok())
            {
                let struck: Vec<FaultKind> = plan.events().iter().map(|e| e.kind).collect();
                let r = gs1280_fault_campaign(&machine).run(&cfg(plan));
                assert_eq!(r.faults_applied, struck);
                legal += 1;
            }
            assert!(legal > at_least, "{cpus}P: only {legal} legal plans");
        }
    }

    #[test]
    fn collecting_reads_reuse_their_packets_and_served_legs() {
        // Each completed read leaves its packet to the next request and
        // its served leg to the next response, so after a fault-free
        // collecting run the worker holds one packet per window slot and
        // no more legs than that: no read allocated either.
        let window = 6;
        let cfg = FaultCampaignConfig {
            outstanding: window,
            requests_per_cpu: 80,
            ..Default::default()
        };
        let drive = Drive {
            collect: true,
            ..Drive::default()
        };
        let (worker, ..) = campaign16().launch(&cfg, drive);
        assert_eq!(worker.spare.len(), 16 * window);
        assert!(
            (1..=16 * window).contains(&worker.spare_legs.len()),
            "{} spare legs",
            worker.spare_legs.len()
        );
    }
}
