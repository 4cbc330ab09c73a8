//! The chaos campaign engine: randomized fault-schedule fuzzing over the
//! GS1280 with automatic shrinking to minimal reproducers.
//!
//! [`run_chaos`] draws seeded random [`FaultPlan`]s from a
//! [`ChaosConfig`] distribution (every fault kind: cuts, repairs,
//! degradations, transient flit corruption, drains, pauses, channel
//! churn), drives a closed-loop [`FaultCampaign`] under each plan with the
//! always-on invariant monitors armed
//! ([`FaultCampaign::run_monitored`]), and — when a monitor fires —
//! shrinks the offending schedule through the kernel's
//! [`shrink_candidates`] transformations until no smaller legal schedule
//! still violates. The minimal schedule is packaged as a [`Reproducer`]:
//! a self-contained, serializable description that [`replay`] can re-run
//! bit-for-bit as a regression test.

use std::collections::BTreeSet;

use alphasim_coherence::RetryPolicy;
use alphasim_kernel::chaos::{shrink_candidates, validate_plan, ChaosConfig, SiteCatalog};
use alphasim_kernel::{FaultEvent, FaultKind, FaultPlan, SimDuration, SimTime};
use alphasim_topology::{Topology, Torus2D};
use serde::{Deserialize, Serialize};
use serde_json::Value;

use crate::faulty::{
    gs1280_fault_campaign, CampaignPattern, CampaignResult, FaultCampaign, FaultCampaignConfig,
    MonitorReport, RecoveryMutation,
};
use crate::gs1280::FabricTopo;
use crate::Gs1280;

/// Parameters of one chaos campaign.
#[derive(Debug, Clone)]
pub struct ChaosOptions {
    /// Machine size (CPU count of the GS1280 under test).
    pub cpus: usize,
    /// Random schedules to draw and run.
    pub trials: usize,
    /// Seed of the first trial; trial `i` uses `base_seed + i`, wrapping
    /// past `u64::MAX` to 0.
    pub base_seed: u64,
    /// Outstanding reads per CPU in each campaign.
    pub outstanding: usize,
    /// Reads per CPU in each campaign.
    pub requests_per_cpu: usize,
    /// The schedule distribution.
    pub config: ChaosConfig,
    /// Retry policy every trial campaign runs under. The default is the
    /// resilience experiment's loss-tolerant policy; mutation hunts may
    /// tighten it (a 50 µs timeout makes retry exhaustion unreachable
    /// inside a ~7 µs run, so the off-by-one-retry path never executes).
    pub retry: RetryPolicy,
    /// Deliberately broken recovery path (mutation testing); `None` fuzzes
    /// the intact machine.
    pub mutation: Option<RecoveryMutation>,
    /// Most campaign re-runs the shrinker may spend per violating trial.
    pub shrink_budget: usize,
}

impl Default for ChaosOptions {
    fn default() -> Self {
        ChaosOptions {
            cpus: 16,
            trials: 50,
            base_seed: 0xC405,
            outstanding: 6,
            requests_per_cpu: 160,
            // A healthy 16P campaign at this quota runs ~7 us of simulated
            // time; squeeze the strike window inside it so schedules land
            // on live traffic instead of an idle, already-drained fabric.
            config: ChaosConfig {
                window: (
                    SimTime::ZERO + SimDuration::from_us(1.0),
                    SimTime::ZERO + SimDuration::from_us(6.0),
                ),
                ..ChaosConfig::default()
            },
            retry: RetryPolicy {
                timeout: SimDuration::from_us(50.0),
                backoff_base: SimDuration::from_us(2.0),
                backoff_cap: SimDuration::from_us(32.0),
                max_retries: 6,
            },
            mutation: None,
            shrink_budget: 200,
        }
    }
}

/// The outcome of one randomized trial.
#[derive(Debug, Clone)]
pub struct ChaosTrial {
    /// Schedule seed.
    pub seed: u64,
    /// Faults that actually struck.
    pub faults_applied: Vec<FaultKind>,
    /// Campaign outcome.
    pub result: CampaignResult,
    /// What the monitors saw.
    pub report: MonitorReport,
}

/// A minimal violating schedule, serializable and replayable.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Reproducer {
    /// Stable name (`chaos-<mutation|sim>-seed<N>`), used as the corpus
    /// file stem.
    pub name: String,
    /// Machine size.
    pub cpus: usize,
    /// Outstanding reads per CPU.
    pub outstanding: usize,
    /// Reads per CPU.
    pub requests_per_cpu: usize,
    /// Retry policy the violating campaign ran under (replayed verbatim —
    /// retry pressure is part of what makes a schedule violate).
    pub retry: RetryPolicy,
    /// Recovery mutation id, if the violation required one.
    pub mutation: Option<String>,
    /// Monitors that fired on the original run, deduplicated.
    pub violations: Vec<String>,
    /// The shrunk schedule.
    pub plan: FaultPlan,
}

impl Reproducer {
    /// The corpus file body: pretty JSON with a trailing newline, so the
    /// committed reproducers diff cleanly.
    pub fn to_json(&self) -> String {
        let mut text =
            serde_json::to_string_pretty(self).unwrap_or_else(|e| panic!("serialize: {e}"));
        text.push('\n');
        text
    }

    /// Parse a corpus file back into a reproducer. The vendored serde
    /// stack has no typed deserializer, so this decodes the [`Value`] tree
    /// by hand, field for field — strict about shape, so a corrupted
    /// corpus entry fails loudly instead of replaying the wrong schedule.
    ///
    /// # Errors
    ///
    /// Bad JSON, a missing or mistyped field, an unknown fault kind, and
    /// values no campaign can run: a machine size other than
    /// [`Torus2D::SIZES`], no outstanding reads, no reads per CPU, or a
    /// retry budget beyond `u32`. Each names the field and the value.
    pub fn from_json(text: &str) -> Result<Reproducer, String> {
        let root = serde_json::from_str(text).map_err(|e| format!("bad JSON: {e}"))?;
        let mutation = match get(&root, "mutation")? {
            Value::Null => None,
            v => Some(
                v.as_str()
                    .ok_or("field \"mutation\" must be a string or null")?
                    .to_string(),
            ),
        };
        let mut violations = Vec::new();
        for v in get(&root, "violations")?
            .as_array()
            .ok_or("field \"violations\" must be an array")?
        {
            violations.push(
                v.as_str()
                    .ok_or("violations entries must be strings")?
                    .to_string(),
            );
        }
        let mut events = Vec::new();
        for ev in get(get(&root, "plan")?, "events")?
            .as_array()
            .ok_or("plan.events must be an array")?
        {
            events.push(FaultEvent {
                at: SimTime::ZERO + SimDuration::from_ps(u64_field(ev, "at")?),
                kind: decode_kind(get(ev, "kind")?)?,
            });
        }
        let retry_v = get(&root, "retry")?;
        let max_retries = u64_field(retry_v, "max_retries")?;
        let retry = RetryPolicy {
            timeout: SimDuration::from_ps(u64_field(retry_v, "timeout")?),
            backoff_base: SimDuration::from_ps(u64_field(retry_v, "backoff_base")?),
            backoff_cap: SimDuration::from_ps(u64_field(retry_v, "backoff_cap")?),
            max_retries: u32::try_from(max_retries).map_err(|_| {
                format!("field \"max_retries\" must fit in 32 bits, got {max_retries}")
            })?,
        };
        let cpus = usize_field(&root, "cpus")?;
        if Torus2D::shape_for(cpus).is_none() {
            let sizes = Torus2D::SIZES.map(|(n, _, _)| n);
            return Err(format!(
                "field \"cpus\" must be a machine size in {sizes:?}, got {cpus}"
            ));
        }
        let outstanding = usize_field(&root, "outstanding")?;
        if outstanding == 0 {
            return Err("field \"outstanding\" must be at least 1, got 0".to_string());
        }
        let requests_per_cpu = usize_field(&root, "requests_per_cpu")?;
        if requests_per_cpu == 0 {
            return Err("field \"requests_per_cpu\" must be at least 1, got 0".to_string());
        }
        Ok(Reproducer {
            name: str_field(&root, "name")?,
            cpus,
            outstanding,
            requests_per_cpu,
            retry,
            mutation,
            violations,
            plan: FaultPlan::from_events(events),
        })
    }
}

fn get<'a>(v: &'a Value, key: &str) -> Result<&'a Value, String> {
    v.get(key).ok_or_else(|| format!("missing field {key:?}"))
}

fn u64_field(v: &Value, key: &str) -> Result<u64, String> {
    get(v, key)?
        .as_u64()
        .ok_or_else(|| format!("field {key:?} must be a non-negative integer"))
}

fn usize_field(v: &Value, key: &str) -> Result<usize, String> {
    Ok(u64_field(v, key)? as usize)
}

fn str_field(v: &Value, key: &str) -> Result<String, String> {
    Ok(get(v, key)?
        .as_str()
        .ok_or_else(|| format!("field {key:?} must be a string"))?
        .to_string())
}

/// Decode the externally tagged [`FaultKind`] encoding
/// (`{"LinkDown": {"a": 0, "b": 1}}`).
fn decode_kind(v: &Value) -> Result<FaultKind, String> {
    let map = v.as_object().ok_or("fault kind must be an object")?;
    if map.len() != 1 {
        return Err(format!(
            "fault kind must have exactly one variant tag, got {}",
            map.len()
        ));
    }
    let (tag, body) = map.iter().next().expect("len checked");
    let site = |key: &str| usize_field(body, key);
    Ok(match tag.as_str() {
        "LinkDown" => FaultKind::LinkDown {
            a: site("a")?,
            b: site("b")?,
        },
        "LinkUp" => FaultKind::LinkUp {
            a: site("a")?,
            b: site("b")?,
        },
        "LinkDegrade" => FaultKind::LinkDegrade {
            a: site("a")?,
            b: site("b")?,
        },
        "FlitCorrupt" => FaultKind::FlitCorrupt {
            from: site("from")?,
            to: site("to")?,
        },
        "NodeDrain" => FaultKind::NodeDrain {
            node: site("node")?,
        },
        "NodeUndrain" => FaultKind::NodeUndrain {
            node: site("node")?,
        },
        "RouterPause" => FaultKind::RouterPause {
            node: site("node")?,
            ps: u64_field(body, "ps")?,
        },
        "ChannelDown" => FaultKind::ChannelDown {
            node: site("node")?,
        },
        "ChannelUp" => FaultKind::ChannelUp {
            node: site("node")?,
        },
        other => return Err(format!("unknown fault kind {other:?}")),
    })
}

/// Everything one chaos campaign produced.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Every trial, in seed order.
    pub trials: Vec<ChaosTrial>,
    /// Minimal reproducers for the trials whose monitors fired.
    pub reproducers: Vec<Reproducer>,
}

impl ChaosReport {
    /// Seeds whose monitors fired.
    pub fn violating_seeds(&self) -> Vec<u64> {
        self.trials
            .iter()
            .filter(|t| !t.report.is_clean())
            .map(|t| t.seed)
            .collect()
    }

    /// Distinct fault kinds that struck across all trials, by
    /// [`FaultKind::describe`]-stable discriminant name.
    pub fn kinds_struck(&self) -> BTreeSet<&'static str> {
        self.trials
            .iter()
            .flat_map(|t| t.faults_applied.iter())
            .map(|k| kind_name(*k))
            .collect()
    }
}

/// Stable discriminant name of a fault kind.
pub fn kind_name(kind: FaultKind) -> &'static str {
    match kind {
        FaultKind::LinkDown { .. } => "LinkDown",
        FaultKind::LinkUp { .. } => "LinkUp",
        FaultKind::LinkDegrade { .. } => "LinkDegrade",
        FaultKind::FlitCorrupt { .. } => "FlitCorrupt",
        FaultKind::NodeDrain { .. } => "NodeDrain",
        FaultKind::NodeUndrain { .. } => "NodeUndrain",
        FaultKind::RouterPause { .. } => "RouterPause",
        FaultKind::ChannelDown { .. } => "ChannelDown",
        FaultKind::ChannelUp { .. } => "ChannelUp",
    }
}

/// The fault-site catalog of a GS1280 fabric: every node and every
/// undirected link, as the kernel's schedule algebra sees them.
pub fn catalog_for(cpus: usize) -> SiteCatalog {
    let machine = Gs1280::builder().cpus(cpus).build();
    let topo = machine.fabric();
    let nodes: Vec<usize> = (0..topo.node_count()).collect();
    let mut links = Vec::new();
    for n in 0..topo.node_count() {
        for port in topo.ports(alphasim_topology::NodeId::new(n)) {
            let m = port.to.index();
            if n < m {
                links.push((n, m));
            }
        }
    }
    SiteCatalog::new(nodes, links)
}

fn fresh_campaign(cpus: usize) -> FaultCampaign<FabricTopo> {
    gs1280_fault_campaign(&Gs1280::builder().cpus(cpus).build())
}

/// The campaign configuration every chaos trial runs under: the
/// resilience experiment's loss-tolerant retry policy.
fn trial_cfg(
    opts: &ChaosOptions,
    plan: FaultPlan,
    mutation: Option<RecoveryMutation>,
) -> FaultCampaignConfig {
    FaultCampaignConfig {
        outstanding: opts.outstanding,
        requests_per_cpu: opts.requests_per_cpu,
        pattern: CampaignPattern::UniformRemote,
        plan,
        retry: opts.retry,
        watchdog_window: SimDuration::from_us(250.0),
        mutation,
        ..Default::default()
    }
}

/// Run one monitored campaign under `plan`.
fn run_plan(
    opts: &ChaosOptions,
    plan: &FaultPlan,
    mutation: Option<RecoveryMutation>,
) -> (CampaignResult, MonitorReport) {
    let campaign = fresh_campaign(opts.cpus);
    let cfg = trial_cfg(opts, plan.clone(), mutation);
    let (result, _telemetry, report) = campaign.run_monitored(&cfg);
    (result, report)
}

/// Greedily shrink `plan` while some monitor still fires, spending at most
/// `opts.shrink_budget` campaign re-runs. Returns the minimal plan and the
/// monitors that fired on it.
fn shrink_violating_plan(
    opts: &ChaosOptions,
    catalog: &SiteCatalog,
    mut plan: FaultPlan,
) -> (FaultPlan, Vec<String>) {
    let mut spent = 0usize;
    let mut monitors = run_plan(opts, &plan, opts.mutation)
        .1
        .violations
        .into_iter()
        .map(|v| v.monitor)
        .collect::<Vec<_>>();
    spent += 1;
    'outer: while spent < opts.shrink_budget {
        for cand in shrink_candidates(&plan, catalog) {
            spent += 1;
            let (_, report) = run_plan(opts, &cand, opts.mutation);
            if !report.is_clean() {
                plan = cand;
                monitors = report.violations.into_iter().map(|v| v.monitor).collect();
                continue 'outer;
            }
            if spent >= opts.shrink_budget {
                break 'outer;
            }
        }
        break; // no smaller candidate still violates: minimal
    }
    monitors.sort();
    monitors.dedup();
    (plan, monitors)
}

/// Run a full chaos campaign: `opts.trials` random schedules, each checked
/// by the always-on monitors, each violation shrunk to a minimal
/// [`Reproducer`].
pub fn run_chaos(opts: &ChaosOptions) -> ChaosReport {
    let catalog = catalog_for(opts.cpus);
    let mut trials = Vec::with_capacity(opts.trials);
    let mut reproducers = Vec::new();
    for i in 0..opts.trials {
        let seed = opts.base_seed.wrapping_add(i as u64);
        let plan = opts.config.generate(seed, &catalog);
        let (result, report) = run_plan(opts, &plan, opts.mutation);
        if !report.is_clean() {
            let (minimal, monitors) = shrink_violating_plan(opts, &catalog, plan.clone());
            let tag = opts.mutation.map_or("sim", RecoveryMutation::id);
            reproducers.push(Reproducer {
                name: format!("chaos-{tag}-seed{seed}"),
                cpus: opts.cpus,
                outstanding: opts.outstanding,
                requests_per_cpu: opts.requests_per_cpu,
                retry: opts.retry,
                mutation: opts.mutation.map(|m| m.id().to_string()),
                violations: monitors,
                plan: minimal,
            });
        }
        trials.push(ChaosTrial {
            seed,
            faults_applied: result.faults_applied.clone(),
            result,
            report,
        });
    }
    ChaosReport {
        trials,
        reproducers,
    }
}

/// Re-run a [`Reproducer`] exactly as recorded. Returns the monitor report
/// of the replay; a regression corpus expects every mutated reproducer to
/// violate again and every healthy replay (mutation stripped) to be clean.
pub fn replay(rep: &Reproducer) -> Result<(CampaignResult, MonitorReport), String> {
    let mutation = match &rep.mutation {
        None => None,
        Some(id) => Some(
            RecoveryMutation::from_id(id)
                .ok_or_else(|| format!("unknown recovery mutation {id:?}"))?,
        ),
    };
    let catalog = catalog_for(rep.cpus);
    validate_plan(&catalog, &rep.plan)
        .map_err(|why| format!("reproducer {} carries an illegal plan: {why}", rep.name))?;
    let opts = ChaosOptions {
        cpus: rep.cpus,
        outstanding: rep.outstanding,
        requests_per_cpu: rep.requests_per_cpu,
        retry: rep.retry,
        ..ChaosOptions::default()
    };
    Ok(run_plan(&opts, &rep.plan, mutation))
}

/// Replay a reproducer with its mutation stripped: the same schedule on
/// the intact machine, which must come back clean for the corpus entry to
/// be meaningful (the bug is in the mutated recovery path, not the
/// schedule).
pub fn replay_healthy(rep: &Reproducer) -> Result<(CampaignResult, MonitorReport), String> {
    let healthy = Reproducer {
        mutation: None,
        ..rep.clone()
    };
    replay(&healthy)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_opts() -> ChaosOptions {
        ChaosOptions {
            trials: 4,
            ..ChaosOptions::default()
        }
    }

    #[test]
    fn catalog_matches_the_4x4_fabric() {
        let cat = catalog_for(16);
        assert_eq!(cat.nodes.len(), 16);
        // A 4x4 torus has 2 undirected links per node.
        assert_eq!(cat.links.len(), 32);
        for &(a, b) in &cat.links {
            assert!(a < b);
            assert!(b < 16);
        }
    }

    #[test]
    fn chaos_trials_are_deterministic_and_clean() {
        // The last seed wraps to 0 rather than overflowing.
        let wrapping = ChaosOptions {
            trials: 2,
            base_seed: u64::MAX,
            ..ChaosOptions::default()
        };
        for (opts, seeds) in [
            (small_opts(), vec![0xC405, 0xC406, 0xC407, 0xC408]),
            (wrapping, vec![u64::MAX, 0]),
        ] {
            let a = run_chaos(&opts);
            let b = run_chaos(&opts);
            let drawn: Vec<u64> = a.trials.iter().map(|t| t.seed).collect();
            assert_eq!(drawn, seeds);
            for (ta, tb) in a.trials.iter().zip(&b.trials) {
                assert_eq!(ta.seed, tb.seed);
                assert_eq!(ta.result.completed, tb.result.completed);
                assert_eq!(ta.result.mean_latency, tb.result.mean_latency);
                assert_eq!(ta.faults_applied, tb.faults_applied);
                assert!(
                    ta.report.is_clean(),
                    "seed {} violated: {:?}",
                    ta.seed,
                    ta.report.violations
                );
            }
            assert!(a.reproducers.is_empty());
            assert!(a.violating_seeds().is_empty());
        }
    }

    #[test]
    fn mutated_chaos_is_caught_and_shrinks_small() {
        // Leak the poison path: any schedule that poisons a read trips the
        // monitor, and the shrinker must cut the schedule down to almost
        // nothing (a single drain suffices to poison).
        let opts = ChaosOptions {
            trials: 6,
            mutation: Some(RecoveryMutation::LeakPoison),
            ..ChaosOptions::default()
        };
        let report = run_chaos(&opts);
        assert!(
            !report.reproducers.is_empty(),
            "six random schedules must include a poisoning fault"
        );
        for rep in &report.reproducers {
            assert!(
                rep.plan.len() <= 3,
                "{} shrank only to {} faults: {:?}",
                rep.name,
                rep.plan.len(),
                rep.plan
            );
            assert_eq!(rep.mutation.as_deref(), Some("leak-poison"));
            assert!(!rep.violations.is_empty());
            // The reproducer replays red, and the same schedule on the
            // intact machine replays green.
            let (_, replayed) = replay(rep).expect("reproducer must replay");
            assert!(!replayed.is_clean(), "{} must violate on replay", rep.name);
            let (_, healthy) = replay_healthy(rep).expect("healthy replay");
            assert!(
                healthy.is_clean(),
                "{} healthy replay violated: {:?}",
                rep.name,
                healthy.violations
            );
        }
    }

    #[test]
    fn replay_rejects_unknown_mutations_and_illegal_plans() {
        let mut plan = FaultPlan::new();
        plan.push(
            alphasim_kernel::SimTime::ZERO + SimDuration::from_us(1.0),
            FaultKind::NodeDrain { node: 3 },
        );
        let rep = Reproducer {
            name: "bad".into(),
            cpus: 16,
            outstanding: 6,
            requests_per_cpu: 10,
            retry: ChaosOptions::default().retry,
            mutation: Some("no-such-mutation".into()),
            violations: vec![],
            plan: plan.clone(),
        };
        assert!(replay(&rep)
            .unwrap_err()
            .contains("unknown recovery mutation"));
        let mut bad_plan = FaultPlan::new();
        bad_plan.push(
            alphasim_kernel::SimTime::ZERO + SimDuration::from_us(1.0),
            FaultKind::NodeDrain { node: 99 },
        );
        let rep = Reproducer {
            mutation: None,
            plan: bad_plan,
            ..rep
        };
        assert!(replay(&rep).unwrap_err().contains("illegal plan"));
    }

    #[test]
    fn reproducers_round_trip_through_json() {
        let mut plan = FaultPlan::new();
        plan.push(
            alphasim_kernel::SimTime::ZERO + SimDuration::from_us(1.0),
            FaultKind::NodeDrain { node: 3 },
        );
        let rep = Reproducer {
            name: "chaos-leak-poison-seed7".into(),
            cpus: 16,
            outstanding: 6,
            requests_per_cpu: 20,
            retry: RetryPolicy {
                timeout: SimDuration::from_us(1.0),
                backoff_base: SimDuration::from_ns(250.0),
                backoff_cap: SimDuration::from_us(1.0),
                max_retries: 2,
            },
            mutation: Some("leak-poison".into()),
            violations: vec!["poison-leak".into()],
            plan,
        };
        let json = rep.to_json();
        assert!(json.ends_with("}\n"));
        let back = Reproducer::from_json(&json).expect("deserialize");
        assert_eq!(back, rep);
        assert!(Reproducer::from_json("{}")
            .unwrap_err()
            .contains("missing field"));
        let bad_kind = json.replace("NodeDrain", "NodeMelt");
        assert!(Reproducer::from_json(&bad_kind)
            .unwrap_err()
            .contains("unknown fault kind"));
    }

    #[test]
    fn from_json_rejects_values_no_campaign_can_run() {
        let json = include_str!("../../../results/chaos-corpus/chaos-leak-poison-seed50181.json");
        assert!(Reproducer::from_json(json).is_ok());
        for (from, to, why) in [
            (
                "\"cpus\": 16",
                "\"cpus\": 48",
                "field \"cpus\" must be a machine size in [2, 4, 8, 16, 32, 64, 128, 256], got 48",
            ),
            (
                "\"outstanding\": 6",
                "\"outstanding\": 0",
                "field \"outstanding\" must be at least 1, got 0",
            ),
            (
                "\"requests_per_cpu\": 160",
                "\"requests_per_cpu\": 0",
                "field \"requests_per_cpu\" must be at least 1, got 0",
            ),
            (
                "\"max_retries\": 6",
                "\"max_retries\": 4294967296",
                "field \"max_retries\" must fit in 32 bits, got 4294967296",
            ),
        ] {
            assert!(json.contains(from), "corpus file drifted: {from}");
            let doctored = json.replace(from, to);
            assert_eq!(Reproducer::from_json(&doctored).unwrap_err(), why);
        }
        let truncated = &json[..json.len() / 2];
        assert!(Reproducer::from_json(truncated)
            .unwrap_err()
            .starts_with("bad JSON"));
    }

    #[test]
    fn committed_corpus_files_round_trip_byte_for_byte() {
        // A field the format no longer has would parse, but not come back
        // as the same bytes: the corpus cannot drift from the format
        // unnoticed.
        let dir =
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/chaos-corpus");
        let mut files = 0;
        for entry in std::fs::read_dir(&dir).expect("corpus directory") {
            let path = entry.expect("corpus entry").path();
            let json = std::fs::read_to_string(&path).expect("corpus file reads");
            let rep = Reproducer::from_json(&json).expect("corpus file parses");
            assert_eq!(
                rep.to_json(),
                json,
                "{} drifted from the format",
                path.display()
            );
            files += 1;
        }
        assert!(files > 0, "no corpus files under {}", dir.display());
    }
}
