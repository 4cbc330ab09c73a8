//! Property tests for the machine models.

// Test/harness code may unwrap freely; the workspace denies it in libraries.
#![allow(clippy::unwrap_used)]

use alphasim_kernel::chaos::{ChaosConfig, KindSlot};
use alphasim_kernel::{SimDuration, SimTime};
use alphasim_system::chaos::catalog_for;
use alphasim_system::{
    gs1280_fault_campaign, CampaignPattern, FaultCampaignConfig, Gs1280, Gs320, Reproducer,
};
use alphasim_topology::NodeId;
use proptest::prelude::*;

fn sizes() -> impl Strategy<Value = usize> {
    prop::sample::select(vec![4usize, 8, 16, 32, 64])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Read-clean latency is symmetric on the symmetric torus and minimal
    /// at home.
    #[test]
    fn gs1280_read_clean_is_symmetric(cpus in sizes()) {
        let m = Gs1280::builder().cpus(cpus).build();
        for a in 0..cpus {
            for b in 0..cpus {
                let ab = m.read_clean(NodeId::new(a), NodeId::new(b));
                let ba = m.read_clean(NodeId::new(b), NodeId::new(a));
                prop_assert_eq!(ab, ba);
                prop_assert!(ab >= m.local_latency(true));
            }
        }
    }

    /// Every remote read costs at least a 1-hop round trip more than
    /// local, and at most the worst 4-hop corner path.
    #[test]
    fn gs1280_remote_latency_bounds(cpus in sizes(), a in 0usize..64, b in 0usize..64) {
        let m = Gs1280::builder().cpus(cpus).build();
        let (a, b) = (a % cpus, b % cpus);
        prop_assume!(a != b);
        let lat = m.read_clean(NodeId::new(a), NodeId::new(b)).as_ns();
        prop_assert!(lat >= 83.0 + 21.0 + 2.0 * 17.5 - 1e-9, "{lat}");
        // Diameter of the largest machine is 8 hops of <= 25 ns.
        prop_assert!(lat <= 83.0 + 21.0 + 2.0 * 8.0 * 25.0 + 1e-9, "{lat}");
    }

    /// Dirty reads are never cheaper than the bare protocol floor and the
    /// GS320 is always worse than the GS1280 for the same triple.
    #[test]
    fn dirty_reads_ordered_across_machines(r in 0usize..16, h in 0usize..16, o in 0usize..16) {
        prop_assume!(r != h && h != o && r != o);
        let g = Gs1280::builder().cpus(16).build();
        let q = Gs320::new(16);
        let dg = g.read_dirty(NodeId::new(r), NodeId::new(h), NodeId::new(o));
        let dq = q.read_dirty(NodeId::new(r), NodeId::new(h), NodeId::new(o));
        prop_assert!(dq > dg * 3, "GS320 {dq} vs GS1280 {dg}");
    }

    /// STREAM bandwidth is monotone in active CPUs on every machine.
    #[test]
    fn stream_monotone_in_cpus(cpus in sizes()) {
        let g = Gs1280::builder().cpus(cpus).build();
        let mut last = 0.0;
        for n in 1..=cpus {
            let bw = g.stream_triad_gbps(n);
            prop_assert!(bw >= last);
            last = bw;
        }
        let q = Gs320::new(cpus.min(32));
        let mut last = 0.0;
        for n in 1..=cpus.min(32) {
            let bw = q.stream_triad_gbps(n);
            prop_assert!(bw >= last - 1e-12);
            last = bw;
        }
    }
}

/// One monitored fault campaign on a `dim`×`dim` torus under `plan`,
/// rendered to a string that captures every observable output: the full
/// result, the component counters, the per-stage latency breakdown, and
/// the monitor report. Returns the rendering and whether the monitors
/// stayed clean.
fn campaign_fingerprint(
    dim: usize,
    seed: u64,
    plan: &alphasim_kernel::FaultPlan,
    shards: usize,
) -> (String, bool) {
    let cpus = dim * dim;
    let campaign = gs1280_fault_campaign(&Gs1280::builder().cpus(cpus).build());
    let cfg = FaultCampaignConfig {
        outstanding: 2,
        requests_per_cpu: 6,
        pattern: CampaignPattern::UniformRemote,
        seed,
        plan: plan.clone(),
        retry: alphasim_system::ChaosOptions::default().retry,
        watchdog_window: SimDuration::from_us(250.0),
        shards,
        mutation: None,
    };
    let (result, telemetry, report) = campaign.run_monitored(&cfg);
    // Guard against a vacuous identity: every run must move real traffic
    // and strike real faults.
    assert!(result.completed > 0, "campaign completed nothing");
    assert!(!result.faults_applied.is_empty(), "no fault ever struck");
    let clean = report.is_clean();
    // The registry's `engine.*` entries record the run's own engine shape
    // (shard count, per-shard queue peaks) and so differ across shard
    // counts by construction; redact them so the fingerprint
    // covers exactly the machine-plane outputs that must be invariant.
    let registry = redact_engine_plane(telemetry.registry.to_json());
    let registry = serde_json::to_string(&registry).unwrap();
    (
        format!(
            "{result:?}|{registry}|{:?}|{:?}",
            telemetry.breakdown, report
        ),
        clean,
    )
}

/// Drop `engine.*` metrics (shard-count dependent by design) from a
/// registry JSON snapshot, leaving every machine-plane metric intact.
fn redact_engine_plane(registry: serde_json::Value) -> serde_json::Value {
    use serde_json::Value;
    match registry {
        Value::Object(sections) => Value::Object(
            sections
                .into_iter()
                .map(|(section, body)| {
                    let body = match body {
                        Value::Object(map) => Value::Object(
                            map.into_iter()
                                .filter(|(name, _)| !name.starts_with("engine."))
                                .collect(),
                        ),
                        other => other,
                    };
                    (section, body)
                })
                .collect(),
        ),
        other => other,
    }
}

/// The full Chrome trace (every message lifetime, link occupancy, and DRAM
/// service event) of an instrumented campaign — the event-for-event view.
fn campaign_trace(
    dim: usize,
    seed: u64,
    plan: &alphasim_kernel::FaultPlan,
    shards: usize,
) -> String {
    let cpus = dim * dim;
    let campaign = gs1280_fault_campaign(&Gs1280::builder().cpus(cpus).build());
    let cfg = FaultCampaignConfig {
        outstanding: 2,
        requests_per_cpu: 6,
        pattern: CampaignPattern::UniformRemote,
        seed,
        plan: plan.clone(),
        retry: alphasim_system::ChaosOptions::default().retry,
        watchdog_window: SimDuration::from_us(250.0),
        shards,
        mutation: None,
    };
    let (_, telemetry) = campaign.run_instrumented(&cfg, true);
    telemetry.trace.expect("trace requested").to_json_string()
}

/// A randomized chaos schedule for a `dim`×`dim` torus, biased toward link
/// cuts and repairs so plans routinely shrink and re-grow the conservative
/// lookahead horizon mid-run, timed to land inside the campaign's traffic.
fn chaos_plan(dim: usize, seed: u64) -> alphasim_kernel::FaultPlan {
    let catalog = catalog_for(dim * dim);
    let mut config = ChaosConfig {
        window: (
            SimTime::ZERO + SimDuration::from_ns(500.0),
            SimTime::ZERO + SimDuration::from_us(6.0),
        ),
        ..ChaosConfig::default()
    };
    config.weights[KindSlot::LinkDown as usize] = 10;
    config.weights[KindSlot::LinkUp as usize] = 8;
    config.generate(seed, &catalog)
}

proptest! {
    // Each case runs several full campaigns, so keep the case count modest;
    // torus sizes span the satellite's 4×4 → 16×16 range with the bulk of
    // the sampling on the small fabrics.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The engine's determinism-by-construction claim, attacked with
    /// randomized chaos schedules: a closed-loop campaign split into 2 or 4
    /// epoch regions produces byte-identical results to the unsharded run
    /// — and a 2-region run an identical event-for-event Chrome trace to a
    /// 4-region one — on tori from 4×4 up to 16×16, with mid-epoch link
    /// cuts and repairs shrinking and re-growing the lookahead horizon
    /// while traffic is in flight.
    #[test]
    fn epoch_parallel_campaign_matches_sequential(
        // Duplicates weight the draw toward the cheap small fabrics.
        dim in prop::sample::select(vec![4usize, 4, 4, 4, 6, 6, 6, 8, 8, 12, 16]),
        seed in any::<u64>(),
    ) {
        let plan = chaos_plan(dim, seed);
        let (baseline, clean) = campaign_fingerprint(dim, seed, &plan, 1);
        prop_assert!(clean, "monitors fired on the intact machine: {baseline}");
        for shards in [2, 4] {
            let (sharded, clean) = campaign_fingerprint(dim, seed, &plan, shards);
            prop_assert!(clean, "monitors fired at shards={shards}");
            prop_assert_eq!(
                &baseline, &sharded,
                "shards={} diverged from the unsharded run",
                shards
            );
        }
        // Event-for-event: the full Chrome trace of a 4-shard run is
        // identical to the 2-shard one.
        let two_shard_trace = campaign_trace(dim, seed, &plan, 2);
        let four_shard_trace = campaign_trace(dim, seed, &plan, 4);
        prop_assert_eq!(two_shard_trace, four_shard_trace);
    }
}

/// The committed reproducer corpus, as parsed by `chaos replay`.
const CORPUS: [&str; 2] = [
    include_str!("../../../results/chaos-corpus/chaos-leak-poison-seed50181.json"),
    include_str!("../../../results/chaos-corpus/chaos-off-by-one-retry-seed50184.json"),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A damaged corpus file is an error, never a panic: any truncation of
    /// a committed reproducer, and any single-byte change to one.
    #[test]
    fn reproducer_parsing_never_panics_on_a_damaged_corpus_file(
        file in 0usize..CORPUS.len(),
        at in 0usize..1 << 20,
        byte in any::<u8>(),
    ) {
        let text = CORPUS[file];
        prop_assert!(Reproducer::from_json(text).is_ok());
        let _ = Reproducer::from_json(&text[..at % (text.len() + 1)]);
        let mut bytes = text.as_bytes().to_vec();
        bytes[at % text.len()] = byte;
        let _ = Reproducer::from_json(&String::from_utf8_lossy(&bytes));
    }
}
