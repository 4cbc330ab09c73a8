//! Resilience sweep: achieved bisection bandwidth and latency as torus
//! links fail mid-run.
//!
//! The GS1280's adaptive router is the paper's answer to fabric wounds
//! (§2's "the router supports … reconfiguration around failed links").
//! This experiment quantifies that promise with live fault injection:
//! every CPU streams reads across the vertical bisection while a
//! [`FaultPlan`] cuts 0→k of the bisection-crossing links out from under
//! the traffic. Lost packets are recovered by the coherence
//! timeout-and-retry path; the curve reports what survives — delivered
//! bisection bandwidth, mean and p99 read latency, and the retry bill —
//! per failure count.

use alphasim_coherence::RetryPolicy;
use alphasim_kernel::par::parallel_map;
use alphasim_kernel::{FaultKind, FaultPlan, SimDuration, SimTime};
use alphasim_system::Gs1280;
use alphasim_system::{
    gs1280_fault_campaign, CampaignPattern, CampaignResult, CampaignTelemetry, FabricTopo,
    FaultCampaign, FaultCampaignConfig,
};
use alphasim_telemetry::Registry;
use alphasim_topology::graph::DistanceMatrix;
use alphasim_topology::{Degraded, NodeId, Torus2D};

use crate::types::{Figure, Series};

/// The vertical-bisection links of a `cols x rows` torus, one per row:
/// the eastward link from column `cols/2 - 1` to `cols/2`. Cutting up to
/// `rows - 1` of them leaves the torus connected (edge connectivity 4) but
/// narrows the bisection the traffic must cross.
pub fn bisection_cuts(cpus: usize, count: usize) -> Vec<(usize, usize)> {
    let torus = Torus2D::for_cpus(cpus);
    let (cols, rows) = (torus.cols(), torus.rows());
    assert!(
        count < rows,
        "cutting every row's bisection link would sever the halves"
    );
    (0..count)
        .map(|row| {
            let west = row * cols + (cols / 2 - 1);
            (west, west + 1)
        })
        .collect()
}

/// Sanity-check a cut set before simulating it: the links must exist and
/// the wounded torus must stay connected. Panics loudly otherwise — a
/// partitioned sweep point would silently report zeros.
fn assert_survivable(cpus: usize, cuts: &[(usize, usize)]) {
    let torus = Torus2D::for_cpus(cpus);
    let failed: Vec<(NodeId, NodeId)> = cuts
        .iter()
        .map(|&(a, b)| (NodeId::new(a), NodeId::new(b)))
        .collect();
    let wounded = Degraded::try_new(torus, &failed).expect("cut links exist");
    let dist = DistanceMatrix::compute(&wounded);
    assert!(
        dist.is_connected(),
        "cut set {cuts:?} partitions the {cpus}-node torus"
    );
}

/// The campaign and its configuration for one sweep point, shared by the
/// plain and instrumented entry points.
fn campaign_setup(
    cpus: usize,
    failures: usize,
    requests_per_cpu: usize,
) -> (FaultCampaign<FabricTopo>, FaultCampaignConfig) {
    let cuts = bisection_cuts(cpus, failures);
    assert_survivable(cpus, &cuts);
    let mut plan = FaultPlan::new();
    for (i, &(a, b)) in cuts.iter().enumerate() {
        // Stagger the strikes through the early run, so each lands on
        // live traffic and the router re-adapts repeatedly.
        let at = SimTime::ZERO + SimDuration::from_us(2.0) + SimDuration::from_us(1.0) * i as u64;
        plan.push(at, FaultKind::LinkDown { a, b });
    }
    let machine = Gs1280::builder().cpus(cpus).build();
    let cfg = FaultCampaignConfig {
        outstanding: 8,
        requests_per_cpu,
        pattern: CampaignPattern::Bisection,
        plan,
        // Packets lost with a wire are retried immediately from the drop
        // report, so the timeout is purely a lost-response safety net. Keep
        // it well above the wounded machine's congested tail latency —
        // a tight timeout reads congestion as loss and the spurious
        // retries feed the congestion they misdiagnosed.
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

/// One sweep point: run the bisection fault campaign on a `cpus`-node
/// GS1280 with `failures` bisection links dying mid-run.
pub fn campaign_at(cpus: usize, failures: usize, requests_per_cpu: usize) -> CampaignResult {
    let (campaign, cfg) = campaign_setup(cpus, failures, requests_per_cpu);
    campaign.run(&cfg)
}

/// [`campaign_at`] with telemetry collection (counters and the per-hop
/// latency breakdown; no trace — sweeps with many points would produce
/// one file each).
pub fn campaign_at_instrumented(
    cpus: usize,
    failures: usize,
    requests_per_cpu: usize,
) -> (CampaignResult, CampaignTelemetry) {
    let (campaign, cfg) = campaign_setup(cpus, failures, requests_per_cpu);
    campaign.run_instrumented(&cfg, false)
}

/// The resilience artifact: bisection bandwidth, latency, and retries vs
/// failed-link count, each sweep point an independent deterministic
/// campaign (fanned out via [`parallel_map`], collected in order).
pub fn resilience(cpus: usize, max_failures: usize, requests_per_cpu: usize) -> Figure {
    let results = parallel_map((0..=max_failures).collect::<Vec<_>>(), move |k| {
        (k, campaign_at(cpus, k, requests_per_cpu))
    });
    resilience_figure(cpus, &results)
}

/// [`resilience`] plus the sweep's merged telemetry registry: each point
/// runs instrumented and the per-point registries are merged in input
/// order, so the result is worker-count invariant. The figure itself is
/// identical to [`resilience`]'s (instrumentation never perturbs the
/// simulation).
pub fn resilience_with_telemetry(
    cpus: usize,
    max_failures: usize,
    requests_per_cpu: usize,
) -> (Figure, Registry) {
    let results = parallel_map((0..=max_failures).collect::<Vec<_>>(), move |k| {
        let (r, t) = campaign_at_instrumented(cpus, k, requests_per_cpu);
        (k, r, t)
    });
    let mut registry = Registry::default();
    for (_, _, t) in &results {
        registry.merge(&t.registry);
    }
    let points: Vec<(usize, CampaignResult)> =
        results.into_iter().map(|(k, r, _)| (k, r)).collect();
    (resilience_figure(cpus, &points), registry)
}

fn resilience_figure(cpus: usize, results: &[(usize, CampaignResult)]) -> Figure {
    let pairs = |f: &dyn Fn(&CampaignResult) -> f64| -> Vec<(f64, f64)> {
        results.iter().map(|(k, r)| (*k as f64, f(r))).collect()
    };
    Figure::new(
        "resilience",
        format!("Resilience sweep: bisection traffic on {cpus}P with links failing mid-run"),
        "failed bisection links",
        "GB/s | ns | count",
    )
    .with_series(Series::from_pairs(
        "achieved bisection bandwidth (GB/s)",
        pairs(&|r| r.steady_gbps),
    ))
    .with_series(Series::from_pairs(
        "end-to-end delivered incl. recovery tail (GB/s)",
        pairs(&|r| r.delivered_gbps),
    ))
    .with_series(Series::from_pairs(
        "mean read latency (ns)",
        pairs(&|r| r.mean_latency.as_ns()),
    ))
    .with_series(Series::from_pairs(
        "p99 read latency (ns)",
        pairs(&|r| r.p99_latency.as_ns()),
    ))
    .with_series(Series::from_pairs("retries", pairs(&|r| r.retries as f64)))
    .with_series(Series::from_pairs(
        "messages lost to dead links",
        pairs(&|r| r.dropped as f64),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bisection_cuts_are_distinct_rows_and_survivable() {
        let cuts = bisection_cuts(64, 6);
        assert_eq!(cuts.len(), 6);
        // One cut per row, all crossing the same column boundary.
        for (row, &(a, b)) in cuts.iter().enumerate() {
            assert_eq!(a, row * 8 + 3);
            assert_eq!(b, row * 8 + 4);
        }
        assert_survivable(64, &cuts);
        assert_survivable(16, &bisection_cuts(16, 2));
    }

    #[test]
    #[should_panic(expected = "sever the halves")]
    fn cutting_every_row_is_rejected() {
        bisection_cuts(16, 4);
    }

    #[test]
    fn sweep_scales_from_4x4_to_16x16() {
        // The machine size is a real parameter: the same campaign drives
        // the smallest torus the paper ships and the projected 16x16
        // build, with the cut column scaling along.
        let cuts = bisection_cuts(256, 3);
        for (row, &(a, b)) in cuts.iter().enumerate() {
            assert_eq!(a, row * 16 + 7);
            assert_eq!(b, row * 16 + 8);
        }
        assert_survivable(256, &cuts);
        let small = campaign_at(16, 1, 12);
        let large = campaign_at(256, 1, 4);
        assert_eq!(small.completed + small.poisoned.len() as u64, 16 * 12);
        assert_eq!(
            large.completed + large.poisoned.len() as u64,
            256 * 4,
            "every read on the 16x16 machine completes or poisons"
        );
        assert!(large.delivered_gbps > 0.0);
        // Longer average routes on the big torus cost latency.
        assert!(large.mean_latency > small.mean_latency);
    }

    #[test]
    fn campaign_degrades_gracefully_with_zero_hung_transactions() {
        let healthy = campaign_at(16, 0, 40);
        let wounded = campaign_at(16, 2, 40);
        assert_eq!(
            healthy.completed + healthy.poisoned.len() as u64,
            16 * 40,
            "healthy run completes everything"
        );
        assert_eq!(
            wounded.completed + wounded.poisoned.len() as u64,
            16 * 40,
            "wounded run: every read completes or is poisoned with a cause"
        );
        assert!(healthy.poisoned.is_empty());
        assert_eq!(healthy.retries, 0);
        // Half the bisection is gone: bandwidth cannot improve, and the
        // detours cost latency.
        assert!(wounded.delivered_gbps <= healthy.delivered_gbps * 1.02);
        assert!(wounded.p99_latency >= healthy.p99_latency);
    }

    #[test]
    fn instrumented_sweep_matches_plain_figure_and_merges_counters() {
        let plain = resilience(16, 1, 15);
        let (fig, registry) = resilience_with_telemetry(16, 1, 15);
        assert_eq!(plain, fig, "telemetry must not perturb the figure");
        // Two sweep points of 16 CPUs x 15 reads each, merged.
        assert_eq!(
            registry.counter("coherence.completed") + registry.counter("campaign.poisoned"),
            2 * 16 * 15
        );
        assert!(registry.counter("zbox.accesses") >= registry.counter("coherence.completed"));
    }

    #[test]
    fn event_heap_depth_is_bounded_by_the_machine_not_the_run() {
        use alphasim_topology::Topology;
        // The heap holds at most each CPU's window of packets plus its one
        // retry wake-up, and one release per directed link, however many
        // reads the run issues within one retry timeout.
        let links = Torus2D::for_cpus(64).link_count() as u64;
        for failures in [0, 6] {
            let (campaign, cfg) = campaign_setup(64, failures, 200);
            let bound = 64 * (cfg.outstanding as u64 + 1) + links;
            let (_, t) = campaign.run_instrumented(&cfg, false);
            let peak = t.peak_queue_depth;
            assert!(
                peak > 0 && peak <= bound,
                "{failures} cuts: peak heap depth {peak}, bound {bound}"
            );
        }
    }

    #[test]
    fn figure_has_every_series_over_the_sweep() {
        let fig = resilience(16, 2, 15);
        assert_eq!(fig.id, "resilience");
        assert_eq!(fig.series.len(), 6);
        for s in &fig.series {
            assert_eq!(s.points.len(), 3, "{}", s.label);
        }
        let bw = fig.series_like("bisection bandwidth").unwrap();
        assert!(bw.y_at(0.0).unwrap() > 0.0);
        assert!(bw.y_at(2.0).unwrap() <= bw.y_at(0.0).unwrap() * 1.02);
    }
}
