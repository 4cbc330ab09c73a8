//! Ablation studies over two design choices the paper highlights: the
//! dual memory controllers (`ablation-zbox`) and adaptive routing around
//! failed links (`ablation-failures`). Not figures from the paper, but the
//! "what if the 21364 hadn't done this" questions its §2 invites. The
//! tests also pin the fabric behaviour behind two more of those choices:
//! adaptive routing, and drain priority for block responses.

use alphasim_system::loadtest::{LoadTest, LoadTestConfig, TrafficPattern};
use alphasim_system::Gs1280;
use alphasim_topology::NodeId;

use crate::types::{RatioRow, Table};

/// Single- vs dual-controller GS1280 (each CPU "can be configured with 0,
/// 1, or 2 memory controllers", §3.1): halving controller bandwidth halves
/// hot-spot service capacity.
pub fn controllers_ablation(requests_per_cpu: usize) -> Table {
    let machine = Gs1280::builder().cpus(16).build();
    let run = |zbox| {
        LoadTest::from(machine.closed_loop(machine.fabric(), zbox))
            .run(&LoadTestConfig {
                outstanding: 12,
                requests_per_cpu,
                pattern: TrafficPattern::HotSpot(0),
                ..Default::default()
            })
            .delivered_gbps
    };
    let two = run(machine.site_zbox());
    let one = run(machine.calibration().zbox);
    Table {
        id: "ablation-zbox".into(),
        title: "Hot-spot bandwidth vs. memory controllers per CPU".into(),
        rows: vec![
            RatioRow {
                label: "2 controllers (GB/s)".into(),
                computed: two,
                paper: None,
            },
            RatioRow {
                label: "1 controller (GB/s)".into(),
                computed: one,
                paper: None,
            },
            RatioRow {
                label: "2-controller speedup".into(),
                computed: two / one,
                paper: None,
            },
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alphasim_kernel::{DetRng, SimTime};
    use alphasim_net::MessageClass;
    use alphasim_system::loadtest::gs1280_load_test;

    #[test]
    fn dual_controllers_raise_hot_spot_throughput() {
        let t = controllers_ablation(40);
        let speedup = t.rows[2].computed;
        assert!(
            speedup > 1.3,
            "dual controllers should help a hot spot: {speedup}"
        );
    }

    /// Adaptive vs. deterministic routing under identical load: the same
    /// 400 random messages on the 16P torus, sent all at once as
    /// coherence Requests (adaptive) and as Io (deterministic, first
    /// minimal port).
    #[test]
    fn adaptive_routing_drains_no_slower() {
        let drain_ns = |class: MessageClass| {
            let mut net = Gs1280::builder().cpus(16).build().network();
            let mut rng = DetRng::seeded(0xAB1A);
            for i in 0..400 {
                let src = rng.index(16);
                let dst = rng.index_excluding(16, src);
                net.send(
                    SimTime::ZERO,
                    NodeId::new(src),
                    NodeId::new(dst),
                    class,
                    80,
                    i,
                );
            }
            net.drain();
            net.now().since(SimTime::ZERO).as_ns()
        };
        let (adaptive, deterministic) =
            (drain_ns(MessageClass::Request), drain_ns(MessageClass::Io));
        // Under this bursty all-at-once load the spread strictly wins.
        assert!(
            adaptive < deterministic,
            "adaptive {adaptive} vs deterministic {deterministic}"
        );
    }

    /// Block responses carry most fabric bytes — which is why the 21364
    /// gives them drain priority: 30 request/response pairs per CPU on the
    /// 16P torus.
    #[test]
    fn responses_carry_most_bytes() {
        let mut net = Gs1280::builder().cpus(16).build().network();
        let mut rng = DetRng::seeded(3);
        for i in 0..16 * 30 {
            let src = NodeId::new(rng.index(16));
            let dst = NodeId::new(rng.index_excluding(16, src.index()));
            net.send(SimTime::ZERO, src, dst, MessageClass::Request, 16, i);
            let response = MessageClass::BlockResponse;
            net.send(SimTime::ZERO, dst, src, response, 80, i + 1_000_000);
        }
        net.drain();
        let totals = net.links().class_byte_totals();
        let all: u64 = totals.iter().map(|&(_, b)| b).sum();
        let share = |class: MessageClass| {
            let bytes = totals
                .iter()
                .find(|&&(c, _)| c == class)
                .map_or(0, |&(_, b)| b);
            bytes as f64 / all as f64
        };
        let (response, request) = (
            share(MessageClass::BlockResponse),
            share(MessageClass::Request),
        );
        assert!(response > 0.6, "response share {response}");
        assert!(request < 0.4, "request share {request}");
    }

    /// Window scaling on the 16P machine (the raw data behind one Fig. 15
    /// curve): bandwidth and latency both grow until saturation.
    #[test]
    fn window_sweep_is_monotone_in_bandwidth_until_saturation() {
        let machine = Gs1280::builder().cpus(16).build();
        let sweep: Vec<(f64, f64)> = [1, 2, 4, 8]
            .iter()
            .map(|&w| {
                let r = gs1280_load_test(&machine).run(&LoadTestConfig {
                    outstanding: w,
                    requests_per_cpu: 40,
                    ..Default::default()
                });
                (r.delivered_gbps, r.mean_latency.as_ns())
            })
            .collect();
        for w in sweep.windows(2) {
            assert!(w[1].0 >= w[0].0 * 0.95, "{sweep:?}");
            assert!(w[1].1 >= w[0].1 * 0.95, "latency non-decreasing");
        }
    }
}

/// Failure injection: rerun the uniform load test with torus links cut and
/// report delivered bandwidth per failure count. The adaptive router
/// detours around the wounds; bandwidth degrades gracefully rather than
/// collapsing.
pub fn link_failure_resilience(
    cpus: usize,
    failures: &[usize],
    requests_per_cpu: usize,
) -> Vec<(usize, f64)> {
    let machine = Gs1280::builder().cpus(cpus).build();
    let (cols, _) = machine.fabric().shape();
    failures
        .iter()
        .map(|&n| {
            // Fail the first `n` eastward links of row 0 (deterministic,
            // disjoint cuts that leave the torus connected).
            let cuts: Vec<(NodeId, NodeId)> = (0..n)
                .map(|i| {
                    let col = 2 * i; // skip alternate links so cuts stay disjoint
                    (NodeId::new(col % cols), NodeId::new((col + 1) % cols))
                })
                .collect();
            let wounded = alphasim_topology::Degraded::new(machine.fabric().clone(), &cuts);
            let r = LoadTest::from(machine.closed_loop(&wounded, machine.site_zbox())).run(
                &LoadTestConfig {
                    outstanding: 12,
                    requests_per_cpu,
                    ..Default::default()
                },
            );
            (n, r.delivered_gbps)
        })
        .collect()
}

#[cfg(test)]
mod failure_tests {
    use super::*;

    #[test]
    fn bandwidth_degrades_gracefully_under_link_failures() {
        let sweep = link_failure_resilience(16, &[0, 1, 2], 40);
        let healthy = sweep[0].1;
        for &(n, bw) in &sweep[1..] {
            assert!(bw > 0.6 * healthy, "{n} failures: {bw} vs {healthy}");
            assert!(bw <= healthy * 1.02, "{n} failures cannot help");
        }
    }
}
