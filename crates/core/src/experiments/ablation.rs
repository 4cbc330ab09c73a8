//! Ablation studies over the design choices the paper highlights:
//! adaptive vs. deterministic routing, the dual-controller design, and the
//! class-priority virtual channels. Not figures from the paper, but the
//! "what if the 21364 hadn't done this" questions its §2 invites.

use alphasim_kernel::SimTime;
use alphasim_net::MessageClass;
use alphasim_system::loadtest::{gs1280_load_test, LoadTestConfig};
use alphasim_system::Gs1280;
use alphasim_topology::NodeId;

use crate::types::{RatioRow, Table};

/// Adaptive vs. deterministic routing under identical random load: inject
/// the same message set as coherence-class (adaptive) and as I/O-class
/// (deterministic, first-minimal-port) traffic and compare drain times.
/// Returns `(adaptive_ns, deterministic_ns)`.
pub fn adaptive_vs_deterministic(cpus: usize, messages: usize) -> (f64, f64) {
    let run = |class: MessageClass| {
        let machine = Gs1280::builder().cpus(cpus).build();
        let mut net = machine.network();
        let mut rng = alphasim_kernel::DetRng::seeded(0xAB1A);
        for i in 0..messages {
            let src = rng.index(cpus);
            let dst = rng.index_excluding(cpus, src);
            net.send(
                SimTime::ZERO,
                NodeId::new(src),
                NodeId::new(dst),
                class,
                80,
                i as u64,
            );
        }
        net.drain();
        net.now().since(SimTime::ZERO).as_ns()
    };
    (run(MessageClass::Request), run(MessageClass::Io))
}

/// The protocol-traffic breakdown of a load-test run: what fraction of
/// fabric bytes each message class carries. Block responses dominate —
/// which is why the 21364 gives them drain priority.
pub fn class_traffic_shares(cpus: usize, requests_per_cpu: usize) -> Vec<(String, f64)> {
    let machine = Gs1280::builder().cpus(cpus).build();
    let mut net = machine.network();
    let mut rng = alphasim_kernel::DetRng::seeded(3);
    // Emulate the load test's request/response pairs directly.
    for i in 0..cpus * requests_per_cpu {
        let src = rng.index(cpus);
        let dst = rng.index_excluding(cpus, src);
        net.send(
            SimTime::ZERO,
            NodeId::new(src),
            NodeId::new(dst),
            MessageClass::Request,
            16,
            i as u64,
        );
        net.send(
            SimTime::ZERO,
            NodeId::new(dst),
            NodeId::new(src),
            MessageClass::BlockResponse,
            80,
            (i + 1_000_000) as u64,
        );
    }
    net.drain();
    let totals = net.links().class_byte_totals();
    let all: u64 = totals.iter().map(|&(_, b)| b).sum();
    totals
        .iter()
        .map(|&(c, b)| (format!("{c:?}"), b as f64 / all.max(1) as f64))
        .collect()
}

/// Single- vs dual-controller GS1280 (each CPU "can be configured with 0,
/// 1, or 2 memory controllers", §3.1): halving controller bandwidth halves
/// hot-spot service capacity.
pub fn controllers_ablation(requests_per_cpu: usize) -> Table {
    use alphasim_mem::ZboxConfig;
    use alphasim_system::loadtest::{LoadTest, TrafficPattern};

    let run = |controllers: f64| {
        let machine = Gs1280::builder().cpus(16).build();
        let calib = machine.calibration();
        let zbox = ZboxConfig {
            bandwidth_gbps: calib.zbox.bandwidth_gbps * controllers,
            ..calib.zbox
        };
        LoadTest::new(
            machine.fabric(),
            *machine.timing(),
            machine.policy(),
            (0..16).map(NodeId::new).collect(),
            zbox,
            calib.local_fixed,
            calib.remote_fixed,
        )
        .run(&LoadTestConfig {
            outstanding: 12,
            requests_per_cpu,
            pattern: TrafficPattern::HotSpot(0),
            ..Default::default()
        })
        .delivered_gbps
    };
    let two = run(2.0);
    let one = run(1.0);
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

/// Window scaling on one machine size — the raw data behind one Fig. 15
/// curve, exposed for the ablation benches.
pub fn window_sweep(cpus: usize, windows: &[usize], requests_per_cpu: usize) -> Vec<(f64, f64)> {
    let machine = Gs1280::builder().cpus(cpus).build();
    windows
        .iter()
        .map(|&w| {
            let r = gs1280_load_test(&machine).run(&LoadTestConfig {
                outstanding: w,
                requests_per_cpu,
                ..Default::default()
            });
            (r.delivered_gbps, r.mean_latency.as_ns())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adaptive_routing_drains_no_slower() {
        let (adaptive, deterministic) = adaptive_vs_deterministic(16, 400);
        assert!(
            adaptive <= deterministic * 1.02,
            "adaptive {adaptive} vs deterministic {deterministic}"
        );
        // Under this bursty all-at-once load the spread matters.
        assert!(
            adaptive < deterministic,
            "adaptive should strictly win: {adaptive} vs {deterministic}"
        );
    }

    #[test]
    fn responses_carry_most_bytes() {
        let shares = class_traffic_shares(16, 30);
        let response = shares.iter().find(|(n, _)| n == "BlockResponse").unwrap().1;
        let request = shares.iter().find(|(n, _)| n == "Request").unwrap().1;
        assert!(response > 0.6, "response share {response}");
        assert!(request < 0.4, "request share {request}");
        let total: f64 = shares.iter().map(|(_, f)| f).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn dual_controllers_raise_hot_spot_throughput() {
        let t = controllers_ablation(40);
        let speedup = t.rows[2].computed;
        assert!(
            speedup > 1.3,
            "dual controllers should help a hot spot: {speedup}"
        );
    }

    #[test]
    fn window_sweep_is_monotone_in_bandwidth_until_saturation() {
        let sweep = window_sweep(16, &[1, 2, 4, 8], 40);
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
    use alphasim_mem::ZboxConfig;
    use alphasim_system::loadtest::LoadTest;

    let machine = Gs1280::builder().cpus(cpus).build();
    let calib = machine.calibration();
    let zbox = ZboxConfig {
        bandwidth_gbps: calib.zbox.bandwidth_gbps * 2.0,
        ..calib.zbox
    };
    failures
        .iter()
        .map(|&n| {
            // Fail the first `n` eastward links of row 0 (deterministic,
            // disjoint cuts that leave the torus connected).
            let cuts: Vec<(NodeId, NodeId)> = (0..n)
                .map(|i| {
                    let col = 2 * i; // skip alternate links so cuts stay disjoint
                    let cols = match cpus {
                        16 => 4,
                        32 | 64 => 8,
                        _ => 4,
                    };
                    (NodeId::new(col % cols), NodeId::new((col + 1) % cols))
                })
                .collect();
            let wounded = alphasim_topology::Degraded::new(machine.fabric().clone(), &cuts);
            let r = LoadTest::new(
                &wounded,
                *machine.timing(),
                machine.policy(),
                (0..cpus).map(NodeId::new).collect(),
                zbox,
                calib.local_fixed,
                calib.remote_fixed,
            )
            .run(&LoadTestConfig {
                outstanding: 12,
                requests_per_cpu,
                ..Default::default()
            });
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
