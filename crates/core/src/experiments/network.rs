//! Figs. 15, 18, 26, 27: loaded interconnect behaviour.

use alphasim_kernel::par::parallel_map;
use alphasim_system::loadtest::{
    gs1280_load_test, gs320_load_test, LoadTestConfig, TrafficPattern,
};
use alphasim_system::{Gs1280, Gs320};
use alphasim_telemetry::Heatmap;
use alphasim_topology::route::RoutePolicy;
use alphasim_topology::{NodeId, Topology};

use crate::types::{Figure, Series};

/// The outstanding-request window values swept by the load test.
pub fn default_windows() -> Vec<usize> {
    vec![1, 2, 3, 4, 6, 8, 10, 12, 16, 20, 25, 30]
}

fn latency_vs_bandwidth_gs1280(
    machine: &Gs1280,
    windows: &[usize],
    requests_per_cpu: usize,
    pattern: TrafficPattern,
) -> Vec<(f64, f64)> {
    // Each window value is an independent load test with its own simulator
    // and seeded RNG; fan them out, keeping curve order.
    parallel_map(windows.to_vec(), |w| {
        let r = gs1280_load_test(machine).run(&LoadTestConfig {
            outstanding: w,
            requests_per_cpu,
            pattern,
            ..Default::default()
        });
        (r.delivered_gbps * 1000.0, r.mean_latency.as_ns()) // MB/s-style axis in GB->MB
    })
}

/// Reproduce Fig. 15: latency vs delivered bandwidth under increasing load
/// for GS1280 at 16/32/64 CPUs and GS320 at 16/32. X = bandwidth (MB/s),
/// Y = latency (ns), exactly the paper's axes.
pub fn fig15(windows: &[usize], requests_per_cpu: usize) -> Figure {
    let mut fig = Figure::new(
        "fig15",
        "Load test: max outstanding memory references",
        "bandwidth (MB/s)",
        "latency (ns)",
    );
    fig.series
        .extend(parallel_map(vec![16usize, 32, 64], |cpus| {
            let m = Gs1280::builder().cpus(cpus).build();
            Series {
                label: format!("GS1280/{cpus}P"),
                points: latency_vs_bandwidth_gs1280(
                    &m,
                    windows,
                    requests_per_cpu,
                    TrafficPattern::UniformRemote,
                )
                .into_iter()
                .map(|(x, y)| crate::types::Point { x, y })
                .collect(),
            }
        }));
    fig.series.extend(parallel_map(vec![16usize, 32], |cpus| {
        let m = Gs320::new(cpus);
        let pts = parallel_map(windows.to_vec(), |w| {
            let r = gs320_load_test(&m).run(&LoadTestConfig {
                outstanding: w,
                requests_per_cpu,
                pattern: TrafficPattern::UniformRemote,
                ..Default::default()
            });
            (r.delivered_gbps * 1000.0, r.mean_latency.as_ns())
        });
        Series::from_pairs(format!("GS320/{cpus}P"), pts)
    }));
    fig
}

/// Reproduce Fig. 18: the 8-CPU load test on the plain torus vs the shuffle
/// with 1-hop and 2-hop routing policies.
pub fn fig18(windows: &[usize], requests_per_cpu: usize) -> Figure {
    let mut fig = Figure::new(
        "fig18",
        "Shuffle improvements (8-CPU load test)",
        "bandwidth (MB/s)",
        "latency (ns)",
    );
    let variants: [(&str, Option<RoutePolicy>); 3] = [
        ("current (torus)", None),
        ("shuffle", Some(RoutePolicy::ShuffleFirstHop)),
        ("shuffle_2hop", Some(RoutePolicy::ShuffleFirstTwoHops)),
    ];
    fig.series
        .extend(parallel_map(variants.to_vec(), |(label, policy)| {
            let mut b = Gs1280::builder().cpus(8);
            if let Some(p) = policy {
                b = b.shuffle(p);
            }
            let m = b.build();
            Series::from_pairs(
                label,
                latency_vs_bandwidth_gs1280(
                    &m,
                    windows,
                    requests_per_cpu,
                    TrafficPattern::UniformRemote,
                ),
            )
        }));
    fig
}

/// Reproduce Fig. 26: hot-spot latency vs bandwidth, striped vs non-striped
/// (all CPUs read CPU 0's memory; striping spreads it over the module
/// pair).
pub fn fig26(windows: &[usize], requests_per_cpu: usize) -> Figure {
    let m = Gs1280::builder().cpus(16).build();
    let partner = 4; // (0,1) is node 0's module partner in the 4x4 layout
    let mut fig = Figure::new(
        "fig26",
        "Hot-spot improvement from striping",
        "bandwidth (MB/s)",
        "latency (ns)",
    );
    let patterns = vec![
        ("non-striped", TrafficPattern::HotSpot(0)),
        ("striped", TrafficPattern::StripedHotSpot(0, partner)),
    ];
    fig.series
        .extend(parallel_map(patterns, |(label, pattern)| {
            Series::from_pairs(
                label,
                latency_vs_bandwidth_gs1280(&m, windows, requests_per_cpu, pattern),
            )
        }));
    fig
}

/// Reproduce Fig. 27: run hot-spot traffic and render the Xmesh display —
/// Zbox, IP-link and I/O utilization panels over the run's span, then the
/// §6 hot-spot verdict on the Zbox grid.
pub fn fig27(requests_per_cpu: usize) -> String {
    let m = Gs1280::builder().cpus(16).build();
    let r = gs1280_load_test(&m).run(&LoadTestConfig {
        outstanding: 8,
        requests_per_cpu,
        pattern: TrafficPattern::HotSpot(0),
        ..Default::default()
    });
    let elapsed = r.elapsed.as_ps();
    // Every node of the healthy torus sends on the same number of links.
    let links = m.fabric().ports(NodeId::new(0)).len() as u64;
    // The load test drives no I/O: that panel stays idle.
    let io = Heatmap::new(r.zbox_busy.cols(), r.zbox_busy.rows());
    let mut body = String::new();
    for (title, grid, capacity) in [
        ("Zbox utilization (%)", &r.zbox_busy, elapsed),
        ("IP-link utilization (%)", &r.link_busy, links * elapsed),
        ("I/O utilization (%)", &io, elapsed),
    ] {
        body.push_str(&grid.percent_panel(title, capacity));
        body.push('\n');
    }
    let report = r.zbox_busy.hot_spots(elapsed);
    body.push_str(&format!(
        "hot spots detected at: {:?} (background Zbox {:.1}%)\n",
        report.hot_nodes,
        report.background * 100.0
    ));
    body
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_windows() -> Vec<usize> {
        vec![1, 4, 12, 30]
    }

    #[test]
    fn fig15_shapes() {
        let fig = fig15(&quick_windows(), 40);
        assert_eq!(fig.series.len(), 5);
        // GS1280/64P reaches far more bandwidth than GS320/32P.
        let g64 = fig.series_like("GS1280/64P").unwrap();
        let q32 = fig.series_like("GS320/32P").unwrap();
        let g_peak_bw = g64.points.iter().map(|p| p.x).fold(0.0, f64::max);
        let q_peak_bw = q32.points.iter().map(|p| p.x).fold(0.0, f64::max);
        assert!(
            g_peak_bw > 8.0 * q_peak_bw,
            "GS1280 {g_peak_bw} vs GS320 {q_peak_bw}"
        );
        // GS320's latency blows up under load, GS1280's stays flatter.
        let g_lat_rise = g64.points.last().unwrap().y / g64.points[0].y;
        let q_lat_rise = q32.points.last().unwrap().y / q32.points[0].y;
        assert!(q_lat_rise > g_lat_rise, "{q_lat_rise} vs {g_lat_rise}");
    }

    #[test]
    fn fig18_shuffle_beats_torus() {
        let fig = fig18(&quick_windows(), 40);
        let torus = fig.series_like("current").unwrap();
        let shuffle = fig.series_like("shuffle").unwrap();
        // At the same window, shuffle delivers at least as much bandwidth
        // at no more latency (5-25% gain per the paper).
        let t_peak = torus.points.iter().map(|p| p.x).fold(0.0, f64::max);
        let s_peak = shuffle.points.iter().map(|p| p.x).fold(0.0, f64::max);
        assert!(s_peak > t_peak * 1.02, "shuffle {s_peak} vs torus {t_peak}");
    }

    #[test]
    fn fig26_striping_helps_hot_spot() {
        let fig = fig26(&quick_windows(), 40);
        // NB: series_like("striped") would also match "non-striped".
        let plain = &fig.series[0];
        let striped = &fig.series[1];
        let p_peak = plain.points.iter().map(|p| p.x).fold(0.0, f64::max);
        let s_peak = striped.points.iter().map(|p| p.x).fold(0.0, f64::max);
        // "up to 80%" improvement; we demand at least 25%.
        assert!(s_peak > 1.25 * p_peak, "striped {s_peak} plain {p_peak}");
    }

    #[test]
    fn fig27_xmesh_flags_node_zero() {
        let body = fig27(60);
        assert!(
            body.ends_with("hot spots detected at: [0] (background Zbox 0.0%)\n"),
            "{body}"
        );
        // Node 0's Zbox cell reads at least 30%; no other Zbox is busy.
        let zbox_row = body.lines().nth(2).unwrap();
        let hot: f64 = zbox_row[1..4].trim().parse().unwrap();
        assert!(hot >= 30.0, "{zbox_row}");
        assert!(zbox_row.ends_with("|  0%  |  0%  |  0%  |"), "{zbox_row}");
    }
}
