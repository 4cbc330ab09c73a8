//! Golden-value regression tests: the headline numbers EXPERIMENTS.md
//! quotes, pinned exactly. Every value here is deterministic; if a
//! calibration or model change moves one, this suite names it so
//! EXPERIMENTS.md can be regenerated consciously rather than drifting.

// Test/harness code may unwrap freely; the workspace denies it in libraries.
#![allow(clippy::unwrap_used)]

use alphasim::experiments::memory::LatencyMachine;
use alphasim::experiments::{apps, latency, network, stream, summary};
use alphasim::system::loadtest::{gs1280_load_test, gs320_load_test, LoadTestConfig};
use alphasim::system::{Es45, Gs1280, Gs320};
use alphasim::topology::route::RoutePolicy;
use alphasim::topology::table1::shuffle_gains;
use alphasim::topology::NodeId;

#[test]
fn pinned_local_latencies() {
    let g = Gs1280::builder().cpus(16).build();
    assert_eq!(g.local_latency(true).as_ns(), 83.0);
    assert_eq!(g.local_latency(false).as_ns(), 130.0);
    assert_eq!(Gs320::new(16).local_latency(true).as_ns(), 330.0);
    assert_eq!(Es45::new(4).local_latency(true).as_ns(), 185.0);
}

/// Figs. 4–5 points, one per regime, equal bit for bit to the committed
/// `results/fig04.json` / `results/fig05.json` (60,000 measured loads, as
/// the full-effort sweep runs them).
#[test]
fn pinned_dependent_load_points() {
    let (g, e, q) = (
        LatencyMachine::gs1280(),
        LatencyMachine::es45(),
        LatencyMachine::gs320(),
    );
    let points = [
        ("L1", g, 4 << 10, 64, 2.6),
        ("EV7 L2", g, 512 << 10, 64, 10.4),
        ("ES45 B-cache", e, 16 << 20, 64, 24.0),
        ("GS320 B-cache", q, 16 << 20, 64, 24.0),
        ("GS1280 memory", g, 32 << 20, 64, 84.468),
        ("ES45 memory", e, 32 << 20, 64, 185.234),
        ("GS320 memory", q, 32 << 20, 64, 330.39),
        ("stride 16 KB closed page", g, 8 << 20, 16_384, 130.0),
        ("stride 16 KB open page", g, 4 << 20, 16_384, 83.0),
        ("stride 4 in L2", g, 1 << 20, 4, 3.087),
        ("stride 4 in memory", g, 4 << 20, 4, 7.625),
    ];
    for (regime, m, size, stride, committed) in points {
        let ns = m.dependent_load_ns(size, stride, 60_000);
        assert_eq!(
            ns, committed,
            "{regime}: {} {size} B stride {stride}",
            m.name
        );
    }
}

/// Load-test points equal bit for bit to the committed `results/fig15.json`,
/// `fig18.json` and `fig24.json` (200 reads per CPU, as the full-effort
/// sweep runs them): `(bandwidth MB/s, latency ns)` per point, and the
/// Xmesh samples of the GUPS run.
#[test]
fn pinned_load_test_points() {
    let point = |r: alphasim::system::loadtest::LoadTestResult| {
        (r.delivered_gbps * 1000.0, r.mean_latency.as_ns())
    };
    let cfg = |outstanding| LoadTestConfig {
        outstanding,
        requests_per_cpu: 200,
        ..Default::default()
    };
    let g16 = Gs1280::builder().cpus(16).build();
    let q16 = Gs320::new(16);
    let shuffle8 = Gs1280::builder()
        .cpus(8)
        .shuffle(RoutePolicy::ShuffleFirstHop)
        .build();
    let points = [
        (
            "fig15 GS1280/16P window 1",
            point(gs1280_load_test(&g16).run(&cfg(1))),
            (4255.785244432002, 273.273),
        ),
        (
            "fig15 GS1280/16P window 30",
            point(gs1280_load_test(&g16).run(&cfg(30))),
            (38018.04223418372, 637.549),
        ),
        (
            "fig15 GS320/16P window 8",
            point(gs320_load_test(&q16).run(&cfg(8))),
            (1175.6264171522057, 3926.376),
        ),
        (
            "fig18 shuffle window 4",
            point(gs1280_load_test(&shuffle8).run(&cfg(4))),
            (9589.536916205334, 247.342),
        ),
    ];
    for (what, got, committed) in points {
        assert_eq!(got, committed, "{what}");
    }
    let fig24 = apps::fig24(200);
    let samples = |label: &str| -> Vec<(f64, f64)> {
        let s = fig24.series_like(label).unwrap();
        s.points.iter().map(|p| (p.x, p.y)).collect()
    };
    assert_eq!(
        samples("memory controller"),
        [
            (2000.0, 13.544059374999998),
            (4000.0, 10.430389062500002),
            (6000.0, 9.674328125000004),
            (8000.0, 7.357367187500002),
            (10000.0, 8.284151562500002),
        ]
    );
    assert_eq!(
        samples("average East/West"),
        [
            (2000.0, 78.4483),
            (4000.0, 66.4678),
            (6000.0, 61.0803),
            (8000.0, 47.9818),
            (10000.0, 53.0214),
        ]
    );
}

#[test]
fn pinned_fig13_exact_cells() {
    let grid = latency::fig13();
    // The cells our calibration reproduces exactly (12 of 16).
    let exact = [
        (0, 0, 83.0),
        (1, 0, 145.0),
        (2, 0, 186.0),
        (3, 0, 154.0),
        (0, 1, 139.0),
        (2, 1, 221.0),
        (0, 3, 154.0),
        (1, 2, 221.0),
    ];
    for (x, y, want) in exact {
        assert_eq!(grid[y][x], want, "cell ({x},{y})");
    }
}

#[test]
fn pinned_table1_exact_rows() {
    let g42 = shuffle_gains(4, 2);
    assert_eq!(g42.torus, (12.0 / 7.0, 3, 4));
    assert_eq!(g42.shuffle, (10.0 / 7.0, 2, 8));
    let g44 = shuffle_gains(4, 4);
    assert_eq!(g44.torus.1, 4);
    assert_eq!(g44.shuffle.1, 3);
    assert_eq!(g44.torus.2, 8);
    assert_eq!(g44.shuffle.2, 8);
}

#[test]
fn pinned_stream_values() {
    let fig = stream::fig07();
    let y = |label: &str, x: f64| fig.series_like(label).unwrap().y_at(x).unwrap();
    assert!((y("GS1280", 1.0) - 4.43).abs() < 0.05);
    assert!((y("GS1280", 4.0) - 17.72).abs() < 0.2);
    assert!((y("ES45", 1.0) - 2.08).abs() < 0.05);
    assert!((y("GS320", 1.0) - 0.58).abs() < 0.05);
}

#[test]
fn pinned_remote_latency_structure() {
    let g = Gs1280::builder().cpus(64).build();
    // 8x8 torus: the diameter pair is 4+4 hops away.
    let far = g.read_clean(NodeId::new(0), NodeId::new(36));
    assert!((far.as_ns() - (83.0 + 21.0 + 2.0 * 8.0 * 21.0)).abs() < 35.0);
    let q = Gs320::new(32);
    assert!((q.read_clean(NodeId::new(0), NodeId::new(31)).as_ns() - 760.0).abs() < 5.0);
}

#[test]
fn pinned_fig28_component_rows() {
    let t = summary::fig28(30);
    let row = |label: &str| {
        t.rows
            .iter()
            .find(|r| r.label.starts_with(label))
            .unwrap()
            .computed
    };
    assert!((row("CPU speed") - 1.15 / 1.22).abs() < 1e-9);
    assert!((row("memory latency (local)") - 330.0 / 83.0).abs() < 0.02);
    assert!((row("I/O bandwidth (32P)") - 8.27).abs() < 0.05);
}

/// Fig. 27 at full effort (200 reads/CPU): the Zbox, IP-link and I/O
/// panels and the hot-spot verdict, byte for byte as committed.
#[test]
fn pinned_fig27_panel() {
    let committed = serde_json::from_str(include_str!("../results/fig27.json")).unwrap();
    let text = committed.get("text").and_then(|t| t.as_str()).unwrap();
    assert_eq!(network::fig27(200), text);
}
