//! Integration tests asserting the paper's headline claims end-to-end,
//! across all crates — the validation targets listed in DESIGN.md §5.

// Test/harness code may unwrap freely; the workspace denies it in libraries.
#![allow(clippy::unwrap_used)]

use alphasim::experiments::{apps, latency, memory, network, spec, stream, summary};
use alphasim::workloads::spec::Suite;

/// §3.1 / Fig. 4: "GS1280 has 3.8 times lower dependent-load memory latency
/// (32MB size) than the previous-generation GS320", with the 1.75–16 MB
/// band going the other way.
#[test]
fn fig04_crossover_structure() {
    let g = memory::LatencyMachine::gs1280();
    let q = memory::LatencyMachine::gs320();
    let at_32m =
        q.dependent_load_ns(32 << 20, 64, 30_000) / g.dependent_load_ns(32 << 20, 64, 30_000);
    assert!((3.2..=4.4).contains(&at_32m), "32MB advantage {at_32m}");
    // In the 8 MB band the GS320's 16 MB B-cache wins.
    let g8 = g.dependent_load_ns(8 << 20, 64, 30_000);
    let q8 = q.dependent_load_ns(8 << 20, 64, 30_000);
    assert!(q8 < g8, "GS320 must win at 8MB: {q8} vs {g8}");
}

/// §3.1 / Figs. 4–5 at 32 MB: the paper's dependent-load anchors, each
/// printed with its deviation and held within 5%.
#[test]
fn dependent_load_anchors_at_32mb() {
    let g = memory::LatencyMachine::gs1280();
    let q = memory::LatencyMachine::gs320();
    let ns = |m: &memory::LatencyMachine, stride| m.dependent_load_ns(32 << 20, stride, 60_000);
    let open = ns(&g, 64);
    let anchors = [
        ("GS1280 open page (ns)", 83.0, open),
        (
            "GS1280 closed page, stride 16 KB (ns)",
            130.0,
            ns(&g, 16_384),
        ),
        ("GS320 : GS1280 latency", 3.8, ns(&q, 64) / open),
    ];
    let mut worst = 0.0f64;
    for (anchor, paper, model) in anchors {
        let dev = (model - paper) / paper * 100.0;
        println!("{anchor}: paper {paper}, model {model:.3}, {dev:+.1}%");
        assert!(
            dev.abs() <= 5.0,
            "{anchor}: {model} vs paper {paper} ({dev:+.1}%)"
        );
        worst = worst.max(dev.abs());
    }
    println!("worst deviation {worst:.1}%");
}

/// §3.4 / Figs. 12–13: 4x average latency advantage, 6.6x read-dirty, and
/// the measured latency map.
#[test]
fn remote_latency_claims() {
    let (clean, dirty) = latency::fig12_ratios();
    assert!((3.0..=4.6).contains(&clean));
    assert!((5.0..=8.0).contains(&dirty));
    let grid = latency::fig13();
    assert_eq!(grid[0][0], 83.0);
    assert!((grid[2][2] - 259.0).abs() < 10.0);
}

/// §3.2 / Figs. 6–7: bandwidth levels and linear GS1280 scaling.
#[test]
fn stream_claims() {
    let f7 = stream::fig07();
    let g1 = f7.series_like("GS1280").unwrap().y_at(1.0).unwrap();
    let q1 = f7.series_like("GS320").unwrap().y_at(1.0).unwrap();
    assert!((6.0..=10.0).contains(&(g1 / q1)), "1P ratio {}", g1 / q1);
    let f6 = stream::fig06();
    let g = f6.series_like("GS1280").unwrap();
    assert!(g.y_at(64.0).unwrap() > 200.0, "64P aggregate");
}

/// §3.3: swim's cross-machine ratios and the facerec/ammp inversions,
/// through the full experiment driver.
#[test]
fn ipc_claims() {
    let fig = spec::ipc_figure(Suite::Fp);
    let names = spec::benchmark_names(Suite::Fp);
    let swim = names.iter().position(|&n| n == "swim").unwrap() as f64;
    let facerec = names.iter().position(|&n| n == "facerec").unwrap() as f64;
    let g = fig.series_like("GS1280").unwrap();
    let e = fig.series_like("ES45").unwrap();
    let q = fig.series_like("GS320").unwrap();
    assert!(g.y_at(swim).unwrap() / e.y_at(swim).unwrap() > 1.8);
    assert!(g.y_at(swim).unwrap() / q.y_at(swim).unwrap() > 3.0);
    assert!(e.y_at(facerec).unwrap() > g.y_at(facerec).unwrap());
}

/// §4 / Fig. 15: the GS1280 sustains much more load than the GS320 at far
/// flatter latency.
#[test]
fn load_test_claims() {
    let fig = network::fig15(&[1, 8, 30], 60);
    let g = fig.series_like("GS1280/64P").unwrap();
    let q = fig.series_like("GS320/32P").unwrap();
    let g_bw = g.points.iter().map(|p| p.x).fold(0.0, f64::max);
    let q_bw = q.points.iter().map(|p| p.x).fold(0.0, f64::max);
    assert!(g_bw > 8.0 * q_bw);
    // GS320 latency at its top load exceeds 2 microseconds in the paper;
    // demand a steep rise at least.
    let q_rise = q.points.last().unwrap().y / q.points[0].y;
    assert!(q_rise > 2.0, "GS320 latency rise {q_rise}");
}

/// §4.1 / Table 1 + Fig. 18: the shuffle's analytic and measured gains.
#[test]
fn shuffle_claims() {
    let t = summary::table1();
    // 4x2 exact; bisection column exact everywhere.
    for r in &t.rows {
        if r.label.contains("bisection") {
            assert!((r.computed - r.paper.unwrap()).abs() < 1e-9, "{}", r.label);
        }
    }
    let fig = network::fig18(&[1, 8, 30], 60);
    let torus_peak = fig.series[0].points.iter().map(|p| p.x).fold(0.0, f64::max);
    let shuffle_peak = fig.series[1].points.iter().map(|p| p.x).fold(0.0, f64::max);
    assert!(shuffle_peak > torus_peak);
}

/// §5.3 / Fig. 23: over 10x GUPS advantage at 32P.
#[test]
fn gups_claim() {
    let g = apps::gups_mups_gs1280(32, 60);
    let q = apps::gups_mups_gs320(32, 60);
    assert!(g > 10.0 * q, "GUPS: {g} vs {q}");
}

/// §6 / Figs. 25–26: striping hurts throughput workloads 10–30% and helps
/// hot spots.
#[test]
fn striping_claims() {
    let f25 = spec::fig25();
    let worst = f25.series[0].peak_y();
    assert!((0.10..=0.45).contains(&worst), "worst degradation {worst}");
    let f26 = network::fig26(&[4, 16, 30], 60);
    let plain = f26.series[0].points.iter().map(|p| p.x).fold(0.0, f64::max);
    let striped = f26.series[1].points.iter().map(|p| p.x).fold(0.0, f64::max);
    assert!(striped > 1.25 * plain);
}

/// §7 / Fig. 28: the summary table's structure — majority of rows > 1,
/// biggest wins on IP bandwidth / GUPS.
#[test]
fn summary_claims() {
    let t = summary::fig28(60);
    assert!(t.rows.len() >= 20, "{} rows", t.rows.len());
    let above_one = t.rows.iter().filter(|r| r.computed > 1.0).count();
    assert!(above_one >= t.rows.len() - 3);
    let ip = t
        .rows
        .iter()
        .find(|r| r.label.contains("Inter-Processor"))
        .unwrap();
    assert!(ip.computed > 8.0);
}
