//! Criterion benchmarks: one benchmark per registry artifact, plus
//! ablation benches for the design choices DESIGN.md calls out.
//!
//! Each `figures/<id>` benchmark's measured value is the time to
//! *regenerate* that artifact of `alphasim_bench::ARTIFACTS` at
//! `Effort::Quick`, the same build `reproduce --quick` runs.

// Test/harness code may unwrap freely; the workspace denies it in libraries.
#![allow(clippy::unwrap_used)]

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use alphasim::system::loadtest::{gs1280_load_test, LoadTestConfig, TrafficPattern};
use alphasim::system::Gs1280;
use alphasim::topology::route::RoutePolicy;
use alphasim_bench::{Effort, ARTIFACTS};

fn bench_figures(c: &mut Criterion) {
    let mut g = c.benchmark_group("figures");
    g.sample_size(10);
    for entry in ARTIFACTS {
        g.bench_function(entry.id, |b| {
            b.iter(|| black_box((entry.build)(Effort::Quick)))
        });
    }
    g.finish();
}

/// Ablations over the design choices DESIGN.md calls out: adaptive vs
/// deterministic routing, shuffle routing policies, striping on hot spots.
fn bench_ablations(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablations");
    g.sample_size(10);

    // Routing policy on the 8-CPU machine under identical load.
    for (name, policy) in [
        ("torus_minimal", None),
        ("shuffle_1hop", Some(RoutePolicy::ShuffleFirstHop)),
        ("shuffle_2hop", Some(RoutePolicy::ShuffleFirstTwoHops)),
        ("shuffle_free", Some(RoutePolicy::Minimal)),
    ] {
        g.bench_function(format!("loadtest_8p_{name}"), |b| {
            b.iter(|| {
                let mut builder = Gs1280::builder().cpus(8);
                if let Some(p) = policy {
                    builder = builder.shuffle(p);
                }
                let m = builder.build();
                let r = gs1280_load_test(&m).run(&LoadTestConfig {
                    outstanding: 12,
                    requests_per_cpu: 40,
                    ..Default::default()
                });
                black_box(r.delivered_gbps)
            })
        });
    }

    // Hot-spot traffic with and without striping.
    for (name, pattern) in [
        ("hotspot_plain", TrafficPattern::HotSpot(0)),
        ("hotspot_striped", TrafficPattern::StripedHotSpot(0, 4)),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| {
                let m = Gs1280::builder().cpus(16).build();
                let r = gs1280_load_test(&m).run(&LoadTestConfig {
                    outstanding: 12,
                    requests_per_cpu: 40,
                    pattern,
                    ..Default::default()
                });
                black_box(r.delivered_gbps)
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_figures, bench_ablations);
criterion_main!(benches);
