//! Whole-experiment determinism: every figure driver produces bit-identical
//! output across runs (the property that makes EXPERIMENTS.md's numbers
//! reproducible on any machine).

// Test/harness code may unwrap freely; the workspace denies it in libraries.
#![allow(clippy::unwrap_used)]

use alphasim::experiments::{apps, latency, memory, network, spec, stream, summary};
use alphasim::system::loadtest::{
    gs1280_load_test, gs320_load_test, LoadTestConfig, LoadTestResult,
};
use alphasim::system::{Gs1280, Gs320};
use alphasim::workloads::spec::Suite;

#[test]
fn analytic_figures_are_deterministic() {
    assert_eq!(spec::fig01(), spec::fig01());
    assert_eq!(stream::fig06(), stream::fig06());
    assert_eq!(stream::fig07(), stream::fig07());
    assert_eq!(spec::ipc_figure(Suite::Fp), spec::ipc_figure(Suite::Fp));
    assert_eq!(latency::fig12(), latency::fig12());
    assert_eq!(latency::fig13(), latency::fig13());
    assert_eq!(latency::fig14(), latency::fig14());
    assert_eq!(spec::fig25(), spec::fig25());
    assert_eq!(summary::table1(), summary::table1());
}

#[test]
fn cache_walk_figures_are_deterministic() {
    let sizes: Vec<u64> = (12..=22).map(|p| 1u64 << p).collect();
    assert_eq!(memory::fig04(&sizes, 2_000), memory::fig04(&sizes, 2_000));
}

#[test]
fn event_driven_figures_are_deterministic() {
    let windows = [1usize, 8];
    assert_eq!(network::fig15(&windows, 30), network::fig15(&windows, 30));
    assert_eq!(network::fig18(&windows, 30), network::fig18(&windows, 30));
    assert_eq!(network::fig26(&windows, 30), network::fig26(&windows, 30));
    assert_eq!(apps::fig23(30), apps::fig23(30));
}

#[test]
fn gups_and_summary_are_deterministic() {
    let a = apps::gups_mups_gs1280(16, 30);
    let b = apps::gups_mups_gs1280(16, 30);
    assert_eq!(a, b);
    assert_eq!(summary::fig28(20), summary::fig28(20));
}

/// A load test reruns to the same result, Xmesh samples and the per-node
/// Zbox and IP-link busy grids included, and sampling changes nothing but
/// the samples.
#[test]
fn load_test_reruns_byte_identically() {
    let cfg = LoadTestConfig {
        outstanding: 8,
        requests_per_cpu: 60,
        sample_interval_ns: Some(500.0),
        ..Default::default()
    };
    let g = Gs1280::builder().cpus(16).build();
    let q = Gs320::new(16);
    let run = |cfg: &LoadTestConfig| -> [LoadTestResult; 2] {
        [gs1280_load_test(&g).run(cfg), gs320_load_test(&q).run(cfg)]
    };
    let reference = run(&cfg);
    assert!(reference.iter().all(|r| !r.samples.is_empty()));
    // Both grids hold traffic, so comparing them is not vacuous.
    assert!(reference
        .iter()
        .all(|r| r.zbox_busy.total() > 0 && r.link_busy.total() > 0));
    assert_eq!(run(&cfg), reference);
    // The sampler's barriers are invisible to the run: without them every
    // other field reads the same.
    let unsampled = run(&LoadTestConfig {
        sample_interval_ns: None,
        ..cfg
    });
    for (mut sampled, plain) in reference.into_iter().zip(unsampled) {
        assert!(plain.samples.is_empty());
        sampled.samples.clear();
        assert_eq!(sampled, plain);
    }
}
