//! Performance benchmarks of the simulator substrates themselves: event
//! throughput, cache access rate, routing table construction, network
//! events per second. These are about the *simulator's* speed — what an
//! adopter sizing a bigger study cares about.

// Test/harness code may unwrap freely; the workspace denies it in libraries.
#![allow(clippy::unwrap_used)]

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;

use alphasim::cache::{Addr, CacheGeometry, SetAssocCache};
use alphasim::coherence::{AccessKind, Directory};
use alphasim::kernel::shard::{EpochExecutor, Outbox, ShardWorker};
use alphasim::kernel::{DetRng, SimDuration, SimTime};
use alphasim::mem::{Zbox, ZboxConfig};
use alphasim::net::partition::{FabricTables, OpenLoop};
use alphasim::net::{LinkTiming, MessageClass};
use alphasim::topology::route::{RoutePolicy, Routes};
use alphasim::topology::{NodeId, Torus2D};

/// Counts events; with a budget left, each event re-emits itself a
/// pseudo-random delay later (the steady-state churn of link and arrival
/// events).
struct Churn {
    fired: u64,
    budget: u64,
    rng: DetRng,
}

impl ShardWorker for Churn {
    type Event = u64;

    fn handle(&mut self, at: SimTime, ev: u64, out: &mut Outbox<u64>) {
        self.fired += 1;
        if self.budget > 0 {
            self.budget -= 1;
            let delay = SimDuration::from_ps(1 + self.rng.bits() % 1_000);
            out.emit(0, at + delay, ev, ev);
        }
    }
}

/// A one-shard executor (the sequential engine: unbounded lookahead)
/// seeded with `seeds` events spread over `spread` picoseconds, each
/// allowed `budget` re-emissions in total.
fn one_shard(seeds: u64, spread: u64, budget: u64) -> EpochExecutor<Churn> {
    let worker = Churn {
        fired: 0,
        budget,
        rng: DetRng::seeded(6),
    };
    let mut exec = EpochExecutor::new(vec![worker], SimDuration::from_ps(1 << 62), 1);
    let mut rng = DetRng::seeded(1);
    for i in 0..seeds {
        exec.seed(0, SimTime::from_ps(rng.bits() % spread), i, i);
    }
    exec
}

/// The 8x8 EV7 torus open-loop driver, one region.
fn open_8x8() -> OpenLoop {
    OpenLoop::new(FabricTables::new(
        &Torus2D::new(8, 8),
        LinkTiming::ev7_torus(),
        RoutePolicy::Minimal,
        1,
    ))
}

fn bench_kernel(c: &mut Criterion) {
    let mut g = c.benchmark_group("substrate");
    g.throughput(Throughput::Elements(10_000));
    g.bench_function("event_heap_10k_seed_run", |b| {
        b.iter(|| {
            let mut exec = one_shard(10_000, 1_000_000_000, 0);
            exec.run_until_idle();
            black_box(exec.worker(0).fired)
        })
    });

    // Reference point for the engine's 4-ary event heap: the same workload
    // through std's binary heap. Lets a single-core run quantify the
    // kernel-level speedup directly.
    g.throughput(Throughput::Elements(10_000));
    g.bench_function("event_heap_10k_binary_heap_reference", |b| {
        b.iter(|| {
            let mut q: BinaryHeap<Reverse<(SimTime, u64, u64)>> = BinaryHeap::new();
            let mut rng = DetRng::seeded(1);
            for i in 0..10_000u64 {
                q.push(Reverse((
                    SimTime::from_ps(rng.bits() % 1_000_000_000),
                    i,
                    i,
                )));
            }
            let mut count = 0u64;
            while q.pop().is_some() {
                count += 1;
            }
            black_box(count)
        })
    });

    // Steady-state churn: a ~1k-deep heap with one emission per event,
    // the shape the fabric actually produces.
    g.throughput(Throughput::Elements(100_000));
    g.bench_function("event_heap_100k_sliding_window", |b| {
        b.iter(|| {
            let mut exec = one_shard(1_000, 1_000, 100_000);
            exec.run_until_idle();
            black_box(exec.worker(0).fired)
        })
    });

    g.throughput(Throughput::Elements(100_000));
    g.bench_function(
        "event_heap_100k_sliding_window_binary_heap_reference",
        |b| {
            b.iter(|| {
                let mut q: BinaryHeap<Reverse<(SimTime, u64, u64)>> = BinaryHeap::new();
                let mut rng = DetRng::seeded(6);
                for i in 0..1_000u64 {
                    q.push(Reverse((SimTime::from_ps(rng.bits() % 1_000), i, i)));
                }
                let mut count = 0u64;
                for i in 0..100_000u64 {
                    let Reverse((t, _, _)) = q.pop().expect("window stays populated");
                    q.push(Reverse((
                        SimTime::from_ps(t.as_ps() + 1 + rng.bits() % 1_000),
                        i,
                        i,
                    )));
                    count += 1;
                }
                black_box((count, q.len()))
            })
        },
    );

    g.throughput(Throughput::Elements(10_000));
    g.bench_function("l2_cache_10k_accesses", |b| {
        b.iter(|| {
            let mut cache = SetAssocCache::new(CacheGeometry::ev7_l2());
            let mut rng = DetRng::seeded(2);
            for _ in 0..10_000 {
                cache.access(Addr::new(rng.bits() % (8 << 20)));
            }
            black_box(cache.misses())
        })
    });

    g.throughput(Throughput::Elements(10_000));
    g.bench_function("zbox_10k_accesses", |b| {
        b.iter(|| {
            let mut z = Zbox::new(ZboxConfig::ev7());
            let mut now = SimTime::ZERO;
            let mut rng = DetRng::seeded(3);
            for _ in 0..10_000 {
                now = z
                    .access(now, Addr::new(rng.bits() % (1 << 30)), 64)
                    .completed;
            }
            black_box(z.accesses())
        })
    });

    g.throughput(Throughput::Elements(10_000));
    g.bench_function("directory_10k_random_ops", |b| {
        b.iter(|| {
            let mut dir = Directory::new();
            let mut rng = DetRng::seeded(4);
            for _ in 0..10_000 {
                let cpu = rng.index(64);
                let line = rng.bits() % 4096;
                let kind = if rng.chance(0.3) {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                dir.access((line % 64) as usize, cpu, line, kind);
            }
            black_box(dir.stats().writes)
        })
    });

    g.bench_function("routes_8x8_minimal", |b| {
        b.iter(|| black_box(Routes::compute(&Torus2D::new(8, 8), RoutePolicy::Minimal)))
    });

    // The network hot path — routing, arbitration, hop arithmetic and the
    // event heap — through the open-loop driver.
    g.throughput(Throughput::Elements(1_000));
    g.bench_function("network_1k_messages_8x8", |b| {
        b.iter(|| {
            let mut net = open_8x8();
            let mut rng = DetRng::seeded(5);
            for i in 0..1_000u64 {
                let src = rng.index(64);
                let dst = rng.index_excluding(64, src);
                net.send(
                    SimTime::ZERO,
                    NodeId::new(src),
                    NodeId::new(dst),
                    MessageClass::Request,
                    80,
                    i,
                );
            }
            black_box(net.drain().len())
        })
    });

    // Wave traffic with drains between waves: exercises the region slab's
    // free list (it stays one wave deep instead of growing 20×).
    g.throughput(Throughput::Elements(2_000));
    g.bench_function("network_20_waves_of_100_messages_8x8", |b| {
        b.iter(|| {
            let mut net = open_8x8();
            let mut delivered = 0;
            let mut rng = DetRng::seeded(7);
            for wave in 0..20u64 {
                for i in 0..100u64 {
                    let src = rng.index(64);
                    let dst = rng.index_excluding(64, src);
                    net.send(
                        net.now(),
                        NodeId::new(src),
                        NodeId::new(dst),
                        MessageClass::Request,
                        80,
                        wave * 100 + i,
                    );
                }
                delivered += net.drain().len();
            }
            black_box(delivered)
        })
    });
    g.finish();
}

criterion_group!(benches, bench_kernel);
criterion_main!(benches);
