//! Sequential vs region-parallel stepping on the one epoch engine: the cost
//! and the payoff.
//!
//! * **Epoch engine crossover** — the conservative [`EpochExecutor`] at one
//!   shard (an ordinary sequential simulation: one heap, an unbounded
//!   lookahead) against four shards on the same synthetic workload, with a
//!   per-event compute knob. At zero compute the barrier/channel overhead
//!   dominates and the single shard wins; as per-event work grows the
//!   threaded epochs cross over. The `cost` parameter in the bench name is
//!   the spin count — compare `epochs_1shard_1thread` against
//!   `epochs_4shards_4threads` at each cost to locate the crossover point
//!   on the host at hand. The `4shards_1thread` rows isolate the pure epoch
//!   machinery; the `4threads` rows additionally carry the pool's channel
//!   round-trips, so on a single-core host they can only lose — run this
//!   bench on a multi-core machine to see the crossover (with 4 cores it
//!   sits between `cost64` and `cost512` for this workload shape).
//!
//! * **Closed-loop crossover** — the real thing: a resilience-shaped
//!   [`FaultCampaignConfig`] (bisection traffic, mid-run link cuts, retry
//!   machinery live) on the epoch engine at threads × shards combinations.
//!   `1threads_1shard` is the committed sweep's configuration;
//!   `1threads_4shards` isolates epoch-batched stepping on one core; the
//!   multi-thread rows locate the closed loop's crossover on the host.

// Test/harness code may unwrap freely; the workspace denies it in libraries.
#![allow(clippy::unwrap_used)]

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use alphasim::kernel::shard::{EpochExecutor, Outbox, ShardWorker};
use alphasim::kernel::{DetRng, FaultKind, FaultPlan, SimDuration, SimTime};
use alphasim::system::{gs1280_fault_campaign, CampaignPattern, FaultCampaignConfig, Gs1280};

const NODES: u32 = 64;
const HOP: u64 = 500; // intra-region follow-up delay, ps
const LOOKAHEAD: u64 = 20_500; // cross-region horizon, ps (a board hop)

/// Deterministic per-event compute: `cost` xorshift rounds.
fn spin(seed: u64, cost: u32) -> u64 {
    let mut x = seed | 1;
    for _ in 0..cost {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    x
}

/// The synthetic event: (node, remaining hops, message id).
type Hop = (u32, u32, u64);

/// Advance a hop: burn `cost` compute, then forward the message seven nodes
/// on (mod the fabric) until its hop budget is spent. Returns the follow-up
/// event and the absolute time it must fire at, given the emitting region's
/// shard count (cross-region sends wait out the lookahead horizon).
fn next_hop(
    at: SimTime,
    ev: Hop,
    cost: u32,
    shards: u32,
    acc: &mut u64,
) -> Option<(usize, SimTime, u64, Hop)> {
    let (node, remaining, msg) = ev;
    *acc ^= spin(msg.wrapping_add(u64::from(node)), cost);
    if remaining == 0 {
        return None;
    }
    let next = (node + 7) % NODES;
    let (home, dest) = (node * shards / NODES, next * shards / NODES);
    let delay = if home == dest { HOP } else { LOOKAHEAD };
    let tiebreak = msg * 1_000 + u64::from(remaining);
    Some((
        dest as usize,
        at + SimDuration::from_ps(delay),
        tiebreak,
        (next, remaining - 1, msg),
    ))
}

struct RegionWorker {
    shards: u32,
    cost: u32,
    acc: u64,
}

impl ShardWorker for RegionWorker {
    type Event = Hop;

    fn handle(&mut self, at: SimTime, ev: Hop, out: &mut Outbox<Hop>) {
        if let Some((dest, when, tiebreak, next)) =
            next_hop(at, ev, self.cost, self.shards, &mut self.acc)
        {
            out.emit(dest, when, tiebreak, next);
        }
    }
}

/// The same workload through the conservative epoch engine.
fn epoch_run(msgs: u64, hops: u32, cost: u32, shards: u32, threads: usize) -> u64 {
    let workers = (0..shards)
        .map(|_| RegionWorker {
            shards,
            cost,
            acc: 0,
        })
        .collect();
    // One shard never emits across regions, so its horizon is unbounded:
    // the whole run is one epoch, exactly a sequential simulation.
    let lookahead = if shards == 1 { 1 << 62 } else { LOOKAHEAD };
    let mut exec = EpochExecutor::new(workers, SimDuration::from_ps(lookahead), threads);
    let mut rng = DetRng::seeded(9);
    for m in 0..msgs {
        let node = rng.index(NODES as usize) as u32;
        exec.seed(
            (node * shards / NODES) as usize,
            SimTime::from_ps(m * 11),
            m,
            (node, hops, m),
        );
    }
    exec.run_until_idle();
    exec.into_workers().iter().fold(0, |a, w| a ^ w.acc)
}

/// One real closed-loop resilience-shaped campaign on the epoch engine:
/// bisection mirror traffic on an 8x8 GS1280 torus, two bisection links cut
/// mid-run, the full retry/watchdog machinery live. This is the production
/// path the `resilience` and `chaos` artifacts run on, so this bench — not
/// the synthetic crossover above — is where the closed loop's threads ×
/// shards speedup (or single-core overhead) is tracked.
fn campaign_run(threads: usize, shards: usize, requests: usize) -> u64 {
    let machine = Gs1280::builder().cpus(64).build();
    let campaign = gs1280_fault_campaign(&machine);
    let mut plan = FaultPlan::new();
    plan.push(
        SimTime::ZERO + SimDuration::from_ns(400.0),
        FaultKind::LinkDown { a: 3, b: 4 },
    );
    plan.push(
        SimTime::ZERO + SimDuration::from_ns(800.0),
        FaultKind::LinkDown { a: 11, b: 12 },
    );
    let cfg = FaultCampaignConfig {
        outstanding: 2,
        requests_per_cpu: requests,
        pattern: CampaignPattern::Bisection,
        plan,
        shards,
        threads,
        ..FaultCampaignConfig::default()
    };
    campaign.run(&cfg).completed
}

fn bench_closed_loop_crossover(c: &mut Criterion) {
    let mut g = c.benchmark_group("sharding");
    let requests = 25usize;
    g.throughput(Throughput::Elements(64 * requests as u64));
    for (threads, shards) in [(1usize, 1usize), (1, 4), (2, 4), (4, 4)] {
        g.bench_function(
            format!("closed_loop_resilience_{threads}threads_{shards}shards"),
            |b| b.iter(|| black_box(campaign_run(threads, shards, requests))),
        );
    }
    g.finish();
}

fn bench_epoch_crossover(c: &mut Criterion) {
    let mut g = c.benchmark_group("sharding");
    let (msgs, hops) = (64u64, 40u32);
    g.throughput(Throughput::Elements(msgs * u64::from(hops + 1)));
    // cost 0: pure stepping overhead. cost 4096: multi-µs events, the
    // regime where threaded epochs pay off.
    for cost in [0u32, 64, 512, 4096] {
        g.bench_function(format!("epochs_1shard_1thread_cost{cost}"), |b| {
            b.iter(|| black_box(epoch_run(msgs, hops, cost, 1, 1)))
        });
        g.bench_function(format!("epochs_4shards_1thread_cost{cost}"), |b| {
            b.iter(|| black_box(epoch_run(msgs, hops, cost, 4, 1)))
        });
        g.bench_function(format!("epochs_4shards_4threads_cost{cost}"), |b| {
            b.iter(|| black_box(epoch_run(msgs, hops, cost, 4, 4)))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_epoch_crossover, bench_closed_loop_crossover);
criterion_main!(benches);
