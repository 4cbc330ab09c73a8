//! Minimal std-only data parallelism for the figure sweep.
//!
//! The reproduction's experiments are embarrassingly parallel: every figure
//! (and every point within a size/window/CPU-count sweep) is computed by a
//! pure function of its inputs, with its own simulator instance and its own
//! deterministically-seeded RNG. [`parallel_map`] fans such work out across
//! OS threads and returns results **in input order**, so output is
//! byte-identical to a sequential run by construction.
//!
//! The worker count is resolved by [`jobs`]: an explicit [`set_jobs`] call
//! wins, then the `ALPHASIM_JOBS` environment variable, then
//! [`std::thread::available_parallelism`].
//!
//! Every `ALPHASIM_*` knob is read by one parser: unset, empty and `0`
//! mean "unset", and any other value must be a non-negative integer. A
//! malformed one (`abc`, `-1`, `2x`) is an error that names the variable
//! and the value; [`check_env`] reports it so a CLI can refuse to start,
//! and a resolver that meets it panics rather than fall back.
//!
//! Intra-run parallelism (the fabric regions the epoch engine of
//! [`crate::shard`] steps) has a separate knob, [`shards`], resolved from
//! [`set_shards`] or `ALPHASIM_SHARDS` and defaulting to 1: partitioning is
//! opt-in per run, while job fan-out is opt-out. [`WorkerPool`] is the
//! persistent thread pool behind epoch-synchronous sharded execution —
//! unlike [`parallel_map`] it keeps its threads across rounds, so a
//! simulation taking thousands of conservative epochs pays two channel
//! transfers per shard per epoch instead of a thread spawn.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};

/// Process-wide worker-count override; 0 means "auto-detect".
static JOBS_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Process-wide shard-count override; 0 means "resolve from environment".
static SHARDS_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Process-wide epoch-thread override; 0 means "resolve from environment".
static THREADS_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// The engine knobs the resolvers read from the environment.
const KNOBS: [&str; 3] = ["ALPHASIM_JOBS", "ALPHASIM_SHARDS", "ALPHASIM_THREADS"];

/// Parse the value of the engine knob `var`: empty and `0` mean unset
/// (`None`), any other value must be a non-negative integer. The error
/// names the variable and the value.
fn parse_knob(var: &str, value: &str) -> Result<Option<usize>, String> {
    if value.is_empty() {
        return Ok(None);
    }
    value
        .parse::<usize>()
        .map(|n| (n != 0).then_some(n))
        .map_err(|_| format!("{var}={value:?} is not a non-negative integer"))
}

/// The engine knob `var` from the environment; unset reads as empty.
fn env_knob(var: &str) -> Result<Option<usize>, String> {
    let value = std::env::var_os(var).unwrap_or_default();
    parse_knob(var, &value.to_string_lossy())
}

/// [`env_knob`] for a resolver, which has no way to report a malformed
/// value but refuses to run on it.
fn knob(var: &str) -> Option<usize> {
    env_knob(var).unwrap_or_else(|why| panic!("{why}"))
}

/// Check every `ALPHASIM_*` engine knob ([`jobs`], [`shards`],
/// [`threads`]) so a CLI can reject a malformed one before any resolver
/// panics on it.
pub fn check_env() -> Result<(), String> {
    KNOBS.iter().try_for_each(|var| env_knob(var).map(drop))
}

/// Force the fabric-region count every partitioned run uses (see
/// [`shards`]). `0` restores resolution from `ALPHASIM_SHARDS`.
pub fn set_shards(n: usize) {
    SHARDS_OVERRIDE.store(n, Ordering::Relaxed);
}

/// The fabric-region count for intra-run partitioned simulation (load
/// tests and fault campaigns alike): [`set_shards`],
/// else `ALPHASIM_SHARDS`, else 1 (unsharded). Unlike [`jobs`] this never
/// auto-detects from the machine: artifact output is byte-identical at any
/// shard count, but the shard count is recorded in `BENCH_sweep.json`, so
/// it defaults to a fixed, machine-independent value.
///
/// # Panics
///
/// Panics if `ALPHASIM_SHARDS` is malformed (see [`check_env`]).
pub fn shards() -> usize {
    let forced = SHARDS_OVERRIDE.load(Ordering::Relaxed);
    if forced != 0 {
        return forced;
    }
    knob("ALPHASIM_SHARDS").unwrap_or(1)
}

/// Force the pool-thread count that steps the fabric regions (see
/// [`threads`]). `0` restores resolution from `ALPHASIM_THREADS`.
pub fn set_threads(n: usize) {
    THREADS_OVERRIDE.store(n, Ordering::Relaxed);
}

/// The pool-thread count for epoch-parallel fabric simulation:
/// [`set_threads`], else `ALPHASIM_THREADS`, else 1 (inline execution).
/// Like [`shards`] — and unlike [`jobs`] — this never auto-detects:
/// thread count is purely a wall-clock knob (artifacts are byte-identical
/// at any value), but it is recorded per artifact in `BENCH_sweep.json`,
/// so the default must be fixed and machine-independent. Callers that want
/// "auto" resolve it explicitly (the CLIs map `--threads 0` to
/// [`std::thread::available_parallelism`]).
///
/// # Panics
///
/// Panics if `ALPHASIM_THREADS` is malformed (see [`check_env`]).
pub fn threads() -> usize {
    let forced = THREADS_OVERRIDE.load(Ordering::Relaxed);
    if forced != 0 {
        return forced;
    }
    knob("ALPHASIM_THREADS").unwrap_or(1)
}

/// Force the worker count used by [`parallel_map`]. `1` makes every
/// subsequent call run sequentially on the caller's thread; `0` restores
/// auto-detection.
pub fn set_jobs(n: usize) {
    JOBS_OVERRIDE.store(n, Ordering::Relaxed);
}

/// The worker count [`parallel_map`] will use: [`set_jobs`], else
/// `ALPHASIM_JOBS`, else the machine's available parallelism (1 if that
/// cannot be determined).
///
/// # Panics
///
/// Panics if `ALPHASIM_JOBS` is malformed (see [`check_env`]).
pub fn jobs() -> usize {
    let forced = JOBS_OVERRIDE.load(Ordering::Relaxed);
    if forced != 0 {
        return forced;
    }
    knob("ALPHASIM_JOBS").unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Lock `m`, treating poisoning as a bug: a worker panic already aborts the
/// whole map via scope propagation, so a poisoned slot is unreachable.
fn lock_clean<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock()
        .expect("no worker panics while holding a slot lock")
}

/// Apply `f` to every item, possibly on several threads, and return the
/// results in the same order as the inputs.
///
/// Work is handed out item-at-a-time from a shared counter, so uneven item
/// costs (e.g. a 64-CPU load test next to a 4-CPU one) balance naturally.
/// With one job, or zero/one items, `f` runs inline with no threads spawned.
/// A panic in `f` propagates to the caller.
///
/// # Examples
///
/// ```
/// use alphasim_kernel::par::parallel_map;
///
/// let squares = parallel_map(vec![1u64, 2, 3, 4], |x| x * x);
/// assert_eq!(squares, [1, 4, 9, 16]);
/// ```
pub fn parallel_map<T, U, F>(items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    let workers = jobs().min(items.len());
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }

    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<U>>> = (0..slots.len()).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let f = &f;
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(slot) = slots.get(i) else { break };
                let item = lock_clean(slot).take().expect("item claimed once");
                let out = f(item);
                *lock_clean(&results[i]) = Some(out);
            });
        }
    });
    results
        .into_iter()
        .map(|r| {
            r.into_inner()
                .expect("no worker holds a lock after the scope joins")
                .expect("worker completed")
        })
        .collect()
}

/// A persistent pool of worker threads for epoch-synchronous sharded
/// simulation.
///
/// Each [`run_round`](Self::run_round) call hands every item to some worker
/// (round-robin), applies the pool's work function to it by `&mut`, and
/// returns the items **in input order**. Items are moved through channels,
/// so workers own their item for the duration of a round — no shared
/// mutable state, no locks on the processing path, and therefore no
/// scheduling-order nondeterminism: the result of a round is a pure
/// function of the items and the work function.
///
/// This is the engine room of the conservative epoch scheduler in
/// [`crate::shard`]: a resilience-shaped campaign takes thousands of
/// epochs, and `parallel_map`'s per-call thread spawn (~tens of µs) would
/// dwarf the per-epoch work. The pool's threads persist for its lifetime;
/// dropping the pool joins them.
///
/// # Examples
///
/// ```
/// use alphasim_kernel::par::WorkerPool;
///
/// let pool = WorkerPool::new(2, |x: &mut u64| *x *= 10);
/// assert_eq!(pool.run_round(vec![1, 2, 3]), [10, 20, 30]);
/// assert_eq!(pool.run_round(vec![4]), [40]);
/// ```
pub struct WorkerPool<T: Send + 'static> {
    /// Per-worker submission channels; dropping them stops the workers.
    txs: Vec<mpsc::Sender<(usize, T)>>,
    /// Shared return channel carrying `(input index, item)`.
    results: mpsc::Receiver<(usize, T)>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl<T: Send + 'static> WorkerPool<T> {
    /// Spawn `workers` threads (at least one), each applying `work` to the
    /// items it receives.
    pub fn new<F>(workers: usize, work: F) -> Self
    where
        F: Fn(&mut T) + Send + Sync + Clone + 'static,
    {
        let workers = workers.max(1);
        let (res_tx, results) = mpsc::channel();
        let mut txs = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let (tx, rx) = mpsc::channel::<(usize, T)>();
            let res_tx = res_tx.clone();
            let work = work.clone();
            handles.push(std::thread::spawn(move || {
                while let Ok((idx, mut item)) = rx.recv() {
                    work(&mut item);
                    if res_tx.send((idx, item)).is_err() {
                        break; // pool dropped mid-round; nothing to report to
                    }
                }
            }));
            txs.push(tx);
        }
        WorkerPool {
            txs,
            results,
            handles,
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.txs.len()
    }

    /// Process every item on the pool and return them in input order.
    ///
    /// # Panics
    ///
    /// Panics if a worker thread has died (a panic inside the work function
    /// kills its worker; the next round then cannot complete).
    pub fn run_round(&self, items: Vec<T>) -> Vec<T> {
        let n = items.len();
        for (i, item) in items.into_iter().enumerate() {
            self.txs[i % self.txs.len()]
                .send((i, item))
                .expect("pool worker alive");
        }
        let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
        for _ in 0..n {
            let (i, item) = self
                .results
                .recv()
                .expect("every dispatched item comes back");
            out[i] = Some(item);
        }
        out.into_iter()
            .map(|o| o.expect("each index returned exactly once"))
            .collect()
    }
}

impl<T: Send + 'static> Drop for WorkerPool<T> {
    fn drop(&mut self) {
        self.txs.clear(); // disconnects the submission channels
        for h in self.handles.drain(..) {
            let _ = h.join(); // a worker that panicked already did its damage
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let input: Vec<usize> = (0..257).collect();
        let out = parallel_map(input.clone(), |x| x * 2);
        assert_eq!(out, input.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single_item() {
        let empty: Vec<u8> = Vec::new();
        assert!(parallel_map(empty, |x| x).is_empty());
        assert_eq!(parallel_map(vec![7], |x: i32| x + 1), [8]);
    }

    #[test]
    fn matches_sequential_map_under_forced_single_job() {
        set_jobs(1);
        let out = parallel_map(vec![3u64, 1, 4, 1, 5], |x| x * x);
        set_jobs(0);
        assert_eq!(out, [9, 1, 16, 1, 25]);
    }

    #[test]
    fn jobs_respects_override() {
        set_jobs(3);
        assert_eq!(jobs(), 3);
        set_jobs(0);
        assert!(jobs() >= 1);
    }

    #[test]
    fn knob_parser_rejects_malformed_values_and_names_them() {
        for bad in ["abc", "-1", "2x"] {
            let why = parse_knob("ALPHASIM_SHARDS", bad).unwrap_err();
            assert!(why.contains("ALPHASIM_SHARDS"), "{why}");
            assert!(why.contains(bad), "{why}");
        }
        assert_eq!(parse_knob("ALPHASIM_JOBS", "0"), Ok(None));
        assert_eq!(parse_knob("ALPHASIM_JOBS", ""), Ok(None));
        assert_eq!(parse_knob("ALPHASIM_THREADS", "4"), Ok(Some(4)));
    }

    #[test]
    fn shards_default_to_one_and_respect_override() {
        set_shards(0);
        assert_eq!(shards(), 1, "sharding is opt-in");
        set_shards(4);
        assert_eq!(shards(), 4);
        set_shards(0);
    }

    #[test]
    fn threads_default_to_one_and_respect_override() {
        set_threads(0);
        assert_eq!(threads(), 1, "epoch parallelism is opt-in");
        set_threads(4);
        assert_eq!(threads(), 4);
        set_threads(0);
    }

    #[test]
    fn pool_round_preserves_input_order_across_rounds() {
        let pool = WorkerPool::new(3, |x: &mut usize| *x += 1);
        let first = pool.run_round((0..64).collect());
        assert_eq!(first, (1..65).collect::<Vec<_>>());
        let second = pool.run_round(vec![100, 200]);
        assert_eq!(second, [101, 201]);
        assert!(pool.run_round(Vec::new()).is_empty());
        assert_eq!(pool.workers(), 3);
    }

    #[test]
    fn pool_with_more_items_than_workers_processes_everything() {
        let pool = WorkerPool::new(2, |v: &mut Vec<u32>| v.push(7));
        let out = pool.run_round((0..17).map(|i| vec![i]).collect());
        for (i, v) in out.iter().enumerate() {
            assert_eq!(v.as_slice(), [i as u32, 7]);
        }
    }

    #[test]
    fn worker_panic_propagates() {
        set_jobs(2);
        let r = std::panic::catch_unwind(|| {
            parallel_map(vec![0, 1, 2, 3], |x| {
                if x == 2 {
                    panic!("boom");
                }
                x
            })
        });
        set_jobs(0);
        assert!(r.is_err(), "panic in a worker must reach the caller");
    }
}
