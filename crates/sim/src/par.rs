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
//! One simulation runs on one thread (the epoch engine of
//! [`crate::shard`] has one worker and one queue); only whole artifacts
//! and sweep points fan out across threads.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Process-wide worker-count override; 0 means "auto-detect".
static JOBS_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// The engine knobs the resolvers read from the environment.
const KNOBS: [&str; 1] = ["ALPHASIM_JOBS"];

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

/// Check every `ALPHASIM_*` engine knob ([`jobs`]) so a CLI can reject a
/// malformed one before any resolver panics on it.
pub fn check_env() -> Result<(), String> {
    KNOBS.iter().try_for_each(|var| env_knob(var).map(drop))
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
            let why = parse_knob("ALPHASIM_JOBS", bad).unwrap_err();
            assert!(why.contains("ALPHASIM_JOBS"), "{why}");
            assert!(why.contains(bad), "{why}");
        }
        assert_eq!(parse_knob("ALPHASIM_JOBS", "0"), Ok(None));
        assert_eq!(parse_knob("ALPHASIM_JOBS", ""), Ok(None));
        assert_eq!(parse_knob("ALPHASIM_JOBS", "4"), Ok(Some(4)));
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
