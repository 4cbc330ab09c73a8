//! Discrete-event simulation kernel for the GS1280 reproduction.
//!
//! This crate provides the machinery every other `alphasim-*` crate builds on:
//!
//! * [`SimTime`] / [`SimDuration`] — integer picosecond timestamps, so that
//!   component latencies compose without floating-point drift;
//! * [`DetRng`] — a seedable random-number source so every experiment is
//!   reproducible bit-for-bit;
//! * [`stats`] — the mean/p50/p99 latency summary every artifact reports
//!   and the busy-time meter behind link and Zbox utilizations;
//! * [`par`] — an ordered [`par::parallel_map`] used to fan independent
//!   simulations out across OS threads without changing their results;
//! * [`shard`] — the epoch scheduler ([`shard::EpochExecutor`]), the one
//!   event engine every simulation runs on: one worker and one event queue
//!   (a ring of 128 ps time-slot buckets over the next 524 ns, in front of
//!   a 4-ary heap for the rest) that pops in exact `(time, tiebreak)`
//!   order, in epochs that end at the worker's own barriers;
//! * [`FaultPlan`] — a seeded, time-sorted schedule of link/node/channel
//!   failures (and repairs, degradations, transients) for live
//!   fault-injection runs;
//! * [`chaos`] — seeded fault-schedule fuzzing: random legal plan
//!   generation from a [`chaos::ChaosConfig`] distribution, legality
//!   validation, and QuickCheck-style shrink transformations.
//!
//! # Examples
//!
//! ```
//! use alphasim_kernel::shard::{EpochExecutor, Outbox, ShardWorker};
//! use alphasim_kernel::{SimDuration, SimTime};
//!
//! /// Logs every event it handles.
//! struct Log(Vec<&'static str>);
//!
//! impl ShardWorker for Log {
//!     type Event = &'static str;
//!     fn handle(&mut self, _at: SimTime, ev: &'static str, _out: &mut Outbox<&'static str>) {
//!         self.0.push(ev);
//!     }
//! }
//!
//! let mut exec = EpochExecutor::new(Log(Vec::new()));
//! exec.seed(SimTime::ZERO + SimDuration::from_ns(5.0), 0, "late");
//! exec.seed(SimTime::ZERO + SimDuration::from_ns(1.0), 0, "early");
//! exec.run_until_idle();
//! assert_eq!(exec.worker().0, ["early", "late"]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod chaos;
pub mod fault;
pub mod par;
mod rng;
pub mod shard;
pub mod stats;
mod time;

pub use fault::{FaultEvent, FaultKind, FaultPlan};
pub use rng::DetRng;
pub use shard::{peak_event_depth, take_peak_event_depth};
pub use time::{Frequency, SimDuration, SimTime};
