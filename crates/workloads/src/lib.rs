//! The measurement workloads of the paper, reconstructed:
//!
//! * [`PointerChase`] — lmbench-style dependent loads (Figs. 4–5);
//! * [`spec`] — synthetic SPEC CPU2000 profiles with a mechanistic IPC and
//!   utilization model (Figs. 1, 8–11, 25);
//! * [`apps`] — the §5 application classes: Fluent (CPU-bound) and NAS SP
//!   (bandwidth-bound MPI) (Figs. 19–22).
//!
//! STREAM (Figs. 6–7) and GUPS (Figs. 23–24) need no generator: the
//! machines' `stream_triad_gbps` probes and the load test in
//! `alphasim-system` model them directly. Workloads are
//! machine-independent generators plus models parameterised by machine
//! properties; the machines themselves live in `alphasim-system`, and the
//! per-figure experiment drivers in `alphasim`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod apps;
mod pointer_chase;
pub mod spec;

pub use pointer_chase::PointerChase;
