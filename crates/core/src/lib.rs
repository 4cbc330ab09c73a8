//! `alphasim` — a discrete-event reproduction of the ISCA 2003 study
//! *"Performance Analysis of the Alpha 21364-based HP GS1280
//! Multiprocessor"* (Z. Cvetanovic, HP).
//!
//! The original is a measurement study of real hardware. This crate and its
//! substrates rebuild the machines as calibrated simulators and rerun every
//! experiment:
//!
//! * the **GS1280** — Alpha 21364 CPUs (on-chip L2, dual RDRAM controllers,
//!   on-chip router) on a 2-D adaptive torus — plus the previous-generation
//!   **GS320**, **ES45** and **SC45** comparison machines
//!   ([`alphasim_system`], re-exported as [`system`]);
//! * the torus/shuffle topologies, routing, and the deadlock-freedom
//!   construction ([`alphasim_topology`] → [`topology`]);
//! * the message-level interconnect simulator ([`alphasim_net`] → [`net`]);
//! * caches, memory controllers, and the directory protocol ([`cache`],
//!   [`mem`], [`coherence`]);
//! * the measurement workloads — pointer chase, STREAM, GUPS, SPEC
//!   profiles, Fluent and NAS SP proxies ([`workloads`]);
//! * the Xmesh hot-spot display (Fig. 27), rendered from the load test's
//!   per-node busy-time heat maps ([`experiments::network::fig27`]).
//!
//! [`experiments`] contains one driver per paper figure/table, each
//! returning structured [`types`] data; the `alphasim-bench` crate renders
//! them, and EXPERIMENTS.md records paper-vs-computed for every one.
//!
//! # Quick start
//!
//! ```
//! use alphasim::system::Gs1280;
//! use alphasim::topology::NodeId;
//!
//! // Build the paper's 16-CPU machine and probe its latency map (Fig. 13).
//! let machine = Gs1280::builder().cpus(16).build();
//! assert_eq!(machine.local_latency(true).as_ns(), 83.0);
//! let remote = machine.read_clean(NodeId::new(0), NodeId::new(10));
//! assert!(remote.as_ns() > 200.0); // 4 hops away on the 4x4 torus
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod experiments;
pub mod types;

pub use alphasim_cache as cache;
pub use alphasim_coherence as coherence;
pub use alphasim_kernel as kernel;
pub use alphasim_mem as mem;
pub use alphasim_net as net;
pub use alphasim_system as system;
pub use alphasim_topology as topology;
pub use alphasim_workloads as workloads;
