//! The 21364 interconnect, as a discrete-event, message-level simulator.
//!
//! Paper §2 describes the router: four compass links to torus neighbors,
//! two-level arbitration (per-input local arbiters nominating packets to
//! per-output global arbiters), virtual channels per coherence class so a
//! Response can never block behind a Request, VC0/VC1 dateline channels and
//! dimension-order escape routing against torus deadlocks, and an Adaptive
//! channel giving minimal adaptive routing.
//!
//! [`partition`] reproduces this at message granularity on the kernel's
//! one event engine: per-class VC queues with strict-priority output
//! arbitration, minimal adaptive output selection by backlog,
//! wormhole-style latency accounting, and calibrated congestion penalties
//! (see `DESIGN.md` for the fidelity argument), stepped by the kernel's
//! epoch executor on one event queue. The deadlock-freedom
//! construction itself is checked as a graph property in
//! [`alphasim_topology::route`].
//!
//! # Examples
//!
//! ```
//! use alphasim_net::partition::{FabricTables, OpenLoop};
//! use alphasim_net::{LinkTiming, MessageClass};
//! use alphasim_topology::route::RoutePolicy;
//! use alphasim_topology::{NodeId, Torus2D};
//! use alphasim_kernel::SimTime;
//!
//! let torus = Torus2D::for_cpus(16);
//! let tables = FabricTables::new(&torus, LinkTiming::ev7_torus(), RoutePolicy::Minimal);
//! let mut net = OpenLoop::new(tables);
//! net.send(SimTime::ZERO, NodeId::new(0), NodeId::new(10),
//!          MessageClass::Request, 16, 0);
//! let deliveries = net.drain();
//! assert_eq!(deliveries.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod link;
mod msg;
pub mod partition;
mod timing;

pub use msg::{Delivery, MessageClass, MessageId};
pub use partition::FaultError;
pub use timing::LinkTiming;
