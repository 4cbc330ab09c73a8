//! Full machine models of the paper's four systems, assembled from the
//! substrate crates:
//!
//! * [`Gs1280`] — the Alpha 21364 torus machine under study (with optional
//!   shuffle rewiring and memory striping);
//! * [`Gs320`] — the previous-generation hierarchical-switch NUMA machine;
//! * [`Es45`] / [`Sc45`] — the 4-way SMP box and its Quadrics-style cluster.
//!
//! Each model exposes *analytic probes* (unloaded latencies, Figs. 4–5 and
//! 12–14; streaming bandwidth, Figs. 6–7) and *one event-driven
//! closed-loop engine* — the load test ([`loadtest`], Figs. 15, 18,
//! 23–27) is a fault-free run of the fault campaign ([`faulty`]) without
//! retry machinery — over one shared calibration ([`Calibration`]), whose
//! constants are each anchored to a number the paper publishes.
//!
//! # Examples
//!
//! ```
//! use alphasim_system::Gs1280;
//! use alphasim_topology::NodeId;
//!
//! let m = Gs1280::builder().cpus(16).build();
//! // The paper's Fig. 13 corner values.
//! assert_eq!(m.local_latency(true).as_ns(), 83.0);
//! let grid = m.latency_grid(NodeId::new(0));
//! assert!((grid[2][2] - 259.0).abs() < 10.0); // worst case, 4 hops
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

mod calibration;
pub mod chaos;
mod epoch;
mod es45;
pub mod faulty;
mod gs1280;
mod gs320;
mod io;
pub mod loadtest;
pub mod obs;
pub mod path;

pub use calibration::{Calibration, MachineKind};
pub use chaos::{
    catalog_for, replay, replay_healthy, run_chaos, ChaosOptions, ChaosReport, ChaosTrial,
    Reproducer,
};
pub use es45::{Es45, Sc45};
pub use faulty::{
    gs1280_fault_campaign, CampaignPattern, CampaignResult, CampaignTelemetry, FaultCampaign,
    FaultCampaignConfig, MonitorReport, PoisonedTx, RecoveryMutation, Violation,
};
pub use gs1280::{FabricTopo, Gs1280, Gs1280Builder};
pub use gs320::Gs320;
pub use io::IoSubsystem;
pub use obs::{CampaignObservability, ObserveOptions};
