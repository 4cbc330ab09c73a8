//! Cache models for the GS1280 reproduction.
//!
//! The paper's machines differ sharply in their cache hierarchies, and §3.1
//! shows this dominates where each one wins:
//!
//! * **GS1280 (21364/EV7)** — 1.75 MB, 7-way set-associative, *on-chip* L2
//!   with a 12-cycle (10.4 ns) load-to-use latency;
//! * **GS320 / ES45 (21264/EV68)** — 16 MB, direct-mapped, *off-chip* L2:
//!   bigger but much slower to reach.
//!
//! This crate provides a functional, load-only set-associative cache model
//! ([`SetAssocCache`], one flat tag array per level) and a two-level
//! hierarchy that walks loads through L1 → L2 → memory ([`CacheHierarchy`]).
//!
//! # Examples
//!
//! ```
//! use alphasim_cache::{Addr, CacheGeometry, SetAssocCache};
//!
//! // The EV7 on-chip L2.
//! let mut l2 = SetAssocCache::new(CacheGeometry::ev7_l2());
//! assert!(!l2.access(Addr::new(0x1000))); // miss
//! assert!(l2.access(Addr::new(0x1000))); // hit
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

mod geometry;
mod hierarchy;
mod set_assoc;

pub use geometry::{Addr, CacheGeometry};
pub use hierarchy::{CacheHierarchy, HierarchyConfig, HitLevel, LoadOutcome};
pub use set_assoc::SetAssocCache;
