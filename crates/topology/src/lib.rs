//! Interconnect topologies of the GS1280 reproduction.
//!
//! The paper's machines are built on three very different fabrics:
//!
//! * **GS1280** — a 2-D, adaptive, torus of Alpha 21364 routers
//!   ([`Torus2D`]), optionally rewired into the paper's "shuffle"
//!   configuration ([`ShuffleTorus`], §4.1 / Figs. 16–17 / Table 1);
//! * **GS320** — four-CPU Quad Building Blocks behind a local switch, joined
//!   by a hierarchical global switch ([`QbbTree`]);
//! * **ES45 / SC45** — 4-CPU shared-bus SMP boxes, clustered through a
//!   central Quadrics-style switch ([`StarCluster`]).
//!
//! All of them implement [`Topology`], a directed-adjacency view that the
//! network simulator (`alphasim-net`) and the graph analyses in [`graph`]
//! consume. [`table1`] reproduces the paper's Table 1 analytically.
//!
//! # Examples
//!
//! ```
//! use alphasim_topology::{Torus2D, Topology, graph::DistanceMatrix};
//!
//! let torus = Torus2D::new(4, 4);
//! let dist = DistanceMatrix::compute(&torus);
//! assert_eq!(dist.diameter(), 4); // 2 hops in each dimension
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

mod degraded;
pub mod graph;
mod hier;
mod ids;
pub mod route;
mod shuffle;
pub mod table1;
mod torus;
pub mod updown;

pub use degraded::{Degraded, DegradedError};
pub use hier::{QbbTree, StarCluster};
pub use ids::{Coord, Direction, LinkClass, NodeId, Port};
pub use shuffle::ShuffleTorus;
pub use torus::Torus2D;
pub use updown::{UpDownError, UpDownRoutes};

/// A directed-adjacency view of an interconnect.
///
/// Nodes are identified by dense [`NodeId`]s in `0..node_count()`. A node is
/// either an *endpoint* (a CPU that sources/sinks traffic and owns memory) or
/// an internal switch. Each node exposes its outgoing [`Port`]s; every link in
/// the reproduced machines is full duplex, so the reverse port always exists
/// on the peer.
pub trait Topology {
    /// Human-readable topology name (used in reports).
    fn name(&self) -> String;

    /// Total number of nodes, endpoints and switches together.
    fn node_count(&self) -> usize;

    /// Outgoing ports of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    fn ports(&self, node: NodeId) -> &[Port];

    /// Whether `node` is a traffic endpoint (a CPU) rather than a switch.
    fn is_endpoint(&self, node: NodeId) -> bool;

    /// Planar coordinate of `node`, for topologies laid out on a grid.
    fn coord(&self, _node: NodeId) -> Option<Coord> {
        None
    }

    /// All endpoint node ids, in ascending order.
    fn endpoints(&self) -> Vec<NodeId> {
        (0..self.node_count())
            .map(NodeId::new)
            .filter(|&n| self.is_endpoint(n))
            .collect()
    }

    /// Total number of directed links.
    fn link_count(&self) -> usize {
        (0..self.node_count())
            .map(|n| self.ports(NodeId::new(n)).len())
            .sum()
    }
}
