//! Failure injection: a topology with links (or nodes' ports) removed.
//!
//! The GS1280 was sold on glueless fault containment — cables can be
//! re-routed around (the shuffle experiment literally swaps them) and the
//! RDRAM subsystem carries a redundant channel. [`Degraded`] removes
//! chosen links from any topology so routing, latency and load studies can
//! be rerun on the wounded fabric.

use serde::{Deserialize, Serialize};

use crate::ids::{Coord, NodeId, Port};
use crate::Topology;

/// Why a set of link failures could not be applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradedError {
    /// The named link does not exist in the underlying topology.
    NoSuchLink {
        /// Claimed source of the link.
        from: NodeId,
        /// Claimed destination.
        to: NodeId,
    },
}

impl std::fmt::Display for DegradedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DegradedError::NoSuchLink { from, to } => {
                write!(f, "no link {from} -> {to} to fail")
            }
        }
    }
}

impl std::error::Error for DegradedError {}

/// A wrapper that hides failed links of an underlying topology.
///
/// Failures are *undirected*: failing `a ↔ b` removes both directed ports.
///
/// # Examples
///
/// ```
/// use alphasim_topology::{Degraded, Torus2D, Topology, NodeId};
/// use alphasim_topology::graph::DistanceMatrix;
///
/// let torus = Torus2D::new(4, 4);
/// let degraded = Degraded::new(torus, &[(NodeId::new(0), NodeId::new(1))]);
/// let d = DistanceMatrix::compute(&degraded);
/// assert!(d.is_connected(), "a torus survives one link failure");
/// assert!(d.distance(NodeId::new(0), NodeId::new(1)) > 1);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Degraded<T> {
    inner: T,
    failed: Vec<(NodeId, NodeId)>,
    ports: Vec<Vec<Port>>,
}

impl<T: Topology> Degraded<T> {
    /// `inner` with every link in `failed` removed (both directions).
    ///
    /// # Panics
    ///
    /// Panics if a named link does not exist in `inner`; fault-injection
    /// callers working from a generated plan should prefer
    /// [`try_new`](Self::try_new) and handle the error.
    pub fn new(inner: T, failed: &[(NodeId, NodeId)]) -> Self {
        match Self::try_new(inner, failed) {
            Ok(degraded) => degraded,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`new`](Self::new): `inner` with every link in `failed`
    /// removed, or a [`DegradedError`] naming the first link that does not
    /// exist (rather than aborting mid-campaign).
    pub fn try_new(inner: T, failed: &[(NodeId, NodeId)]) -> Result<Self, DegradedError> {
        for &(a, b) in failed {
            if a.index() >= inner.node_count() || !inner.ports(a).iter().any(|p| p.to == b) {
                return Err(DegradedError::NoSuchLink { from: a, to: b });
            }
        }
        let is_failed = |from: NodeId, to: NodeId| {
            failed
                .iter()
                .any(|&(a, b)| (a == from && b == to) || (a == to && b == from))
        };
        let ports = (0..inner.node_count())
            .map(|i| {
                let node = NodeId::new(i);
                inner
                    .ports(node)
                    .iter()
                    .filter(|p| !is_failed(node, p.to))
                    .copied()
                    .collect()
            })
            .collect();
        Ok(Degraded {
            inner,
            failed: failed.to_vec(),
            ports,
        })
    }

    /// The healthy topology underneath.
    pub fn inner(&self) -> &T {
        &self.inner
    }
}

impl<T: Topology> Topology for Degraded<T> {
    fn name(&self) -> String {
        format!("{}-degraded{}", self.inner.name(), self.failed.len())
    }

    fn node_count(&self) -> usize {
        self.inner.node_count()
    }

    fn ports(&self, node: NodeId) -> &[Port] {
        &self.ports[node.index()]
    }

    fn is_endpoint(&self, node: NodeId) -> bool {
        self.inner.is_endpoint(node)
    }

    fn coord(&self, node: NodeId) -> Option<Coord> {
        self.inner.coord(node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::DistanceMatrix;
    use crate::torus::Torus2D;

    #[test]
    fn failing_a_link_removes_both_directions() {
        let t = Degraded::new(Torus2D::new(4, 4), &[(NodeId::new(0), NodeId::new(1))]);
        assert!(!t
            .ports(NodeId::new(0))
            .iter()
            .any(|p| p.to == NodeId::new(1)));
        assert!(!t
            .ports(NodeId::new(1))
            .iter()
            .any(|p| p.to == NodeId::new(0)));
        assert_eq!(t.ports(NodeId::new(0)).len(), 3);
        assert_eq!(t.failed.len(), 1);
    }

    #[test]
    fn torus_tolerates_single_failures_everywhere() {
        let base = Torus2D::new(4, 4);
        for i in 0..16 {
            let node = NodeId::new(i);
            for p in base.ports(node).to_vec() {
                let degraded = Degraded::new(base.clone(), &[(node, p.to)]);
                let d = DistanceMatrix::compute(&degraded);
                assert!(d.is_connected(), "failure {node}->{}", p.to);
                // Worst-case detour grows by at most a few hops.
                assert!(d.diameter() <= 6);
            }
        }
    }

    #[test]
    fn detours_lengthen_paths() {
        let base = Torus2D::new(4, 4);
        let healthy = DistanceMatrix::compute(&base);
        let degraded = Degraded::new(base, &[(NodeId::new(0), NodeId::new(1))]);
        let wounded = DistanceMatrix::compute(&degraded);
        assert_eq!(wounded.distance(NodeId::new(0), NodeId::new(1)), 3);
        assert!(wounded.average_distance() > healthy.average_distance());
    }

    #[test]
    fn multiple_failures_can_partition_a_small_ring() {
        // Cutting both horizontal links of a 2x1 "torus"... a 2x2 torus has
        // doubled links; cut all four around node 0.
        let base = Torus2D::new(2, 2);
        let cuts: Vec<(NodeId, NodeId)> = base
            .ports(NodeId::new(0))
            .iter()
            .map(|p| (NodeId::new(0), p.to))
            .collect();
        let degraded = Degraded::new(base, &cuts);
        let d = DistanceMatrix::compute(&degraded);
        assert!(!d.is_connected(), "fully cut node must be unreachable");
    }

    #[test]
    #[should_panic(expected = "no link")]
    fn rejects_nonexistent_link() {
        let _ = Degraded::new(Torus2D::new(4, 4), &[(NodeId::new(0), NodeId::new(10))]);
    }

    #[test]
    fn try_new_reports_bad_links_instead_of_panicking() {
        let err = Degraded::try_new(Torus2D::new(4, 4), &[(NodeId::new(0), NodeId::new(10))])
            .unwrap_err();
        assert_eq!(
            err,
            DegradedError::NoSuchLink {
                from: NodeId::new(0),
                to: NodeId::new(10),
            }
        );
        assert!(err.to_string().contains("no link"));
        // Out-of-range endpoints error rather than panic too.
        let oob = Degraded::try_new(Torus2D::new(2, 2), &[(NodeId::new(99), NodeId::new(0))]);
        assert!(oob.is_err());
    }

    #[test]
    fn try_new_matches_new_on_valid_input() {
        let cuts = [(NodeId::new(0), NodeId::new(1))];
        let a = Degraded::new(Torus2D::new(4, 4), &cuts);
        let b = Degraded::try_new(Torus2D::new(4, 4), &cuts).unwrap();
        assert_eq!(a.failed, b.failed);
        assert_eq!(a.ports(NodeId::new(0)), b.ports(NodeId::new(0)));
    }
}
