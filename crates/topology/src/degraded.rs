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
    /// Panics, naming the link, if a link in `failed` does not exist in
    /// `inner`.
    pub fn new(inner: T, failed: &[(NodeId, NodeId)]) -> Self {
        for &(a, b) in failed {
            assert!(
                a.index() < inner.node_count() && inner.ports(a).iter().any(|p| p.to == b),
                "no link {a} -> {b} to fail"
            );
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
        Degraded {
            inner,
            failed: failed.to_vec(),
            ports,
        }
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
}
