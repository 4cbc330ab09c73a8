//! Topologies of the previous-generation comparison machines: the GS320's
//! hierarchical switch and the SC45 cluster of shared-bus ES45 boxes.

use serde::{Deserialize, Serialize};

use crate::ids::{LinkClass, NodeId, Port};
use crate::Topology;

/// The AlphaServer GS320 fabric (paper §2): CPUs grouped four to a Quad
/// Building Block (QBB) behind a local switch, QBBs joined by a single
/// hierarchical global switch.
///
/// Node numbering: CPUs first (`0..cpus`), then one local-switch node per
/// QBB, then the global switch last. Only CPU nodes are endpoints; a QBB's
/// memory modules hang off its local switch, which the system model accounts
/// for in latency terms.
///
/// # Examples
///
/// ```
/// use alphasim_topology::{QbbTree, Topology, NodeId};
/// let gs320 = QbbTree::new(32);
/// assert_eq!(gs320.node_count(), 32 + 8 + 1);
/// assert!(gs320.is_endpoint(NodeId::new(31)));
/// assert!(!gs320.is_endpoint(NodeId::new(32)));
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QbbTree {
    cpus: usize,
    qbbs: usize,
    ports: Vec<Vec<Port>>,
}

impl QbbTree {
    /// CPUs per QBB in the GS320.
    pub const CPUS_PER_QBB: usize = 4;

    /// A GS320 with `cpus` processors (multiple of 4, at most 32).
    ///
    /// # Panics
    ///
    /// Panics if `cpus` is zero, not a multiple of 4, or exceeds 32.
    pub fn new(cpus: usize) -> Self {
        assert!(
            cpus > 0 && cpus.is_multiple_of(Self::CPUS_PER_QBB) && cpus <= 32,
            "GS320 supports 4..=32 CPUs in multiples of 4"
        );
        let qbbs = cpus / Self::CPUS_PER_QBB;
        let global = cpus + qbbs; // id of the global switch
        let mut ports = vec![Vec::new(); cpus + qbbs + 1];
        for cpu in 0..cpus {
            let switch = cpus + cpu / Self::CPUS_PER_QBB;
            ports[cpu].push(Port::undirected(NodeId::new(switch), LinkClass::QbbLocal));
            ports[switch].push(Port::undirected(NodeId::new(cpu), LinkClass::QbbLocal));
        }
        // Even a single-QBB machine wires its switch to the (unused)
        // global switch so the node graph stays connected.
        for q in 0..qbbs {
            let switch = cpus + q;
            ports[switch].push(Port::undirected(NodeId::new(global), LinkClass::QbbGlobal));
            ports[global].push(Port::undirected(NodeId::new(switch), LinkClass::QbbGlobal));
        }
        QbbTree { cpus, qbbs, ports }
    }

    /// Number of CPU endpoints.
    pub fn cpus(&self) -> usize {
        self.cpus
    }

    /// Number of QBBs.
    pub fn qbbs(&self) -> usize {
        self.qbbs
    }

    /// The QBB index a CPU belongs to.
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is not a CPU node.
    pub fn qbb_of(&self, cpu: NodeId) -> usize {
        assert!(cpu.index() < self.cpus, "not a CPU node");
        cpu.index() / Self::CPUS_PER_QBB
    }

    /// The local-switch node of QBB `q`.
    pub fn local_switch(&self, q: usize) -> NodeId {
        assert!(q < self.qbbs, "QBB index out of range");
        NodeId::new(self.cpus + q)
    }
}

impl Topology for QbbTree {
    fn name(&self) -> String {
        format!("gs320-{}cpu-{}qbb", self.cpus, self.qbbs)
    }

    fn node_count(&self) -> usize {
        self.cpus + self.qbbs + 1
    }

    fn ports(&self, node: NodeId) -> &[Port] {
        &self.ports[node.index()]
    }

    fn is_endpoint(&self, node: NodeId) -> bool {
        node.index() < self.cpus
    }
}

/// The SC45 cluster: ES45 boxes joined by a central Quadrics-style switch.
///
/// Each box's four CPUs connect to a per-box hub (its bus), hubs connect to
/// the cluster switch. CPUs are `0..cpus`, hubs `cpus..cpus+boxes`, switch
/// last.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StarCluster {
    cpus: usize,
    boxes: usize,
    ports: Vec<Vec<Port>>,
}

impl StarCluster {
    /// CPUs per ES45 box.
    pub const CPUS_PER_BOX: usize = 4;

    /// A cluster with `cpus` processors (multiple of 4).
    ///
    /// # Panics
    ///
    /// Panics if `cpus` is zero or not a multiple of 4.
    pub fn new(cpus: usize) -> Self {
        assert!(
            cpus > 0 && cpus.is_multiple_of(Self::CPUS_PER_BOX),
            "SC45 grows in 4-CPU boxes"
        );
        let boxes = cpus / Self::CPUS_PER_BOX;
        let switch = cpus + boxes;
        let mut ports = vec![Vec::new(); cpus + boxes + 1];
        for cpu in 0..cpus {
            let hub = cpus + cpu / Self::CPUS_PER_BOX;
            ports[cpu].push(Port::undirected(NodeId::new(hub), LinkClass::Bus));
            ports[hub].push(Port::undirected(NodeId::new(cpu), LinkClass::Bus));
        }
        for b in 0..boxes {
            let hub = cpus + b;
            ports[hub].push(Port::undirected(NodeId::new(switch), LinkClass::Cluster));
            ports[switch].push(Port::undirected(NodeId::new(hub), LinkClass::Cluster));
        }
        StarCluster { cpus, boxes, ports }
    }

    /// Number of CPU endpoints.
    pub fn cpus(&self) -> usize {
        self.cpus
    }

    /// Number of ES45 boxes.
    pub fn boxes(&self) -> usize {
        self.boxes
    }

    /// Whether two CPUs share an ES45 box.
    pub fn same_box(&self, a: NodeId, b: NodeId) -> bool {
        assert!(a.index() < self.cpus && b.index() < self.cpus);
        a.index() / Self::CPUS_PER_BOX == b.index() / Self::CPUS_PER_BOX
    }
}

impl Topology for StarCluster {
    fn name(&self) -> String {
        format!("sc45-{}cpu-{}box", self.cpus, self.boxes)
    }

    fn node_count(&self) -> usize {
        self.cpus + self.boxes + 1
    }

    fn ports(&self, node: NodeId) -> &[Port] {
        &self.ports[node.index()]
    }

    fn is_endpoint(&self, node: NodeId) -> bool {
        node.index() < self.cpus
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::DistanceMatrix;

    #[test]
    fn gs320_structure() {
        let g = QbbTree::new(16);
        assert_eq!(g.qbbs(), 4);
        assert_eq!(g.endpoints().len(), 16);
        assert_eq!(g.qbb_of(NodeId::new(0)), 0);
        assert_eq!(g.qbb_of(NodeId::new(15)), 3);
        assert_eq!(g.qbb_of(NodeId::new(4)), g.qbb_of(NodeId::new(7)));
        assert_ne!(g.qbb_of(NodeId::new(3)), g.qbb_of(NodeId::new(4)));
    }

    #[test]
    fn gs320_distances_have_two_levels() {
        let g = QbbTree::new(16);
        let d = DistanceMatrix::compute(&g);
        // Same QBB: cpu -> local switch -> cpu = 2 hops.
        assert_eq!(d.distance(NodeId::new(0), NodeId::new(1)), 2);
        // Remote QBB: cpu -> local -> global -> local -> cpu = 4 hops.
        assert_eq!(d.distance(NodeId::new(0), NodeId::new(4)), 4);
        assert_eq!(d.diameter(), 4);
        assert!(d.is_connected());
    }

    #[test]
    fn single_qbb_has_no_global_hops() {
        let g = QbbTree::new(4);
        let d = DistanceMatrix::compute(&g);
        assert_eq!(d.diameter(), 2);
        // 4 CPU links + the (idle) global-switch uplink.
        assert!(g.ports(g.local_switch(0)).len() == 5);
    }

    #[test]
    #[should_panic(expected = "multiples of 4")]
    fn gs320_rejects_odd_counts() {
        let _ = QbbTree::new(6);
    }

    #[test]
    fn sc45_cluster_levels() {
        let c = StarCluster::new(16);
        assert_eq!(c.boxes(), 4);
        let d = DistanceMatrix::compute(&c);
        // In-box: 2 hops; cross-box: cpu->hub->switch->hub->cpu = 4 hops.
        assert_eq!(d.distance(NodeId::new(0), NodeId::new(3)), 2);
        assert_eq!(d.distance(NodeId::new(0), NodeId::new(4)), 4);
        assert!(c.same_box(NodeId::new(0), NodeId::new(3)));
        assert!(!c.same_box(NodeId::new(0), NodeId::new(4)));
    }

    #[test]
    fn switches_are_not_endpoints() {
        let g = QbbTree::new(8);
        for sw in 8..g.node_count() {
            assert!(!g.is_endpoint(NodeId::new(sw)));
        }
        let c = StarCluster::new(8);
        for hub in 8..c.node_count() {
            assert!(!c.is_endpoint(NodeId::new(hub)));
        }
    }
}
