//! Graph analyses over [`Topology`]: all-pairs hop distances and the three
//! metrics of the paper's Table 1 (average latency, worst-case latency,
//! bisection width).

use crate::ids::NodeId;
use crate::Topology;

/// All-pairs hop distances, computed by breadth-first search from every node.
///
/// # Examples
///
/// ```
/// use alphasim_topology::{Torus2D, graph::DistanceMatrix, NodeId};
/// let d = DistanceMatrix::compute(&Torus2D::new(4, 2));
/// assert_eq!(d.distance(NodeId::new(0), NodeId::new(2)), 2);
/// assert_eq!(d.diameter(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct DistanceMatrix {
    n: usize,
    dist: Vec<u32>,
    endpoints: Vec<NodeId>,
}

impl DistanceMatrix {
    /// Distance value meaning "unreachable".
    pub const UNREACHABLE: u32 = u32::MAX;

    /// BFS all-pairs distances over `topo`.
    pub fn compute<T: Topology + ?Sized>(topo: &T) -> Self {
        let n = topo.node_count();
        let mut dist = vec![Self::UNREACHABLE; n * n];
        let mut queue = std::collections::VecDeque::new();
        for src in 0..n {
            let row = &mut dist[src * n..(src + 1) * n];
            row[src] = 0;
            queue.clear();
            queue.push_back(NodeId::new(src));
            while let Some(u) = queue.pop_front() {
                let du = row[u.index()];
                for p in topo.ports(u) {
                    let v = p.to.index();
                    if row[v] == Self::UNREACHABLE {
                        row[v] = du + 1;
                        queue.push_back(p.to);
                    }
                }
            }
        }
        DistanceMatrix {
            n,
            dist,
            endpoints: topo.endpoints(),
        }
    }

    /// Hop distance from `a` to `b`.
    ///
    /// # Panics
    ///
    /// Panics if either node is out of range.
    pub fn distance(&self, a: NodeId, b: NodeId) -> u32 {
        self.dist[a.index() * self.n + b.index()]
    }

    /// Whether every node can reach every other node.
    pub fn is_connected(&self) -> bool {
        self.dist.iter().all(|&d| d != Self::UNREACHABLE)
    }

    /// Mean hop distance over ordered endpoint pairs with `src != dst`.
    pub fn average_distance(&self) -> f64 {
        let mut total = 0u64;
        let mut pairs = 0u64;
        for &a in &self.endpoints {
            for &b in &self.endpoints {
                if a != b {
                    total += u64::from(self.distance(a, b));
                    pairs += 1;
                }
            }
        }
        if pairs == 0 {
            0.0
        } else {
            total as f64 / pairs as f64
        }
    }

    /// Worst-case hop distance between endpoints (network diameter).
    pub fn diameter(&self) -> u32 {
        let mut worst = 0;
        for &a in &self.endpoints {
            for &b in &self.endpoints {
                if a != b {
                    worst = worst.max(self.distance(a, b));
                }
            }
        }
        worst
    }
}

/// Bisection width of a grid-laid-out topology: the minimum, over
/// axis-aligned halvings, of the number of (undirected) links crossing the
/// cut. Both torus dimensions may wrap, so every rotation of the halving is
/// tried.
///
/// Matches the notion used in the paper's Table 1, where the shuffle doubles
/// the bisection of 2:1-aspect tori and leaves square tori unchanged.
///
/// # Panics
///
/// Panics if the topology has nodes without coordinates or if neither grid
/// dimension is even.
pub fn bisection_width<T: Topology + ?Sized>(topo: &T) -> usize {
    let n = topo.node_count();
    let coords: Vec<_> = (0..n)
        .map(|i| {
            topo.coord(NodeId::new(i))
                .expect("bisection requires a grid layout")
        })
        .collect();
    let cols = coords.iter().map(|c| c.x as usize).max().unwrap_or(0) + 1;
    let rows = coords.iter().map(|c| c.y as usize).max().unwrap_or(0) + 1;
    assert!(
        cols % 2 == 0 || rows % 2 == 0,
        "bisection needs one even dimension"
    );

    let mut best = usize::MAX;
    // Horizontal halvings: a contiguous band of cols/2 columns (mod cols).
    if cols % 2 == 0 {
        for offset in 0..cols {
            let in_half = |x: usize| (x + cols - offset) % cols < cols / 2;
            best = best.min(crossing_links(topo, |i| in_half(coords[i].x as usize)));
        }
    }
    if rows % 2 == 0 {
        for offset in 0..rows {
            let in_half = |y: usize| (y + rows - offset) % rows < rows / 2;
            best = best.min(crossing_links(topo, |i| in_half(coords[i].y as usize)));
        }
    }
    best
}

/// Count undirected links with endpoints on opposite sides of `in_half`.
fn crossing_links<T: Topology + ?Sized>(topo: &T, in_half: impl Fn(usize) -> bool) -> usize {
    let mut directed = 0;
    for i in 0..topo.node_count() {
        for p in topo.ports(NodeId::new(i)) {
            if in_half(i) != in_half(p.to.index()) {
                directed += 1;
            }
        }
    }
    // Every full-duplex link was counted once per direction.
    directed / 2
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ShuffleTorus, Torus2D};

    #[test]
    fn distances_match_torus_metric() {
        let t = Torus2D::new(8, 4);
        let d = DistanceMatrix::compute(&t);
        for a in 0..32 {
            for b in 0..32 {
                let (na, nb) = (NodeId::new(a), NodeId::new(b));
                assert_eq!(d.distance(na, nb), t.hop_distance(na, nb) as u32);
            }
        }
    }

    #[test]
    fn torus_is_connected_and_symmetric() {
        let d = DistanceMatrix::compute(&Torus2D::new(4, 4));
        assert!(d.is_connected());
        for a in 0..16 {
            for b in 0..16 {
                assert_eq!(
                    d.distance(NodeId::new(a), NodeId::new(b)),
                    d.distance(NodeId::new(b), NodeId::new(a))
                );
            }
        }
    }

    #[test]
    fn known_average_distances() {
        // 4x4 torus: per-source total distance 32 over 15 peers.
        let d = DistanceMatrix::compute(&Torus2D::new(4, 4));
        assert!((d.average_distance() - 32.0 / 15.0).abs() < 1e-12);
        // 4x2 torus: {E:1, EE:2, W:1, V:1, VE:2, VEE:3, VW:2} = 12 over 7.
        let d = DistanceMatrix::compute(&Torus2D::new(4, 2));
        assert!((d.average_distance() - 12.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn known_diameters() {
        assert_eq!(DistanceMatrix::compute(&Torus2D::new(4, 4)).diameter(), 4);
        assert_eq!(DistanceMatrix::compute(&Torus2D::new(8, 8)).diameter(), 8);
        assert_eq!(DistanceMatrix::compute(&Torus2D::new(8, 4)).diameter(), 6);
        assert_eq!(
            DistanceMatrix::compute(&Torus2D::new(16, 16)).diameter(),
            16
        );
    }

    #[test]
    fn torus_bisections() {
        // kxk torus: 2k links per axis cut.
        assert_eq!(bisection_width(&Torus2D::new(4, 4)), 8);
        assert_eq!(bisection_width(&Torus2D::new(8, 8)), 16);
        // 4x2: x-cut crosses 2 rows x 2 links = 4; y-cut crosses 4 doubled = 8.
        assert_eq!(bisection_width(&Torus2D::new(4, 2)), 4);
        // 8x4 rectangular: x-cut 4 rows x 2 = 8.
        assert_eq!(bisection_width(&Torus2D::new(8, 4)), 8);
    }

    #[test]
    fn shuffle_doubles_rectangular_bisection() {
        assert_eq!(bisection_width(&ShuffleTorus::new(4, 2)), 8);
        assert_eq!(bisection_width(&ShuffleTorus::new(8, 4)), 16);
        // Square stays put (Table 1: bisection ratio 1.0).
        assert_eq!(bisection_width(&ShuffleTorus::new(4, 4)), 8);
        assert_eq!(bisection_width(&ShuffleTorus::new(8, 8)), 16);
    }
}
