//! Identifiers shared across topology, network and system crates.

use std::fmt;

use serde::{Deserialize, Serialize};

/// A dense node identifier within one topology.
///
/// # Examples
///
/// ```
/// use alphasim_topology::NodeId;
/// let n = NodeId::new(3);
/// assert_eq!(n.index(), 3);
/// assert_eq!(format!("{n}"), "n3");
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct NodeId(u32);

impl NodeId {
    /// A node id from its dense index.
    #[inline]
    pub fn new(index: usize) -> Self {
        NodeId(u32::try_from(index).expect("node index exceeds u32"))
    }

    /// The dense index of this node.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<usize> for NodeId {
    fn from(index: usize) -> Self {
        NodeId::new(index)
    }
}

/// A position on the 2-D torus grid: `x` is the column (East–West ring),
/// `y` is the row (North–South ring).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Coord {
    /// Column index, `0..cols`.
    pub x: u16,
    /// Row index, `0..rows`.
    pub y: u16,
}

impl Coord {
    /// A coordinate from column and row.
    pub fn new(x: usize, y: usize) -> Self {
        Coord {
            x: u16::try_from(x).expect("column exceeds u16"),
            y: u16::try_from(y).expect("row exceeds u16"),
        }
    }
}

impl fmt::Display for Coord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{})", self.x, self.y)
    }
}

/// Compass direction of a torus port, matching the paper's router description
/// ("the router connects to 4 links that connect to 4 neighbors in the torus:
/// North, South, East, and West").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Direction {
    /// +x neighbor.
    East,
    /// −x neighbor.
    West,
    /// −y neighbor.
    North,
    /// +y neighbor.
    South,
}

impl Direction {
    /// All four directions, in a fixed order.
    pub const ALL: [Direction; 4] = [
        Direction::East,
        Direction::West,
        Direction::North,
        Direction::South,
    ];

    /// The opposite direction.
    pub fn opposite(self) -> Direction {
        match self {
            Direction::East => Direction::West,
            Direction::West => Direction::East,
            Direction::North => Direction::South,
            Direction::South => Direction::North,
        }
    }

    /// Whether the direction moves along the x (East–West) dimension.
    pub fn is_horizontal(self) -> bool {
        matches!(self, Direction::East | Direction::West)
    }
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Direction::East => "E",
            Direction::West => "W",
            Direction::North => "N",
            Direction::South => "S",
        };
        f.write_str(s)
    }
}

/// Physical class of a link, which determines its latency and (for the
/// paper's Fig. 13) explains why 1-hop neighbors differ: same-module
/// neighbors are reached in 139 ns, cabled neighbors in 154 ns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum LinkClass {
    /// Between the two CPUs of one dual-processor module (shortest).
    Module,
    /// Backplane/board link between modules in the same drawer.
    Board,
    /// Inter-drawer cable (torus wrap-around links).
    Cable,
    /// A re-aimed "shuffle" link (§4.1); physically a cable.
    Shuffle,
    /// GS320 CPU ↔ QBB local-switch link.
    QbbLocal,
    /// GS320 QBB ↔ global-switch link.
    QbbGlobal,
    /// ES45 shared memory bus segment.
    Bus,
    /// SC45 Quadrics-style cluster link.
    Cluster,
}

impl LinkClass {
    /// Whether this class is part of a torus fabric (as opposed to the
    /// hierarchical-switch or bus machines).
    pub fn is_torus(self) -> bool {
        matches!(
            self,
            LinkClass::Module | LinkClass::Board | LinkClass::Cable | LinkClass::Shuffle
        )
    }
}

impl fmt::Display for LinkClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            LinkClass::Module => "module",
            LinkClass::Board => "board",
            LinkClass::Cable => "cable",
            LinkClass::Shuffle => "shuffle",
            LinkClass::QbbLocal => "qbb-local",
            LinkClass::QbbGlobal => "qbb-global",
            LinkClass::Bus => "bus",
            LinkClass::Cluster => "cluster",
        };
        f.write_str(s)
    }
}

/// One outgoing directed link of a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Port {
    /// The node this port leads to.
    pub to: NodeId,
    /// Physical class (latency/bandwidth bucket).
    pub class: LinkClass,
    /// Compass direction, for torus fabrics.
    pub dir: Option<Direction>,
}

impl Port {
    /// A port with a direction (torus fabrics).
    pub fn directed(to: NodeId, class: LinkClass, dir: Direction) -> Self {
        Port {
            to,
            class,
            dir: Some(dir),
        }
    }

    /// A port without a compass direction (switches, buses).
    pub fn undirected(to: NodeId, class: LinkClass) -> Self {
        Port {
            to,
            class,
            dir: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_roundtrip() {
        for i in [0usize, 1, 63, 255] {
            assert_eq!(NodeId::new(i).index(), i);
            assert_eq!(NodeId::from(i), NodeId::new(i));
        }
    }

    #[test]
    fn direction_opposites_are_involutive() {
        for d in Direction::ALL {
            assert_eq!(d.opposite().opposite(), d);
            assert_ne!(d.opposite(), d);
            assert_eq!(d.is_horizontal(), d.opposite().is_horizontal());
        }
    }

    #[test]
    fn link_class_torus_membership() {
        assert!(LinkClass::Module.is_torus());
        assert!(LinkClass::Shuffle.is_torus());
        assert!(!LinkClass::QbbGlobal.is_torus());
        assert!(!LinkClass::Bus.is_torus());
    }

    #[test]
    fn displays_are_nonempty() {
        assert_eq!(format!("{}", Coord::new(2, 3)), "(2,3)");
        assert_eq!(format!("{}", Direction::North), "N");
        assert_eq!(format!("{}", LinkClass::Cable), "cable");
    }
}
