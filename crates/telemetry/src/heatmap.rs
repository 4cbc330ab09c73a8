//! Topology-indexed accumulators rendered as P×Q grids.
//!
//! The paper's Xmesh tool shows *where* on the torus the machine is busy;
//! a [`Heatmap`] is the deterministic substrate for that view: one `u64`
//! cell per node of a `cols × rows` grid, updated by node index.
//! This crate knows nothing of topologies; callers map `NodeId` indexes to
//! cells with the usual row-major `index = y * cols + x` convention.
//!
//! A grid of busy picoseconds also reads as Xmesh's utilization display
//! (§6, Fig. 27): given the capacity that counts as 100%,
//! [`Heatmap::percent_panel`] renders the percent grid and
//! [`Heatmap::hot_spots`] applies the paper's hot-spot rule.

use std::collections::BTreeMap;

use serde_json::{Number, Value};

/// The §6 hot-spot verdict over one grid ([`Heatmap::hot_spots`]).
#[derive(Debug, Clone, PartialEq)]
pub struct HotSpotReport {
    /// Row-major indexes of the hot cells.
    pub hot_nodes: Vec<usize>,
    /// Mean fraction of capacity over the cells that are not hot.
    pub background: f64,
}

/// A row-major grid of `u64` accumulators over a `cols × rows` torus.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Heatmap {
    cols: usize,
    rows: usize,
    cells: Vec<u64>,
}

impl Heatmap {
    /// An all-zero `cols × rows` grid.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(cols: usize, rows: usize) -> Self {
        assert!(cols > 0 && rows > 0, "heatmap needs both dimensions");
        Heatmap {
            cols,
            rows,
            cells: vec![0; cols * rows],
        }
    }

    /// A grid initialized from row-major per-node values.
    ///
    /// # Panics
    ///
    /// Panics if `values` is not exactly `cols * rows` long.
    pub fn from_values(cols: usize, rows: usize, values: &[u64]) -> Self {
        let mut h = Heatmap::new(cols, rows);
        assert_eq!(
            values.len(),
            h.cells.len(),
            "value count must fill the grid"
        );
        h.cells.copy_from_slice(values);
        h
    }

    /// Grid width.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Grid height.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Add `delta` to the cell of row-major `node` index.
    ///
    /// # Panics
    ///
    /// Panics if `node` is outside the grid.
    pub fn add(&mut self, node: usize, delta: u64) {
        self.cells[node] += delta;
    }

    /// The cell value at row-major `node` index.
    pub fn cell(&self, node: usize) -> u64 {
        self.cells[node]
    }

    /// The cell value at grid coordinates.
    pub fn at(&self, x: usize, y: usize) -> u64 {
        self.cells[y * self.cols + x]
    }

    /// Sum over all cells.
    pub fn total(&self) -> u64 {
        self.cells.iter().sum()
    }

    /// The hottest cell's value (0 for an untouched grid).
    pub fn peak(&self) -> u64 {
        self.cells.iter().copied().max().unwrap_or(0)
    }

    /// Row-major index of the hottest cell, lowest index on ties.
    pub fn peak_cell(&self) -> usize {
        let peak = self.peak();
        self.cells.iter().position(|&v| v == peak).unwrap_or(0)
    }

    /// JSON snapshot: dimensions plus the grid as an array of rows (each
    /// an array of integers), matching the torus layout top row first.
    pub fn to_json(&self) -> Value {
        let grid: Vec<Value> = self
            .cells
            .chunks(self.cols)
            .map(|row| {
                Value::Array(
                    row.iter()
                        .map(|&v| Value::Number(Number::PosInt(v)))
                        .collect(),
                )
            })
            .collect();
        let mut root = BTreeMap::new();
        root.insert(
            "cols".to_owned(),
            Value::Number(Number::PosInt(self.cols as u64)),
        );
        root.insert(
            "rows".to_owned(),
            Value::Number(Number::PosInt(self.rows as u64)),
        );
        root.insert("grid".to_owned(), Value::Array(grid));
        Value::Object(root)
    }

    /// ASCII rendering: one digit per cell, the cell's value scaled to
    /// 0–9 against the grid peak (`.` for exactly zero). The human-eye
    /// view `perfsight` prints under each grid's title.
    pub fn to_ascii(&self) -> String {
        let peak = self.peak();
        let mut out = String::with_capacity(self.rows * (self.cols + 1));
        for row in self.cells.chunks(self.cols) {
            for &v in row {
                if v == 0 {
                    out.push('.');
                } else if peak == 0 {
                    out.push('0');
                } else {
                    let shade = (v * 9).div_ceil(peak).min(9);
                    out.push(char::from(b'0' + shade as u8));
                }
            }
            out.push('\n');
        }
        out
    }

    /// Cell `node` as a fraction of `capacity`, clamped to `[0, 1]` (0
    /// when the capacity is zero).
    fn fraction(&self, node: usize, capacity: u64) -> f64 {
        if capacity == 0 {
            0.0
        } else {
            (self.cells[node] as f64 / capacity as f64).min(1.0)
        }
    }

    /// The paper's §6 hot-spot rule, as Xmesh applies it to Zbox
    /// utilization: a cell is hot when its fraction of `capacity` is both
    /// substantial (≥ 25%) and more than 4× the mean of the other cells
    /// (taken as at least 1%).
    pub fn hot_spots(&self, capacity: u64) -> HotSpotReport {
        let util: Vec<f64> = (0..self.cells.len())
            .map(|i| self.fraction(i, capacity))
            .collect();
        let n = util.len();
        let mut hot = Vec::new();
        for (i, &me) in util.iter().enumerate() {
            if me < 0.25 {
                continue;
            }
            let others = util
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, &u)| u)
                .sum::<f64>()
                / (n - 1).max(1) as f64;
            if me > 4.0 * others.max(0.01) {
                hot.push(i);
            }
        }
        let background: Vec<f64> = util
            .iter()
            .enumerate()
            .filter(|(i, _)| !hot.contains(i))
            .map(|(_, &u)| u)
            .collect();
        HotSpotReport {
            hot_nodes: hot,
            background: if background.is_empty() {
                0.0
            } else {
                background.iter().sum::<f64>() / background.len() as f64
            },
        }
    }

    /// Xmesh's percent display (Fig. 27): `title`, then one bordered cell
    /// per node holding its percentage of `capacity` and a shade mark
    /// (`#` ≥ 75%, `@` ≥ 50%, `+` ≥ 25%, `.` ≥ 10%).
    pub fn percent_panel(&self, title: &str, capacity: u64) -> String {
        let mut out = format!("{title}\n");
        let border = format!("+{}\n", "------+".repeat(self.cols));
        out.push_str(&border);
        for y in 0..self.rows {
            out.push('|');
            for x in 0..self.cols {
                let u = self.fraction(y * self.cols + x, capacity);
                out.push_str(&format!("{:>3.0}% {}|", u * 100.0, shade(u)));
            }
            out.push('\n');
            out.push_str(&border);
        }
        out
    }
}

/// Shade mark of a utilization fraction in [`Heatmap::percent_panel`].
fn shade(u: f64) -> char {
    match () {
        _ if u >= 0.75 => '#',
        _ if u >= 0.50 => '@',
        _ if u >= 0.25 => '+',
        _ if u >= 0.10 => '.',
        _ => ' ',
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "both dimensions")]
    fn zero_dimension_is_rejected() {
        Heatmap::new(4, 0);
    }

    #[test]
    fn add_and_read_back_row_major() {
        let mut h = Heatmap::new(4, 2);
        h.add(0, 5);
        h.add(5, 7); // (x=1, y=1)
        assert_eq!(h.cell(0), 5);
        assert_eq!(h.at(1, 1), 7);
        assert_eq!(h.total(), 12);
        assert_eq!(h.peak(), 7);
        assert_eq!(h.peak_cell(), 5);
    }

    #[test]
    fn json_is_rows_of_integers() {
        let h = Heatmap::from_values(2, 2, &[0, 1, 2, 3]);
        let s = serde_json::to_string(&h.to_json()).expect("serialize");
        assert!(s.contains("\"cols\":2"), "{s}");
        assert!(s.contains("\"grid\":[[0,1],[2,3]]"), "{s}");
    }

    #[test]
    fn ascii_scales_to_peak_and_marks_zero() {
        let h = Heatmap::from_values(4, 1, &[0, 1, 5, 10]);
        let art = h.to_ascii();
        assert_eq!(art, ".159\n");
        // An all-zero grid renders as dots only.
        assert_eq!(Heatmap::new(2, 1).to_ascii(), "..\n");
    }

    /// Fig. 27's shape: node 0 at 53% of capacity, the rest at 4%.
    fn hot_grid() -> Heatmap {
        let mut values = [400; 16];
        values[0] = 5_300;
        Heatmap::from_values(4, 4, &values)
    }

    #[test]
    fn hot_spot_detected_like_fig27() {
        let r = hot_grid().hot_spots(10_000);
        assert_eq!(r.hot_nodes, vec![0]);
        assert!((r.background - 0.04).abs() < 1e-12);
    }

    #[test]
    fn uniform_load_is_not_a_hot_spot() {
        let r = Heatmap::from_values(4, 4, &[5_000; 16]).hot_spots(10_000);
        assert!(r.hot_nodes.is_empty());
        assert_eq!(r.background, 0.5);
    }

    #[test]
    fn low_absolute_utilization_is_ignored() {
        // Relatively dominant but absolutely small.
        let h = Heatmap::from_values(2, 2, &[0, 2_000, 0, 0]);
        assert!(h.hot_spots(10_000).hot_nodes.is_empty());
    }

    #[test]
    fn zero_capacity_reads_as_idle() {
        let h = Heatmap::from_values(2, 1, &[7, 0]);
        assert_eq!(h.fraction(0, 0), 0.0);
        assert!(h.hot_spots(0).hot_nodes.is_empty());
        assert!(h.percent_panel("t", 0).contains("|  0%  |  0%  |"));
    }

    #[test]
    fn panel_has_title_borders_and_one_row_per_grid_row() {
        let art = hot_grid().percent_panel("Zbox utilization (%)", 10_000);
        // Title + 5 borders + 4 rows of cells.
        assert_eq!(art.lines().count(), 1 + 5 + 4);
        assert!(art.starts_with("Zbox utilization (%)\n+------+------+------+------+\n"));
    }

    #[test]
    fn hot_cell_stands_out() {
        let art = hot_grid().percent_panel("Zbox", 10_000);
        assert!(art.contains("| 53% @|"), "{art}");
        assert_eq!(art.matches("  4%  |").count(), 15, "{art}");
    }

    #[test]
    fn shade_buckets() {
        assert_eq!(shade(0.9), '#');
        assert_eq!(shade(0.6), '@');
        assert_eq!(shade(0.3), '+');
        assert_eq!(shade(0.15), '.');
        assert_eq!(shade(0.01), ' ');
    }
}
