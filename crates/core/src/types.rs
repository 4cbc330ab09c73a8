//! Structured experiment results: every figure and table reproduction
//! returns one of these, so tests, examples and the `reproduce` binary all
//! consume the same data.

use serde::{Deserialize, Serialize};

/// One (x, y) sample.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Point {
    /// Abscissa (CPU count, dataset bytes, outstanding requests, …).
    pub x: f64,
    /// Ordinate (latency ns, GB/s, IPC, …).
    pub y: f64,
}

/// A named curve.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Series {
    /// Legend label (usually a machine name).
    pub label: String,
    /// Samples in x order.
    pub points: Vec<Point>,
}

impl Series {
    /// A series from `(x, y)` pairs.
    pub fn from_pairs(
        label: impl Into<String>,
        pairs: impl IntoIterator<Item = (f64, f64)>,
    ) -> Self {
        Series {
            label: label.into(),
            points: pairs.into_iter().map(|(x, y)| Point { x, y }).collect(),
        }
    }

    /// The y value at a given x, if sampled.
    pub fn y_at(&self, x: f64) -> Option<f64> {
        self.points
            .iter()
            .find(|p| (p.x - x).abs() < 1e-9)
            .map(|p| p.y)
    }

    /// The largest y in the series.
    pub fn peak_y(&self) -> f64 {
        self.points
            .iter()
            .map(|p| p.y)
            .fold(f64::NEG_INFINITY, f64::max)
    }
}

/// A reproduced figure: labelled series over labelled axes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Figure {
    /// Paper figure id, e.g. `"fig15"`.
    pub id: String,
    /// Title matching the paper's caption.
    pub title: String,
    /// X-axis label.
    pub x_label: String,
    /// Y-axis label.
    pub y_label: String,
    /// The curves.
    pub series: Vec<Series>,
}

impl Figure {
    /// A figure shell.
    pub fn new(
        id: impl Into<String>,
        title: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
    ) -> Self {
        Figure {
            id: id.into(),
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            series: Vec::new(),
        }
    }

    /// Add a series (builder style).
    pub fn with_series(mut self, series: Series) -> Self {
        self.series.push(series);
        self
    }

    /// Find a series by label substring.
    pub fn series_like(&self, pat: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.label.contains(pat))
    }

    /// Render as a plain-text table (x column + one column per series).
    pub fn to_text(&self) -> String {
        let mut out = format!("{} — {}\n", self.id, self.title);
        out.push_str(&format!("{:>14}", self.x_label));
        for s in &self.series {
            out.push_str(&format!("  {:>22}", truncate(&s.label, 22)));
        }
        out.push('\n');
        let xs: Vec<f64> = {
            let mut xs: Vec<f64> = self
                .series
                .iter()
                .flat_map(|s| s.points.iter().map(|p| p.x))
                .collect();
            xs.sort_by(f64::total_cmp);
            xs.dedup_by(|a, b| (*a - *b).abs() < 1e-9);
            xs
        };
        for x in xs {
            out.push_str(&format!("{x:>14.4}"));
            for s in &self.series {
                match s.y_at(x) {
                    Some(y) => out.push_str(&format!("  {y:>22.4}")),
                    None => out.push_str(&format!("  {:>22}", "-")),
                }
            }
            out.push('\n');
        }
        out.push_str(&format!("(y axis: {})\n", self.y_label));
        out
    }
}

fn truncate(s: &str, n: usize) -> &str {
    match s.char_indices().nth(n) {
        Some((i, _)) => &s[..i],
        None => s,
    }
}

/// A row of a ratio/summary table (Fig. 28, Table 1).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RatioRow {
    /// Row label.
    pub label: String,
    /// Value our reproduction computed.
    pub computed: f64,
    /// The paper's published value, when it printed one.
    pub paper: Option<f64>,
}

/// A reproduced table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table {
    /// Paper table/figure id.
    pub id: String,
    /// Caption.
    pub title: String,
    /// Rows.
    pub rows: Vec<RatioRow>,
}

impl Table {
    /// Render as plain text.
    pub fn to_text(&self) -> String {
        let mut out = format!("{} — {}\n", self.id, self.title);
        out.push_str(&format!(
            "{:<48} {:>12} {:>12}\n",
            "metric", "computed", "paper"
        ));
        for r in &self.rows {
            let paper = r
                .paper
                .map_or_else(|| "-".to_string(), |p| format!("{p:.3}"));
            out.push_str(&format!(
                "{:<48} {:>12.3} {:>12}\n",
                truncate(&r.label, 48),
                r.computed,
                paper
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_lookup_and_peak() {
        let s = Series::from_pairs("m", [(1.0, 10.0), (2.0, 30.0), (4.0, 20.0)]);
        assert_eq!(s.y_at(2.0), Some(30.0));
        assert_eq!(s.y_at(3.0), None);
        assert_eq!(s.peak_y(), 30.0);
    }

    #[test]
    fn figure_text_render_contains_all_series() {
        let f = Figure::new("figX", "demo", "n", "v")
            .with_series(Series::from_pairs("a", [(1.0, 2.0)]))
            .with_series(Series::from_pairs("b", [(1.0, 3.0), (2.0, 4.0)]));
        let txt = f.to_text();
        assert!(txt.contains("figX"));
        assert!(txt.contains('a') && txt.contains('b'));
        assert!(txt.lines().count() >= 4);
        assert!(f.series_like("b").is_some());
        assert!(f.series_like("zzz").is_none());
    }

    #[test]
    fn table_text_render() {
        let t = Table {
            id: "table1".into(),
            title: "gains".into(),
            rows: vec![
                RatioRow {
                    label: "4x2 avg".into(),
                    computed: 1.2,
                    paper: Some(1.2),
                },
                RatioRow {
                    label: "no paper value".into(),
                    computed: 3.0,
                    paper: None,
                },
            ],
        };
        let txt = t.to_text();
        assert!(txt.contains("1.200"));
        assert!(txt.contains('-'));
    }
}
