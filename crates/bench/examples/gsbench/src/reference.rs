//! Simulated outputs, the committed artifacts they must equal, and the
//! digest that lets two runs (or two commits) compare them exactly.

use std::collections::BTreeMap;

use serde_json::{json, Value};

/// `(x, y)` points of one series.
pub type Points = Vec<(f64, f64)>;

/// One simulated curve, keyed like a series of a committed artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct Curve {
    /// Artifact id, e.g. `fig04`; the file is `results/<artifact>.json`.
    pub artifact: String,
    /// Series label inside the artifact.
    pub label: String,
    pub points: Points,
}

impl Curve {
    pub fn new(artifact: &str, label: impl Into<String>) -> Self {
        Curve {
            artifact: artifact.to_owned(),
            label: label.into(),
            points: Vec::new(),
        }
    }

    pub fn to_json(&self) -> Value {
        let points: Vec<Value> = self.points.iter().map(|&(x, y)| json!([x, y])).collect();
        json!({ "artifact": self.artifact, "label": self.label, "points": points })
    }

    pub fn from_json(v: &Value) -> Option<Curve> {
        let points = v
            .get("points")?
            .as_array()?
            .iter()
            .map(|p| {
                let p = p.as_array()?;
                Some((p.first()?.as_f64()?, p.get(1)?.as_f64()?))
            })
            .collect::<Option<Vec<_>>>()?;
        Some(Curve {
            artifact: v.get("artifact")?.as_str()?.to_owned(),
            label: v.get("label")?.as_str()?.to_owned(),
            points,
        })
    }
}

/// The committed series the benchmark checks against, by artifact and
/// label.
#[derive(Debug, Clone, Default)]
pub struct Reference {
    pub series: BTreeMap<(String, String), Points>,
}

/// The artifacts the four workloads reproduce.
pub const ARTIFACTS: [&str; 4] = ["fig04", "fig05", "fig15", "resilience"];

impl Reference {
    /// Load every series of [`ARTIFACTS`] from `dir` (the repository's
    /// `results/`).
    pub fn load(dir: &str) -> Result<Reference, String> {
        let mut series = BTreeMap::new();
        for artifact in ARTIFACTS {
            let path = format!("{dir}/{artifact}.json");
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let root = serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
            for (label, points) in parse_figure(&root).ok_or(format!("{path}: not a figure"))? {
                series.insert((artifact.to_owned(), label), points);
            }
        }
        Ok(Reference { series })
    }

    /// Series labels of one artifact, in key order.
    pub fn labels(&self, artifact: &str) -> Vec<&str> {
        self.series
            .keys()
            .filter(|(a, _)| a == artifact)
            .map(|(_, l)| l.as_str())
            .collect()
    }

    /// Check `curves` point by point against the committed series: every
    /// series of each artifact the curves touch must be present, with the
    /// same number of points and bit-identical `x` and `y`. The error names
    /// the artifact, series, point, field and both values.
    pub fn judge(&self, curves: &[Curve]) -> Result<(), String> {
        let mut seen: BTreeMap<&str, usize> = BTreeMap::new();
        for c in curves {
            *seen.entry(c.artifact.as_str()).or_insert(0) += 1;
            let key = (c.artifact.clone(), c.label.clone());
            let want = self
                .series
                .get(&key)
                .ok_or_else(|| format!("{}: no committed series {:?}", c.artifact, c.label))?;
            if want.len() != c.points.len() {
                return Err(format!(
                    "{} / {:?}: {} points, committed {}",
                    c.artifact,
                    c.label,
                    c.points.len(),
                    want.len()
                ));
            }
            for (i, (&(x, y), &(wx, wy))) in c.points.iter().zip(want).enumerate() {
                for (field, got, committed) in [("x", x, wx), ("y", y, wy)] {
                    if got.to_bits() != committed.to_bits() {
                        return Err(format!(
                            "{} / {:?} point {i} field {field}: committed {committed} -> simulated {got}",
                            c.artifact, c.label
                        ));
                    }
                }
            }
        }
        for (artifact, n) in seen {
            let committed = self.labels(artifact).len();
            if n != committed {
                return Err(format!(
                    "{artifact}: pass produced {n} series, committed {committed}"
                ));
            }
        }
        Ok(())
    }
}

/// `(label, points)` of every series of a committed figure.
fn parse_figure(root: &Value) -> Option<Vec<(String, Points)>> {
    root.get("series")?
        .as_array()?
        .iter()
        .map(|s| {
            let label = s.get("label")?.as_str()?.to_owned();
            let points = s
                .get("points")?
                .as_array()?
                .iter()
                .map(|p| Some((p.get("x")?.as_f64()?, p.get("y")?.as_f64()?)))
                .collect::<Option<Vec<_>>>()?;
            Some((label, points))
        })
        .collect()
}

/// FNV-1a over every curve's identity and the bits of every value: equal
/// digests mean bit-identical simulated outputs.
pub fn digest(curves: &[Curve]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for c in curves {
        eat(c.artifact.as_bytes());
        eat(c.label.as_bytes());
        for &(x, y) in &c.points {
            eat(&x.to_bits().to_le_bytes());
            eat(&y.to_bits().to_le_bytes());
        }
    }
    format!("{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference() -> Reference {
        let mut series = BTreeMap::new();
        series.insert(("fig15".into(), "A".into()), vec![(1.0, 2.0), (3.0, 4.0)]);
        Reference { series }
    }

    fn curve(points: Vec<(f64, f64)>) -> Curve {
        Curve {
            artifact: "fig15".into(),
            label: "A".into(),
            points,
        }
    }

    #[test]
    fn judge_accepts_equal_and_names_the_moved_field() {
        let r = reference();
        assert_eq!(r.judge(&[curve(vec![(1.0, 2.0), (3.0, 4.0)])]), Ok(()));
        let moved = curve(vec![
            (1.0, 2.0),
            (3.0, f64::from_bits(4.0f64.to_bits() + 1)),
        ]);
        let err = r.judge(&[moved]).unwrap_err();
        assert!(err.contains("point 1 field y"), "{err}");
        assert!(r.judge(&[curve(vec![(1.0, 2.0)])]).is_err(), "short curve");
    }

    #[test]
    fn digest_sees_one_ulp() {
        let a = curve(vec![(1.0, 2.0)]);
        let b = curve(vec![(1.0, f64::from_bits(2.0f64.to_bits() + 1))]);
        let one = std::slice::from_ref(&a);
        assert_ne!(digest(one), digest(&[b]));
        assert_eq!(digest(one), digest(&[curve(vec![(1.0, 2.0)])]));
    }

    #[test]
    fn curves_round_trip_exactly() {
        let c = curve(vec![(4255.853164421125, 0.1 + 0.2)]);
        let back = Curve::from_json(
            &serde_json::from_str(&serde_json::to_string(&c.to_json()).unwrap()).unwrap(),
        );
        assert_eq!(back, Some(c));
    }
}
