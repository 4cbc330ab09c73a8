//! The metric definitions in the repository's `BENCHMARK.json`: names,
//! units, directions and bounds. The benchmark reports exactly these.

use serde_json::Value;

#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    /// `true` when a higher value is better.
    pub higher_is_better: bool,
    /// Worsening allowed before a change counts as a regression, as a
    /// share of the base value (end-to-end metrics only).
    pub bound: Option<f64>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
}

impl Spec {
    pub fn load(path: &str) -> Result<Spec, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let root = serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
        let list = |key: &str| -> Result<Vec<MetricDef>, String> {
            root.get(key)
                .and_then(Value::as_array)
                .ok_or(format!("{path}: no {key} list"))?
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Value::as_str);
                    Some(MetricDef {
                        name: field("name")?.to_owned(),
                        unit: field("unit")?.to_owned(),
                        higher_is_better: match field("better")? {
                            "higher" => true,
                            "lower" => false,
                            _ => return None,
                        },
                        bound: m.get("bound").and_then(Value::as_f64),
                    })
                })
                .collect::<Option<Vec<_>>>()
                .ok_or(format!("{path}: malformed {key} entry"))
        };
        Ok(Spec {
            end_to_end: list("end_to_end")?,
            per_layer: list("per_layer")?,
        })
    }
}
