//! `--compare BASE NEW`: judge every (workload, metric) pair of two
//! `result.json` files against the directions and bounds in
//! `BENCHMARK.json`.

use serde_json::Value;

use crate::spec::{MetricDef, Spec};

/// Extra worsening allowed in the chase's anchor error, percentage points.
const ANCHOR_BOUND_PP: f64 = 0.5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

/// One side of a comparison: the run's estimate, its spread (the gap
/// between the estimates from its even and odd passes, as a share of the
/// estimate) and those two half-run estimates.
struct Side {
    value: f64,
    spread: f64,
    halves: Vec<f64>,
}

impl Side {
    fn from_json(m: &Value) -> Option<Side> {
        Some(Side {
            value: m.get("value")?.as_f64()?,
            spread: m.get("spread")?.as_f64()?,
            halves: m
                .get("halves")?
                .as_array()?
                .iter()
                .map(Value::as_f64)
                .collect::<Option<_>>()?,
        })
    }
}

/// The verdict on one metric: unresolved when either side's spread
/// exceeds the bound, unless both new half-run estimates beat both base
/// ones.
fn verdict(def: &MetricDef, base: &Side, new: &Side) -> Verdict {
    let bound = def.bound.unwrap_or(0.0);
    let better = |a: f64, b: f64| if def.higher_is_better { a > b } else { a < b };
    let ratio = new.value / base.value;
    let worse = if def.higher_is_better {
        1.0 - ratio
    } else {
        ratio - 1.0
    };
    let all_better = new
        .halves
        .iter()
        .all(|&n| base.halves.iter().all(|&b| better(n, b)));
    if base.spread.max(new.spread) > bound {
        if all_better {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        }
    } else if worse > bound {
        Verdict::Regressed
    } else if -worse > bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

/// Print the comparison; `Ok(false)` when a pair regressed or a
/// simulated digest differs.
pub fn compare(base_path: &str, new_path: &str) -> Result<bool, String> {
    let spec = Spec::load("BENCHMARK.json")?;
    let (base, new) = (load(base_path)?, load(new_path)?);
    let workloads = |v: &Value| {
        v.get("workloads")
            .and_then(Value::as_object)
            .cloned()
            .unwrap_or_default()
    };
    let (bw, nw) = (workloads(&base), workloads(&new));
    let mut counts = [0usize; 4];
    let mut mismatches = 0;
    println!(
        "{:<13} {:<30} {:>14} {:>14} {:>8} {:>17} verdict",
        "workload", "metric", "base", "new", "ratio", "spread base/new"
    );
    for (name, n) in &nw {
        let Some(b) = bw.get(name) else {
            println!("{name:<13} (not in {base_path})");
            continue;
        };
        let digest = |v: &Value| {
            v.get("sim_digest")
                .and_then(Value::as_str)
                .unwrap_or("none")
                .to_owned()
        };
        if digest(b) != digest(n) {
            mismatches += 1;
            println!(
                "{name:<13} {:<30} {:>14} {:>14} SIM_DIGEST MISMATCH",
                "sim_digest",
                digest(b),
                digest(n)
            );
        }
        let metric = |v: &Value, m: &str| {
            v.get("metrics")
                .and_then(|x| x.get(m))
                .and_then(Side::from_json)
        };
        for def in &spec.end_to_end {
            let (Some(bs), Some(ns)) = (metric(b, &def.name), metric(n, &def.name)) else {
                println!("{name:<13} {:<30} (missing)", def.name);
                continue;
            };
            let v = verdict(def, &bs, &ns);
            counts[v as usize] += 1;
            println!(
                "{name:<13} {:<30} {:>14.6} {:>14.6} {:>8.4} {:>8.4}/{:<8.4} {v:?} (bound {})",
                def.name,
                bs.value,
                ns.value,
                ns.value / bs.value,
                bs.spread,
                ns.spread,
                def.bound.unwrap_or(0.0)
            );
        }
        // Two absolute rules: any new failed pass regresses, and the chase
        // may lose at most ANCHOR_BOUND_PP of fidelity.
        for (key, allowed) in [("failed_frac", 0.0), ("anchor_err_pct", ANCHOR_BOUND_PP)] {
            let (Some(bv), Some(nv)) = (
                b.get(key).and_then(Value::as_f64),
                n.get(key).and_then(Value::as_f64),
            ) else {
                continue;
            };
            let v = if nv - bv > allowed {
                Verdict::Regressed
            } else if nv < bv {
                Verdict::Improved
            } else {
                Verdict::Unchanged
            };
            counts[v as usize] += 1;
            println!("{name:<13} {key:<30} {bv:>14.6} {nv:>14.6} {:>8} {:>17} {v:?} (allowed +{allowed})", "-", "-");
        }
    }
    let layer = |v: &Value, m: &str| {
        v.get("per_layer")
            .and_then(|x| x.get(m))
            .and_then(|x| x.get("value"))
            .and_then(Value::as_f64)
    };
    for def in &spec.per_layer {
        if let (Some(bv), Some(nv)) = (layer(&base, &def.name), layer(&new, &def.name)) {
            println!(
                "{:<13} {:<30} {bv:>14.6} {nv:>14.6} {:>8.4} {:>17} (per-layer, no bound)",
                "trace",
                def.name,
                nv / bv,
                "-"
            );
        }
    }
    let [improved, unchanged, regressed, unresolved] = counts;
    println!(
        "compare: {improved} improved, {unchanged} unchanged, {regressed} regressed, {unresolved} unresolved, {mismatches} sim_digest mismatch(es)"
    );
    Ok(regressed == 0 && mismatches == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(bound: f64) -> MetricDef {
        MetricDef {
            name: "host_s".into(),
            unit: "s".into(),
            higher_is_better: false,
            bound: Some(bound),
        }
    }

    fn side(value: f64, spread: f64, halves: &[f64]) -> Side {
        Side {
            value,
            spread,
            halves: halves.to_vec(),
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let d = def(0.10);
        let base = side(1.0, 0.01, &[0.99, 1.0, 1.01]);
        assert_eq!(
            verdict(&d, &base, &side(1.05, 0.01, &[1.05])),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(&d, &base, &side(1.2, 0.01, &[1.2])),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&d, &base, &side(0.8, 0.01, &[0.8])),
            Verdict::Improved
        );
        assert_eq!(
            verdict(&d, &base, &side(1.0, 0.3, &[0.7, 1.3])),
            Verdict::Unresolved
        );
        // A wide spread still resolves when every new run beats every base run.
        assert_eq!(
            verdict(&d, &base, &side(0.5, 0.3, &[0.4, 0.6])),
            Verdict::Improved
        );
    }
}
