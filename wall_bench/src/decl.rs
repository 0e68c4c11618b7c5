//! What `BENCHMARK.json` declares: workload names, metric names with unit,
//! direction and bound, and the run length.
//!
//! The file is compiled in, so the benchmark cannot drift from it unnoticed:
//! every invocation checks that the workloads it can load and the metrics it
//! emits are exactly the declared ones, and the bounds `--repeat-check`
//! applies are the declared bounds.

use serde::{map_get, Value};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDecl {
    pub name: String,
    pub unit: String,
    /// `true` when a higher value is better.
    pub higher_is_better: bool,
    /// Share of the reference median by which the metric may get worse before
    /// it counts as a regression. `None` for per-layer metrics.
    pub bound: Option<f64>,
}

/// The parsed declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct Declared {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricDecl>,
    pub per_layer: Vec<MetricDecl>,
}

impl Declared {
    /// Parses the compiled-in `BENCHMARK.json`.
    pub fn load() -> Result<Declared, String> {
        Declared::parse(BENCHMARK_JSON)
    }

    fn parse(text: &str) -> Result<Declared, String> {
        let tree: Value = serde_json::from_str(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let root = tree.as_map().ok_or("BENCHMARK.json: not an object")?;
        let list = |key: &str| -> Result<&[Value], String> {
            map_get(root, key)
                .and_then(Value::as_array)
                .ok_or(format!("BENCHMARK.json: `{key}` is not a list"))
        };
        let run_seconds = match map_get(root, "run_seconds") {
            Some(Value::Int(s)) if *s > 0 => *s as u64,
            _ => return Err("BENCHMARK.json: `run_seconds` is not a positive integer".into()),
        };
        let workloads = list("workloads")?
            .iter()
            .map(|w| str_field(w, "name", "workloads"))
            .collect::<Result<Vec<_>, _>>()?;
        let metrics = |key: &str, bounded: bool| -> Result<Vec<MetricDecl>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    let name = str_field(m, "name", key)?;
                    let higher_is_better = match str_field(m, "better", key)?.as_str() {
                        "higher" => true,
                        "lower" => false,
                        other => return Err(format!("{key}.{name}: better = `{other}`")),
                    };
                    let bound = match (bounded, m.as_map().and_then(|e| map_get(e, "bound"))) {
                        (false, None) => None,
                        (true, Some(Value::Float(b))) => Some(*b),
                        (true, Some(Value::Int(b))) => Some(*b as f64),
                        _ => return Err(format!("{key}.{name}: missing or misplaced `bound`")),
                    };
                    Ok(MetricDecl {
                        unit: str_field(m, "unit", key)?,
                        name,
                        higher_is_better,
                        bound,
                    })
                })
                .collect()
        };
        Ok(Declared {
            run_seconds,
            workloads,
            end_to_end: metrics("end_to_end", true)?,
            per_layer: metrics("per_layer", false)?,
        })
    }
}

fn str_field(entry: &Value, field: &str, list: &str) -> Result<String, String> {
    entry
        .as_map()
        .and_then(|e| map_get(e, field))
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or(format!("BENCHMARK.json: a `{list}` entry has no `{field}`"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compiled_in_declaration_parses_and_has_setup_s() {
        let d = Declared::load().expect("BENCHMARK.json parses");
        assert!(d.workloads.len() >= 2);
        let setup = d
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is declared");
        assert_eq!(setup.unit, "s");
        assert!(!setup.higher_is_better);
        assert!(d
            .end_to_end
            .iter()
            .all(|m| m.bound.is_some_and(|b| b <= 0.25)));
        assert!(d.per_layer.iter().all(|m| m.bound.is_none()));
    }

    #[test]
    fn malformed_declarations_name_the_field() {
        let err = Declared::parse(r#"{"run_seconds": 10, "workloads": 3}"#).unwrap_err();
        assert!(err.contains("workloads"), "{err}");
        let err = Declared::parse(
            r#"{"run_seconds": 10, "workloads": [], "per_layer": [],
                "end_to_end": [{"name": "x", "unit": "s", "better": "lower"}]}"#,
        )
        .unwrap_err();
        assert!(err.contains("end_to_end.x"), "{err}");
    }
}
