//! Printing and writing results: the table a person reads, the result line
//! the driver reads, the JSON file, and the two-set comparison.

use serde::Value;

use crate::decl::{Declared, MetricDecl};
use crate::e2e;
use crate::layers;
use crate::run::Pass;
use crate::stats::rel_diff;

/// Which of the two passes a result came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PassKind {
    /// `--trace 0`: the end-to-end metrics, telemetry off.
    EndToEnd,
    /// `--trace 1`: the per-layer metrics, replays and a traced rep.
    PerLayer,
}

impl PassKind {
    pub fn key(self) -> &'static str {
        match self {
            PassKind::EndToEnd => "end_to_end",
            PassKind::PerLayer => "per_layer",
        }
    }

    /// The metric names this pass emits, in order.
    pub fn names(self) -> &'static [&'static str] {
        match self {
            PassKind::EndToEnd => &e2e::NAMES,
            PassKind::PerLayer => &layers::NAMES,
        }
    }

    pub fn declared(self, declared: &Declared) -> &[MetricDecl] {
        match self {
            PassKind::EndToEnd => &declared.end_to_end,
            PassKind::PerLayer => &declared.per_layer,
        }
    }
}

/// One pass over one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadResult {
    pub workload: String,
    pub kind: PassKind,
    pub pass: Pass,
}

impl WorkloadResult {
    pub fn correct(&self) -> bool {
        self.pass.violations.is_empty()
    }
}

/// Checks that `emitted` names are exactly the names `BENCHMARK.json`
/// declares for `kind`, in order.
pub fn check_names(kind: PassKind, emitted: &[&str], declared: &Declared) -> Result<(), String> {
    let declared: Vec<&str> = kind
        .declared(declared)
        .iter()
        .map(|d| d.name.as_str())
        .collect();
    if emitted == declared {
        return Ok(());
    }
    let missing: Vec<_> = declared.iter().filter(|d| !emitted.contains(d)).collect();
    let extra: Vec<_> = emitted.iter().filter(|e| !declared.contains(e)).collect();
    Err(format!(
        "{}: the benchmark and BENCHMARK.json disagree: declared but not emitted {missing:?}, \
         emitted but not declared {extra:?} (equal sets mean the order differs)",
        kind.key()
    ))
}

fn entry(key: &str, value: Value) -> (String, Value) {
    (key.to_string(), value)
}

fn strings(items: &[String]) -> Value {
    Value::Array(items.iter().cloned().map(Value::Str).collect())
}

/// The result object of one pass: `correct`, `attempted`, `failed` and
/// `metrics` (`name → {value, unit}`), as the driver's contract spells it.
/// With `detail`, each metric also carries min / median / max / n of the
/// repeated measurements behind it.
fn result_value(result: &WorkloadResult, declared: &Declared, detail: bool) -> Value {
    let units = result.kind.declared(declared);
    let metrics = result
        .pass
        .metrics
        .iter()
        .map(|metric| {
            let unit = units
                .iter()
                .find(|d| d.name == metric.name)
                .map_or("", |d| d.unit.as_str());
            let mut fields = vec![
                entry("value", Value::Float(metric.value)),
                entry("unit", Value::Str(unit.to_string())),
            ];
            if let (true, Some(s)) = (detail, metric.spread) {
                fields.extend([
                    entry("min", Value::Float(s.min)),
                    entry("median", Value::Float(s.median)),
                    entry("max", Value::Float(s.max)),
                    entry("n", Value::Int(s.n as i128)),
                ]);
            }
            entry(metric.name, Value::Map(fields))
        })
        .collect();
    Value::Map(vec![
        entry("correct", Value::Bool(result.correct())),
        entry("attempted", Value::Int(result.pass.attempted as i128)),
        entry("failed", Value::Int(result.pass.failed as i128)),
        entry("metrics", Value::Map(metrics)),
    ])
}

/// The one-line JSON object the driver reads from the end of standard output.
pub fn contract_line(result: &WorkloadResult, declared: &Declared) -> String {
    serde_json::to_string(&result_value(result, declared, false)).expect("a value tree serializes")
}

/// Everything one invocation measured, as a JSON document.
pub fn document(
    sets: &[Vec<WorkloadResult>],
    declared: &Declared,
    seed: u64,
    seconds: u64,
) -> String {
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    let sets = sets
        .iter()
        .map(|set| {
            Value::Array(
                set.iter()
                    .map(|result| {
                        Value::Map(vec![
                            entry("workload", Value::Str(result.workload.clone())),
                            entry("pass", Value::Str(result.kind.key().to_string())),
                            entry("result", result_value(result, declared, true)),
                            entry("violations", strings(&result.pass.violations)),
                            entry("notes", strings(&result.pass.notes)),
                        ])
                    })
                    .collect(),
            )
        })
        .collect();
    let tree = Value::Map(vec![
        entry("benchmark", Value::Str("wall_bench".into())),
        entry("seed", Value::Int(seed as i128)),
        entry("seconds", Value::Int(seconds as i128)),
        // Single process, single thread: recorded so nobody reads a
        // parallel speed-up into these numbers.
        entry("available_parallelism", Value::Int(parallelism as i128)),
        entry("sets", Value::Array(sets)),
    ]);
    serde_json::to_string_pretty(&tree).expect("a value tree serializes")
}

/// `value` with six significant digits, however small or large it is.
fn six_digits(value: f64) -> String {
    let magnitude = if value == 0.0 {
        0
    } else {
        value.abs().log10().floor() as i32
    };
    format!("{value:.*}", (5 - magnitude).clamp(0, 12) as usize)
}

/// Prints one pass: every metric by name with its unit, the spread of the
/// repeated measurements, and the bound where there is one.
pub fn print_result(result: &WorkloadResult, declared: &Declared) {
    println!(
        "== {} · {} · attempted {} failed {} · {}",
        result.workload,
        result.kind.key(),
        result.pass.attempted,
        result.pass.failed,
        if result.correct() {
            "correct"
        } else {
            "INCORRECT"
        },
    );
    for metric in &result.pass.metrics {
        let decl = result
            .kind
            .declared(declared)
            .iter()
            .find(|d| d.name == metric.name);
        let unit = decl.map_or("", |d| d.unit.as_str());
        let bound = decl
            .and_then(|d| d.bound)
            .map_or(String::new(), |b| format!("  bound {:.0}%", b * 100.0));
        let spread = metric.spread.map_or(String::new(), |s| {
            format!(
                "  [min {} max {} n {}]",
                six_digits(s.min),
                six_digits(s.max),
                s.n
            )
        });
        println!(
            "  {:<34} {:>14} {:<6}{spread}{bound}",
            metric.name,
            six_digits(metric.value),
            unit
        );
    }
    for note in &result.pass.notes {
        println!("  ({note})");
    }
    for violation in &result.pass.violations {
        println!("  VIOLATION {violation}");
    }
}

/// `--repeat-check`: compares two sets of the same code and seed, metric by
/// metric. Exact metrics must be identical; host-clock end-to-end metrics may
/// get worse by at most their declared bound. Per-layer metrics are printed
/// and not gated. Returns one message per disagreement.
pub fn compare_sets(
    first: &[WorkloadResult],
    second: &[WorkloadResult],
    declared: &Declared,
) -> Vec<String> {
    let mut disagreements = Vec::new();
    println!("== repeat check: set 1 vs set 2 (worse = in the direction that counts against it)");
    println!(
        "  {:<20} {:<34} {:>16} {:>16} {:>9} {:>7}",
        "workload", "metric", "set 1", "set 2", "worse by", "bound"
    );
    for (a, b) in first.iter().zip(second) {
        for (ma, mb) in a.pass.metrics.iter().zip(&b.pass.metrics) {
            let decl = a.kind.declared(declared).iter().find(|d| d.name == ma.name);
            let higher_is_better = decl.is_some_and(|d| d.higher_is_better);
            let worse_by = rel_diff(ma.value, mb.value) * if higher_is_better { -1.0 } else { 1.0 };
            let bound = decl.and_then(|d| d.bound);
            println!(
                "  {:<20} {:<34} {:>16} {:>16} {:>8.2}% {:>7}",
                a.workload,
                ma.name,
                six_digits(ma.value),
                six_digits(mb.value),
                worse_by * 100.0,
                bound.map_or("-".to_string(), |b| format!("{:.0}%", b * 100.0)),
            );
            let Some(bound) = bound else { continue };
            if e2e::HOST_CLOCK.contains(&ma.name) {
                if worse_by > bound {
                    disagreements.push(format!(
                        "{}: {}: set 2 is {:.1}% worse than set 1, bound {:.0}%",
                        a.workload,
                        ma.name,
                        worse_by * 100.0,
                        bound * 100.0
                    ));
                }
            } else if ma.value != mb.value {
                disagreements.push(format!(
                    "{}: {}: exact metric differs between sets: {} vs {}",
                    a.workload, ma.name, ma.value, mb.value
                ));
            }
        }
    }
    disagreements
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::Metric;
    use crate::stats::summarize;
    use serde::map_get;

    fn sample(kind: PassKind, names: &[&'static str]) -> WorkloadResult {
        let metrics = names
            .iter()
            .enumerate()
            .map(|(i, name)| {
                let values = [i as f64 + 0.25, i as f64 + 1.5, i as f64 + 2.125];
                Metric::with_spread(name, values[1], summarize(&values))
            })
            .collect();
        WorkloadResult {
            workload: "small_unbatched".into(),
            kind,
            pass: Pass {
                metrics,
                attempted: 60_000,
                failed: 0,
                ..Pass::default()
            },
        }
    }

    #[test]
    fn six_digits_keeps_small_and_large_values_readable() {
        assert_eq!(six_digits(0.0000565815), "0.0000565815");
        assert_eq!(six_digits(2272.9229833), "2272.92");
        assert_eq!(six_digits(201519.2169), "201519");
        assert_eq!(six_digits(0.0), "0.00000");
        assert_eq!(six_digits(-0.128401), "-0.128401");
    }

    #[test]
    fn emitted_names_are_exactly_the_declared_ones() {
        let declared = Declared::load().expect("declaration");
        for kind in [PassKind::EndToEnd, PassKind::PerLayer] {
            check_names(kind, kind.names(), &declared).unwrap();
        }
        for host in e2e::HOST_CLOCK {
            assert!(e2e::NAMES.contains(&host));
        }
        let err = check_names(PassKind::EndToEnd, &["setup_s", "b"], &declared).unwrap_err();
        assert!(
            err.contains("\"wall_ns_per_op\"") && err.contains("[\"b\"]"),
            "{err}"
        );
    }

    #[test]
    fn contract_line_round_trips_with_exactly_the_declared_metrics() {
        let declared = Declared::load().expect("declaration");
        for kind in [PassKind::EndToEnd, PassKind::PerLayer] {
            let result = sample(kind, kind.names());
            let line = contract_line(&result, &declared);
            assert!(!line.contains('\n'));
            let parsed: Value = serde_json::from_str(&line).expect("the line is JSON");
            let root = parsed.as_map().expect("an object");
            let keys: Vec<&str> = root.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(map_get(root, "correct"), Some(&Value::Bool(true)));
            assert_eq!(map_get(root, "attempted"), Some(&Value::Int(60_000)));
            let metrics = map_get(root, "metrics")
                .and_then(Value::as_map)
                .expect("metrics");
            let emitted: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
            let expected: Vec<&str> = kind
                .declared(&declared)
                .iter()
                .map(|d| d.name.as_str())
                .collect();
            assert_eq!(emitted, expected);
            for ((_, metric), decl) in metrics.iter().zip(kind.declared(&declared)) {
                let fields = metric.as_map().expect("a metric object");
                assert_eq!(fields.len(), 2, "value and unit only");
                assert_eq!(
                    map_get(fields, "unit"),
                    Some(&Value::Str(decl.unit.clone()))
                );
                assert!(matches!(map_get(fields, "value"), Some(Value::Float(_))));
            }
            // The document carries the same numbers plus the spread.
            let doc: Value =
                serde_json::from_str(&document(&[vec![result]], &declared, 1, 10)).expect("JSON");
            assert!(map_get(doc.as_map().unwrap(), "sets").is_some());
        }
    }

    #[test]
    fn repeat_check_gates_host_metrics_by_bound_and_exact_metrics_exactly() {
        let declared = Declared::load().expect("declaration");
        let first = sample(PassKind::EndToEnd, &e2e::NAMES);
        let same = std::slice::from_ref(&first);
        assert!(compare_sets(same, same, &declared).is_empty());

        let bound = |name: &str| {
            let decl = declared.end_to_end.iter().find(|d| d.name == name);
            decl.and_then(|d| d.bound).expect("declared with a bound")
        };
        let mut second = first.clone();
        let set = |result: &mut WorkloadResult, name: &str, factor: f64| {
            let metric = result
                .pass
                .metrics
                .iter_mut()
                .find(|m| m.name == name)
                .unwrap();
            metric.value *= factor;
        };
        // Within the bound on a host-clock metric: fine. Better: fine.
        set(
            &mut second,
            "wall_ns_per_op",
            1.0 + bound("wall_ns_per_op") * 0.9,
        );
        set(&mut second, "setup_s", 0.5);
        assert!(compare_sets(same, std::slice::from_ref(&second), &declared).is_empty());
        // Beyond it: reported. An exact metric off by a hair: reported.
        set(&mut second, "wall_ns_per_op", 1.5);
        set(&mut second, "allocs_per_op", 1.000001);
        let found = compare_sets(&[first], &[second], &declared);
        assert_eq!(found.len(), 2, "{found:?}");
        assert!(found[0].contains("wall_ns_per_op") && found[1].contains("allocs_per_op"));
    }
}
