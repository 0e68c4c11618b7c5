//! Exporters: Chrome `trace_event` JSON, JSONL span/metric lines, and the
//! JSONL schema validator the CI smoke step runs.
//!
//! The Chrome export is a standard `{"traceEvents": [...]}` document with
//! complete (`"ph": "X"`) events for duration spans and instant (`"ph": "i"`)
//! events for zero-duration ones; `pid` is the shard, `tid` the node, and
//! timestamps are virtual microseconds — open it in `chrome://tracing` or
//! [Perfetto](https://ui.perfetto.dev).

use serde::{Deserialize, Serialize, Value};

use crate::attribution::{CostCategory, ShardAttribution};
use crate::metrics::MetricSample;
use crate::span::{Span, SpanKind};

/// A serializable wrapper around a hand-built JSON [`Value`] tree.
struct RawJson(Value);

impl Serialize for RawJson {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

/// Everything a telemetry-enabled run produced, merged across shards and
/// ready for export.
#[derive(Debug, Clone, Default)]
pub struct TelemetryReport {
    /// Every recorded span (shard tracers first, then driver-level spans).
    pub spans: Vec<Span>,
    /// Snapshot of the metrics registry.
    pub metrics: Vec<MetricSample>,
    /// Per-shard cost attribution, `Idle` filled.
    pub attribution: Vec<ShardAttribution>,
    /// Spans dropped past the tracer cap (0 means the trace is complete).
    pub spans_dropped: u64,
}

impl TelemetryReport {
    /// Renders the spans as a Chrome `trace_event` JSON document.
    pub fn to_chrome_trace(&self) -> String {
        let events: Vec<Value> = self
            .spans
            .iter()
            .map(|span| {
                let mut fields = vec![
                    (
                        "name".to_string(),
                        Value::Str(span.kind.as_str().to_string()),
                    ),
                    ("cat".to_string(), Value::Str("recipe".to_string())),
                    ("pid".to_string(), Value::Int(span.shard as i128)),
                    ("tid".to_string(), Value::Int(span.node as i128)),
                    ("ts".to_string(), Value::Float(span.start_ns as f64 / 1e3)),
                ];
                if span.end_ns > span.start_ns {
                    fields.push(("ph".to_string(), Value::Str("X".to_string())));
                    fields.push((
                        "dur".to_string(),
                        Value::Float(span.duration_ns() as f64 / 1e3),
                    ));
                } else {
                    fields.push(("ph".to_string(), Value::Str("i".to_string())));
                    fields.push(("s".to_string(), Value::Str("t".to_string())));
                }
                fields.push((
                    "args".to_string(),
                    Value::Map(vec![("tag".to_string(), Value::Int(span.tag as i128))]),
                ));
                Value::Map(fields)
            })
            .collect();
        let doc = Value::Map(vec![
            ("traceEvents".to_string(), Value::Array(events)),
            ("displayTimeUnit".to_string(), Value::Str("ns".to_string())),
        ]);
        serde_json::to_string(&RawJson(doc)).expect("value trees always serialize")
    }

    /// Renders the report as JSONL: one `record: "span"` line per span, one
    /// `record: "metric"` line per registry sample, one `record: "attribution"`
    /// line per shard×category cell.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for span in &self.spans {
            let line = SpanLine {
                record: "span".to_string(),
                kind: span.kind.as_str().to_string(),
                shard: span.shard,
                node: span.node,
                start_ns: span.start_ns,
                end_ns: span.end_ns,
                tag: span.tag,
            };
            out.push_str(&serde_json::to_string(&line).expect("span lines serialize"));
            out.push('\n');
        }
        for sample in &self.metrics {
            let line = MetricLine {
                record: "metric".to_string(),
                sample: sample.clone(),
            };
            out.push_str(&serde_json::to_string(&line).expect("metric lines serialize"));
            out.push('\n');
        }
        for attr in &self.attribution {
            for (cat, ns) in attr.busy.entries() {
                let line = AttributionLine {
                    record: "attribution".to_string(),
                    shard: attr.shard,
                    category: cat.as_str().to_string(),
                    busy_ns: ns,
                    elapsed_ns: attr.elapsed_ns,
                    replicas: attr.replicas,
                };
                out.push_str(&serde_json::to_string(&line).expect("attribution lines serialize"));
                out.push('\n');
            }
        }
        out
    }
}

/// One JSONL span line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct SpanLine {
    /// Always `"span"`.
    pub(crate) record: String,
    /// A [`SpanKind`] stable name.
    pub kind: String,
    /// Shard id.
    pub shard: u32,
    /// Node id.
    pub node: u64,
    /// Span start, virtual ns.
    pub start_ns: u64,
    /// Span end, virtual ns.
    pub end_ns: u64,
    /// Correlation id.
    pub tag: u64,
}

/// One JSONL metric line (a flattened registry sample).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct MetricLine {
    /// Always `"metric"`.
    pub(crate) record: String,
    /// The registry sample.
    pub sample: MetricSample,
}

/// One JSONL attribution cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct AttributionLine {
    /// Always `"attribution"`.
    pub(crate) record: String,
    /// Shard id.
    pub shard: u32,
    /// A [`CostCategory`] stable name.
    pub category: String,
    /// Nanoseconds attributed to the category on this shard.
    pub(crate) busy_ns: u64,
    /// The shard's elapsed virtual time.
    pub elapsed_ns: u64,
    /// Replicas in the shard's group.
    pub replicas: u32,
}

#[derive(Debug, Clone, Deserialize)]
struct LineTag {
    record: String,
}

/// What [`validate_jsonl`] found in a well-formed export.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct JsonlSummary {
    /// Number of span lines.
    pub spans: usize,
    /// Number of metric lines.
    pub metrics: usize,
    /// Number of attribution lines.
    pub attribution: usize,
}

/// Validates a JSONL telemetry export against the span/metric/attribution
/// schema. Fails on malformed JSON, unknown record types, unknown span kinds
/// or categories, inverted span timestamps — and on an **empty trace** (no
/// span lines), which is how the CI smoke step catches a silently-disabled
/// tracer.
pub fn validate_jsonl(text: &str) -> Result<JsonlSummary, String> {
    let mut summary = JsonlSummary::default();
    for (lineno, line) in text.lines().enumerate() {
        let n = lineno + 1;
        if line.trim().is_empty() {
            continue;
        }
        let tag: LineTag =
            serde_json::from_str(line).map_err(|e| format!("line {n}: not a record: {e:?}"))?;
        match tag.record.as_str() {
            "span" => {
                let span: SpanLine = serde_json::from_str(line)
                    .map_err(|e| format!("line {n}: bad span line: {e:?}"))?;
                if SpanKind::parse(&span.kind).is_none() {
                    return Err(format!("line {n}: unknown span kind {:?}", span.kind));
                }
                if span.end_ns < span.start_ns {
                    return Err(format!(
                        "line {n}: span ends ({}) before it starts ({})",
                        span.end_ns, span.start_ns
                    ));
                }
                summary.spans += 1;
            }
            "metric" => {
                let metric: MetricLine = serde_json::from_str(line)
                    .map_err(|e| format!("line {n}: bad metric line: {e:?}"))?;
                if metric.sample.name.is_empty() {
                    return Err(format!("line {n}: metric with empty name"));
                }
                if !matches!(metric.sample.kind.as_str(), "counter" | "histogram") {
                    return Err(format!(
                        "line {n}: unknown metric kind {:?}",
                        metric.sample.kind
                    ));
                }
                summary.metrics += 1;
            }
            "attribution" => {
                let attr: AttributionLine = serde_json::from_str(line)
                    .map_err(|e| format!("line {n}: bad attribution line: {e:?}"))?;
                if !CostCategory::ALL
                    .iter()
                    .any(|c| c.as_str() == attr.category)
                {
                    return Err(format!("line {n}: unknown category {:?}", attr.category));
                }
                summary.attribution += 1;
            }
            other => return Err(format!("line {n}: unknown record type {other:?}")),
        }
    }
    if summary.spans == 0 {
        return Err("empty trace: no span lines".to_string());
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attribution::CostBreakdown;

    fn sample_report() -> TelemetryReport {
        let mut busy = CostBreakdown::new();
        busy.add(CostCategory::App, 700);
        busy.add(CostCategory::Idle, 300);
        let attr = ShardAttribution {
            shard: 0,
            replicas: 1,
            elapsed_ns: 1_000,
            busy,
        };
        TelemetryReport {
            spans: vec![
                Span {
                    kind: SpanKind::Replication,
                    shard: 0,
                    node: 2,
                    start_ns: 100,
                    end_ns: 400,
                    tag: 7,
                },
                Span::instant(SpanKind::Reply, 0, 2, 450, 7),
            ],
            metrics: vec![MetricSample {
                name: "commits".to_string(),
                labels: vec![("shard".to_string(), "0".to_string())],
                kind: "counter".to_string(),
                value: 12.0,
                count: 0,
                p50: 0.0,
                p90: 0.0,
                p99: 0.0,
                p999: 0.0,
            }],
            attribution: vec![attr],
            spans_dropped: 0,
        }
    }

    #[test]
    fn jsonl_round_trips_through_the_validator() {
        let report = sample_report();
        let jsonl = report.to_jsonl();
        let summary = validate_jsonl(&jsonl).expect("export validates");
        assert_eq!(summary.spans, 2);
        assert_eq!(summary.metrics, 1);
        assert_eq!(summary.attribution, CostCategory::COUNT);
    }

    #[test]
    fn validator_rejects_malformed_and_empty_traces() {
        assert!(validate_jsonl("").is_err(), "empty trace must fail");
        assert!(validate_jsonl("{not json}").is_err());
        assert!(validate_jsonl("{\"record\":\"mystery\"}").is_err());
        // A metric-only file has no spans: still an empty trace.
        let report = sample_report();
        let only_metrics: String = report
            .to_jsonl()
            .lines()
            .filter(|l| l.contains("\"metric\""))
            .map(|l| format!("{l}\n"))
            .collect();
        assert!(validate_jsonl(&only_metrics).is_err());
        // Inverted timestamps fail.
        let bad = "{\"record\":\"span\",\"kind\":\"reply\",\"shard\":0,\"node\":1,\"start_ns\":10,\"end_ns\":5,\"tag\":0}";
        assert!(validate_jsonl(bad).is_err());
        // Unknown span kinds fail.
        let bad_kind = "{\"record\":\"span\",\"kind\":\"warp\",\"shard\":0,\"node\":1,\"start_ns\":1,\"end_ns\":2,\"tag\":0}";
        assert!(validate_jsonl(bad_kind).is_err());
    }

    #[test]
    fn chrome_trace_is_valid_json_with_one_event_per_span() {
        let report = sample_report();
        let trace = report.to_chrome_trace();
        // The vendored serde_json parses it back; the document has the
        // traceEvents array with one entry per span.
        #[allow(non_snake_case)]
        #[derive(Deserialize)]
        struct Doc {
            traceEvents: Vec<EventProbe>,
        }
        #[derive(Deserialize)]
        struct EventProbe {
            name: String,
            ph: String,
        }
        let doc: Doc = serde_json::from_str(&trace).expect("chrome trace parses");
        assert_eq!(doc.traceEvents.len(), 2);
        assert_eq!(doc.traceEvents[0].name, "replication");
        assert_eq!(doc.traceEvents[0].ph, "X");
        assert_eq!(doc.traceEvents[1].ph, "i");
    }
}
