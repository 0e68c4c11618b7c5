//! Host-clock spans recorded by the benchmark around each call into a layer.
//!
//! Spans are kept in memory and written as JSON lines when the benchmark
//! ends, so recording costs one `Instant::now()` pair and a `Vec` push and
//! never touches the disk while something is being timed. They are recorded
//! from the benchmark's own files only; spans inside the program are a later
//! change.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One finished or open span.
#[derive(Debug, Clone, PartialEq)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: Option<u64>,
    parent: Option<usize>,
}

/// Records nested spans against one origin instant. The span that is open
/// when another starts is that span's parent.
#[derive(Debug)]
pub struct Tracer {
    /// The identifier every span of this trace shares.
    workload: String,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(workload: &str) -> Self {
        Tracer {
            workload: workload.to_string(),
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `work` inside a span called `name`.
    pub fn span<T>(&mut self, name: &'static str, work: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: None,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = work(self);
        self.open.pop();
        self.spans[id].end_ns = Some(self.now_ns());
        out
    }

    /// The spans as JSON lines: `id`, `parent` (`null` for a root), `name`,
    /// `workload`, `start_ns`, `end_ns`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"workload\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{}}}\n",
                span.name,
                self.workload,
                span.start_ns,
                span.end_ns.unwrap_or(span.start_ns),
            ));
        }
        out
    }

    /// Writes the trace to `dir/trace_<workload>.jsonl`; `dir` must exist.
    pub fn write(&self, dir: &Path) -> std::io::Result<()> {
        let mut file = std::fs::File::create(dir.join(format!("trace_{}.jsonl", self.workload)))?;
        file.write_all(self.to_jsonl().as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{map_get, Value};

    #[test]
    fn nested_spans_record_parents_and_render_as_json_lines() {
        let mut tracer = Tracer::new("w");
        tracer.span("outer", |t| {
            t.span("inner", |_| std::hint::black_box(1 + 1));
        });
        tracer.span("sibling", |_| ());
        let text = tracer.to_jsonl();
        let lines: Vec<Value> = text
            .lines()
            .map(|l| serde_json::from_str(l).expect("each line is a JSON object"))
            .collect();
        assert_eq!(lines.len(), 3);
        let field = |line: &Value, key: &str| map_get(line.as_map().unwrap(), key).cloned();
        assert_eq!(field(&lines[0], "parent"), Some(Value::Null));
        assert_eq!(field(&lines[1], "parent"), Some(Value::Int(0)));
        assert_eq!(field(&lines[1], "name"), Some(Value::Str("inner".into())));
        assert_eq!(field(&lines[2], "parent"), Some(Value::Null));
        assert_eq!(field(&lines[2], "workload"), Some(Value::Str("w".into())));
    }
}
