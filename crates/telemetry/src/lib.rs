//! # recipe-telemetry — deterministic observability for the simulator
//!
//! The paper's central claim is that confidential middleware pays a
//! quantifiable cost at each layer: AEAD/MAC in the shield, trusted counters,
//! EPC paging, replication round trips. This crate makes those costs visible
//! without perturbing them: a **span tracer on the virtual clock**, a
//! **metrics registry** (counters and log-bucketed histograms with
//! labels) and **cost attribution** that splits every charged virtual
//! nanosecond into the cost-model component that consumed it.
//!
//! Determinism is load-bearing everywhere else in this workspace, so it is
//! load-bearing here too: every timestamp is virtual, recording order follows
//! the simulator's deterministic event order, and export order is fixed —
//! two runs with the same seed produce byte-identical traces. Telemetry is
//! **off by default** and, when off, no telemetry code runs on the simulator's
//! hot paths: runs are bit-identical to a build without the crate.
//!
//! ## Structure
//!
//! * `span` — [`SpanKind`]/[`Span`]/[`Tracer`]: the request-lifecycle span
//!   taxonomy, 2PC legs, migration phases, fault-injector events.
//! * `metrics` — [`MetricsRegistry`]/`Histogram`: named metrics with
//!   `shard=`-style labels and p50/p90/p99/p999 histograms.
//! * `attribution` — [`CostCategory`]/[`CostBreakdown`]: exact integer
//!   splitting of cost-model charges, plus per-shard reconciliation against
//!   `replicas × elapsed` with an explicit `idle` remainder.
//! * `export` — [`TelemetryReport`]: Chrome `trace_event` JSON (open in
//!   `chrome://tracing` or Perfetto), JSONL export, and the schema validator
//!   CI runs against `fig_observe`'s output.

mod attribution;
mod export;
mod metrics;
mod span;

pub use attribution::{CostBreakdown, CostCategory, ShardAttribution};
pub use export::{validate_jsonl, JsonlSummary, TelemetryReport};
use metrics::{shard_labels, Histogram};
pub use metrics::{MetricSample, MetricsRegistry};
pub use span::{Span, SpanKind, Tracer};

/// Telemetry gating, set on a deployment with
/// `DeploymentSpec::with_telemetry`. Disabled by default; a disabled config
/// attaches no [`ShardTelemetry`] to any group, so no tracer is allocated and
/// the simulator's hot paths skip every telemetry branch.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct TelemetryConfig {
    /// Master switch.
    pub enabled: bool,
    /// Per-shard span cap (`0` = unlimited). Bounds trace memory on long runs;
    /// overflow is counted, never silently lost.
    pub max_spans: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            enabled: false,
            max_spans: 1 << 20,
        }
    }
}

impl TelemetryConfig {
    /// The enabled configuration with default caps.
    pub fn enabled() -> Self {
        TelemetryConfig {
            enabled: true,
            ..TelemetryConfig::default()
        }
    }
}

/// The charge site a cost was incurred at — the second attribution dimension
/// next to [`CostCategory`]. Where the category says *what component* consumed
/// the time (MAC, AEAD, EPC…), the charge kind says *which code path* charged
/// it (client ingest, snapshot export, 2PC prepare…).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ChargeKind {
    /// Receive-side processing of a client request at its coordinator.
    ClientIngest,
    /// Receive-side processing of a replication frame.
    PeerDeliver,
    /// Send-side processing of an outbound frame (shield wrap included).
    FrameSend,
    /// Migration snapshot/catch-up export on the donor leader.
    SnapshotExport,
    /// Migration chunk import on a recipient replica.
    SnapshotImport,
    /// 2PC prepare execution on a participant leader.
    TxnPrepare,
    /// 2PC commit apply on a participant group.
    TxnCommit,
    /// 2PC abort processing on a participant leader.
    TxnAbort,
    /// Rollback-protected rehydration on a recovering replica: re-verifying
    /// sealed KV state against the trusted counter after a restart.
    Recovery,
}

impl ChargeKind {
    /// Number of charge kinds.
    pub const COUNT: usize = 9;

    /// Every kind, in declaration order.
    pub const ALL: [ChargeKind; ChargeKind::COUNT] = [
        ChargeKind::ClientIngest,
        ChargeKind::PeerDeliver,
        ChargeKind::FrameSend,
        ChargeKind::SnapshotExport,
        ChargeKind::SnapshotImport,
        ChargeKind::TxnPrepare,
        ChargeKind::TxnCommit,
        ChargeKind::TxnAbort,
        ChargeKind::Recovery,
    ];

    /// Stable lower-snake name, used as the `charge.<name>_ns` metric suffix.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            ChargeKind::ClientIngest => "client_ingest",
            ChargeKind::PeerDeliver => "peer_deliver",
            ChargeKind::FrameSend => "frame_send",
            ChargeKind::SnapshotExport => "snapshot_export",
            ChargeKind::SnapshotImport => "snapshot_import",
            ChargeKind::TxnPrepare => "txn_prepare",
            ChargeKind::TxnCommit => "txn_commit",
            ChargeKind::TxnAbort => "txn_abort",
            ChargeKind::Recovery => "recovery",
        }
    }

    fn index(self) -> usize {
        ChargeKind::ALL
            .iter()
            .position(|k| *k == self)
            // recipe-lint: allow(unwrap-in-lib, reason = "ALL enumerates every ChargeKind variant")
            .expect("kind is in ALL")
    }
}

/// Shield/batcher activity counters a protocol replica exposes for scraping
/// (see `recipe_sim::Replica::protocol_counters`). Plain data so the `sim`
/// crate can ask for them without depending on `recipe-protocols`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProtocolCounters {
    /// Frames sealed by the shield (single + batch + txn).
    pub sealed_frames: u64,
    /// Protocol ops carried by sealed frames.
    pub sealed_ops: u64,
    /// Frames that verified and opened successfully.
    pub opened_frames: u64,
    /// Frames the shield rejected (tampered/replayed/malformed).
    pub rejected_frames: u64,
    /// Batch frames the batcher flushed.
    pub batch_flushes: u64,
    /// Ops carried by flushed batch frames.
    pub batch_flushed_ops: u64,
    /// Flushes triggered by the batch timer (vs. size threshold).
    pub batch_timer_flushes: u64,
}

impl ProtocolCounters {
    /// Element-wise accumulate.
    pub(crate) fn merge(&mut self, other: &ProtocolCounters) {
        self.sealed_frames += other.sealed_frames;
        self.sealed_ops += other.sealed_ops;
        self.opened_frames += other.opened_frames;
        self.rejected_frames += other.rejected_frames;
        self.batch_flushes += other.batch_flushes;
        self.batch_flushed_ops += other.batch_flushed_ops;
        self.batch_timer_flushes += other.batch_timer_flushes;
    }
}

/// Per-shard telemetry state, owned by one simulated group while it runs:
/// the span tracer, the cost-attribution accumulator (by category and by
/// charge site) and the request-latency histogram. Merged into a
/// [`TelemetryReport`] by the sharded driver at the end of a run.
#[derive(Debug, Clone)]
pub struct ShardTelemetry {
    shard: u32,
    tracer: Tracer,
    busy: CostBreakdown,
    charges: [u64; ChargeKind::COUNT],
    latency_ns: Histogram,
    protocol: ProtocolCounters,
}

impl ShardTelemetry {
    /// Telemetry for `shard` under `config`.
    pub fn new(shard: u32, config: &TelemetryConfig) -> Self {
        ShardTelemetry {
            shard,
            tracer: Tracer::with_capacity(config.max_spans),
            busy: CostBreakdown::new(),
            charges: [0; ChargeKind::COUNT],
            latency_ns: Histogram::new(),
            protocol: ProtocolCounters::default(),
        }
    }

    /// Records a duration span on this shard.
    pub fn span(&mut self, kind: SpanKind, node: u64, start_ns: u64, end_ns: u64, tag: u64) {
        self.tracer.record(Span {
            kind,
            shard: self.shard,
            node,
            start_ns,
            end_ns,
            tag,
        });
    }

    /// Records an instant span on this shard.
    pub fn instant(&mut self, kind: SpanKind, node: u64, at_ns: u64, tag: u64) {
        self.tracer
            .record(Span::instant(kind, self.shard, node, at_ns, tag));
    }

    /// Attributes one charge: the category split plus the charge-site total.
    pub fn charge(&mut self, kind: ChargeKind, breakdown: &CostBreakdown) {
        self.busy.merge(breakdown);
        self.charges[kind.index()] += breakdown.total();
    }

    /// Attributes a single-category charge (e.g. a replication round trip).
    pub fn charge_category(&mut self, kind: ChargeKind, cat: CostCategory, ns: u64) {
        self.busy.add(cat, ns);
        self.charges[kind.index()] += ns;
    }

    /// Records one completed request's latency.
    pub fn record_latency(&mut self, latency_ns: u64) {
        self.latency_ns.observe(latency_ns);
    }

    /// Folds a replica's protocol counters in (scraped at end of run).
    pub fn absorb_protocol_counters(&mut self, counters: &ProtocolCounters) {
        self.protocol.merge(counters);
    }

    /// The span tracer (mutable, for merging).
    pub fn tracer_mut(&mut self) -> &mut Tracer {
        &mut self.tracer
    }

    /// The span tracer.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Flattens this shard's state into report rows: the attribution row
    /// (`Idle` filled against `replicas × elapsed_ns`) and the registry
    /// samples for its charges, latency histogram and protocol counters.
    pub fn export(
        &self,
        replicas: u32,
        elapsed_ns: u64,
        registry: &mut MetricsRegistry,
    ) -> ShardAttribution {
        let labels = shard_labels(self.shard);
        for kind in ChargeKind::ALL {
            let ns = self.charges[kind.index()];
            if ns > 0 {
                registry.add_counter(&format!("charge.{}_ns", kind.as_str()), &labels, ns);
            }
        }
        if self.latency_ns.count() > 0 {
            let id = registry.histogram("request_latency_ns", &labels);
            if let Some(h) = registry.histogram_value_mut(id) {
                h.merge(&self.latency_ns);
            }
        }
        let p = &self.protocol;
        for (name, v) in [
            ("shield.sealed_frames", p.sealed_frames),
            ("shield.sealed_ops", p.sealed_ops),
            ("shield.opened_frames", p.opened_frames),
            ("shield.rejected_frames", p.rejected_frames),
            ("batch.flushes", p.batch_flushes),
            ("batch.flushed_ops", p.batch_flushed_ops),
            ("batch.timer_flushes", p.batch_timer_flushes),
        ] {
            if v > 0 {
                registry.add_counter(name, &labels, v);
            }
        }
        let mut attr = ShardAttribution {
            shard: self.shard,
            replicas,
            elapsed_ns,
            busy: self.busy,
        };
        attr.fill_idle();
        attr
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_defaults_off() {
        let config = TelemetryConfig::default();
        assert!(!config.enabled);
        assert!(TelemetryConfig::enabled().enabled);
    }

    #[test]
    fn shard_telemetry_accumulates_and_exports() {
        let mut t = ShardTelemetry::new(3, &TelemetryConfig::enabled());
        let mut b = CostBreakdown::new();
        b.add(CostCategory::Transport, 100);
        b.add(CostCategory::App, 50);
        t.charge(ChargeKind::ClientIngest, &b);
        t.charge_category(ChargeKind::TxnPrepare, CostCategory::Replication, 10_000);
        t.span(SpanKind::Replication, 1, 100, 400, 9);
        t.record_latency(123_000);
        t.absorb_protocol_counters(&ProtocolCounters {
            sealed_frames: 4,
            ..ProtocolCounters::default()
        });

        let mut registry = MetricsRegistry::default();
        let attr = t.export(3, 1_000_000, &mut registry);
        assert_eq!(attr.shard, 3);
        assert_eq!(attr.busy.total(), attr.capacity_ns());
        let samples = registry.snapshot();
        let charged = |name: &str| samples.iter().find(|s| s.name == name).map(|s| s.value);
        assert_eq!(charged("charge.client_ingest_ns"), Some(b.total() as f64));
        assert_eq!(charged("charge.txn_prepare_ns"), Some(10_000.0));
        assert!(samples
            .iter()
            .any(|s| s.name == "request_latency_ns" && s.count == 1));
        assert!(samples.iter().any(|s| s.name == "shield.sealed_frames"));
    }

    #[test]
    fn charge_kind_names_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for kind in ChargeKind::ALL {
            assert!(seen.insert(kind.as_str()));
        }
        assert_eq!(seen.len(), ChargeKind::COUNT);
    }
}
