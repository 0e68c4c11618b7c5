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
//! **off by default** and only observes: on or off, the same events run at
//! the same virtual times, and every charge files its category split in its
//! node's books (`recipe_sim::NodeBooks`); their fold is the attribution.
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

/// Telemetry gating, set with `DeploymentSpec::with_telemetry`. Disabled by
/// default; a disabled config attaches no [`ShardTelemetry`] to any group, so
/// no tracer is allocated and the hot paths skip every telemetry branch (the
/// category split each charge files in its node's books is not one of them).
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct TelemetryConfig {
    /// Master switch.
    pub enabled: bool,
}

impl TelemetryConfig {
    /// The enabled configuration.
    pub fn enabled() -> Self {
        TelemetryConfig { enabled: true }
    }
}

/// Per-shard span cap. Bounds trace memory on long runs; overflow is
/// counted, never silently lost.
const MAX_SPANS: usize = 1 << 20;

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
        self as usize
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
/// the span tracer, the nanoseconds charged per site, the 2PC replication
/// waits and the request-latency histogram. Merged into a
/// [`TelemetryReport`] by the sharded driver at the end of a run.
#[derive(Debug, Clone)]
pub struct ShardTelemetry {
    shard: u32,
    tracer: Tracer,
    charges: [u64; ChargeKind::COUNT],
    replication_ns: u64,
    latency_ns: Histogram,
    protocol: ProtocolCounters,
}

impl ShardTelemetry {
    /// Telemetry for `shard`, its spans capped at `MAX_SPANS` (2^20).
    pub fn new(shard: u32) -> Self {
        ShardTelemetry {
            shard,
            tracer: Tracer::with_capacity(MAX_SPANS),
            charges: [0; ChargeKind::COUNT],
            replication_ns: 0,
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

    /// Adds a charge of `ns` to its site's total.
    pub fn charge(&mut self, kind: ChargeKind, ns: u64) {
        self.charges[kind.index()] += ns;
    }

    /// Adds a 2PC replication wait, for which no node is busy, to its site and to `Replication`.
    pub fn charge_replication(&mut self, kind: ChargeKind, ns: u64) {
        self.charge(kind, ns);
        self.replication_ns += ns;
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

    /// Flattens this shard's state into report rows: the attribution row (its
    /// replicas' `books` summed, the replication waits, `Idle` up to `replicas
    /// × elapsed_ns`) and the samples of its charges, latency and counters.
    pub fn export(
        &self,
        replicas: u32,
        elapsed_ns: u64,
        mut books: CostBreakdown,
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
        books.add(CostCategory::Replication, self.replication_ns);
        // Work scheduled past the run's end can exceed capacity: `Idle` stays 0.
        let idle = (u64::from(replicas) * elapsed_ns).saturating_sub(books.total());
        books.add(CostCategory::Idle, idle);
        ShardAttribution {
            shard: self.shard,
            replicas,
            elapsed_ns,
            busy: books,
        }
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
        let mut t = ShardTelemetry::new(3);
        let mut b = CostBreakdown::new();
        b.add(CostCategory::Transport, 100);
        b.add(CostCategory::App, 50);
        t.charge(ChargeKind::ClientIngest, b.total());
        t.charge_replication(ChargeKind::TxnPrepare, 10_000);
        t.span(SpanKind::Replication, 1, 100, 400, 9);
        t.record_latency(123_000);
        t.absorb_protocol_counters(&ProtocolCounters {
            sealed_frames: 4,
            ..ProtocolCounters::default()
        });

        let mut registry = MetricsRegistry::default();
        let attr = t.export(3, 1_000_000, b, &mut registry);
        assert_eq!(attr.shard, 3);
        assert_eq!(attr.busy.get(CostCategory::App), 50);
        assert_eq!(attr.busy.get(CostCategory::Replication), 10_000);
        assert_eq!(attr.busy.get(CostCategory::Idle), 3_000_000 - 10_150);
        assert_eq!(attr.busy.total(), attr.capacity_ns());
        // An overcommitted shard keeps Idle at zero instead of underflowing.
        let over = t.export(1, 100, b, &mut MetricsRegistry::default());
        assert_eq!(over.busy.get(CostCategory::Idle), 0);
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
        for (i, kind) in ChargeKind::ALL.into_iter().enumerate() {
            assert!(seen.insert(kind.as_str()));
            assert_eq!(kind.index(), i, "{} is out of place in ALL", kind.as_str());
        }
        assert_eq!(seen.len(), ChargeKind::COUNT);
    }
}
