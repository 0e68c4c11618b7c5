//! Virtual-clock spans: allocation-light records of where requests spent time.
//!
//! Every span is timestamped in **virtual nanoseconds** taken from the
//! simulator's deterministic clock, so two runs with the same seed produce the
//! same trace byte for byte. A [`Span`] is a small `Copy` record — no strings,
//! no heap — so recording one while the simulator is hot costs a bounds check
//! and a 48-byte write.

use serde::{Deserialize, Serialize};

/// The kind of work a span covers. The taxonomy follows the request lifecycle
/// (`ClientSubmit → RouterResolve → BatcherEnqueue → ShieldWrap → Replication
/// → Apply → Reply`), with dedicated kinds for the 2PC legs, the online
/// migration phases and the network adversary's interventions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum SpanKind {
    /// A client handed a fresh operation to the cluster (instant).
    ClientSubmit,
    /// The sharded router resolved (or redirected) an operation's shard (instant).
    RouterResolve,
    /// A coordinator ingested a client request and enqueued it for its
    /// batching/replication pipeline (duration: the receive-side processing).
    BatcherEnqueue,
    /// A node sealed and sent one wire frame through the shield (MAC/AEAD)
    /// (duration: the send-side processing of the frame).
    ShieldWrap,
    /// A replica received and verified one replication frame (duration: the
    /// whole receive-side processing, including the application tail).
    Replication,
    /// The application-work tail of a frame delivery: store writes, index
    /// updates (duration; always nested at the end of a `Replication` span).
    Apply,
    /// A reply reached the issuing client (instant).
    Reply,
    /// A 2PC participant verified and executed a prepare (duration).
    TxnPrepare,
    /// A participant's vote arrived back at the coordinator (instant).
    TxnVote,
    /// A 2PC participant applied a commit decision (duration).
    TxnCommit,
    /// A 2PC participant discarded staged writes on abort (duration).
    TxnAbort,
    /// A participant's commit/abort ack arrived at the coordinator (instant).
    TxnAck,
    /// A migration donor exported and sealed one snapshot chunk (duration).
    MigrationSnapshot,
    /// A catch-up round shipped writes that landed during the transfer
    /// (duration: the round's export work on the donor).
    MigrationCatchUp,
    /// The migration entered its drain phase (instant).
    MigrationDrain,
    /// Ownership cut over to the recipient shard (instant).
    MigrationCutover,
    /// The network adversary dropped a frame (instant).
    FaultDrop,
    /// The network adversary tampered with a frame in flight (instant).
    FaultTamper,
    /// The network adversary duplicated a frame (instant).
    FaultDuplicate,
    /// The network adversary replayed an old frame (instant).
    FaultReplay,
    /// A node crashed and stopped processing events (instant).
    NodeCrash,
    /// A node restarted and rehydrated rollback-protected state (duration:
    /// the sealed-state re-verification work).
    NodeRecover,
    /// A replica installed a new view after a leader/head failure (instant).
    ViewChange,
    /// The tenant gateway admitted a request to the router (instant; `tag`
    /// carries the tenant index).
    GatewayAdmit,
    /// The gateway rejected a request outright — failed tenant
    /// authentication or no resolvable tenant (instant; `tag` = tenant).
    GatewayReject,
    /// The gateway deferred a request to its tenant's token-bucket refill
    /// time (instant; `tag` = tenant).
    GatewayThrottle,
}

impl SpanKind {
    /// Every kind, in declaration order (used by exporters and tests).
    pub const ALL: [SpanKind; 26] = [
        SpanKind::ClientSubmit,
        SpanKind::RouterResolve,
        SpanKind::BatcherEnqueue,
        SpanKind::ShieldWrap,
        SpanKind::Replication,
        SpanKind::Apply,
        SpanKind::Reply,
        SpanKind::TxnPrepare,
        SpanKind::TxnVote,
        SpanKind::TxnCommit,
        SpanKind::TxnAbort,
        SpanKind::TxnAck,
        SpanKind::MigrationSnapshot,
        SpanKind::MigrationCatchUp,
        SpanKind::MigrationDrain,
        SpanKind::MigrationCutover,
        SpanKind::FaultDrop,
        SpanKind::FaultTamper,
        SpanKind::FaultDuplicate,
        SpanKind::FaultReplay,
        SpanKind::NodeCrash,
        SpanKind::NodeRecover,
        SpanKind::ViewChange,
        SpanKind::GatewayAdmit,
        SpanKind::GatewayReject,
        SpanKind::GatewayThrottle,
    ];

    /// Stable lower-snake name used in the JSONL export and the Chrome trace.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            SpanKind::ClientSubmit => "client_submit",
            SpanKind::RouterResolve => "router_resolve",
            SpanKind::BatcherEnqueue => "batcher_enqueue",
            SpanKind::ShieldWrap => "shield_wrap",
            SpanKind::Replication => "replication",
            SpanKind::Apply => "apply",
            SpanKind::Reply => "reply",
            SpanKind::TxnPrepare => "txn_prepare",
            SpanKind::TxnVote => "txn_vote",
            SpanKind::TxnCommit => "txn_commit",
            SpanKind::TxnAbort => "txn_abort",
            SpanKind::TxnAck => "txn_ack",
            SpanKind::MigrationSnapshot => "migration_snapshot",
            SpanKind::MigrationCatchUp => "migration_catch_up",
            SpanKind::MigrationDrain => "migration_drain",
            SpanKind::MigrationCutover => "migration_cutover",
            SpanKind::FaultDrop => "fault_drop",
            SpanKind::FaultTamper => "fault_tamper",
            SpanKind::FaultDuplicate => "fault_duplicate",
            SpanKind::FaultReplay => "fault_replay",
            SpanKind::NodeCrash => "node_crash",
            SpanKind::NodeRecover => "node_recover",
            SpanKind::ViewChange => "view_change",
            SpanKind::GatewayAdmit => "gateway_admit",
            SpanKind::GatewayReject => "gateway_reject",
            SpanKind::GatewayThrottle => "gateway_throttle",
        }
    }

    /// Parses the stable name back (used by the JSONL schema validator).
    pub(crate) fn parse(name: &str) -> Option<SpanKind> {
        SpanKind::ALL.into_iter().find(|k| k.as_str() == name)
    }
}

/// One recorded span: `[start_ns, end_ns]` on the virtual clock, attributed to
/// a shard and a node. `tag` carries a context-dependent correlation id —
/// client id for lifecycle spans, txn id for 2PC spans, migration id for
/// migration spans, op count for frame spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Span {
    /// What kind of work this span covers.
    pub kind: SpanKind,
    /// The shard the work belongs to (`0` for unsharded runs).
    pub shard: u32,
    /// The node (or driver pseudo-node) that did the work.
    pub node: u64,
    /// Start, virtual nanoseconds.
    pub start_ns: u64,
    /// End, virtual nanoseconds (`== start_ns` for instant spans).
    pub end_ns: u64,
    /// Correlation id (client / txn / migration id, or frame op count).
    pub tag: u64,
}

impl Span {
    /// An instant span (zero duration) at `at_ns`.
    pub(crate) fn instant(kind: SpanKind, shard: u32, node: u64, at_ns: u64, tag: u64) -> Self {
        Span {
            kind,
            shard,
            node,
            start_ns: at_ns,
            end_ns: at_ns,
            tag,
        }
    }

    /// Duration in virtual nanoseconds.
    pub(crate) fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A bounded, deterministic span collector. When the cap is reached further
/// spans are counted but not stored — the trace stays a faithful prefix and
/// memory stays bounded on long runs.
#[derive(Debug, Clone)]
pub struct Tracer {
    spans: Vec<Span>,
    cap: usize,
    dropped: u64,
}

impl Tracer {
    /// A tracer that stores at most `cap` spans.
    pub(crate) fn with_capacity(cap: usize) -> Self {
        Tracer {
            spans: Vec::new(),
            cap,
            dropped: 0,
        }
    }

    /// Records one span (drops it, counted, past the cap).
    pub(crate) fn record(&mut self, span: Span) {
        if self.spans.len() >= self.cap {
            self.dropped += 1;
        } else {
            self.spans.push(span);
        }
    }

    /// Spans dropped after the cap was reached.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Takes the recorded spans, leaving the tracer empty.
    pub fn take_spans(&mut self) -> Vec<Span> {
        std::mem::take(&mut self.spans)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for kind in SpanKind::ALL {
            assert_eq!(SpanKind::parse(kind.as_str()), Some(kind));
        }
        assert_eq!(SpanKind::parse("no_such_kind"), None);
    }

    #[test]
    fn tracer_caps_and_counts_drops() {
        let mut tracer = Tracer::with_capacity(2);
        for i in 0..5 {
            tracer.record(Span::instant(SpanKind::Reply, 0, 1, i, i));
        }
        assert_eq!(tracer.dropped(), 3);
        let spans = tracer.take_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].start_ns, 1);
    }

    #[test]
    fn instant_spans_have_zero_duration() {
        let s = Span::instant(SpanKind::MigrationCutover, 3, 9, 77, 5);
        assert_eq!(s.duration_ns(), 0);
        assert_eq!(s.start_ns, s.end_ns);
    }
}
