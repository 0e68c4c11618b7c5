//! Leader-side request batching: accumulate outgoing protocol messages per
//! destination and drain them through one amortized [`BatchFrame`] per flush.
//!
//! The shard-scaling sweep of `recipe_shard` made per-leader throughput the
//! bottleneck: every op paid a full `shield_msg`/`verify_msg` round (counter,
//! MAC/AEAD, framing) per replica message — exactly the fixed per-message
//! overhead Figure 6a measures. A [`Batcher`] amortizes those fixed costs by
//! coalescing messages for the same destination into one
//! [`recipe_core::BatchFrame`], flushed by whichever of three triggers fires
//! first:
//!
//! * **ops budget** — a destination accumulated [`BatchConfig::max_ops`]
//!   messages;
//! * **byte budget** — a destination accumulated [`MAX_BATCH_BYTES`] of
//!   payload;
//! * **time budget** — [`MAX_BATCH_DELAY_NS`] elapsed since the batcher
//!   went non-empty (the replica arms one flush timer and drains everything
//!   when it fires, so a lone trailing op is never stranded).
//!
//! Each destination's queue is the *encoded plaintext body* of the frame that
//! will carry it — [`BatchFrame::write_ops`]'s format, built by
//! [`BatchFrame::append_op`] — and its op count: queuing an op copies its
//! payload once, into that body, and allocates nothing once the queue's
//! buffer has grown to a batch. Shielding happens at flush time, so frames
//! always carry the sender's current view and a fresh counter; the flush
//! seals the body as it lies and empties the queue, which keeps its buffer.
//! Multiple un-acked frames may be in flight per destination (pipelining) —
//! ordering is preserved by the per-channel trusted counters, and a dropped
//! frame loses (and therefore retries) its ops as one unit.
//!
//! [`BatchFrame`]: recipe_core::BatchFrame
//! [`BatchFrame::write_ops`]: recipe_core::BatchFrame::write_ops
//! [`BatchFrame::append_op`]: recipe_core::BatchFrame::append_op

use std::collections::BTreeMap;

use recipe_core::BatchFrame;
use recipe_net::NodeId;
use recipe_sim::Ctx;

/// Flush a destination once it holds this many payload bytes.
const MAX_BATCH_BYTES: usize = 64 * 1024;

/// Flush everything this long (virtual ns) after the batcher goes non-empty,
/// so low load never strands a partial batch.
const MAX_BATCH_DELAY_NS: u64 = 100_000;

/// The ops trigger of a [`Batcher`]; its byte and time triggers are the
/// constants `MAX_BATCH_BYTES` (64 KiB) and `MAX_BATCH_DELAY_NS`
/// (100 µs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct BatchConfig {
    /// Flush a destination once it holds this many ops (`1` disables batching:
    /// every message is sent immediately as a single shielded message).
    pub max_ops: usize,
}

impl BatchConfig {
    /// No batching: the seed's one-message-per-op behaviour, bit for bit.
    pub fn unbatched() -> Self {
        BatchConfig { max_ops: 1 }
    }

    /// Batches up to `ops` messages per destination.
    pub fn of_ops(ops: usize) -> Self {
        BatchConfig {
            max_ops: ops.max(1),
        }
    }

    /// True when this configuration actually batches (`max_ops > 1`).
    pub fn is_batching(&self) -> bool {
        self.max_ops > 1
    }
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig::unbatched()
    }
}

/// What is queued for one destination.
#[derive(Debug, Default)]
struct Queue {
    /// The queued ops as the body of the frame that will carry them; empty
    /// when nothing is queued.
    body: Vec<u8>,
    /// Ops in `body`.
    ops: u32,
    /// Payload bytes in `body` (what the byte budget counts).
    bytes: usize,
}

/// Per-destination accumulation of outgoing protocol messages.
///
/// Deterministic by construction: destinations drain in `NodeId` order
/// (BTreeMap), ops within a destination drain in enqueue order.
#[derive(Debug)]
pub struct Batcher {
    config: BatchConfig,
    /// Every destination ever queued for; a flushed queue stays, empty, with
    /// its buffer.
    queues: BTreeMap<NodeId, Queue>,
    timer_armed: bool,
    flushes: u64,
    flushed_ops: u64,
    timer_flushes: u64,
}

impl Batcher {
    /// Creates a batcher with the given flush triggers.
    pub fn new(config: BatchConfig) -> Self {
        Batcher {
            config,
            queues: BTreeMap::new(),
            timer_armed: false,
            flushes: 0,
            flushed_ops: 0,
            timer_flushes: 0,
        }
    }

    /// Folds this batcher's flush counters into a telemetry snapshot.
    pub(crate) fn fold_counters(&self, counters: &mut recipe_telemetry::ProtocolCounters) {
        counters.batch_flushes += self.flushes;
        counters.batch_flushed_ops += self.flushed_ops;
        counters.batch_timer_flushes += self.timer_flushes;
    }

    /// The flush triggers.
    pub fn config(&self) -> &BatchConfig {
        &self.config
    }

    /// True when batching is enabled (`max_ops > 1`).
    pub fn is_batching(&self) -> bool {
        self.config.is_batching()
    }

    /// Enqueues one message for `dst`, copying `payload` into its queued
    /// body. Returns `true` when the destination hit its ops or byte budget
    /// and should be flushed now.
    pub(crate) fn push(&mut self, dst: NodeId, kind: u16, payload: &[u8]) -> bool {
        let queue = self.queues.entry(dst).or_default();
        BatchFrame::append_op(&mut queue.body, kind, payload);
        queue.ops += 1;
        queue.bytes += payload.len();
        queue.ops as usize >= self.config.max_ops || queue.bytes >= MAX_BATCH_BYTES
    }

    /// Flushes what is queued for `dst`: hands `emit` its op count and body
    /// and empties the queue. `None` when nothing is pending.
    pub(crate) fn take<T>(&mut self, dst: NodeId, emit: impl FnOnce(u32, &[u8]) -> T) -> Option<T> {
        let queue = self.queues.get_mut(&dst).filter(|queue| queue.ops > 0)?;
        self.flushes += 1;
        self.flushed_ops += u64::from(queue.ops);
        Some(Self::flush(queue, emit))
    }

    /// Flushes every destination with something queued, in `NodeId` order,
    /// through `emit`. Returns how many it flushed.
    pub(crate) fn drain_all(&mut self, mut emit: impl FnMut(NodeId, u32, &[u8])) -> u64 {
        let mut flushed = 0;
        for (&dst, queue) in self.queues.iter_mut().filter(|(_, queue)| queue.ops > 0) {
            flushed += 1;
            self.flushed_ops += u64::from(queue.ops);
            Self::flush(queue, |ops, body| emit(dst, ops, body));
        }
        self.flushes += flushed;
        flushed
    }

    fn flush<T>(queue: &mut Queue, emit: impl FnOnce(u32, &[u8]) -> T) -> T {
        let sent = emit(queue.ops, &queue.body);
        queue.body.clear();
        queue.ops = 0;
        queue.bytes = 0;
        sent
    }

    /// Total ops pending across all destinations.
    #[cfg(test)]
    pub(crate) fn pending_ops(&self) -> usize {
        self.queues.values().map(|q| q.ops as usize).sum()
    }

    /// Marks the flush timer as armed. Returns the delay to schedule it after
    /// when it was not armed yet, `None` when it already is — called after a
    /// push that did not trigger an immediate flush.
    fn arm_timer(&mut self) -> Option<u64> {
        (!std::mem::replace(&mut self.timer_armed, true)).then_some(MAX_BATCH_DELAY_NS)
    }

    /// Marks the flush timer as fired; the next push may arm a new one.
    pub(crate) fn timer_fired(&mut self) {
        self.timer_armed = false;
    }

    /// The batching-path enqueue shared by every protocol: pushes one message,
    /// emits the flushed destination's op count and body through `emit` when
    /// the ops or byte budget fires, and arms the shared flush timer
    /// (`token`, firing after `MAX_BATCH_DELAY_NS`, 100 µs) when none is
    /// armed yet. Callers keep the unbatched fast path (`!is_batching()`) to
    /// themselves — a single message has a different wire format than a
    /// batch of one.
    pub fn enqueue(
        &mut self,
        ctx: &mut Ctx,
        token: u64,
        dst: NodeId,
        kind: u16,
        payload: &[u8],
        emit: impl FnOnce(&mut Ctx, NodeId, u32, &[u8]),
    ) {
        if self.push(dst, kind, payload) {
            self.take(dst, |ops, body| emit(ctx, dst, ops, body));
        } else if let Some(delay) = self.arm_timer() {
            ctx.set_timer(delay, token);
        }
    }

    /// The time-budget flush shared by every protocol: marks the timer fired
    /// and drains every destination through `emit`, in `NodeId` order.
    pub fn flush_timer(
        &mut self,
        ctx: &mut Ctx,
        mut emit: impl FnMut(&mut Ctx, NodeId, u32, &[u8]),
    ) {
        self.timer_fired();
        self.timer_flushes += self.drain_all(|dst, ops, body| emit(ctx, dst, ops, body));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recipe_core::BatchOp;

    /// Flushes `dst` and decodes the body it flushed.
    fn take(batcher: &mut Batcher, dst: NodeId) -> Option<Vec<BatchOp>> {
        batcher.take(dst, |ops, body| {
            let decoded = BatchFrame::decode_ops(body).expect("a flushed body decodes");
            assert_eq!(decoded.len(), ops as usize);
            decoded
        })
    }

    #[test]
    fn unbatched_config_flushes_on_every_push() {
        let mut batcher = Batcher::new(BatchConfig::unbatched());
        assert!(!batcher.is_batching());
        assert!(batcher.push(NodeId(1), 1, &[0u8; 8]));
        assert_eq!(
            take(&mut batcher, NodeId(1)),
            Some(vec![BatchOp::new(1, vec![0; 8])])
        );
        assert_eq!(batcher.pending_ops(), 0);
        assert_eq!(take(&mut batcher, NodeId(1)), None);
    }

    #[test]
    fn ops_budget_triggers_per_destination() {
        let mut batcher = Batcher::new(BatchConfig::of_ops(3));
        assert!(batcher.is_batching());
        assert!(!batcher.push(NodeId(1), 1, &[1]));
        assert!(!batcher.push(NodeId(2), 1, &[2]));
        assert!(!batcher.push(NodeId(1), 2, &[3]));
        // Third op for node 1 hits the budget; node 2 is unaffected.
        assert!(batcher.push(NodeId(1), 1, &[4]));
        let flushed = [(1, vec![1]), (2, vec![3]), (1, vec![4])];
        let expected = flushed.map(|(kind, payload)| BatchOp::new(kind, payload));
        assert_eq!(take(&mut batcher, NodeId(1)).unwrap(), expected);
        assert_eq!(batcher.pending_ops(), 1);
        // The emptied queue starts a body of its own on the next push.
        assert!(!batcher.push(NodeId(1), 5, b"again"));
        assert_eq!(
            take(&mut batcher, NodeId(1)).unwrap(),
            [BatchOp::new(5, b"again".to_vec())]
        );
    }

    #[test]
    fn byte_budget_triggers_flush() {
        let mut batcher = Batcher::new(BatchConfig::of_ops(1000));
        let half = vec![0u8; 32 * 1024];
        assert!(!batcher.push(NodeId(1), 1, &half[1..]));
        assert!(!batcher.push(NodeId(1), 1, &half));
        // One byte short of 64 KiB; the next op's byte reaches it.
        assert!(batcher.push(NodeId(1), 1, &[0]));
        assert_eq!(take(&mut batcher, NodeId(1)).map(|ops| ops.len()), Some(3));
    }

    #[test]
    fn drain_all_is_ordered_and_exhaustive() {
        let mut batcher = Batcher::new(BatchConfig::of_ops(64));
        batcher.push(NodeId(5), 1, &[5]);
        batcher.push(NodeId(2), 1, &[2]);
        batcher.push(NodeId(5), 2, &[55]);
        let mut drained = Vec::new();
        let flushed = batcher.drain_all(|dst, ops, body| {
            let decoded = BatchFrame::decode_ops(body).expect("a flushed body decodes");
            assert_eq!(decoded.len(), ops as usize);
            drained.push((dst, decoded));
        });
        assert_eq!(flushed, 2);
        let five = vec![BatchOp::new(1, vec![5]), BatchOp::new(2, vec![55])];
        let expected = vec![
            (NodeId(2), vec![BatchOp::new(1, vec![2])]),
            (NodeId(5), five),
        ];
        assert_eq!(drained, expected);
        assert_eq!(batcher.pending_ops(), 0);
        assert_eq!(batcher.drain_all(|_, _, _| panic!("nothing queued")), 0);
    }

    #[test]
    fn timer_arms_once_until_fired() {
        let mut batcher = Batcher::new(BatchConfig::of_ops(16));
        assert_eq!(batcher.arm_timer(), Some(100_000));
        assert_eq!(batcher.arm_timer(), None);
        batcher.timer_fired();
        assert_eq!(batcher.arm_timer(), Some(100_000));
    }
}
