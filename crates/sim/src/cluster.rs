//! The discrete-event cluster: replicas, the Byzantine network and the
//! virtual clock.
//!
//! [`ReplicaGroup`] is one replica group without a clock or clients of its
//! own. Its handlers ([`ReplicaGroup::handle`], `try_submit_at`,
//! `seed_initial_events`) take the time they run at and schedule through a
//! lent [`Scheduler`]: the run's one [`Calendar`], the group's place in it,
//! and the buffer each request's first reply goes to as a [`Completion`].
//! The clients are `recipe_shard`'s request driver's, which owns the
//! calendar; [`SimCluster`] is a one-group harness over the same calendar
//! and handlers. All scheduling decisions are deterministic for a seed.

use std::collections::BTreeSet;
use std::ops::{Deref, DerefMut};

use recipe_core::{ClientReply, ClientRequest, FramePool, Operation};
use recipe_net::{CrashPlan, FaultPlan, Forged, Link, NodeId};
use recipe_tee::TrustedInstant;
use recipe_telemetry::{ChargeKind, CostBreakdown, CostCategory, ShardTelemetry, SpanKind};
use serde::{Deserialize, Serialize};

use crate::cost::{CostProfile, Work, COST_MODEL, FAILURE_DETECTION_DELAY_NS, RETRY_TIMEOUT_NS};
use crate::queue::{Calendar, Owner, TimerPayload};
use crate::replica::{Ctx, Effects, Replica};

/// One replica group's configuration. Every node is charged under
/// [`COST_MODEL`]; clients retransmit after `RETRY_TIMEOUT_NS`, and the
/// configuration service reports a crash or recovery after
/// `FAILURE_DETECTION_DELAY_NS`.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// RNG seed (fault injection, routing tie-breaks).
    pub seed: u64,
    /// Per-node execution profiles, indexed by node id order of the replicas passed
    /// to [`SimCluster::new`].
    pub profiles: Vec<CostProfile>,
    /// Network adversary plan.
    pub fault_plan: FaultPlan,
    /// Hard cap on virtual time (nanoseconds) as a safety net.
    pub max_virtual_ns: u64,
    /// Deterministic crash schedule: nodes crash at `crash_at_ns` and (when
    /// `recover_at_ns` is set) restart rollback-protected at `recover_at_ns`.
    /// An empty plan schedules nothing — crash-free runs are bit-identical to
    /// builds without the recovery plane.
    pub crash_plan: CrashPlan,
}

impl SimConfig {
    /// A benign-network configuration where every node uses `profile`.
    pub fn uniform(n: usize, profile: CostProfile) -> Self {
        SimConfig {
            seed: 42,
            profiles: vec![profile; n],
            fault_plan: FaultPlan::benign(),
            max_virtual_ns: 120 * 1_000_000_000,
            crash_plan: CrashPlan::none(),
        }
    }
}

/// Results of one simulation run: commits and latencies as the driver
/// counted them, messages as the groups did.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct RunStats {
    /// Operations whose replies reached clients over the run.
    pub committed: u64,
    /// Committed reads: operations issued as reads.
    pub committed_reads: u64,
    /// Committed writes: operations issued as writes.
    pub committed_writes: u64,
    /// Virtual time elapsed, seconds, measured from virtual time 0 (not from
    /// the run's start: a cluster's second run counts the first's time too).
    pub elapsed_secs: f64,
    /// `committed` over `elapsed_secs`, in operations per (virtual) second.
    pub throughput_ops: f64,
    /// Mean request latency in microseconds.
    pub mean_latency_us: f64,
    /// Median request latency in microseconds.
    pub p50_latency_us: f64,
    /// 90th percentile request latency in microseconds.
    pub p90_latency_us: f64,
    /// 99th percentile request latency in microseconds.
    pub p99_latency_us: f64,
    /// 99.9th percentile request latency in microseconds.
    pub p999_latency_us: f64,
    /// Frames delivered to live replicas ([`NodeBooks::frames_received`]).
    pub messages_delivered: u64,
    /// Messages dropped / suppressed by the network adversary.
    pub messages_dropped: u64,
    /// Messages the adversary tampered with.
    pub messages_tampered: u64,
    /// Messages the adversary replayed or duplicated.
    pub messages_replayed: u64,
    /// Messages that reached a crashed replica and were lost there.
    pub messages_to_crashed: u64,
    /// Protocol ops the delivered frames carried ([`NodeBooks::ops_received`]):
    /// `messages_delivered` without batching, more when leaders batch.
    pub ops_delivered: u64,
}

impl RunStats {
    /// Sets the mean and tail latencies from a sample, sorting it in place
    /// (zeros for an empty one).
    pub fn set_latencies(&mut self, latencies_ns: &mut [u64]) {
        latencies_ns.sort_unstable();
        let len = latencies_ns.len();
        let ranked =
            Self::latency_ranks(len).map(|rank| latencies_ns.get(rank).copied().unwrap_or(0));
        self.set_latency_figures(len, latencies_ns.iter().sum(), ranked);
    }

    /// Where the p50, p90, p99 and p99.9 latencies lie in an ascending list
    /// of `len`: percentile `q` is the element at index `(len as f64 * q)
    /// as usize`, clamped to the last element.
    pub fn latency_ranks(len: usize) -> [usize; 4] {
        [0.50, 0.90, 0.99, 0.999]
            .map(|q: f64| ((len as f64 * q) as usize).min(len.saturating_sub(1)))
    }

    /// Sets the mean and tail latencies of `len` samples summing to
    /// `sum_ns`, whose ascending list holds `ranked_ns` at
    /// [`Self::latency_ranks`] (zeros for no sample).
    pub fn set_latency_figures(&mut self, len: usize, sum_ns: u64, ranked_ns: [u64; 4]) {
        self.mean_latency_us = sum_ns as f64 / len.max(1) as f64 / 1_000.0;
        let [p50, p90, p99, p999] = ranked_ns.map(|ns| ns as f64 / 1_000.0);
        self.p50_latency_us = p50;
        self.p90_latency_us = p90;
        self.p99_latency_us = p99;
        self.p999_latency_us = p999;
    }
}

/// What the network did with a group's frames but deliver them to a live
/// replica ([`NodeBooks`]), counted until [`ReplicaGroup::take_message_counts`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MessageCounts {
    /// Frames the adversary dropped.
    pub dropped: u64,
    /// Frames the adversary tampered with.
    pub tampered: u64,
    /// Frames the adversary duplicated or replayed.
    pub replayed: u64,
    /// Frames that reached a crashed replica and were lost there.
    pub to_crashed: u64,
}

/// What one replica did over its group's life, counted where the group sees
/// it: the frames and protocol ops it sent and received, the client requests
/// it took and the virtual time it was charged, by category
/// ([`ReplicaGroup::books`]); a shard's telemetry attribution is their fold.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeBooks {
    /// Frames it sent, whatever the network then did with them.
    pub frames_sent: u64,
    /// Protocol ops the frames it sent carried.
    pub ops_sent: u64,
    /// Frames delivered to it while it was up.
    pub frames_received: u64,
    /// Protocol ops the frames delivered to it carried.
    pub ops_received: u64,
    /// Client reads it took while it was up, retransmissions included.
    pub reads_taken: u64,
    /// Client writes it took while it was up, retransmissions included.
    pub writes_taken: u64,
    /// Virtual nanoseconds charged to it, by category (`busy.total()` in all).
    pub busy: CostBreakdown,
    /// When its serialized work queue is next free.
    busy_until: u64,
}

/// A scheduled event. The replica an event is for is named by its position
/// in the group, resolved when the event is scheduled.
#[derive(Debug)]
enum EventKind {
    /// A client's retransmission timer, its one timer on the calendar; it
    /// resends only if it is due at its request's [`Outstanding::retry_at`].
    ClientRetry {
        client_id: u64,
    },
    /// A client's request reaching the replica at `idx`. The simulator's
    /// clients do not sign, so the request is carried as its three fields
    /// and assembled on delivery: the largest event stays half the size a
    /// whole [`ClientRequest`] (with its signature slot) would make it.
    ClientDeliver {
        idx: usize,
        client_id: u64,
        request_id: u64,
        operation: Operation,
    },
    Deliver {
        from: NodeId,
        to: usize,
        bytes: Vec<u8>,
        /// Number of protocol ops in the frame (1 for single messages).
        ops: u32,
    },
    Timer {
        idx: usize,
        token: u64,
    },
    Crash {
        node: NodeId,
    },
    Recover {
        node: NodeId,
    },
    /// The trusted configuration service tells the replica at `idx` that
    /// `about` went down (`up: false`) or was re-attested and rejoined
    /// (`up: true`).
    PeerNotice {
        idx: usize,
        about: NodeId,
        up: bool,
    },
}

/// A replica group's pending event, as its calendar holds it until
/// [`ReplicaGroup::handle`] runs it.
#[derive(Debug)]
pub struct GroupEvent(EventKind);

impl GroupEvent {
    /// A protocol's timer (a tick, a batch flush) or a client's retry timer.
    pub fn is_timer(&self) -> bool {
        matches!(
            self.0,
            EventKind::Timer { .. } | EventKind::ClientRetry { .. }
        )
    }
}

/// A group's timers are its clients' retransmission timers, tagged with the
/// client id.
impl TimerPayload for GroupEvent {
    fn from_timer(tag: u32) -> Self {
        GroupEvent(EventKind::ClientRetry {
            client_id: u64::from(tag),
        })
    }
}

/// What a group's handlers schedule through, lent for one call: the run's
/// calendar, the group's place in it and the buffer its replies go to.
pub struct Scheduler<'a, T> {
    calendar: &'a mut Calendar<T>,
    owner: Owner,
    completions: &'a mut Vec<Completion>,
    /// Events but timers pushed since the group last took the count.
    pushed: u64,
}

impl<'a, T: From<GroupEvent>> Scheduler<'a, T> {
    /// Lends `calendar` and `completions` to the handlers of group `shard`.
    pub fn new(
        calendar: &'a mut Calendar<T>,
        shard: usize,
        completions: &'a mut Vec<Completion>,
    ) -> Self {
        // recipe-lint: allow(unwrap-in-lib, reason = "a deployment validates its shard count far below 2^16")
        let owner = Owner::shard(u16::try_from(shard).expect("shard index fits the calendar"));
        Scheduler {
            calendar,
            owner,
            completions,
            pushed: 0,
        }
    }

    fn push(&mut self, at: u64, event: EventKind) {
        let event = GroupEvent(event);
        self.pushed += u64::from(!event.is_timer());
        self.calendar.push(at, self.owner, event.into());
    }

    /// Schedules a client's request to reach the replica at `idx`.
    fn request(&mut self, at: u64, idx: usize, client_id: u64, request_id: u64, op: Operation) {
        let event = EventKind::ClientDeliver {
            idx,
            client_id,
            request_id,
            operation: op,
        };
        self.push(at, event);
    }

    /// Arms the retransmission timer of a client's request: a calendar key
    /// tagged with the client, holding no slab slot.
    fn retry(&mut self, at: u64, client_id: u64) {
        // recipe-lint: allow(unwrap-in-lib, reason = "client ids are dense from zero, far below 2^31")
        let tag = u32::try_from(client_id).expect("client id fits a timer tag");
        self.calendar.push_timer(at, self.owner, tag);
    }

    /// Tells the replica at `idx` that `about` went down or came back `up`.
    fn notice(&mut self, at: u64, idx: usize, about: NodeId, up: bool) {
        self.push(at, EventKind::PeerNotice { idx, about, up });
    }

    /// Schedules a frame of `ops` protocol ops to reach the replica at `to`.
    fn deliver(&mut self, at: u64, from: NodeId, to: usize, bytes: Vec<u8>, ops: u32) {
        let event = EventKind::Deliver {
            from,
            to,
            bytes,
            ops,
        };
        self.push(at, event);
    }

    /// How many events the group ever scheduled: its next frame's wire id.
    fn next_seq(&self) -> u64 {
        self.calendar.next_seq(self.owner)
    }
}

/// What [`SimCluster::step`] did with the next event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// The event queue is empty; nothing more will happen.
    Idle,
    /// The next event lies beyond the virtual-time cap and was discarded.
    CapReached,
    /// One event was processed.
    Processed,
}

/// The first reply to a client's outstanding request, as a [`Scheduler`]
/// collects it for the driver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Completion {
    /// The issuing client.
    pub client_id: u64,
    /// The completed request.
    pub request_id: u64,
    /// Issue-to-reply latency in virtual nanoseconds.
    pub latency_ns: u64,
    /// Whether the completed operation was a write.
    pub was_write: bool,
    /// Virtual time at which the reply reached the client.
    pub at_ns: u64,
    /// The reply's result: a read's value when it found its key, moved out
    /// of the [`ClientReply`]. The buffer is a spare of the group's frame
    /// pool; whoever takes the completion gives it back
    /// ([`ReplicaGroup::give_frame`]) once the client has seen it.
    pub value: Option<Vec<u8>>,
}

/// What one [`ReplicaGroup::charge`] did to a node's clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Charged {
    /// When the node began the work: the time asked for, or later if the
    /// node was still busy.
    pub start_ns: u64,
    /// When the work finished; the node is busy until then.
    pub finish_ns: u64,
}

/// Bookkeeping for a client's single outstanding request. Tracking the issued
/// operation itself (rather than re-deriving it) lets retries resend the exact
/// same operation and lets [`ReplicaGroup::record_reply`] classify the
/// completion by the *request* type instead of guessing from reply fields.
#[derive(Debug, Clone)]
struct Outstanding {
    request_id: u64,
    issued_ns: u64,
    /// When the request is due for retransmission: set at submit and moved
    /// on at every retransmission. The client's one timer is due no later:
    /// armed for an earlier request, it may fall due sooner, and then
    /// moves itself on to this instant and resends nothing (a dead timer).
    retry_at: u64,
    operation: Operation,
}

/// A client's place in a group: its request still waiting for a reply, and
/// whether its one retransmission timer is on the calendar.
#[derive(Debug, Default)]
struct ClientSlot {
    waiting: Option<Outstanding>,
    /// Set while the client's timer is on the calendar, due at or before
    /// `waiting`'s [`Outstanding::retry_at`]; a submit arms none while it is.
    timer_armed: bool,
}

/// One replica group of the discrete-event simulator.
pub struct ReplicaGroup<R: Replica> {
    replicas: Vec<R>,
    /// `replicas[i].id()`, kept beside them for lookups in both directions.
    ids: Vec<NodeId>,
    config: SimConfig,
    link: Link,
    /// Time of the group's last event or submit; the calendar is the clock.
    now: u64,
    /// Each replica's books, in construction order.
    books: Vec<NodeBooks>,
    crashed: BTreeSet<NodeId>,
    /// Each client's request still waiting for a reply and its timer,
    /// indexed by client id. Ids are dense from zero; the table grows the
    /// first time a client submits.
    clients: Vec<ClientSlot>,
    /// The group's events on the calendar but its timers: raised as a
    /// [`Scheduler`] pushes one, lowered as [`ReplicaGroup::handle`] runs it.
    in_flight: u64,
    /// The effect buffers handler calls fill and the free list of frame
    /// buffers their frames are built in, lent to one [`Ctx`] at a time and
    /// taken back (the queues empty): a steady run allocates neither. A
    /// frame's buffer comes back to the free list here once the receiving
    /// handler returned, or once the network dropped the frame, replaced it
    /// with a tampered copy or carried it to a crashed node; a reply's value
    /// once its client has seen it ([`ReplicaGroup::give_frame`]).
    effects: Effects,
    messages: MessageCounts,
    write_rr: usize,
    read_rr: usize,
    /// Attached telemetry, `None` (the default) disables every telemetry
    /// branch on the hot paths — runs are bit-identical to a build without it.
    telemetry: Option<ShardTelemetry>,
}

impl<R: Replica> ReplicaGroup<R> {
    /// Creates a group over `replicas` (node ids must match their position-order
    /// ids used in `config.profiles`).
    pub fn new(replicas: Vec<R>, config: SimConfig) -> Self {
        assert_eq!(
            replicas.len(),
            config.profiles.len(),
            "one cost profile per replica"
        );
        let n = replicas.len();
        let link = Link::new(config.fault_plan, config.seed, COST_MODEL.link_latency_ns);
        ReplicaGroup {
            ids: replicas.iter().map(Replica::id).collect(),
            replicas,
            link,
            now: 0,
            books: vec![NodeBooks::default(); n],
            crashed: BTreeSet::new(),
            clients: Vec::new(),
            in_flight: 0,
            effects: Effects::default(),
            messages: MessageCounts::default(),
            write_rr: 0,
            read_rr: 0,
            telemetry: None,
            config,
        }
    }

    /// Attaches per-shard telemetry (span tracer, cost attribution, latency
    /// histogram). Telemetry only observes: with or without it, the same
    /// events run at the same virtual times.
    pub fn set_telemetry(&mut self, telemetry: ShardTelemetry) {
        self.telemetry = Some(telemetry);
    }

    /// The attached telemetry, if any (drivers charge out-of-band work here).
    pub fn telemetry_mut(&mut self) -> Option<&mut ShardTelemetry> {
        self.telemetry.as_mut()
    }

    /// Detaches and returns the telemetry for export.
    pub fn take_telemetry(&mut self) -> Option<ShardTelemetry> {
        self.telemetry.take()
    }

    /// Number of replicas (telemetry reconciles busy time against
    /// `replicas × elapsed`).
    pub fn replica_count(&self) -> usize {
        self.replicas.len()
    }

    /// Folds every replica's shield/batcher counters into the attached
    /// telemetry (call once, at the end of a run).
    pub fn scrape_protocol_counters(&mut self) {
        if let Some(t) = self.telemetry.as_mut() {
            for replica in &self.replicas {
                if let Some(counters) = replica.protocol_counters() {
                    t.absorb_protocol_counters(&counters);
                }
            }
        }
    }

    /// Each replica's books over the group's life, in construction order.
    pub fn books(&self) -> &[NodeBooks] {
        &self.books
    }

    /// The configuration the group was built under.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Virtual time of the group's last event or submit, in nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.now
    }

    /// The group's events on the calendar but its timers.
    pub fn in_flight(&self) -> u64 {
        self.in_flight
    }

    /// At rest: nothing but the group's timers on the calendar, no client waiting.
    pub fn at_rest(&self) -> bool {
        self.in_flight == 0 && self.clients.iter().all(|client| client.waiting.is_none())
    }

    /// Immutable access to a replica (for post-run assertions).
    ///
    /// # Panics
    /// Panics if `node` is not a replica of this cluster, as do
    /// [`ReplicaGroup::replica_mut`] and [`ReplicaGroup::charge`].
    pub fn replica(&self, node: NodeId) -> &R {
        &self.replicas[self.index_of(node)]
    }

    /// Mutable access to a replica (for test setup).
    pub fn replica_mut(&mut self, node: NodeId) -> &mut R {
        let idx = self.index_of(node);
        &mut self.replicas[idx]
    }

    /// Nodes currently crashed.
    pub fn crashed_nodes(&self) -> &BTreeSet<NodeId> {
        &self.crashed
    }

    /// The ids of all replicas, in construction order.
    pub fn node_ids(&self) -> &[NodeId] {
        &self.ids
    }

    /// The link every frame between the group's enclaves crosses.
    pub fn link(&mut self) -> &mut Link {
        &mut self.link
    }

    /// The group's free list of frame buffers (see [`Ctx`]).
    pub fn frame_pool(&self) -> &FramePool {
        &self.effects.frames
    }

    /// Gives a buffer the group's frame pool lent back to it: a
    /// [`Completion`]'s value, once its client has seen it.
    pub fn give_frame(&mut self, buf: Vec<u8>) {
        self.effects.frames.give(buf);
    }

    /// The first live replica that coordinates writes, if any (construction
    /// order — deterministic). External controllers (e.g. the shard-migration
    /// driver) use this to find the group's leader for state export.
    pub fn write_coordinator(&self) -> Option<NodeId> {
        self.replicas
            .iter()
            .filter(|r| !self.crashed.contains(&r.id()))
            .find(|r| r.coordinates_writes())
            .map(|r| r.id())
    }

    /// Charges `work` to `node`, starting no earlier than `at_ns`: the one
    /// place a cost formula meets the virtual clock. The formula is
    /// evaluated once, under the node's own profile; the node's work queue
    /// is serialized, so the charge delays every subsequent event the node
    /// processes; and the same evaluation files its split in the node's books
    /// — a site cannot charge one formula and attribute another. The
    /// simulator's own handlers charge through here, and so does out-of-band
    /// work — a migration snapshot export, a state-transfer import, a 2PC
    /// phase — which is how it competes for the same compute the protocol
    /// runs on.
    pub fn charge(&mut self, node: NodeId, at_ns: u64, kind: ChargeKind, work: Work) -> Charged {
        self.charge_idx(self.index_of(node), at_ns, kind, work)
    }

    /// [`ReplicaGroup::charge`] by replica position.
    fn charge_idx(&mut self, idx: usize, at_ns: u64, kind: ChargeKind, work: Work) -> Charged {
        let books = &mut self.books[idx];
        let cost = COST_MODEL.cost(&self.config.profiles[idx], work, &mut books.busy);
        if let Some(t) = self.telemetry.as_mut() {
            t.charge(kind, cost);
        }
        let start_ns = at_ns.max(books.busy_until);
        let finish_ns = start_ns + cost;
        books.busy_until = finish_ns;
        Charged {
            start_ns,
            finish_ns,
        }
    }

    /// Position of `node` among the replicas. An id the cluster does not
    /// hold maps to one past the last replica, so using it as an index
    /// panics — addressing a node outside the cluster is a caller's bug.
    fn index_of(&self, node: NodeId) -> usize {
        self.ids
            .iter()
            .position(|&id| id == node)
            .unwrap_or(self.ids.len())
    }

    /// Schedules the protocol kick-off timers (token 0 at time 0) and the
    /// configured crash schedule. Called by the driver before each run.
    pub fn seed_initial_events<T: From<GroupEvent>>(&mut self, sched: &mut Scheduler<'_, T>) {
        for idx in 0..self.replicas.len() {
            sched.push(0, EventKind::Timer { idx, token: 0 });
        }
        for entry in &self.config.crash_plan.entries {
            sched.push(entry.crash_at_ns, EventKind::Crash { node: entry.node });
            if let Some(recover_at_ns) = entry.recover_at_ns {
                sched.push(recover_at_ns, EventKind::Recover { node: entry.node });
            }
        }
        self.in_flight += std::mem::take(&mut sched.pushed);
    }

    /// Submits a client operation at virtual time `at_ns`, which must be ≥
    /// the time of every event already run — the calendar's order sees to
    /// that. Hands the operation back when no live coordinator exists for
    /// it, so the caller can retry the *identical* payload later without
    /// cloning every submission up front.
    pub fn try_submit_at<T: From<GroupEvent>>(
        &mut self,
        at_ns: u64,
        client_id: u64,
        request_id: u64,
        operation: Operation,
        sched: &mut Scheduler<'_, T>,
    ) -> Result<(), Operation> {
        self.now = self.now.max(at_ns);
        let Some(target) = self.route(&operation) else {
            return Err(operation);
        };
        let issued_ns = self.now;
        let retry_at = self.now + RETRY_TIMEOUT_NS;
        let client = self.client_mut(client_id);
        client.waiting = Some(Outstanding {
            request_id,
            issued_ns,
            retry_at,
            operation: operation.clone(),
        });
        // A timer still on the calendar is due no later than `retry_at`, and
        // moves itself on to it when it fires.
        if !std::mem::replace(&mut client.timer_armed, true) {
            sched.retry(retry_at, client_id);
        }
        let deliver_at = self.now + COST_MODEL.link_latency_ns;
        sched.request(deliver_at, target, client_id, request_id, operation);
        self.in_flight += std::mem::take(&mut sched.pushed);
        if let Some(t) = self.telemetry.as_mut() {
            t.instant(
                SpanKind::ClientSubmit,
                self.ids[target].0,
                self.now,
                client_id,
            );
        }
        Ok(())
    }

    /// Runs `event`, due at virtual time `at`. The first reply it delivers
    /// to a client's request goes to the scheduler's completions. Returns
    /// the node the event restarted, if any: what the group committed while
    /// it slept is the caller's to transfer, and the node stays out of the
    /// survivors' view until the caller calls [`ReplicaGroup::rejoin`].
    #[must_use = "a restarted node rejoins only through `rejoin`"]
    pub fn handle<T: From<GroupEvent>>(
        &mut self,
        at: u64,
        event: GroupEvent,
        sched: &mut Scheduler<'_, T>,
    ) -> Option<NodeId> {
        self.now = at;
        self.in_flight -= u64::from(!event.is_timer());
        let restarted = match event.0 {
            EventKind::Recover { node } => self.crashed.contains(&node).then_some(node),
            _ => None,
        };
        self.run_event(event.0, sched);
        self.in_flight += std::mem::take(&mut sched.pushed);
        restarted
    }

    fn run_event<T: From<GroupEvent>>(&mut self, event: EventKind, sched: &mut Scheduler<'_, T>) {
        match event {
            EventKind::Crash { node } => {
                if self.crashed.insert(node) {
                    if let Some(t) = self.telemetry.as_mut() {
                        t.instant(SpanKind::NodeCrash, node.0, self.now, 0);
                    }
                    // The trusted configuration service observes the failure
                    // and notifies the survivors after the detection delay.
                    let notice_at = self.now + FAILURE_DETECTION_DELAY_NS;
                    for idx in 0..self.ids.len() {
                        if self.ids[idx] != node {
                            sched.notice(notice_at, idx, node, false);
                        }
                    }
                }
            }
            EventKind::Recover { node } => {
                if self.crashed.remove(&node) {
                    self.handle_recover(node, sched);
                }
            }
            EventKind::PeerNotice { idx, about, up } => {
                let node = self.ids[idx];
                if self.crashed.contains(&node) {
                    return;
                }
                self.run_handler(idx, self.now, sched, |replica, ctx| match up {
                    true => replica.on_peer_up(about, ctx),
                    false => replica.on_peer_down(about, ctx),
                });
            }
            EventKind::ClientRetry { client_id } => {
                // A timer is armed only for a client with a slot.
                let client = &mut self.clients[client_id as usize];
                let Some(out) = client.waiting.as_mut() else {
                    // Answered: nothing to resend, and no timer left.
                    client.timer_armed = false;
                    return sched.calendar.count_dead_timer();
                };
                if out.retry_at > self.now {
                    // Armed for an earlier request: wait for this one's
                    // instant.
                    sched.retry(out.retry_at, client_id);
                    return sched.calendar.count_dead_timer();
                }
                let retry_at = self.now + RETRY_TIMEOUT_NS;
                out.retry_at = retry_at;
                // Resend the exact operation that was issued (the original code
                // re-drew from the workload closure, silently mutating stateful
                // generators on every retry).
                let (request_id, operation) = (out.request_id, out.operation.clone());
                if let Some(idx) = self.route(&operation) {
                    let deliver_at = self.now + COST_MODEL.link_latency_ns;
                    sched.request(deliver_at, idx, client_id, request_id, operation);
                }
                sched.retry(retry_at, client_id);
            }
            EventKind::ClientDeliver {
                idx,
                client_id,
                request_id,
                operation,
            } => {
                let node = self.ids[idx];
                if self.crashed.contains(&node) {
                    // Request lost: the client's retry timer resends it.
                    return;
                }
                let books = &mut self.books[idx];
                match operation.is_write() {
                    true => books.writes_taken += 1,
                    false => books.reads_taken += 1,
                }
                let work = Work::ingest(operation.value_len());
                let charged = self.charge_idx(idx, self.now, ChargeKind::ClientIngest, work);
                let finish = charged.finish_ns;
                if let Some(t) = self.telemetry.as_mut() {
                    t.span(
                        SpanKind::BatcherEnqueue,
                        node.0,
                        charged.start_ns,
                        finish,
                        client_id,
                    );
                }
                let request = ClientRequest {
                    client_id,
                    request_id,
                    operation,
                    signature: None,
                };
                let mut ctx = self.ctx(node, finish);
                self.replicas[idx].on_client_request(request, &mut ctx);
                self.apply_effects(idx, ctx, sched);
            }
            EventKind::Deliver {
                from,
                to: idx,
                mut bytes,
                ops,
            } => {
                let to = self.ids[idx];
                if self.crashed.contains(&to) {
                    self.messages.to_crashed += 1;
                    return self.effects.frames.give(bytes);
                }
                self.books[idx].frames_received += 1;
                self.books[idx].ops_received += u64::from(ops);
                let work = Work::Recv {
                    ops: ops as usize,
                    bytes: bytes.len(),
                };
                let before = self.telemetry.is_some().then(|| self.books[idx].busy);
                let charged = self.charge_idx(idx, self.now, ChargeKind::PeerDeliver, work);
                let finish = charged.finish_ns;
                if let (Some(t), Some(before)) = (self.telemetry.as_mut(), before) {
                    let grew = |c| self.books[idx].busy.get(c) - before.get(c);
                    let app_ns = grew(CostCategory::App) + grew(CostCategory::TeeExec);
                    let app_ns = app_ns + grew(CostCategory::EpcPressure);
                    t.span(
                        SpanKind::Replication,
                        to.0,
                        charged.start_ns,
                        finish,
                        ops as u64,
                    );
                    t.span(SpanKind::Apply, to.0, finish - app_ns, finish, ops as u64);
                }
                self.run_handler(idx, finish, sched, |replica, ctx| {
                    replica.on_delivery(from, &mut bytes, ctx);
                });
                self.effects.frames.give(bytes);
            }
            EventKind::Timer { idx, token } => {
                let node = self.ids[idx];
                if self.crashed.contains(&node) {
                    return;
                }
                self.run_handler(idx, self.now, sched, |replica, ctx| {
                    replica.on_timer(token, ctx);
                });
            }
        }
    }

    /// Runs `handler` on the replica at `idx` at `at_ns`, marks a view change
    /// it made on the trace and applies its effects.
    fn run_handler<T: From<GroupEvent>>(
        &mut self,
        idx: usize,
        at_ns: u64,
        sched: &mut Scheduler<'_, T>,
        handler: impl FnOnce(&mut R, &mut Ctx),
    ) {
        let view_before = self.replicas[idx].current_view();
        let mut ctx = self.ctx(self.ids[idx], at_ns);
        handler(&mut self.replicas[idx], &mut ctx);
        let view_after = self.replicas[idx].current_view();
        if let Some(t) = self
            .telemetry
            .as_mut()
            .filter(|_| view_after != view_before)
        {
            t.instant(SpanKind::ViewChange, self.ids[idx].0, at_ns, view_after);
        }
        self.apply_effects(idx, ctx, sched);
    }

    /// Re-attests and restarts a node that just left the crashed set (the
    /// caller already removed it). Mirrors the paper's §3.7 recovery flow,
    /// with the simulator playing the attestation/configuration service:
    ///
    /// 1. **Channel resync** — both directions of every channel with a live
    ///    peer fast-forward their receive counters to the peer's trusted send
    ///    counter. Frames sealed while the node slept then reject as
    ///    *replays*: a recovering replica can neither act on stale traffic
    ///    nor wedge buffering an unfillable gap.
    /// 2. **View catch-up** — the node adopts the highest view any live peer
    ///    runs, so it can never accept traffic from a deposed leader.
    /// 3. **Rollback-protected rehydration** — [`Replica::on_restart`] drops
    ///    all volatile protocol state and re-verifies every host-resident
    ///    record against the enclave's sealed metadata; the verification work
    ///    is charged to the node's serialized compute and attributed to
    ///    `charge.recovery_ns`.
    /// 4. **State transfer** — the caller of [`ReplicaGroup::handle`] ships
    ///    a live peer's state to the node in sealed chunks across the group's
    ///    link ([`ReplicaGroup::link`]), as a migration ships a range.
    /// 5. **Rejoin** ([`ReplicaGroup::rejoin`]) — the configuration service
    ///    notifies the survivors ([`Replica::on_peer_up`]) after the
    ///    detection delay; a node whose transfer failed is down again.
    fn handle_recover<T: From<GroupEvent>>(&mut self, node: NodeId, sched: &mut Scheduler<'_, T>) {
        let idx = self.index_of(node);
        let live_peers: Vec<(usize, NodeId)> = self
            .replicas
            .iter()
            .enumerate()
            .filter(|(_, r)| r.id() != node && !self.crashed.contains(&r.id()))
            .map(|(i, r)| (i, r.id()))
            .collect();
        let mut rejoin_view = self.replicas[idx].current_view();
        for &(peer_idx, peer) in &live_peers {
            let toward_node = self.replicas[peer_idx].channel_send_counter(node);
            self.replicas[idx].resync_channel_from(peer, toward_node);
            let toward_peer = self.replicas[idx].channel_send_counter(peer);
            self.replicas[peer_idx].resync_channel_from(node, toward_peer);
            rejoin_view = rejoin_view.max(self.replicas[peer_idx].current_view());
        }

        let mut ctx = self.ctx(node, self.now);
        let report = self.replicas[idx].on_restart(rejoin_view, &mut ctx);
        // The configuration the node is handed includes who is still down.
        let still_down: Vec<NodeId> = self.crashed.iter().copied().collect();
        for down in still_down {
            self.replicas[idx].on_peer_down(down, &mut ctx);
        }

        // The joiner pays for the verified re-scan of its sealed state.
        let rescan = Work::Scan {
            entries: report.verified_entries as usize,
            bytes: report.payload_bytes as usize,
        };
        let rescanned = self.charge_idx(idx, self.now, ChargeKind::Recovery, rescan);
        if let Some(t) = self.telemetry.as_mut() {
            t.span(
                SpanKind::NodeRecover,
                node.0,
                rescanned.start_ns,
                rescanned.finish_ns,
                report.verified_entries,
            );
        }
        self.apply_effects(idx, ctx, sched);
    }

    /// Ends the restart of `node`, which [`ReplicaGroup::handle`] returned.
    /// A node that caught up (`caught_up`) rejoins: the configuration service
    /// notifies the survivors ([`Replica::on_peer_up`]) after the detection
    /// delay. One that did not is counted as down again and serves nothing
    /// until its next planned restart: its stale state must never answer.
    pub fn rejoin<T: From<GroupEvent>>(
        &mut self,
        node: NodeId,
        caught_up: bool,
        sched: &mut Scheduler<'_, T>,
    ) {
        if !caught_up {
            self.crashed.insert(node);
            if let Some(t) = self.telemetry.as_mut() {
                t.instant(SpanKind::NodeCrash, node.0, self.now, 0);
            }
            return;
        }
        let notice_at = self.now + FAILURE_DETECTION_DELAY_NS;
        for idx in 0..self.ids.len() {
            if self.ids[idx] != node && !self.crashed.contains(&self.ids[idx]) {
                sched.notice(notice_at, idx, node, true);
            }
        }
        self.in_flight += std::mem::take(&mut sched.pushed);
    }

    /// What the network did with the group's frames since the last take.
    /// Commits are not the group's to count: each reached the driver as a
    /// [`Completion`].
    pub fn take_message_counts(&mut self) -> MessageCounts {
        std::mem::take(&mut self.messages)
    }

    /// Picks the coordinator for an operation among live replicas, round-robin:
    /// its position in the cluster.
    fn route(&mut self, operation: &Operation) -> Option<usize> {
        let is_write = operation.is_write();
        let crashed = &self.crashed;
        let mut candidates = self.replicas.iter().enumerate().filter(|(_, r)| {
            !crashed.contains(&r.id())
                && if is_write {
                    r.coordinates_writes()
                } else {
                    r.coordinates_reads()
                }
        });
        let count = candidates.clone().count();
        if count == 0 {
            return None;
        }
        let rr = if is_write {
            &mut self.write_rr
        } else {
            &mut self.read_rr
        };
        let (choice, _) = candidates.nth(*rr % count)?;
        *rr += 1;
        Some(choice)
    }

    /// A context for a handler call on `node` at `now_ns`, holding the
    /// group's effect buffers until [`ReplicaGroup::apply_effects`] takes
    /// them back.
    fn ctx(&mut self, node: NodeId, now_ns: u64) -> Ctx {
        let buffers = std::mem::take(&mut self.effects);
        Ctx::new(node, TrustedInstant::from_nanos(now_ns), buffers)
    }

    fn apply_effects<T: From<GroupEvent>>(
        &mut self,
        idx: usize,
        ctx: Ctx,
        sched: &mut Scheduler<'_, T>,
    ) {
        let src = self.ids[idx];
        let mut effects = ctx.take_effects();
        let frames = &mut effects.frames;
        for (dst, bytes, ops) in effects.outbox.drain(..) {
            // Sending costs the sender time (serialized on the node). Batch
            // frames pay their fixed transport/auth overhead once per frame.
            let work = Work::Send {
                ops: ops as usize,
                bytes: bytes.len(),
            };
            let sent = self.charge_idx(idx, self.now, ChargeKind::FrameSend, work);
            self.books[idx].frames_sent += 1;
            self.books[idx].ops_sent += u64::from(ops);
            let send_finish = sent.finish_ns;
            if let Some(t) = self.telemetry.as_mut() {
                t.span(
                    SpanKind::ShieldWrap,
                    src.0,
                    sent.start_ns,
                    send_finish,
                    ops as u64,
                );
            }

            // The Byzantine network decides what lands, and when.
            let to = self.index_of(dst);
            let wire_id = sched.next_seq();
            let landing = self.link.send(wire_id, src, dst, send_finish, &bytes);
            if let Some((at, forged)) = landing.copy {
                let (kind, copy, copy_ops) = match forged {
                    Forged::Tampered(corrupted) => {
                        self.messages.tampered += 1;
                        (SpanKind::FaultTamper, corrupted, ops)
                    }
                    Forged::Duplicate => {
                        self.messages.replayed += 1;
                        let mut copy = frames.take(bytes.len());
                        copy.extend_from_slice(&bytes);
                        (SpanKind::FaultDuplicate, copy, ops)
                    }
                    // The op count of a historical frame is unknown to the
                    // adversary's replay buffer; the shield rejects it
                    // anyway, so it is charged as a single message.
                    Forged::Replayed(older) => {
                        self.messages.replayed += 1;
                        (SpanKind::FaultReplay, older, 1)
                    }
                };
                if let Some(t) = self.telemetry.as_mut() {
                    t.instant(kind, dst.0, landing.due, ops as u64);
                }
                sched.deliver(at, src, to, copy, copy_ops);
            } else if landing.frame_at.is_none() {
                self.messages.dropped += 1;
                if let Some(t) = self.telemetry.as_mut() {
                    t.instant(SpanKind::FaultDrop, dst.0, self.now, ops as u64);
                }
            }
            match landing.frame_at {
                Some(at) => sched.deliver(at, src, to, bytes, ops),
                None => frames.give(bytes),
            }
        }

        // A read reply's value was copied into a spare of the frame free
        // list. The first reply's travels to its client in the completion;
        // a duplicate's goes back at once.
        for reply in effects.replies.drain(..) {
            if let Some(value) = self.record_reply(reply, sched.completions) {
                frames.give(value);
            }
        }
        for (delay, token) in effects.timers.drain(..) {
            sched.push(self.now + delay, EventKind::Timer { idx, token });
        }
        self.effects = effects;
    }

    /// `client_id`'s table entry, grown to reach it on first sight.
    fn client_mut(&mut self, client_id: u64) -> &mut ClientSlot {
        let idx = client_id as usize;
        if idx >= self.clients.len() {
            self.clients.resize_with(idx + 1, ClientSlot::default);
        }
        &mut self.clients[idx]
    }

    /// Records `reply` if it is the first for its client's outstanding
    /// request, moving its value into the [`Completion`]; otherwise hands
    /// the value back.
    fn record_reply(
        &mut self,
        reply: ClientReply,
        completions: &mut Vec<Completion>,
    ) -> Option<Vec<u8>> {
        let client_id = reply.client_id;
        // Only the first reply for the *currently outstanding* request counts;
        // replicas in BFT protocols all reply, and late replies for older requests
        // must not be double-counted.
        let slot = self.clients.get_mut(client_id as usize);
        let current = |out: &mut Outstanding| out.request_id == reply.request_id;
        if let Some(out) = slot.and_then(|slot| slot.waiting.take_if(current)) {
            let latency = self.now.saturating_sub(out.issued_ns);
            if let Some(t) = self.telemetry.as_mut() {
                t.instant(SpanKind::Reply, reply.replier, self.now, client_id);
                t.record_latency(latency);
            }
            completions.push(Completion {
                client_id,
                request_id: reply.request_id,
                latency_ns: latency,
                // Classified by the *issued operation*, not by reply fields:
                // a read miss carries neither value nor found-flag, and write
                // acks may set `found`.
                was_write: out.operation.is_write(),
                at_ns: self.now,
                value: reply.value,
            });
            return None;
        }
        // Replies for requests we are no longer waiting on (duplicates from multiple
        // replicas) are ignored: the first reply wins.
        reply.value
    }
}

/// A one-group harness over the calendar and the group's handlers, for tests
/// that step a group themselves; the rest is the group's, through `Deref`.
/// It ships no state transfer: a restarted node rejoins at once on its own
/// sealed state and catches up through its protocol alone. The sharded
/// driver's restarts catch up from a live peer first.
pub struct SimCluster<R: Replica> {
    group: ReplicaGroup<R>,
    calendar: Calendar<GroupEvent>,
    completions: Vec<Completion>,
    /// Requests the steps completed.
    committed: u64,
}

impl<R: Replica> SimCluster<R> {
    /// A harness over one group of `replicas`.
    pub fn new(replicas: Vec<R>, config: SimConfig) -> Self {
        SimCluster {
            group: ReplicaGroup::new(replicas, config),
            calendar: Calendar::default(),
            completions: Vec::new(),
            committed: 0,
        }
    }

    /// Does nothing but refuse `false`: external clients are the only mode,
    /// and the method stays only until the benchmark package's event-loop
    /// replay stops calling it.
    pub fn set_external_clients(&mut self, external: bool) {
        assert!(external, "a SimCluster has no client loop of its own");
    }

    /// The group, and a scheduler onto the harness's calendar.
    fn lend(&mut self) -> (&mut ReplicaGroup<R>, Scheduler<'_, GroupEvent>) {
        let sched = Scheduler::new(&mut self.calendar, 0, &mut self.completions);
        (&mut self.group, sched)
    }

    /// [`ReplicaGroup::seed_initial_events`]. Call once, before stepping.
    pub fn seed_initial_events(&mut self) {
        let (group, mut sched) = self.lend();
        group.seed_initial_events(&mut sched);
    }

    /// [`ReplicaGroup::try_submit_at`]; false when no live coordinator
    /// exists for the operation.
    pub fn submit_at(&mut self, at: u64, client: u64, request: u64, op: Operation) -> bool {
        let (group, mut sched) = self.lend();
        let submitted = group.try_submit_at(at, client, request, op, &mut sched);
        submitted.is_ok()
    }

    /// Runs the next event. A reply it delivers to a client is counted and
    /// kept for [`SimCluster::drain_completions`], without its value: the
    /// harness's callers read none, so the step gives each back to the pool.
    pub fn step(&mut self) -> StepOutcome {
        let Some((key, event)) = self.calendar.pop() else {
            return StepOutcome::Idle;
        };
        if key.at > self.group.config.max_virtual_ns {
            return StepOutcome::CapReached;
        }
        let recorded = self.completions.len();
        let (group, mut sched) = self.lend();
        if let Some(node) = group.handle(key.at, event, &mut sched) {
            // No state transfer here: the node rejoins on its own state.
            group.rejoin(node, true, &mut sched);
        }
        self.committed += (self.completions.len() - recorded) as u64;
        for completion in &mut self.completions[recorded..] {
            if let Some(value) = completion.value.take() {
                self.group.give_frame(value);
            }
        }
        StepOutcome::Processed
    }

    /// Runs every event due at or before `horizon_ns`.
    pub fn run_until(&mut self, horizon_ns: u64) {
        while self.calendar.peek().is_some_and(|key| key.at <= horizon_ns) {
            self.step();
        }
    }

    /// Takes the completions recorded since the last drain, in the order the
    /// replies reached their clients.
    pub fn drain_completions(&mut self) -> Vec<Completion> {
        std::mem::take(&mut self.completions)
    }

    /// Requests completed so far: the completions the steps recorded.
    pub fn committed(&self) -> u64 {
        self.committed
    }
}

impl<R: Replica> Deref for SimCluster<R> {
    type Target = ReplicaGroup<R>;

    fn deref(&self) -> &ReplicaGroup<R> {
        &self.group
    }
}

impl<R: Replica> DerefMut for SimCluster<R> {
    fn deref_mut(&mut self) -> &mut ReplicaGroup<R> {
        &mut self.group
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// A trivial single-round "echo" protocol used to exercise the simulator itself:
    /// the coordinator broadcasts the write, followers ack, the coordinator replies
    /// to the client after a majority of acks.
    ///
    /// It keeps a copy of every message it sends and of every one delivered
    /// to it, and overwrites each buffer lent to it once it has read it.
    struct EchoReplica {
        id: NodeId,
        peers: Vec<NodeId>,
        pending: HashMap<u64, (ClientRequest, usize)>,
        next_op: u64,
        is_leader: bool,
        sent: Vec<Vec<u8>>,
        delivered: Vec<Vec<u8>>,
        /// `(client_id, request_id)` of every client request it was sent.
        requests: Vec<(u64, u64)>,
        /// Replies still to be lost: a round that commits while this is
        /// non-zero sends none.
        lose_replies: u64,
    }

    impl EchoReplica {
        fn cluster(n: usize) -> Vec<EchoReplica> {
            let all: Vec<NodeId> = (0..n as u64).map(NodeId).collect();
            (0..n as u64)
                .map(|id| EchoReplica {
                    id: NodeId(id),
                    peers: all.clone(),
                    pending: HashMap::new(),
                    next_op: 0,
                    is_leader: id == 0,
                    sent: Vec::new(),
                    delivered: Vec::new(),
                    requests: Vec::new(),
                    lose_replies: 0,
                })
                .collect()
        }
    }

    impl Replica for EchoReplica {
        fn id(&self) -> NodeId {
            self.id
        }

        fn on_client_request(&mut self, request: ClientRequest, ctx: &mut Ctx) {
            self.requests.push((request.client_id, request.request_id));
            self.next_op += 1;
            let op_id = self.next_op;
            self.pending.insert(op_id, (request, 0));
            let mut msg = vec![0u8];
            msg.extend_from_slice(&op_id.to_le_bytes());
            msg.extend_from_slice(&self.id.0.to_le_bytes());
            self.sent.push(msg.clone());
            ctx.broadcast(&self.peers, msg);
        }

        fn on_message(&mut self, from: NodeId, bytes: &[u8], ctx: &mut Ctx) {
            match bytes[0] {
                0 => {
                    // Proposal: ack back to the coordinator.
                    let mut ack = vec![1u8];
                    ack.extend_from_slice(&bytes[1..9]);
                    self.sent.push(ack.clone());
                    ctx.send(from, ack);
                }
                1 => {
                    let op_id = u64::from_le_bytes(bytes[1..9].try_into().unwrap());
                    if let Some((request, acks)) = self.pending.get_mut(&op_id) {
                        *acks += 1;
                        if *acks == 2 && self.lose_replies > 0 {
                            self.lose_replies -= 1;
                        } else if *acks == 2 {
                            let reply = ClientReply {
                                client_id: request.client_id,
                                request_id: request.request_id,
                                value: None,
                                found: false,
                                replier: self.id.0,
                            };
                            ctx.reply(reply);
                        }
                    }
                }
                _ => {} // Tampered with.
            }
        }

        fn on_delivery(&mut self, from: NodeId, bytes: &mut [u8], ctx: &mut Ctx) {
            self.delivered.push(bytes.to_vec());
            self.on_message(from, bytes, ctx);
            bytes.fill(0xEE);
        }

        fn on_timer(&mut self, _token: u64, _ctx: &mut Ctx) {}

        fn coordinates_writes(&self) -> bool {
            self.is_leader
        }

        fn coordinates_reads(&self) -> bool {
            self.is_leader
        }

        fn protocol_name(&self) -> &'static str {
            "echo"
        }
    }

    /// Clients every test run drives.
    const CLIENTS: u64 = 8;

    /// Echo replicas under the Recipe profile on a benign network.
    fn echo(n: usize) -> SimCluster<EchoReplica> {
        SimCluster::new(EchoReplica::cluster(n), uniform(n))
    }

    fn write_workload(client: u64, seq: u64) -> Operation {
        Operation::Put {
            key: format!("k{client}-{seq}").into_bytes(),
            value: vec![0u8; 128],
        }
    }

    /// Steps `cluster` under [`CLIENTS`] clients, 200 ns apart, each
    /// submitting `workload(client, seq)` as its previous request completes,
    /// until `ops` have committed or the queue stops. A client whose
    /// submission finds no live coordinator issues nothing more. Returns the
    /// most events the heap held at once, and every completion.
    fn drive(
        cluster: &mut SimCluster<EchoReplica>,
        ops: u64,
        workload: impl Fn(u64, u64) -> Operation,
    ) -> (usize, Vec<Completion>) {
        cluster.seed_initial_events();
        for client in 0..CLIENTS {
            assert!(cluster.submit_at(client * 200, client, 1, workload(client, 1)));
        }
        let (mut high_water, mut completed) = (0, Vec::new());
        while cluster.committed() < ops {
            if cluster.step() != StepOutcome::Processed {
                break;
            }
            high_water = high_water.max(cluster.calendar.heap_len());
            for done in cluster.drain_completions() {
                let (client, next) = (done.client_id, done.request_id + 1);
                cluster.submit_at(done.at_ns, client, next, workload(client, next));
                completed.push(done);
            }
        }
        (high_water, completed)
    }

    /// [`drive`] on a fresh `n`-replica cluster: every completion, what the
    /// network did with the frames, and the clock at the end.
    fn finished(
        config: SimConfig,
        ops: u64,
        workload: impl Fn(u64, u64) -> Operation,
    ) -> (Vec<Completion>, MessageCounts, u64) {
        let n = config.profiles.len();
        let mut cluster = SimCluster::new(EchoReplica::cluster(n), config);
        let (_, completed) = drive(&mut cluster, ops, workload);
        (completed, cluster.take_message_counts(), cluster.now_ns())
    }

    fn uniform(n: usize) -> SimConfig {
        SimConfig::uniform(n, CostProfile::recipe())
    }

    #[test]
    fn echo_protocol_commits_all_operations() {
        let mut cluster = echo(3);
        let (_, completed) = drive(&mut cluster, 300, write_workload);
        assert_eq!(cluster.committed(), 300);
        let mut latencies: Vec<u64> = completed.iter().map(|done| done.latency_ns).collect();
        assert_eq!(latencies.len(), 300);
        let mut latency = RunStats::default();
        latency.set_latencies(&mut latencies);
        assert!(latency.mean_latency_us > 0.0);
        assert!(latency.p99_latency_us >= latency.mean_latency_us);
        assert!(cluster.books().iter().all(|node| node.frames_received > 0));
        assert_eq!(cluster.take_message_counts().dropped, 0);
        // Time went by, so the 300 commits make a finite throughput.
        assert!(cluster.now_ns() > 0);
    }

    #[test]
    fn commits_are_classified_by_issued_operation_type() {
        // The echo protocol replies with `value: None, found: false` for every
        // operation — replies carry no usable type information, exactly like a
        // read miss. Classification must come from what was *issued*: each
        // completion's `was_write`, which the harness counts.
        let read = |c: u64, s: u64| Operation::Get {
            key: format!("k{c}-{s}").into_bytes(),
        };
        fn reads_and_writes(workload: impl Fn(u64, u64) -> Operation) -> (usize, usize) {
            let (completed, ..) = finished(uniform(3), 120, workload);
            let writes = completed.iter().filter(|done| done.was_write).count();
            (completed.len() - writes, writes)
        }
        assert_eq!(reads_and_writes(read), (120, 0));
        assert_eq!(reads_and_writes(write_workload), (0, 120));

        let (reads, writes) = reads_and_writes(|c, s| {
            if s % 3 == 0 {
                read(c, s)
            } else {
                write_workload(c, s)
            }
        });
        assert_eq!(reads + writes, 120);
        assert!(reads > 0);
        assert!(writes > reads);
    }

    #[test]
    fn runs_are_deterministic_for_a_seed() {
        let a = finished(uniform(3), 200, write_workload);
        let b = finished(uniform(3), 200, write_workload);
        assert_eq!(a, b);
    }

    #[test]
    fn faster_profiles_yield_higher_throughput() {
        let (recipe, _, recipe_ns) = finished(uniform(3), 300, write_workload);
        let (pbft_profile, _, pbft_ns) = finished(
            SimConfig::uniform(3, CostProfile::pbft_baseline()),
            300,
            write_workload,
        );
        // The same 300 commits, sooner.
        assert_eq!((recipe.len(), pbft_profile.len()), (300, 300));
        assert!(recipe_ns < pbft_ns);
    }

    /// Every replica overwrites each buffer lent to it: a duplicate delivered
    /// after the original, and an old frame the adversary replays from its
    /// capture buffer, still carry the bytes that were sent.
    #[test]
    fn every_delivery_lends_a_buffer_of_its_own() {
        let mut config = uniform(3);
        config.fault_plan = FaultPlan {
            duplicate_probability: 0.2,
            replay_probability: 0.2,
            ..FaultPlan::default()
        };
        let mut cluster = SimCluster::new(EchoReplica::cluster(3), config);
        drive(&mut cluster, 300, write_workload);
        let messages = cluster.take_message_counts();
        assert_eq!(cluster.committed(), 300);
        assert!(messages.replayed > 100, "{messages:?}");
        let replicas = &cluster.replicas;
        let sent: BTreeSet<&Vec<u8>> = replicas.iter().flat_map(|r| &r.sent).collect();
        let delivered: Vec<&Vec<u8>> = replicas.iter().flat_map(|r| &r.delivered).collect();
        // More deliveries than distinct messages: duplicates and replays
        // arrived, and each one as it was sent.
        assert!(delivered.len() > sent.len() + 100);
        for bytes in delivered {
            assert!(sent.contains(bytes), "delivered {bytes:02x?}, never sent");
        }
    }

    /// Under drops, duplicates, replays, tampering and a crash and recovery,
    /// the run makes progress, and each replica's books count every frame
    /// that reached it and only those: one lost to a crashed node counts in
    /// `to_crashed` alone, and the replication spans carry every op
    /// received. No node is busier than the run is long.
    #[test]
    fn the_books_count_each_frame_where_it_lands() {
        let mut config = uniform(3);
        config.fault_plan = FaultPlan::byzantine();
        config.crash_plan = CrashPlan::none().crash_recover(NodeId(2), 300_000, 900_000);
        let mut cluster = SimCluster::new(EchoReplica::cluster(3), config);
        cluster.set_telemetry(ShardTelemetry::new(0));
        drive(&mut cluster, 1_000, write_workload);
        while cluster.step() == StepOutcome::Processed {}
        let messages = cluster.take_message_counts();
        assert!(cluster.committed() >= 1_000 && messages.dropped > 0);
        assert!(
            messages.to_crashed > 0 && messages.tampered > 0,
            "{messages:?}"
        );
        let (books, elapsed) = (cluster.books().to_vec(), cluster.now_ns());
        for (replica, node) in cluster.replicas.iter().zip(&books) {
            assert_eq!(replica.delivered.len() as u64, node.frames_received);
            assert!(node.busy.total() <= elapsed, "{node:?}");
        }
        let mut telemetry = cluster.take_telemetry().expect("attached");
        let spans = telemetry.tracer_mut().take_spans();
        let replicated = spans.iter().filter(|s| s.kind == SpanKind::Replication);
        let ops = books.iter().map(|node| node.ops_received).sum::<u64>();
        assert_eq!(replicated.map(|s| s.tag).sum::<u64>(), ops);
    }

    #[test]
    fn crashed_coordinator_halts_commits() {
        let mut config = uniform(3);
        config.max_virtual_ns = 50_000_000; // 50 ms
                                            // Crash the only coordinator at 1 ms.
        config.crash_plan = CrashPlan::none().crash(NodeId(0), 1_000_000);
        let mut cluster = SimCluster::new(EchoReplica::cluster(3), config);
        drive(&mut cluster, 10_000, write_workload);
        // Commits happen only in the first millisecond.
        assert!(cluster.committed() < 10_000);
        assert!(cluster.crashed_nodes().contains(&NodeId(0)));
    }

    /// A client keeps one retransmission timer on the calendar, so what the
    /// heap holds at its fullest is a few events and one timer per client
    /// however long the run — also while a crash plan's recovery sits in the
    /// queue beyond every timer.
    #[test]
    fn the_event_heap_stays_as_small_as_the_client_count() {
        let heap_high_water = |crash_plan: CrashPlan| {
            // Four replicas: a write needs two of three followers, so one may crash.
            let mut config = uniform(4);
            config.crash_plan = crash_plan;
            let mut cluster = SimCluster::new(EchoReplica::cluster(4), config);
            let (high_water, _) = drive(&mut cluster, 2_000, write_workload);
            assert_eq!(cluster.committed(), 2_000);
            high_water
        };
        // Per client: its request or the frames of its round and its
        // timer, and a kick-off timer per replica at the start.
        let bound = 5 * CLIENTS as usize + 4;
        assert!(heap_high_water(CrashPlan::none()) <= bound);
        // The run ends long before the first timer is due, and the recovery
        // comes after that still.
        let recover_after_every_timer =
            CrashPlan::none().crash_recover(NodeId(3), 1_000_000, 150_000_000);
        assert!(heap_high_water(recover_after_every_timer) <= bound + 4);
    }

    /// A timer is its calendar key: however many requests a client has
    /// sent, the slab holds only the few events of the round in flight, and
    /// the calendar one timer — the first request's, still pending, as the
    /// rounds end long before it is due.
    #[test]
    fn timers_take_no_slab_slots() {
        let mut cluster = echo(3);
        cluster.seed_initial_events();
        let (mut at, mut slab) = (0, Vec::new());
        for request in 1..=1_000 {
            assert!(cluster.submit_at(at, 0, request, write_workload(0, request)));
            let done = loop {
                assert_eq!(cluster.step(), StepOutcome::Processed);
                if let Some(done) = cluster.drain_completions().pop() {
                    break done;
                }
            };
            assert_eq!(done.request_id, request);
            at = done.at_ns;
            if request == 10 || request == 1_000 {
                slab.push(cluster.calendar.slab_len());
            }
        }
        assert!(at < RETRY_TIMEOUT_NS, "no timer fired");
        assert_eq!(cluster.calendar.timers_of(Owner::shard(0), 0), 1);
        assert_eq!(
            cluster.calendar.peek().map(|key| key.at),
            Some(RETRY_TIMEOUT_NS)
        );
        // As many slots after 1 000 rounds as after 10, and few.
        assert_eq!(slab[0], slab[1]);
        assert!(slab[1] <= 8, "{slab:?}");
    }

    /// Eight clients whose replies are lost now and then, over a run longer
    /// than two timeouts: at every step the calendar holds at most one
    /// timer per client, every resend leaves at its request's issue time
    /// plus a whole number of timeouts, and each timer that fires either
    /// resends or is counted dead.
    #[test]
    fn each_client_keeps_one_timer_and_resends_on_its_timeouts() {
        const REQUESTS: u64 = 40;
        let mut cluster = echo(3);
        // Every first request loses its reply, and half the resends too.
        cluster.replica_mut(NodeId(0)).lose_replies = CLIENTS + CLIENTS / 2;
        cluster.seed_initial_events();
        let mut issued = HashMap::new();
        for client in 0..CLIENTS {
            assert!(cluster.submit_at(client * 200, client, 1, write_workload(client, 1)));
            issued.insert((client, 1), client * 200);
        }
        let mut deliveries: HashMap<(u64, u64), u64> = HashMap::new();
        // Requests submitted while an earlier request's timer was pending.
        let mut under_older_timer = BTreeSet::new();
        let (mut seen, mut resends, mut completed) = (0, 0, 0);
        let mut resent_under_older_timer = 0;
        while cluster.step() == StepOutcome::Processed {
            for client in 0..CLIENTS {
                assert!(cluster.calendar.timers_of(Owner::shard(0), client as u32) <= 1);
            }
            let requests = &cluster.replica(NodeId(0)).requests;
            for request in &requests[seen..] {
                let count = deliveries.entry(*request).or_default();
                *count += 1;
                if *count > 1 {
                    // A resend reaches the leader one link latency after it
                    // left.
                    let sent = cluster.now_ns() - COST_MODEL.link_latency_ns;
                    let waited = sent - issued[request];
                    assert!(
                        waited > 0 && waited.is_multiple_of(RETRY_TIMEOUT_NS),
                        "{request:?} at {sent}"
                    );
                    resends += 1;
                    resent_under_older_timer += u64::from(under_older_timer.contains(request));
                }
            }
            seen = requests.len();
            for done in cluster.drain_completions() {
                completed += 1;
                // Every sixteenth completion loses the next round's reply,
                // while the client's timer may still be an earlier request's.
                if completed % 16 == 0 {
                    cluster.replica_mut(NodeId(0)).lose_replies += 1;
                }
                let (client, next) = (done.client_id, done.request_id + 1);
                if next <= REQUESTS {
                    if cluster.calendar.timers_of(Owner::shard(0), client as u32) == 1 {
                        under_older_timer.insert((client, next));
                    }
                    assert!(cluster.submit_at(
                        done.at_ns,
                        client,
                        next,
                        write_workload(client, next)
                    ));
                    issued.insert((client, next), done.at_ns);
                }
            }
        }
        assert_eq!(completed, CLIENTS * REQUESTS);
        assert!(cluster.now_ns() > 2 * RETRY_TIMEOUT_NS);
        assert!(resends > CLIENTS + CLIENTS / 2, "{resends}");
        // Some of them were due after the timer on the calendar, which
        // moved itself on to their instant.
        assert!(resent_under_older_timer > 0);
        // Nothing is left: each client's last timer fired for nothing and
        // armed no other.
        assert_eq!(cluster.calendar.peek(), None);
        let counts = cluster.calendar.take_counts();
        assert_eq!(counts.timers - counts.dead_timers, resends, "{counts:?}");
        assert!(counts.dead_timers >= CLIENTS, "{counts:?}");
    }

    /// A request whose reply is lost is resent when its timer fires, a whole
    /// timeout after it was issued, and the timer re-armed; the timer of an
    /// answered request resends nothing, also while a newer request of the
    /// client waits, but still moves the group's clock and is counted dead.
    #[test]
    fn a_lost_reply_is_resent_and_an_answered_request_is_not() {
        let mut cluster = echo(3);
        cluster.replica_mut(NodeId(0)).lose_replies = 2;
        cluster.seed_initial_events();
        let issued = 1_000;
        assert!(cluster.submit_at(issued, 0, 1, write_workload(0, 1)));
        for sent in 1..=2 {
            let due = issued + sent * RETRY_TIMEOUT_NS;
            cluster.run_until(due - 1);
            assert_eq!(
                cluster.replica(NodeId(0)).requests,
                vec![(0, 1); sent as usize]
            );
            assert!(cluster.drain_completions().is_empty());
            // Nothing is left but the timer, which resends the request.
            assert_eq!(cluster.calendar.peek().map(|key| key.at), Some(due));
            assert_eq!(cluster.step(), StepOutcome::Processed);
            assert_eq!(cluster.now_ns(), due);
        }
        cluster.run_until(issued + 2 * RETRY_TIMEOUT_NS + 1_000_000);
        let done = cluster.drain_completions();
        assert_eq!(done.len(), 1);
        assert!(done[0].latency_ns > 2 * RETRY_TIMEOUT_NS, "{done:?}");
        assert_eq!(cluster.replica(NodeId(0)).requests, [(0, 1); 3]);
        // The client's next request loses its first reply too, so it is
        // outstanding when the answered request's last timer fires: that
        // timer resends nothing and arms nothing.
        cluster.replica_mut(NodeId(0)).lose_replies = 1;
        let next = done[0].at_ns;
        assert!(cluster.submit_at(next, 0, 2, write_workload(0, 2)));
        let stale_due = issued + 3 * RETRY_TIMEOUT_NS;
        cluster.run_until(stale_due - 1);
        assert_eq!(cluster.calendar.peek().map(|key| key.at), Some(stale_due));
        assert_eq!(cluster.step(), StepOutcome::Processed);
        assert_eq!(cluster.now_ns(), stale_due);
        assert_eq!(cluster.replica(NodeId(0)).requests.len(), 4);
        // The live one is the next request's, a timeout after its submit.
        let due = next + RETRY_TIMEOUT_NS;
        assert_eq!(cluster.calendar.peek().map(|key| key.at), Some(due));
        cluster.run_until(due + 1_000_000);
        assert_eq!(cluster.replica(NodeId(0)).requests[3..], [(0, 2); 2]);
        assert_eq!(cluster.drain_completions().len(), 1);
        // Its own timer fires for nothing, and the calendar is empty.
        assert_eq!(cluster.step(), StepOutcome::Processed);
        assert_eq!(cluster.calendar.peek(), None);
        assert_eq!(cluster.replica(NodeId(0)).requests.len(), 5);
        let counts = cluster.calendar.take_counts();
        assert_eq!((counts.timers, counts.dead_timers), (5, 2), "{counts:?}");
    }

    #[test]
    fn route_skips_crashed_nodes() {
        let mut cluster = echo(3);
        cluster.crashed.insert(NodeId(0));
        assert_eq!(cluster.route(&write_workload(0, 1)), None); // only node 0 coordinates
        cluster.replica_mut(NodeId(1)).is_leader = true;
        cluster.replica_mut(NodeId(2)).is_leader = true;
        // Round-robin over the live coordinators, in construction order.
        let picks: Vec<_> = (0..4)
            .map(|_| cluster.route(&write_workload(0, 1)))
            .collect();
        assert_eq!(picks, [Some(1), Some(2), Some(1), Some(2)]);
    }

    #[test]
    fn replica_accessors_work() {
        let mut cluster = echo(3);
        assert_eq!(cluster.replica(NodeId(1)).id(), NodeId(1));
        cluster.replica_mut(NodeId(2)).is_leader = true;
        assert!(cluster.replica(NodeId(2)).coordinates_writes());
        assert_eq!(cluster.now_ns(), 0);
    }

    #[test]
    #[should_panic(expected = "no client loop of its own")]
    fn a_cluster_refuses_to_run_its_own_clients() {
        echo(3).set_external_clients(false);
    }
}
