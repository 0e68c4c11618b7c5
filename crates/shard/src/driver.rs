//! The unified request driver: one event loop for single-key operations,
//! cross-shard transactions and online rebalancing.
//!
//! [`ShardedCluster::run_requests`] is the driver's one entry point: the
//! workload, a [`Client`], returns [`recipe_core::Request`]s and is told of
//! each reply, and the driver
//!
//! * routes every operation by key through the epoch-stamped
//!   [`crate::ShardRouter`] (stale clients earn `WrongShard` redirects and
//!   re-resolve — including *whole transactions*, which re-route every key
//!   before 2PC starts);
//! * submits [`Request::Single`] operations straight to their shard's
//!   leader-side batched pipeline;
//! * coordinates [`Request::Txn`] requests through the two-phase-commit
//!   machinery in [`crate::txn`], with every 2PC frame shielded;
//! * runs the online-rebalancing controller when the deployment enables it,
//!   with transactions participating in the drain rules: a transaction
//!   touching a draining range backs off whole, and a cutover waits for
//!   in-flight transactions on the moving range exactly as it waits for
//!   outstanding single-key operations.
//!
//! All of it is one [`Engine`] — the state of a run in one struct:
//!
//! * `run` pops the cluster's one calendar, the driver's events and every
//!   group's, and dispatches; the rebalancing controller's deadline is
//!   derived, not queued, and runs when it sorts before the calendar's head;
//! * a driver event goes to its handler: `Fresh` → `on_fresh` → `admit` →
//!   `route` → `submit_single` | `begin_txn`; `GatewayRetry` re-enters at
//!   `admit`, `Retry` at `route`; `TxnRetry` → `on_txn_retry`, `TxnAdvance` →
//!   `on_txn_advance` (both in [`crate::txn`]); the controller's deadline →
//!   `on_controller` (in [`crate::migration`]); a group's → `on_group_event`;
//! * `schedule` is the only push of a driver event; `record_commit` is the
//!   only commit accounting — single-key and transactional operations alike,
//!   each counted once in the run's books and in its shard's, the groups
//!   counting none; `maybe_finish_cutover` is the only drain check;
//!   `finish` closes the books and drops the driver's events that are left.

use recipe_core::{Operation, Request};
use recipe_gateway::{Gateway, GatewayVerdict};
use recipe_protocols::StoreReplica;
use recipe_sim::{GroupEvent, Key, Owner, Replica, TimerPayload, COST_MODEL};
use recipe_telemetry::SpanKind;
use recipe_workload::stable_key_hash;

use crate::migration::{ControllerState, RebalanceConfig};
use crate::router::{RouteDecision, RouterVersion};
use crate::sharded::{Books, PoolCounts, ShardedCluster, ShardedRunStats, TimelineBucket};
use crate::txn::{Plane, TxnManager, TxnResolution, CONFLICT_BACKOFF_NS};

/// Work carried by one driver event.
#[derive(Debug)]
pub(crate) enum DriverWork {
    /// Draw the client's next request from the workload.
    Fresh,
    /// Re-issue an already-generated `(request_id, request)` — a redirect,
    /// refusal, submit failure or abort retry. Re-drawing from the workload
    /// closure would silently mutate stateful generators, the bug class the
    /// single-group retry path fixed in PR 1.
    Retry(u64, Request),
    /// Re-present a throttled `(request_id, request)` to the tenant gateway
    /// at its token bucket's refill time. Distinct from [`DriverWork::Retry`]:
    /// a throttled request never finished admission (no quota charged, keys
    /// not yet tenant-scoped), so it must go through `Gateway::admit` again —
    /// whereas `Retry` work was already admitted and must *not* be scoped or
    /// charged twice.
    GatewayRetry(u64, Request),
    /// Retransmit one participant's current 2PC frame.
    TxnRetry {
        /// The transaction.
        txn_id: u64,
        /// Participant index within the transaction.
        participant: usize,
    },
    /// Every round trip of a 2PC phase landed; advance the transaction.
    TxnAdvance {
        /// The transaction.
        txn_id: u64,
    },
}

/// A pending event of the run, as the cluster's calendar holds it.
#[derive(Debug)]
pub(crate) enum Event {
    /// The driver's work for one client.
    Driver { client_id: u64, work: DriverWork },
    /// A replica group's own event.
    Shard(GroupEvent),
}

impl From<GroupEvent> for Event {
    fn from(event: GroupEvent) -> Self {
        Event::Shard(event)
    }
}

/// The driver arms no timers: every timer is a group's.
impl TimerPayload for Event {
    fn from_timer(tag: u32) -> Self {
        Event::Shard(GroupEvent::from_timer(tag))
    }
}

/// One single-key operation in flight, as the driver submitted it.
struct Issued {
    shard: usize,
    arc: usize,
    request_id: u64,
    /// The operation's key, kept only when rebalancing is enabled: a
    /// migration's catch-up capture is the one reader, and it runs only
    /// then. Empty otherwise.
    key: Vec<u8>,
}

/// A run's clients, as the driver sees them: where each request comes
/// from, and where its reply goes.
///
/// Any `FnMut(client, seq) -> Option<Request>` is a client that issues
/// regardless of the time and reads no reply.
pub trait Client {
    /// Client `client`'s request number `seq`, issued at virtual time
    /// `at_ns`. `None` retires the client: open-loop schedules need a stop
    /// signal. A plain operation is `Some(op.into())`.
    fn next(&mut self, client: u64, seq: u64, at_ns: u64) -> Option<Request>;

    /// The reply to a request [`Client::next`] issued: a single operation's
    /// first reply, or a committed transaction's outcome. A request that
    /// never completes (the run ended, the gateway rejected it) gets none.
    fn done(&mut self, _reply: &Reply<'_>) {}

    /// A committed transaction's operations, handed back after
    /// [`Client::done`] so a client can draw its next requests into their
    /// buffers (`TxnWorkloadGenerator::reclaim`). The default drops them.
    /// Single operations and requests that never commit are not handed
    /// back.
    fn reclaim(&mut self, _spent: Vec<Operation>) {}
}

impl<F: FnMut(u64, u64) -> Option<Request>> Client for F {
    fn next(&mut self, client: u64, seq: u64, _at_ns: u64) -> Option<Request> {
        self(client, seq)
    }
}

/// What a client learns when its request completes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reply<'a> {
    /// The client the reply reached.
    pub client: u64,
    /// The `seq` the request was issued under.
    pub request_id: u64,
    /// Virtual time at which the reply reached the client.
    pub at_ns: u64,
    /// A single read's value when it found its key: `None` for a miss, a
    /// write's acknowledgement and a committed transaction.
    pub value: Option<&'a [u8]>,
}

/// What the driver keeps per client, indexed by the dense client id.
struct ClientState {
    /// The router epoch the client last resolved a key under.
    version: RouterVersion,
    /// Id of the last request drawn from the workload.
    last_request_id: u64,
    /// The client's single-key operation in flight (a closed-loop client has
    /// at most one).
    outstanding: Option<Issued>,
}

/// One run of the request driver over a [`ShardedCluster`].
pub(crate) struct Engine<'a, R: Replica> {
    pub(crate) cluster: &'a mut ShardedCluster<R>,
    workload: &'a mut dyn Client,
    pub(crate) rb: RebalanceConfig,
    cap: u64,
    target: u64,
    /// The tenant gateway fronts the router when the deployment enables it.
    /// `None` when disabled: every hook is behind `if let`, so a gateway-off
    /// run schedules exactly the same events at exactly the same times as a
    /// build that predates the gateway — bit-identical, the same bar the
    /// telemetry layer meets.
    gateway: Option<Gateway>,
    pub(crate) st: ControllerState,
    pub(crate) txns: TxnManager,
    /// The network model every frame between groups crosses.
    pub(crate) plane: Plane,
    clients: Vec<ClientState>,
    /// Where [`Engine::route`] resolves a request's `(arc, shard)`
    /// placements, kept between requests so a steady run allocates none.
    placements: Vec<(usize, usize)>,
    /// The global virtual-time frontier.
    pub(crate) now: u64,
    books: Books,
    timeline: Vec<u64>,
    timeline_aborts: Vec<u64>,
    /// [`ShardedCluster::pool_counts`] when the run began.
    pools_at_start: (PoolCounts, PoolCounts),
}

/// Adds `count` to the bucket of width `width_ns` that `at_ns` falls in (a
/// zero width disables the timeline).
fn bucket(timeline: &mut Vec<u64>, width_ns: u64, at_ns: u64, count: u64) {
    if let Some(bucket) = at_ns.checked_div(width_ns) {
        let bucket = bucket as usize;
        if timeline.len() <= bucket {
            timeline.resize(bucket + 1, 0);
        }
        timeline[bucket] += count;
    }
}

impl<R: StoreReplica> ShardedCluster<R> {
    /// Runs the sharded simulation over a typed-request workload — the
    /// driver's one entry point. The workload is a [`Client`]: any
    /// `FnMut(client_id, seq) -> Option<Request>` closure is one.
    ///
    /// Single-key requests take the per-shard batched path; transactions run
    /// atomic cross-shard 2PC through the shield layer (see `crate::txn`).
    /// The online-rebalancing controller runs when
    /// [`crate::migration::RebalanceConfig::enabled`] is set on the
    /// deployment.
    ///
    /// The run ends when the configured number of operations has committed
    /// across all shards and no transaction is in flight, or when no event
    /// is due by the virtual-time cap; `quiesce` drains what is in flight.
    pub fn run_requests<W: Client>(&mut self, mut workload: W) -> ShardedRunStats {
        let mut engine = Engine::new(self, &mut workload);
        engine.run();
        engine.finish()
    }

    /// What the groups' frame pools and the replica stores' entry pools
    /// lent over the cluster's life, each kind summed.
    fn pool_counts(&mut self) -> (PoolCounts, PoolCounts) {
        let (mut frames, mut entries) = (PoolCounts::default(), PoolCounts::default());
        for group in &mut self.shards {
            frames.add(group.frame_pool());
            for idx in 0..group.replica_count() {
                let node = group.node_ids()[idx];
                entries.add(group.replica_mut(node).store().entry_pool());
            }
        }
        (frames, entries)
    }
}

impl<'a, R: StoreReplica> Engine<'a, R> {
    pub(crate) fn new(cluster: &'a mut ShardedCluster<R>, workload: &'a mut dyn Client) -> Self {
        // The run counts only what it pops, lends and sends itself, not what
        // `quiesce` drained or a run before it.
        cluster.calendar.take_counts();
        let pools_at_start = cluster.pool_counts();
        for shard in 0..cluster.shards.len() {
            let (group, mut sched) = cluster.lend(shard);
            group.take_message_counts();
            group.seed_initial_events(&mut sched);
        }
        let config = &cluster.config;
        let rb = config.rebalance.clone();
        let clients = config.clients.clients;
        let shard_count = cluster.shards.len();
        let mut engine = Engine {
            workload,
            cap: config.max_virtual_ns,
            target: config.clients.total_operations as u64,
            gateway: Gateway::from_config(&config.gateway, config.seed),
            st: ControllerState::new(
                shard_count,
                cluster.router.arc_count(),
                rb.check_interval_ns,
            ),
            plane: Plane::new(config.plane_fault_plan, config.seed),
            txns: TxnManager::new(shard_count),
            clients: (0..clients)
                .map(|_| ClientState {
                    version: cluster.router.version(),
                    last_request_id: 0,
                    outstanding: None,
                })
                .collect(),
            placements: Vec::new(),
            now: 0,
            books: Books::opening(&cluster.shards),
            timeline: Vec::new(),
            timeline_aborts: Vec::new(),
            pools_at_start,
            rb,
            cluster,
        };
        for client_id in 0..clients as u64 {
            engine.schedule(
                client_id * engine.rb.issue_stagger_ns,
                client_id,
                DriverWork::Fresh,
            );
        }
        engine
    }

    /// The only place a driver event enters the calendar. The driver's
    /// events due at one instant run before everyone else's, in the order
    /// they were scheduled.
    pub(crate) fn schedule(&mut self, at: u64, client_id: u64, work: DriverWork) {
        let event = Event::Driver { client_id, work };
        self.cluster.calendar.push(at, Owner::DRIVER, event);
    }

    /// Serves the earliest event until the run ends.
    fn run(&mut self) {
        loop {
            // Termination: a transaction whose outcome is decided must
            // resolve on every participant (2PC's completion property), so
            // reaching the commit target only stops the run once no
            // transaction is in flight. In the drain that follows, clients
            // issue nothing new — only 2PC events, the controller and shard
            // work keep running.
            let past_target = self.books.committed() >= self.target;
            if past_target && self.txns.is_idle() {
                break;
            }
            let head = self.cluster.calendar.peek();
            if let Some(at) = self.controller_due(head) {
                self.now = self.now.max(at);
                self.on_controller(at);
                continue;
            }
            if head.is_none_or(|head| head.at > self.cap) {
                break;
            }
            let (key, event) = self.cluster.calendar.pop().expect("peeked");
            self.now = self.now.max(key.at);
            match event {
                Event::Driver { client_id, work } => {
                    self.on_driver_event(client_id, work, key.at, past_target)
                }
                Event::Shard(event) => self.on_group_event(key, event),
            }
        }
    }

    /// The controller's deadline, if it runs before the calendar's `head`.
    /// It is derived rather than queued, sorts in the calendar's tie order
    /// and, past the cap, is not due at all.
    fn controller_due(&self, head: Option<Key>) -> Option<u64> {
        let at = self.st.deadline(&self.rb).filter(|&at| at <= self.cap)?;
        let first = head.is_none_or(|head| (at, Owner::CONTROLLER) < (head.at, head.owner));
        first.then_some(at)
    }

    /// Dispatches a due driver event to its handler.
    fn on_driver_event(&mut self, client_id: u64, work: DriverWork, at: u64, past_target: bool) {
        match work {
            DriverWork::TxnRetry {
                txn_id,
                participant,
            } => self.on_txn_retry(txn_id, participant, at),
            DriverWork::TxnAdvance { txn_id } => self.on_txn_advance(txn_id, at),
            // Past the target clients issue nothing: a fresh draw, a retry
            // and a deferred admission are all moot.
            _ if past_target => {}
            DriverWork::Fresh => self.on_fresh(client_id, at),
            // Already admitted and tenant-scoped — straight to routing.
            // Running it through the gateway again would double-prefix its
            // keys and double-charge its quota.
            DriverWork::Retry(rid, request) => self.route(client_id, rid, request, at),
            DriverWork::GatewayRetry(rid, request) => self.admit(client_id, rid, request, at),
        }
    }

    /// Draws the client's next request from the workload.
    fn on_fresh(&mut self, client_id: u64, at: u64) {
        let rid = self.clients[client_id as usize].last_request_id + 1;
        // `None`: the client retired; nothing more to issue.
        if let Some(request) = self.workload.next(client_id, rid, at) {
            self.clients[client_id as usize].last_request_id = rid;
            self.admit(client_id, rid, request, at);
        }
    }

    /// Presents a request to the tenant gateway (when the deployment has
    /// one) and routes what it admits.
    fn admit(&mut self, client_id: u64, rid: u64, mut request: Request, at: u64) {
        let Some(gateway) = self.gateway.as_mut() else {
            return self.route(client_id, rid, request, at);
        };
        let verdict = gateway.admit(client_id, rid, at, &mut request);
        let (kind, tenant) = match verdict {
            GatewayVerdict::Admitted { tenant } => (SpanKind::GatewayAdmit, tenant),
            GatewayVerdict::Rejected { tenant, .. } => (SpanKind::GatewayReject, tenant),
            GatewayVerdict::Throttled { tenant, .. } => (SpanKind::GatewayThrottle, tenant),
        };
        // Gateway spans land on shard 0's tracer: the front door sits before
        // routing, so no serving shard is known yet. `tag` = tenant index
        // (`u64::MAX` when the request resolved to no tenant).
        if let Some(t) = self.cluster.shards[0].telemetry_mut() {
            t.instant(kind, client_id, at, tenant.map_or(u64::MAX, |t| t as u64));
        }
        match verdict {
            GatewayVerdict::Admitted { .. } => self.route(client_id, rid, request, at),
            // The client sees the error after a round trip and moves on to
            // its next operation — rejection consumes the request, it does
            // not spin on it.
            GatewayVerdict::Rejected { .. } => self.schedule(
                at + 2 * COST_MODEL.link_latency_ns + COST_MODEL.client_think_ns,
                client_id,
                DriverWork::Fresh,
            ),
            GatewayVerdict::Throttled { retry_at_ns, .. } => self.schedule(
                retry_at_ns.max(at + 1),
                client_id,
                DriverWork::GatewayRetry(rid, request),
            ),
        }
    }

    /// Resolves every operation of an admitted request to its `(arc, shard)`
    /// under the client's cached epoch, then hands the request to its shard
    /// or to the 2PC coordinator. One stale key re-resolves the whole
    /// request.
    fn route(&mut self, client_id: u64, rid: u64, request: Request, at: u64) {
        let mut placements = std::mem::take(&mut self.placements);
        placements.clear();
        self.route_into(&mut placements, client_id, rid, request, at);
        self.placements = placements;
    }

    /// [`Engine::route`], resolving into the driver's `placements` scratch.
    fn route_into(
        &mut self,
        placements: &mut Vec<(usize, usize)>,
        client_id: u64,
        rid: u64,
        request: Request,
        at: u64,
    ) {
        let client = client_id as usize;
        let router = &self.cluster.router;
        let mut redirect = None;
        for op in request.ops() {
            let point = stable_key_hash(op.key());
            match router.route(point, self.clients[client].version) {
                RouteDecision::Owned { shard } => {
                    placements.push((router.arc_of_point(point), shard));
                }
                RouteDecision::WrongShard { new_version, .. } => {
                    redirect = Some(new_version);
                    break;
                }
            }
        }
        if let Some(new_version) = redirect {
            self.st.stats.redirects += 1;
            if request.is_txn() {
                self.txns.stats.wrong_shard_retries += 1;
            }
            self.clients[client].version = new_version;
            let retry_at = at + 2 * COST_MODEL.link_latency_ns;
            return self.schedule(retry_at, client_id, DriverWork::Retry(rid, request));
        }
        if self.st.is_draining()
            && placements
                .iter()
                .any(|&(arc, shard)| self.st.captures(shard, arc))
        {
            // Cutover drain: the donor refuses fresh work on the moving
            // range; the whole request backs off and retries — after the
            // epoch bump it is redirected.
            self.st.stats.refusals += 1;
            if request.is_txn() {
                self.txns.stats.refusal_backoffs += 1;
            }
            let retry_at = at + 2 * COST_MODEL.link_latency_ns + 50_000;
            return self.schedule(retry_at, client_id, DriverWork::Retry(rid, request));
        }

        // Every placement resolved under the client's epoch: mark the
        // routing decision on the serving shard's trace (the first placement
        // for transactions — the coordinator-entry shard).
        if let Some(&(_, shard)) = placements.first() {
            if let Some(t) = self.cluster.shards[shard].telemetry_mut() {
                t.instant(SpanKind::RouterResolve, client_id, at, rid);
            }
        }
        match request {
            Request::Single(operation) => {
                self.submit_single(client_id, rid, operation, placements[0], at);
            }
            Request::Txn(ops) => self.begin_txn(client_id, rid, ops, placements, at),
        }
    }

    /// Submits a routed single-key operation to its shard.
    fn submit_single(
        &mut self,
        client_id: u64,
        rid: u64,
        operation: Operation,
        (arc, shard): (usize, usize),
        at: u64,
    ) {
        let key = if self.rb.enabled {
            operation.key().to_vec()
        } else {
            Vec::new()
        };
        let (group, mut sched) = self.cluster.lend(shard);
        match group.try_submit_at(at, client_id, rid, operation, &mut sched) {
            Ok(()) => {
                self.clients[client_id as usize].outstanding = Some(Issued {
                    shard,
                    arc,
                    request_id: rid,
                    key,
                });
            }
            // No live coordinator; retry the *identical* payload later.
            Err(operation) => self.schedule(
                at + 1_000_000,
                client_id,
                DriverWork::Retry(rid, Request::Single(operation)),
            ),
        }
    }

    /// Starts 2PC for a routed transaction.
    fn begin_txn(
        &mut self,
        client_id: u64,
        rid: u64,
        ops: Vec<Operation>,
        placements: &[(usize, usize)],
        at: u64,
    ) {
        if ops.is_empty() {
            // A degenerate empty transaction commits trivially; the client
            // moves on.
            return self.schedule(
                at + COST_MODEL.client_think_ns,
                client_id,
                DriverWork::Fresh,
            );
        }
        if let Err(ops) = self.txn_begin(client_id, rid, ops, placements, at) {
            // A participant group has no live coordinator; retry the whole
            // transaction.
            let retry = DriverWork::Retry(rid, Request::Txn(ops));
            self.schedule(at + 1_000_000, client_id, retry);
        }
    }

    /// Every round trip of a 2PC phase landed: advance the transaction and
    /// account its outcome, if it has one.
    fn on_txn_advance(&mut self, txn_id: u64, at: u64) {
        match self.txn_advance(txn_id, at) {
            TxnResolution::Pending => return,
            TxnResolution::Committed(done) => {
                self.now = self.now.max(done.finished_at);
                self.workload.done(&Reply {
                    client: done.client_id,
                    request_id: done.request_id,
                    at_ns: done.finished_at,
                    value: None,
                });
                self.workload.reclaim(done.request);
                self.record_commit(
                    done.client_id,
                    done.finished_at,
                    done.latency_ns,
                    &done.op_placements,
                );
                self.txns.give_placements(done.op_placements);
            }
            TxnResolution::Aborted {
                client_id,
                request_id,
                finished_at,
                request,
            } => {
                self.now = self.now.max(finished_at);
                bucket(
                    &mut self.timeline_aborts,
                    self.rb.timeline_bucket_ns,
                    finished_at,
                    1,
                );
                // Deterministic per-client jitter breaks the symmetry of
                // mutually aborting transactions.
                let backoff = CONFLICT_BACKOFF_NS + client_id * 7_919;
                let retry = DriverWork::Retry(request_id, request);
                self.schedule(finished_at + backoff, client_id, retry);
            }
        }
        self.maybe_finish_cutover();
    }

    /// The only commit accounting: one committed request — a single-key
    /// completion or a whole transaction, `ops` being its `(shard, arc,
    /// is_write)` operations — counted once in the run's books and in its
    /// shards', then the client's next draw scheduled. The arc is `None` for
    /// a completion the driver no longer tracks as outstanding.
    fn record_commit(
        &mut self,
        client_id: u64,
        at_ns: u64,
        latency_ns: u64,
        ops: &[(usize, Option<usize>, bool)],
    ) {
        for (i, &(shard, arc, is_write)) in ops.iter().enumerate() {
            self.books.count(shard, is_write);
            // One latency sample per shard the request touched, the first
            // shard's also the run's.
            if !ops[..i].iter().any(|&(seen, ..)| seen == shard) {
                self.books.sample(latency_ns, shard, i == 0);
            }
            self.st.window_shard[shard] += 1;
            if let Some(arc) = arc {
                self.st.window_arc[arc] += 1;
            }
        }
        let width = self.rb.timeline_bucket_ns;
        bucket(&mut self.timeline, width, at_ns, ops.len() as u64);
        if let Some(gateway) = self.gateway.as_mut() {
            gateway.complete(client_id, at_ns, ops.len());
        }
        let next_at = at_ns + COST_MODEL.link_latency_ns + COST_MODEL.client_think_ns;
        self.schedule(next_at, client_id, DriverWork::Fresh);
    }

    /// Runs one group's event and accounts the replies it delivered.
    fn on_group_event(&mut self, key: Key, event: GroupEvent) {
        let (shard, refused) = self.cluster.handle(key, event);
        self.st.stats.chunks_rejected += refused;
        let mut completions = std::mem::take(&mut self.cluster.completions);
        for completion in completions.drain(..) {
            let issued = self.clients[completion.client_id as usize]
                .outstanding
                .take_if(|issued| issued.request_id == completion.request_id);
            if let Some(issued) = &issued {
                // Catch-up capture: a write committed on the donor inside
                // the moving range replays on the recipient. The record is
                // re-read from the donor leader's store so it carries the
                // *real* committed value and write timestamp.
                if self.st.captures(issued.shard, issued.arc) && completion.was_write {
                    let donor = &mut self.cluster.shards[issued.shard];
                    let entry = donor.write_coordinator().and_then(|leader| {
                        let read = donor.replica_mut(leader).store().read_entry(&issued.key);
                        read.ok().flatten()
                    });
                    self.st.record_capture(entry);
                }
            }
            self.workload.done(&Reply {
                client: completion.client_id,
                request_id: completion.request_id,
                at_ns: completion.at_ns,
                value: completion.value.as_deref(),
            });
            if let Some(value) = completion.value {
                self.cluster.shards[shard].give_frame(value);
            }
            self.record_commit(
                completion.client_id,
                completion.at_ns,
                completion.latency_ns,
                &[(shard, issued.map(|i| i.arc), completion.was_write)],
            );
        }
        self.cluster.completions = completions;
        // A drain completes as soon as the last in-flight operation (single
        // or transactional) on the moving range finished.
        self.maybe_finish_cutover();
    }

    /// Everything in flight on the moving range of the active migration:
    /// outstanding single-key operations plus transactions with a
    /// participant on it.
    pub(crate) fn inflight_on_moving(&self) -> usize {
        let Some((donor, arcs)) = self.st.moving_range() else {
            return 0;
        };
        let singles = self
            .clients
            .iter()
            .filter_map(|client| client.outstanding.as_ref())
            .filter(|issued| issued.shard == donor && arcs.binary_search(&issued.arc).is_ok())
            .count();
        singles + self.txns.inflight_on(donor, arcs)
    }

    /// Closes the books: range GC, the cluster's own figures, then the
    /// driver-side counters and the timeline.
    fn finish(self) -> ShardedRunStats {
        // Driver events do not outlive the run; the groups' stay for
        // `quiesce` to drain and for the next run.
        self.cluster.calendar.cancel(Owner::DRIVER);
        // Background range GC: clear moved-range remnants a straggling
        // in-group commit may have resurrected on a donor after eviction,
        // and the partial copy an aborted move left on its recipient.
        if self.st.stats.migrations_started > 0 {
            self.cluster.gc_moved_ranges();
        }
        let mut stats = self.cluster.finalize(self.now, self.books);
        if let Some(gateway) = &self.gateway {
            stats.gateway = gateway.stats();
            self.cluster.last_gateway_stats = Some(stats.gateway.clone());
        }
        stats.migration = self.st.stats;
        stats.txn = self.txns.stats();
        let (frames, entries) = self.cluster.pool_counts();
        stats.frames = frames.since(self.pools_at_start.0);
        stats.entries = entries.since(self.pools_at_start.1);
        let width = self.rb.timeline_bucket_ns;
        let mut timeline_migrations: Vec<u64> = Vec::new();
        for &at in &self.st.cutover_times {
            bucket(&mut timeline_migrations, width, at, 1);
        }
        let buckets = self
            .timeline
            .len()
            .max(self.timeline_aborts.len())
            .max(timeline_migrations.len());
        stats.timeline = (0..buckets)
            .map(|i| TimelineBucket {
                end_ns: (i as u64 + 1) * width,
                committed: self.timeline.get(i).copied().unwrap_or(0),
                aborted: self.timeline_aborts.get(i).copied().unwrap_or(0),
                migrations: timeline_migrations.get(i).copied().unwrap_or(0),
            })
            .collect();
        stats
    }
}
