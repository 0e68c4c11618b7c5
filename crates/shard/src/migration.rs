//! Online shard rebalancing: the migration controller and its driver loop.
//!
//! The sharded driver (PR 1) fixed placement at construction; this module adds
//! the first **online reconfiguration** path: when the per-window commit load
//! drifts past an imbalance threshold, the controller moves a key range — a
//! set of consistent-hash ring arcs — from the overloaded *donor* group to the
//! most underloaded *recipient* group **without downtime**, in three phases:
//!
//! 1. **Snapshot** — the donor leader takes a snapshot of the moving range
//!    in its partitioned store (cut point = snapshot time; every record
//!    checked against its enclave-held digest first, so a store that fails
//!    ships nothing), seals it into bounded
//!    [`recipe_protocols::MigrationChunk`]s through the shield layer (MAC +
//!    trusted counter, AEAD in confidential mode), each record copied from
//!    where it lies in the store into its chunk's frame and checked there,
//!    and ships them across the plane between groups to the recipient
//!    group, which opens each and installs it on every replica that is up
//!    when the chunk ships (one that is down takes the range at its
//!    restart's catch-up). The donor keeps serving the range throughout.
//! 2. **Catch-up** — writes committed on the donor after the cut are logged
//!    and replayed in commit order, round after round, until a round's delta
//!    is small.
//! 3. **Cutover** — the donor *refuses* new operations for the moving range
//!    (clients back off and retry), in-flight operations drain, the final
//!    delta ships (a fresh snapshot of the range, taken the same way, when
//!    the log missed a write), the donor evicts the range, and the router
//!    epoch bumps atomically ([`crate::ShardRouter::rebalance`]). Clients
//!    still holding the old epoch get a [`crate::RouteDecision::WrongShard`]
//!    redirect on their next touch of the range and retry against the new
//!    placement — no commit is ever lost or applied twice.
//!
//! Every phase charges virtual time through the cost model — snapshot
//! export/import work, sealed-frame wire costs, and the EPC pressure of
//! staging chunks inside the enclave (`ProtocolCostModel::epc_pressure`) — so the
//! throughput timeline shows the true cost of the transfer, not a free move.
//! The time lands in each node's books and in telemetry's
//! `charge.snapshot_{export,import}_ns`.
//!
//! **The wire.** A chunk crosses the plane between groups a 2PC leg crosses
//! ([`crate::DeploymentSpec::with_plane_fault_plan`]) and lands when the
//! plane's link says, its delay included; its recipient refuses every copy
//! the adversary made ([`MigrationStats::chunks_rejected`]). A chunk lost or
//! refused, or one that finds every recipient replica down, fails its round
//! and aborts the migration; nothing is resent.
//!
//! **Restarts.** A restarted replica catches up through the same transfer
//! ([`ShardedCluster::catch_up`]): one snapshot round of a live peer's
//! whole range, read where it lies in the peer's store and sealed in frames
//! of the cluster's one transfer pool ("Frames" below), across the group's
//! own link instead of the plane, from each live peer in turn until one
//! lands whole. One that never does keeps the replica down. On that link
//! the adversary may replay a protocol frame as a chunk or a chunk as a
//! protocol frame; each end refuses what its own channel did not seal.
//!
//! **Frames.** Every transfer's chunks, a migration's and a restart's, are
//! sealed in buffers of one pool the cluster keeps, one chunk in flight at
//! a time; each transfer still opens a channel of its own, with fresh
//! endpoint keys. The recipient opens a chunk where it lies in its frame,
//! checks it whole and installs its records from there, and the frame goes
//! back to the pool to serve the transfer's next chunk. When a transfer
//! ends the pool drops its spares
//! (`FramePool::drop_spares`): a run's transfers are few and far apart, so
//! a frame kept for the next one would only sit in the heap, a snapshot
//! chunk's tens of kilobytes among it, until the run's end.
//!
//! **Cost form.** A migration ships a snapshot round and then its catch-up
//! rounds (the final delta included); a round of `k` records ships
//! `⌈k / CHUNK_ENTRIES⌉` chunks ([`MigrationStats::chunks`]), each one
//! shielded frame of `ShieldedMessage::frame_len(MigrationChunk::wire_len(n,
//! b))` bytes for `n` records of `b` key and value bytes, sealed or not.

use std::cmp::Reverse;

use recipe_kv::{ExportedEntry, Snapshot};
use recipe_net::{Landing, NodeId};
use recipe_protocols::{ChunkPhase, MigrationChannel, MigrationChunk, StoreReplica, CHUNK_ENTRIES};
use recipe_sim::Work;
use recipe_telemetry::{ChargeKind, SpanKind};
use recipe_workload::stable_key_hash;
use serde::{Deserialize, Serialize};

use crate::driver::Engine;
use crate::router::ShardRouter;
use crate::sharded::ShardedCluster;
use crate::txn::Plane;

/// Most migrations the controller starts in one run (one is in flight at a
/// time).
pub const MIGRATIONS_PER_RUN: u64 = 4;

/// Catch-up rounds a migration ships before the controller forces the drain
/// regardless of the delta's size.
pub const MAX_CATCHUP_ROUNDS: u64 = 8;

/// Knobs of the online-rebalancing controller. Its fixed bounds are
/// constants: [`MIGRATIONS_PER_RUN`], [`MAX_CATCHUP_ROUNDS`] and
/// [`CHUNK_ENTRIES`] records per chunk.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RebalanceConfig {
    /// Master switch: `false` (the default) and the controller never acts —
    /// placement stays as built.
    pub enabled: bool,
    /// How often the controller evaluates the load window, virtual ns.
    pub check_interval_ns: u64,
    /// Minimum commits in a window before imbalance is considered meaningful.
    pub min_window_commits: u64,
    /// Trigger threshold: busiest shard's window commits over the per-shard
    /// mean.
    pub imbalance_threshold: f64,
    /// A catch-up round at or below this many records triggers the drain.
    pub drain_threshold_ops: usize,
    /// Width of the throughput-timeline buckets, virtual ns (0 disables).
    /// Every run's driver reads it, with the controller on or off: it
    /// buckets the run's commits, aborts and cutovers.
    pub timeline_bucket_ns: u64,
    /// Spacing of the initial client issue stagger, virtual ns: client `c`
    /// issues its first request at `c` times it. Every run's driver reads
    /// it, with the controller on or off; open-loop replay tests widen it.
    pub issue_stagger_ns: u64,
}

impl Default for RebalanceConfig {
    fn default() -> Self {
        RebalanceConfig {
            enabled: false,
            check_interval_ns: 20_000_000, // 20 ms
            min_window_commits: 200,
            imbalance_threshold: 1.5,
            drain_threshold_ops: 8,
            timeline_bucket_ns: 10_000_000, // 10 ms
            issue_stagger_ns: 200,
        }
    }
}

impl RebalanceConfig {
    /// The default knobs with the controller switched on.
    pub fn enabled() -> Self {
        RebalanceConfig {
            enabled: true,
            ..RebalanceConfig::default()
        }
    }
}

/// Counters of the rebalancing machinery for one run. The virtual time a
/// transfer costs is in each node's books and in telemetry's charges; the
/// router's epoch is [`crate::ShardRouter::version`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct MigrationStats {
    /// Migrations the controller started.
    pub migrations_started: u64,
    /// Migrations that reached cutover.
    pub migrations_completed: u64,
    /// Records shipped in snapshot chunks.
    pub snapshot_entries: u64,
    /// Sealed wire bytes of all snapshot chunks.
    pub snapshot_bytes: u64,
    /// Records shipped in catch-up (and final-delta) chunks.
    pub catchup_entries: u64,
    /// Sealed wire bytes of all catch-up chunks.
    pub catchup_bytes: u64,
    /// Wire bytes (snapshot + catch-up) that travelled AEAD-encrypted because
    /// the move touched a confidential shard.
    pub confidential_transfer_bytes: u64,
    /// Catch-up rounds shipped (including the final delta).
    pub catchup_rounds: u64,
    /// Sealed chunks the donor leaders shipped, snapshot and catch-up, lost
    /// ones included: one shielded frame each.
    pub chunks: u64,
    /// Copies of chunks the receiving ends refused (tampered, duplicated or
    /// replayed deliveries — never installed), a restart's included.
    pub chunks_rejected: u64,
    /// `WrongShard` redirects served to stale clients.
    pub redirects: u64,
    /// Operations the donor refused during drains (client backed off).
    pub refusals: u64,
    /// Migration attempts aborted because the donor's store failed the
    /// verified-read export (Byzantine host tampered with the range).
    pub(crate) export_failures: u64,
    /// Committed moving-range writes that could not be captured for catch-up
    /// (donor leader gone or record unverifiable at capture time).
    pub(crate) capture_misses: u64,
    /// Virtual time of the last completed cutover.
    pub last_cutover_ns: u64,
}

/// One state transfer: its channel, the donor's group, and the recipient's
/// group and the nodes that install what opens when they are up.
pub(crate) struct Transfer {
    channel: MigrationChannel,
    donor: usize,
    recipient: (usize, Vec<NodeId>),
}

/// The records one round of a transfer ships
/// ([`ShardedCluster::ship_entries`]).
#[derive(Clone, Copy)]
pub(crate) enum Records<'a> {
    /// A snapshot of the sealing node's store, read where its records lie
    /// as each chunk is sealed.
    Snapshot(&'a Snapshot),
    /// Owned records: a migration's catch-up log.
    Log(&'a [ExportedEntry]),
}

impl Records<'_> {
    fn len(self) -> usize {
        match self {
            Records::Snapshot(snapshot) => snapshot.len(),
            Records::Log(entries) => entries.len(),
        }
    }
}

/// What one round of a transfer shipped ([`ShardedCluster::ship_entries`]),
/// a lost chunk included.
#[derive(Default)]
pub(crate) struct Round {
    /// When the round landed on every recipient; `None` once a chunk was
    /// lost or refused, after which no chunk shipped.
    landed_at: Option<u64>,
    chunks: u64,
    entries: u64,
    /// Sealed wire bytes.
    bytes: u64,
    /// Copies of its chunks the recipient refused.
    refused: u64,
}

impl MigrationStats {
    /// Counts a migration's round of `phase`, confidential or not.
    fn count(&mut self, phase: ChunkPhase, round: &Round, confidential: bool) {
        self.chunks += round.chunks;
        self.chunks_rejected += round.refused;
        if matches!(phase, ChunkPhase::Snapshot) {
            self.snapshot_entries += round.entries;
            self.snapshot_bytes += round.bytes;
        } else {
            self.catchup_rounds += u64::from(round.chunks > 0);
            self.catchup_entries += round.entries;
            self.catchup_bytes += round.bytes;
        }
        if confidential {
            self.confidential_transfer_bytes += round.bytes;
        }
    }
}

/// A migration in flight.
struct ActiveMigration {
    /// Moving arcs in ascending order (the unit handed to the router at
    /// cutover; membership is a binary search).
    arcs: Vec<usize>,
    /// From the donor group's leader to every replica of the recipient.
    transfer: Transfer,
    /// Records waiting for the next round: the writes committed on the
    /// donor inside the moving range since the last shipped round, in
    /// commit order.
    catchup: Vec<ExportedEntry>,
    /// Rounds shipped, the snapshot's included.
    rounds: u64,
    /// Committed moving-range writes this migration failed to capture; a
    /// non-zero count forces a full verified re-export at cutover.
    capture_misses: u64,
    /// When the in-flight transfer round lands on the recipient; `None` while
    /// the range drains for cutover, progress then driven by completions.
    transfer_ready_at: Option<u64>,
}

/// Controller state local to one driver-engine invocation (see
/// `crate::driver`).
pub(crate) struct ControllerState {
    next_check_ns: u64,
    pub(crate) window_shard: Vec<u64>,
    /// Commits per ring arc in the current window, indexed by arc.
    pub(crate) window_arc: Vec<u64>,
    active: Option<ActiveMigration>,
    pub(crate) stats: MigrationStats,
    /// Virtual times of completed cutovers, for timeline bucketing.
    pub(crate) cutover_times: Vec<u64>,
}

impl ControllerState {
    pub(crate) fn new(shards: usize, arcs: usize, first_check_ns: u64) -> Self {
        ControllerState {
            next_check_ns: first_check_ns,
            window_shard: vec![0; shards],
            window_arc: vec![0; arcs],
            active: None,
            stats: MigrationStats::default(),
            cutover_times: Vec::new(),
        }
    }

    fn clear_window(&mut self) {
        self.window_shard.iter_mut().for_each(|c| *c = 0);
        self.window_arc.iter_mut().for_each(|c| *c = 0);
    }

    /// The next virtual time the controller must act at, if any.
    pub(crate) fn deadline(&self, rb: &RebalanceConfig) -> Option<u64> {
        match &self.active {
            Some(active) => active.transfer_ready_at,
            None if rb.enabled && self.stats.migrations_started < MIGRATIONS_PER_RUN => {
                Some(self.next_check_ns)
            }
            None => None,
        }
    }

    /// The active migration's donor and moving arcs (ascending), if one is
    /// in flight.
    pub(crate) fn moving_range(&self) -> Option<(usize, &[usize])> {
        self.active
            .as_ref()
            .map(|active| (active.transfer.donor, active.arcs.as_slice()))
    }

    /// True when `(shard, arc)` lies in the active migration's moving range:
    /// a committed write there is captured for the catch-up log, and while
    /// [`ControllerState::is_draining`] the donor refuses fresh work there.
    pub(crate) fn captures(&self, shard: usize, arc: usize) -> bool {
        self.moving_range()
            .is_some_and(|(donor, arcs)| shard == donor && arcs.binary_search(&arc).is_ok())
    }

    /// True while the active migration drains the moving range for cutover.
    pub(crate) fn is_draining(&self) -> bool {
        self.active
            .as_ref()
            .is_some_and(|active| active.transfer_ready_at.is_none())
    }

    /// Records one capture attempt: the re-read record, or a capture miss
    /// (leader gone / unverifiable) which forces a full verified re-export
    /// at cutover.
    pub(crate) fn record_capture(&mut self, entry: Option<ExportedEntry>) {
        let Some(active) = self.active.as_mut() else {
            return;
        };
        match entry {
            Some(entry) => active.catchup.push(entry),
            None => {
                active.capture_misses += 1;
                self.stats.capture_misses += 1;
            }
        }
    }

    /// Feeds the applied records of a committed transaction into the active
    /// migration's catch-up log — transaction writes on the moving range
    /// replay on the recipient exactly like single-key commits do. The
    /// records carry their real stored timestamps, so no re-read is needed.
    pub(crate) fn capture_txn_entries(
        &mut self,
        router: &ShardRouter,
        shard: usize,
        entries: &[ExportedEntry],
    ) {
        let Some(active) = self.active.as_mut() else {
            return;
        };
        if shard != active.transfer.donor {
            return;
        }
        for entry in entries {
            let arc = router.arc_of_point(stable_key_hash(&entry.0));
            if active.arcs.binary_search(&arc).is_ok() {
                active.catchup.push(entry.clone());
            }
        }
    }
}

impl<R: StoreReplica> Engine<'_, R> {
    /// One controller action at virtual time `now`: either a periodic window
    /// evaluation or the landing of an in-flight transfer round.
    pub(crate) fn on_controller(&mut self, now: u64) {
        let Some(active) = self.st.active.as_mut() else {
            self.maybe_start_migration(now);
            self.st.next_check_ns = now + self.rb.check_interval_ns;
            self.st.clear_window();
            return;
        };
        debug_assert!(active.transfer_ready_at.is_some_and(|at| at <= now));
        // The in-flight round landed. Ship the next catch-up round, or begin
        // the drain when the delta is small (or rounds ran out).
        if active.catchup.len() > self.rb.drain_threshold_ops && active.rounds <= MAX_CATCHUP_ROUNDS
        {
            self.ship_round(now);
        } else {
            active.transfer_ready_at = None;
            let (donor, id) = (active.transfer.donor, self.st.stats.migrations_started);
            if let Some(t) = self.cluster.shards[donor].telemetry_mut() {
                t.instant(SpanKind::MigrationDrain, 0, now, id);
            }
            if self.inflight_on_moving() == 0 {
                self.finish_cutover(now);
            }
        }
    }

    /// A drain completes as soon as nothing — single-key operation or
    /// transaction — is in flight on the moving range any more. Called after
    /// every event that may have retired the last such request.
    pub(crate) fn maybe_finish_cutover(&mut self) {
        if self.st.is_draining() && self.inflight_on_moving() == 0 {
            self.finish_cutover(self.now);
        }
    }

    /// Evaluates the load window and starts a migration when warranted.
    fn maybe_start_migration(&mut self, now: u64) {
        let (st, rb) = (&self.st, &self.rb);
        let total: u64 = st.window_shard.iter().sum();
        if total < rb.min_window_commits {
            return;
        }
        let shards = st.window_shard.len();
        let mean = total as f64 / shards as f64;
        let (donor, donor_commits) = st
            .window_shard
            .iter()
            .copied()
            .enumerate()
            .max_by_key(|&(shard, commits)| (commits, Reverse(shard)))
            .expect("at least one shard");
        if (donor_commits as f64) < rb.imbalance_threshold * mean {
            return;
        }
        let (recipient, recipient_commits) = st
            .window_shard
            .iter()
            .copied()
            .enumerate()
            .min_by_key(|&(shard, commits)| (commits, shard))
            .expect("at least one shard");
        if donor == recipient {
            return;
        }

        // Pick the donor's hottest arcs until roughly half the load gap moves,
        // skipping any single arc so hot that moving it would just relocate
        // the hotspot (an un-splittable single-key skew stays put).
        let target = (donor_commits - recipient_commits) / 2;
        let cap = (donor_commits + recipient_commits) * 3 / 5;
        let mut donor_arcs: Vec<(u64, usize)> = st
            .window_arc
            .iter()
            .enumerate()
            .filter(|&(arc, &commits)| {
                commits > 0 && self.cluster.router.owner_of_arc(arc) == donor
            })
            .map(|(arc, &commits)| (commits, arc))
            .collect();
        donor_arcs.sort_by_key(|&(commits, arc)| (Reverse(commits), arc));
        let mut moving = Vec::new();
        let mut cum = 0u64;
        for (commits, arc) in donor_arcs {
            if cum >= target {
                break;
            }
            if recipient_commits + cum + commits > cap {
                continue;
            }
            moving.push(arc);
            cum += commits;
        }
        if moving.is_empty() || cum == 0 {
            return;
        }
        moving.sort_unstable();
        self.begin_migration(now, donor, recipient, moving);
    }

    /// Takes the snapshot cut and ships the sealed snapshot.
    fn begin_migration(&mut self, now: u64, donor: usize, recipient: usize, arcs: Vec<usize>) {
        let cluster = &mut *self.cluster;
        let Some(leader) = cluster.shards[donor].write_coordinator() else {
            return; // donor group has no live coordinator; try a later window
        };
        let filter = cluster.router.arc_membership_filter(&arcs);
        let taken = cluster.shards[donor]
            .replica_mut(leader)
            .store()
            .snapshot(&filter);
        let Ok(snapshot) = taken else {
            // The donor leader's store failed verification for the range
            // (Byzantine host tampered with host-resident state). Never ship
            // unverified state: abort this attempt; the placement stays as
            // it was and a later window may retry.
            self.st.stats.export_failures += 1;
            return;
        };

        cluster.transfers += 1;
        self.st.stats.migrations_started += 1;
        // Transfer AEAD per move, stricter-wins: the chunks are sealed
        // whenever the donor or the recipient treats the range as sensitive
        // (the per-shard policy `confidentiality_of` reports). On arrival the
        // recipient's replicas re-seal the records under their own policy
        // (their stores encrypt values iff *they* are confidential).
        let transfer_confidentiality = recipe_core::ConfidentialityMode::from(
            cluster.confidentiality_of(donor).is_confidential()
                || cluster.confidentiality_of(recipient).is_confidential(),
        );
        let channel = MigrationChannel::new(
            donor,
            recipient,
            cluster.transfers,
            transfer_confidentiality,
        );
        let mut active = ActiveMigration {
            arcs,
            transfer: Transfer {
                channel,
                donor,
                recipient: (recipient, cluster.shards[recipient].node_ids().to_vec()),
            },
            catchup: Vec::new(),
            rounds: 1,
            capture_misses: 0,
            transfer_ready_at: None,
        };
        let records = Records::Snapshot(&snapshot);
        let phase = ChunkPhase::Snapshot;
        let Some(ready_at) = self.ship(&mut active.transfer, leader, now, records, phase) else {
            return self.abort_migration(now);
        };
        active.transfer_ready_at = Some(ready_at);
        self.st.active = Some(active);
    }

    /// Ships the catch-up delta the active migration logged as one round,
    /// sealed by the donor group's leader (or its first replica), or aborts
    /// the migration when a chunk does not land.
    fn ship_round(&mut self, now: u64) {
        let mut active = self.st.active.take().expect("a migration is active");
        let entries = std::mem::take(&mut active.catchup);
        active.rounds += 1;
        let sealer = self.cluster.sealer(active.transfer.donor);
        let records = Records::Log(&entries);
        let phase = ChunkPhase::CatchUp;
        let Some(ready_at) = self.ship(&mut active.transfer, sealer, now, records, phase) else {
            return self.abort_migration(now);
        };
        active.transfer_ready_at = Some(ready_at);
        self.st.active = Some(active);
    }

    /// Ships `records` as one round of `transfer`, sealed by the donor
    /// group's node `sealer` (the one a snapshot was taken on) and carried
    /// across the plane between groups, and counts it. Returns when the
    /// round landed, or `None` when a chunk did not.
    fn ship(
        &mut self,
        transfer: &mut Transfer,
        sealer: NodeId,
        now: u64,
        records: Records<'_>,
        phase: ChunkPhase,
    ) -> Option<u64> {
        let Engine {
            cluster, plane, st, ..
        } = self;
        let (from, to) = (transfer.donor, transfer.recipient.0);
        let ends = (Plane::group(from), Plane::group(to));
        let confidential = transfer.channel.is_confidential();
        let round = cluster.ship_entries(transfer, sealer, now, records, phase, |_, at, wire| {
            plane.send(ends, at, wire)
        });
        st.stats.count(phase, &round, confidential);
        round.landed_at
    }

    /// Aborts the migration taken out of the controller's state: placement
    /// unchanged, the donor serving on, a later window free to retry. The
    /// end-of-run GC clears the recipient's partial copy.
    fn abort_migration(&mut self, now: u64) {
        self.cluster.transfer_frames.drop_spares();
        self.st.next_check_ns = now + self.rb.check_interval_ns;
        self.st.clear_window();
    }

    /// The drain is empty: ship the final delta, evict the donor's copy, bump
    /// the router epoch. From this instant the old placement earns redirects.
    fn finish_cutover(&mut self, now: u64) {
        let mut active = self.st.active.take().expect("a migration is draining");
        let delta = std::mem::take(&mut active.catchup);
        let (donor, recipient) = (active.transfer.donor, active.transfer.recipient.0);
        // Zero-loss guard: if any committed moving-range write could not be
        // captured (leader handover, unverifiable record), the catch-up log is
        // not trustworthy — ship a fresh snapshot of the whole range instead.
        // The drain guarantees nothing is in flight, so the snapshot is the
        // complete committed state. If even that fails, the migration aborts.
        let mut snapshot = None;
        if active.capture_misses > 0 {
            let filter = self.cluster.router.arc_membership_filter(&active.arcs);
            let group = &mut self.cluster.shards[donor];
            let taken = group.write_coordinator().and_then(|leader| {
                let store = group.replica_mut(leader).store();
                Some((leader, store.snapshot(&filter).ok()?))
            });
            let Some(taken) = taken else {
                self.st.stats.export_failures += 1;
                return self.abort_migration(now);
            };
            snapshot = Some(taken);
        }
        let (sealer, records) = match &snapshot {
            Some((leader, snapshot)) => (*leader, Records::Snapshot(snapshot)),
            None => (self.cluster.sealer(donor), Records::Log(&delta)),
        };
        let phase = ChunkPhase::Final;
        let shipped = self.ship(&mut active.transfer, sealer, now, records, phase);
        if shipped.is_none() {
            return self.abort_migration(now);
        }
        let Engine {
            cluster, st, rb, ..
        } = self;
        let filter = cluster.router.arc_membership_filter(&active.arcs);
        let group = &mut cluster.shards[donor];
        for idx in 0..group.replica_count() {
            let node = group.node_ids()[idx];
            group.replica_mut(node).store().evict_range(&filter);
        }
        cluster.router.rebalance(&active.arcs, recipient);
        cluster.transfer_frames.drop_spares();
        st.stats.migrations_completed += 1;
        st.stats.last_cutover_ns = now;
        st.cutover_times.push(now);
        if let Some(t) = cluster.shards[donor].telemetry_mut() {
            t.instant(
                SpanKind::MigrationCutover,
                0,
                now,
                st.stats.migrations_completed,
            );
        }
        st.next_check_ns = now + rb.check_interval_ns;
        st.clear_window();
    }
}

impl<R: StoreReplica> ShardedCluster<R> {
    /// The node of `shard`'s group that seals a migration's catch-up
    /// rounds: its write coordinator, or its first replica without one.
    fn sealer(&self, shard: usize) -> NodeId {
        let group = &self.shards[shard];
        group.write_coordinator().unwrap_or(group.node_ids()[0])
    }

    /// Drops every key a shard no longer owns at the current epoch from that
    /// shard's replicas. The cutover already evicts the moved range, but a
    /// straggling in-group commit (a follower applying a pre-cutover entry
    /// after the eviction ran) can resurrect a moved key — this is the
    /// idempotent background GC that clears such remnants; the driver runs it
    /// once per finished run, and tests re-run it after quiescing.
    pub fn gc_moved_ranges(&mut self) {
        for (shard, group) in self.shards.iter_mut().enumerate() {
            let foreign = |key: &[u8]| self.router.shard_for_key(key) != shard;
            for idx in 0..group.replica_count() {
                let node = group.node_ids()[idx];
                group.replica_mut(node).store().evict_range(&foreign);
            }
        }
    }

    /// §3.7 catch-up of `joiner`, which `shard`'s group just restarted: each
    /// live peer in turn ships its whole range to it as one snapshot round,
    /// read where it lies in the peer's store, on a fresh channel, across
    /// the group's own link, until a round lands whole. The joiner then
    /// stages the prepare records of the peer whose round landed as passive
    /// copies, as 2PC's prepare replication does, and moves its applied
    /// count up to the newest timestamp it holds. A peer whose store fails
    /// verification ships nothing. Returns whether a round landed whole (or
    /// no peer is live, and the joiner has only its own state to go on) and
    /// the forged copies the joiner refused.
    pub(crate) fn catch_up(&mut self, shard: usize, joiner: NodeId, now: u64) -> (bool, u64) {
        let (mut tried, mut refused) = (false, 0);
        for idx in 0..self.shards[shard].replica_count() {
            let group = &mut self.shards[shard];
            let donor = group.node_ids()[idx];
            if donor == joiner || group.crashed_nodes().contains(&donor) {
                continue;
            }
            tried = true;
            let Ok(snapshot) = group.replica_mut(donor).store().snapshot(&|_| true) else {
                continue;
            };
            self.transfers += 1;
            let confidentiality = self.confidentiality_of(shard);
            let mut transfer = Transfer {
                channel: MigrationChannel::new(0, 1, self.transfers, confidentiality),
                donor: shard,
                recipient: (shard, vec![joiner]),
            };
            // The chunks' wire ids sit above every id the group's own frames
            // take (its event seqs), a block of 2^32 per transfer.
            let mut wire_id = 1 << 63 | self.transfers << 32;
            let send = |c: &mut Self, at, wire: &[u8]| {
                wire_id += 1;
                let link = c.shards[shard].link();
                link.send(wire_id, donor, joiner, at, wire)
            };
            let (records, phase) = (Records::Snapshot(&snapshot), ChunkPhase::Snapshot);
            let round = self.ship_entries(&mut transfer, donor, now, records, phase, send);
            self.transfer_frames.drop_spares();
            refused += round.refused;
            if round.landed_at.is_some() {
                let group = &mut self.shards[shard];
                let prepares = group.replica_mut(donor).store().txn_records();
                let store = group.replica_mut(joiner).store();
                for (txn_id, ops) in &prepares {
                    let ops = ops
                        .iter()
                        .map(|(key, staged)| (key.as_slice(), staged.as_deref()));
                    store.txn_stage_replicated(*txn_id, ops);
                }
                store.catch_up_applied();
                return (true, refused);
            }
        }
        (!tried, refused)
    }

    /// Seals `records` into bounded chunks on `transfer`'s channel, in
    /// frames of the cluster's transfer pool — a snapshot's read where they
    /// lie in `donor`'s store, the one it was taken of — charges `donor`'s
    /// export and send, puts each chunk on the wire through `send` (given
    /// the cluster, the time the chunk is sent and its frame, it says where
    /// the frame lands) and installs what opens on every recipient node up
    /// when the chunk ships, from the frame where it lies, charging each its
    /// import. A recipient that is down takes nothing: its restart's
    /// catch-up brings it the range. An empty round costs nothing and lands
    /// at `now`; a chunk that does not seal, is lost, is refused or finds
    /// every recipient down ends the round, so that no range moves to a
    /// group where no replica holds it.
    pub(crate) fn ship_entries(
        &mut self,
        transfer: &mut Transfer,
        donor: NodeId,
        now: u64,
        records: Records<'_>,
        phase: ChunkPhase,
        mut send: impl FnMut(&mut Self, u64, &[u8]) -> Landing,
    ) -> Round {
        let Transfer {
            channel,
            donor: from,
            recipient: (to, recipients),
        } = transfer;
        let mut round = Round::default();
        let mut donor_busy_from = now;
        let mut ready_at = now;
        let total = records.len();
        for start in (0..total).step_by(CHUNK_ENTRIES) {
            // Donor side: verified export (or replay staging) + seal + send.
            let range = start..total.min(start + CHUNK_ENTRIES);
            let entries = range.len();
            let frames = &mut self.transfer_frames;
            let (sealed, payload) = match records {
                Records::Snapshot(snapshot) => {
                    let store = self.shards[*from].replica_mut(donor).store();
                    let batch = store.snapshot_records(snapshot, range);
                    let payload = MigrationChunk::payload_len(batch.clone());
                    (channel.seal(frames, phase, batch), payload)
                }
                Records::Log(log) => {
                    let batch = &log[range];
                    let payload = MigrationChunk::payload_len(batch);
                    (channel.seal(frames, phase, batch.iter()), payload)
                }
            };
            let Some((seq, mut wire)) = sealed else {
                return round;
            };
            let wire_len = wire.len();
            let export = Work::Scan {
                entries,
                bytes: payload,
            };
            let send_work = Work::Send {
                ops: 1,
                bytes: wire_len,
            };
            let group = &mut self.shards[*from];
            let [exported, sent] = [export, send_work]
                .map(|work| group.charge(donor, donor_busy_from, ChargeKind::SnapshotExport, work));
            let sent_at = sent.finish_ns;
            donor_busy_from = sent_at;
            if let Some(t) = group.telemetry_mut() {
                let kind = match phase {
                    ChunkPhase::Snapshot => SpanKind::MigrationSnapshot,
                    _ => SpanKind::MigrationCatchUp,
                };
                t.span(kind, donor.0, exported.start_ns, sent_at, seq);
            }
            round.chunks += 1;
            round.entries += entries as u64;
            round.bytes += wire_len as u64;

            // Wire + recipient side: the end opens the authentic frame where
            // it lies (the shield decrypts in place) and each copy the
            // adversary made, and what opens is installed on every recipient
            // node that is up (each pays the import).
            let (landed, refused) = send(self, sent_at, &wire).open(
                &mut wire[..],
                channel,
                |channel, wire| channel.open(wire),
                |channel, copy| channel.open(copy).is_none(),
            );
            round.refused += u64::from(refused);
            let Some((opened, arrival)) = landed else {
                self.transfer_frames.give(wire);
                return round;
            };
            let import = Work::Import {
                entries: opened.len(),
                bytes: wire_len,
            };
            let group = &mut self.shards[*to];
            let mut installed = false;
            for &node in recipients.iter() {
                if group.crashed_nodes().contains(&node) {
                    continue;
                }
                let imported = group.charge(node, arrival, ChargeKind::SnapshotImport, import);
                ready_at = ready_at.max(imported.finish_ns);
                group.replica_mut(node).store().import_range(opened.clone());
                installed = true;
            }
            self.transfer_frames.give(wire);
            if !installed {
                return round;
            }
        }
        round.landed_at = Some(ready_at);
        round
    }
}

#[cfg(test)]
mod tests {
    use recipe_core::Operation;
    use recipe_net::{CrashPlan, FaultPlan, Link};
    use recipe_protocols::{ChainReplica, RaftReplica};
    use recipe_sim::COST_MODEL;

    use super::*;
    use crate::driver::Event;
    use crate::{DeploymentSpec, ShardPolicy};

    const JOINER: NodeId = NodeId(2);

    /// Key `i`'s value on the peers, and on the joiner before its transfer
    /// (it holds the first 100 keys only).
    fn value(i: usize, peer: bool) -> Option<Vec<u8>> {
        let value = |at| Some(format!("{at}-{i:03}").into_bytes());
        if peer {
            value("new")
        } else if i < 100 {
            value("old")
        } else {
            None
        }
    }

    /// One three-replica R-Raft group of `seed` on a link under `plan`,
    /// whose first two replicas hold 300 keys — three chunks — and whose
    /// third, the joiner, the first 100 of them at older values.
    fn group(seed: u64, plan: FaultPlan) -> ShardedCluster<RaftReplica> {
        let spec = DeploymentSpec::new(1, 3)
            .with_seed(seed)
            .with_fault_plan(plan);
        let mut cluster = ShardedCluster::<RaftReplica>::build(spec);
        let group = &mut cluster.shards[0];
        for i in 0..300 {
            let key = format!("key-{i:03}").into_bytes();
            if let Some(old) = value(i, false) {
                group.replica_mut(JOINER).store().apply(&key, old);
            }
            let new = value(i, true).expect("the peers hold every key");
            for peer in [NodeId(0), NodeId(1)] {
                group.replica_mut(peer).store().apply(&key, new.clone());
            }
        }
        cluster
    }

    /// The joiner's value of key `i`, if it holds one.
    fn held(cluster: &mut ShardedCluster<RaftReplica>, i: usize) -> Option<Vec<u8>> {
        let key = format!("key-{i:03}").into_bytes();
        let store = cluster.shards[0].replica_mut(JOINER).store();
        store.get(&key).map(|read| read.value)
    }

    /// Runs the joiner's catch-up; returns whether it caught up, the forged
    /// copies it refused and how many keys, in key order, it took from the
    /// peers before the first it did not.
    fn catch_up(cluster: &mut ShardedCluster<RaftReplica>) -> (bool, u64, usize) {
        let (caught_up, refused) = cluster.catch_up(0, JOINER, 0);
        let taken = (0..300)
            .take_while(|&i| held(cluster, i) == value(i, true))
            .count();
        // Nothing after it is the peers': the rest is the joiner's own.
        for i in taken..300 {
            assert_eq!(held(cluster, i), value(i, taken == 300), "key {i}");
        }
        (caught_up, refused, taken)
    }

    #[test]
    fn a_restarts_transfer_refuses_every_forged_copy_and_installs_only_what_opens() {
        let always = |fault: fn(&mut FaultPlan)| {
            let mut plan = FaultPlan::default();
            fault(&mut plan);
            plan
        };
        // Every chunk lands, and a duplicate beside each: all three copies
        // are refused, and the joiner holds the first peer's state.
        let mut cluster = group(1, always(|plan| plan.duplicate_probability = 1.0));
        assert_eq!(catch_up(&mut cluster), (true, 3, 300));
        // A replay beside every chunk but the first, which has no older
        // frame on its channel to replay: both copies are refused.
        let mut cluster = group(1, always(|plan| plan.replay_probability = 1.0));
        assert_eq!(catch_up(&mut cluster), (true, 2, 300));
        // A tampered first chunk takes the authentic one's place, from each
        // peer in turn: both copies are refused, each transfer ends there,
        // and the joiner keeps exactly its own verified state.
        let mut cluster = group(1, always(|plan| plan.tamper_probability = 1.0));
        assert_eq!(catch_up(&mut cluster), (false, 2, 0));

        // Under a mix, the transfers install whole chunks up to the first
        // tampered one, the joiner catches up exactly when one lands whole,
        // and each chunk sent has at most one copy, which is refused.
        let mixed = FaultPlan {
            duplicate_probability: 0.3,
            replay_probability: 0.3,
            tamper_probability: 0.3,
            ..FaultPlan::default()
        };
        let mut ends = Vec::new();
        for seed in 0..16 {
            let (caught_up, refused, taken) = catch_up(&mut group(seed, mixed));
            assert!(taken % CHUNK_ENTRIES == 0 || taken == 300, "{taken}");
            assert_eq!(caught_up, taken == 300);
            assert!(refused <= 6, "{refused}");
            ends.push(taken);
        }
        assert!(ends.contains(&300) && ends.iter().any(|&taken| taken < 300));
    }

    /// An R-CR tail restarts at 1 s with every frame on its group's link
    /// tampered with: neither live peer's transfer lands, so the tail stays
    /// down past the detection delay, and the survivors' chain keeps
    /// serving without its stale state. At its next planned restart (its
    /// planned crash finds it down already), on an honest link, it catches
    /// up and rejoins holding what the survivors hold.
    #[test]
    fn a_tail_whose_transfer_fails_stays_down_until_a_transfer_lands() {
        const TAIL: NodeId = NodeId(2);
        let (first, second) = (1_000_000_000, 2_000_000_000);
        let crashes = CrashPlan::none()
            .crash_recover(TAIL, 1_000_000, first)
            .crash_recover(TAIL, first + 100_000_000, second);
        let spec = DeploymentSpec::new(1, 3)
            .with_clients(8, 500)
            .with_time_cap_ns(3_000_000_000)
            .with_crash_plan(crashes);
        let mut cluster = ShardedCluster::<ChainReplica>::build(spec);
        let stats = cluster.run_requests(|client, seq| {
            let key = format!("k{}", (client + seq) % 16).into_bytes();
            let value = format!("v{client}-{seq}").into_bytes();
            Some(Operation::Put { key, value }.into())
        });
        assert!(stats.total.committed >= 500);
        // Runs the events due up to `at`, those at `at` on a link under
        // `plan`; returns the copies of restart chunks refused.
        let run_through = |cluster: &mut ShardedCluster<ChainReplica>, at, plan| {
            let mut refused = 0;
            while let Some(key) = cluster.calendar.peek().filter(|key| key.at <= at) {
                if key.at == at {
                    *cluster.shards[0].link() = Link::new(plan, 1, COST_MODEL.link_latency_ns);
                }
                let Some((key, Event::Shard(event))) = cluster.calendar.pop() else {
                    panic!("a driver event outlived its run");
                };
                refused += cluster.handle(key, event).1;
                cluster.completions.clear();
            }
            *cluster.shards[0].link() =
                Link::new(FaultPlan::default(), 1, COST_MODEL.link_latency_ns);
            refused
        };
        let tamper_all = FaultPlan {
            tamper_probability: 1.0,
            ..FaultPlan::default()
        };
        assert_eq!(run_through(&mut cluster, first, tamper_all), 2);
        // Down, and never announced up: nothing routes to it.
        let announced = first + 50_000_000;
        assert_eq!(
            run_through(&mut cluster, announced, FaultPlan::default()),
            0
        );
        assert!(cluster.shard(0).crashed_nodes().contains(&TAIL));
        let values = |cluster: &mut ShardedCluster<ChainReplica>, node| {
            let store = cluster.shards[0].replica_mut(node).store();
            let keys = (0..16).map(|k| format!("k{k}").into_bytes());
            keys.map(|key| store.get(&key).map(|read| read.value))
                .collect::<Vec<_>>()
        };
        let head = values(&mut cluster, NodeId(0));
        assert_eq!(values(&mut cluster, NodeId(1)), head);
        assert_ne!(values(&mut cluster, TAIL), head, "the tail missed no write");

        assert_eq!(run_through(&mut cluster, second, FaultPlan::default()), 0);
        assert!(cluster.quiesce());
        assert!(cluster.shard(0).crashed_nodes().is_empty());
        assert_eq!(values(&mut cluster, TAIL), head);
    }

    /// Moved record `i`: its key and the value the donor ships.
    fn moved(i: usize) -> (Vec<u8>, Vec<u8>) {
        let key = format!("moved-{i:03}").into_bytes();
        (key, format!("value-{i:03}").into_bytes())
    }

    /// How many of the 300 moved records `node` of `shard` holds, as sent.
    fn moved_held(cluster: &mut ShardedCluster<RaftReplica>, shard: usize, node: NodeId) -> usize {
        let store = cluster.shards[shard].replica_mut(node).store();
        let held = |(key, value): &(Vec<u8>, Vec<u8>)| {
            store.get(key).is_some_and(|read| &read.value == value)
        };
        (0..300).map(moved).filter(held).count()
    }

    /// Each replica's busy time in shard 1's books.
    fn busy(cluster: &ShardedCluster<RaftReplica>) -> Vec<u64> {
        let books = cluster.shard(1).books();
        books.iter().map(|books| books.busy.total()).collect()
    }

    /// Two three-replica R-Raft groups, shard 1's `down` replicas crashed
    /// at 1 µs and restarting at 200 ms, run on shard 0's keys; then shard
    /// 0's replica 0 ships 300 records — three chunks — to every replica of
    /// shard 1 as a migration's snapshot round. Returns the cluster, the
    /// round, and shard 1's busy times before it.
    fn ship_to_shard_1(down: &[NodeId]) -> (ShardedCluster<RaftReplica>, Round, Vec<u64>) {
        let crashes = down.iter().fold(CrashPlan::none(), |plan, &node| {
            plan.crash_recover(node, 1_000, 200_000_000)
        });
        let spec = DeploymentSpec::new(2, 3)
            .with_clients(8, 200)
            .with_shard_policy(1, ShardPolicy::new().with_crash_plan(crashes));
        let mut cluster = ShardedCluster::<RaftReplica>::build(spec);
        let keys: Vec<Vec<u8>> = (0..)
            .map(|i| format!("k{i}").into_bytes())
            .filter(|key| cluster.router().shard_for_key(key) == 0)
            .take(16)
            .collect();
        cluster.run_requests(|client, seq| {
            let key = keys[(client + seq) as usize % keys.len()].clone();
            let value = format!("v{client}-{seq}").into_bytes();
            Some(Operation::Put { key, value }.into())
        });
        assert!(cluster.shard(1).crashed_nodes().iter().eq(down));

        let sealer = NodeId(0);
        let store = cluster.shards[0].replica_mut(sealer).store();
        for (key, value) in (0..300).map(moved) {
            store.apply(&key, value);
        }
        let snapshot = store
            .snapshot(&|key| key.starts_with(b"moved-"))
            .expect("the donor's store verifies");
        let before = busy(&cluster);
        let mut transfer = Transfer {
            channel: MigrationChannel::new(0, 1, 1, recipe_core::ConfidentialityMode::Plaintext),
            donor: 0,
            recipient: (1, cluster.shard(1).node_ids().to_vec()),
        };
        let mut link = Link::new(FaultPlan::default(), 1, COST_MODEL.link_latency_ns);
        let mut wire_id = 1 << 63;
        let now = cluster.shard(1).now_ns();
        let records = Records::Snapshot(&snapshot);
        let round = cluster.ship_entries(
            &mut transfer,
            sealer,
            now,
            records,
            ChunkPhase::Snapshot,
            |_, at, wire| {
                wire_id += 1;
                link.send(wire_id, sealer, NodeId(0), at, wire)
            },
        );
        (cluster, round, before)
    }

    /// A migration's three chunks land on shard 1 while its replica 2 is
    /// down: the live recipients install the range and pay for it, the one
    /// that is down holds none of it and is charged nothing, and its
    /// restart's catch-up brings it the moved records.
    #[test]
    fn a_recipient_down_when_a_chunk_lands_takes_the_range_at_its_restart() {
        const DOWN: NodeId = NodeId(2);
        let (mut cluster, round, before) = ship_to_shard_1(&[DOWN]);
        assert_eq!(round.chunks, 3);
        assert!(round.landed_at.is_some());
        let after = busy(&cluster);
        for node in [NodeId(0), NodeId(1)] {
            assert_eq!(moved_held(&mut cluster, 1, node), 300, "{node:?}");
            assert!(after[node.0 as usize] > before[node.0 as usize], "{node:?}");
        }
        assert_eq!(moved_held(&mut cluster, 1, DOWN), 0);
        assert_eq!(after[2], before[2], "the down recipient was charged");

        assert!(cluster.quiesce());
        assert!(cluster.shard(1).crashed_nodes().is_empty());
        assert_eq!(moved_held(&mut cluster, 1, DOWN), 300);
    }

    /// With every replica of shard 1 down, the first chunk lands on no one:
    /// the round ends there without landing, so the migration aborts and
    /// the range stays with the donor, which still holds every record after
    /// shard 1's replicas restart with nothing of it.
    #[test]
    fn a_chunk_that_finds_every_recipient_down_ends_the_round_unlanded() {
        let all = [NodeId(0), NodeId(1), NodeId(2)];
        let (mut cluster, round, before) = ship_to_shard_1(&all);
        assert_eq!(round.chunks, 1);
        assert!(round.landed_at.is_none());
        assert_eq!(busy(&cluster), before, "a down recipient was charged");

        assert!(cluster.quiesce());
        assert!(cluster.shard(1).crashed_nodes().is_empty());
        for node in all {
            assert_eq!(moved_held(&mut cluster, 1, node), 0, "{node:?}");
        }
        assert_eq!(moved_held(&mut cluster, 0, NodeId(0)), 300);
    }
}
