//! Online shard rebalancing: the migration controller and its driver loop.
//!
//! The sharded driver (PR 1) fixed placement at construction; this module adds
//! the first **online reconfiguration** path: when the per-window commit load
//! drifts past an imbalance threshold, the controller moves a key range — a
//! set of consistent-hash ring arcs — from the overloaded *donor* group to the
//! most underloaded *recipient* group **without downtime**, in three phases:
//!
//! 1. **Snapshot** — the donor leader exports the moving range through the
//!    verified-read path of its partitioned store (cut point = export time),
//!    seals it into bounded [`recipe_protocols::MigrationChunk`]s through the
//!    shield layer (MAC + trusted counter, AEAD in confidential mode) and
//!    ships them across the plane between groups to the recipient group,
//!    which opens each and installs it on every replica. The donor keeps
//!    serving the range throughout.
//! 2. **Catch-up** — writes committed on the donor after the cut are logged
//!    and replayed in commit order, round after round, until a round's delta
//!    is small.
//! 3. **Cutover** — the donor *refuses* new operations for the moving range
//!    (clients back off and retry), in-flight operations drain, the final
//!    delta ships, the donor evicts the range, and the router epoch bumps
//!    atomically ([`crate::ShardRouter::rebalance`]). Clients still holding
//!    the old epoch get a [`crate::RouteDecision::WrongShard`] redirect on
//!    their next touch of the range and retry against the new placement — no
//!    commit is ever lost or applied twice.
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
//! refused fails its round and aborts the migration; nothing is resent.
//!
//! **Cost form.** A migration ships a snapshot round and then its catch-up
//! rounds (the final delta included); a round of `k` records ships
//! `⌈k / CHUNK_ENTRIES⌉` chunks ([`MigrationStats::chunks`]), each one
//! shielded frame of `ShieldedMessage::frame_len(MigrationChunk::wire_len(n,
//! b))` bytes for `n` records of `b` key and value bytes, sealed or not.

use std::cmp::Reverse;

use recipe_protocols::{ChunkPhase, MigrationChannel, MigrationChunk, StoreReplica, CHUNK_ENTRIES};
use recipe_sim::{RangeEntry, Work};
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
    /// Copies of chunks the recipients' ends refused (tampered, duplicated
    /// or replayed deliveries — never installed).
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

/// A migration in flight.
struct ActiveMigration {
    donor: usize,
    recipient: usize,
    /// Moving arcs in ascending order (the unit handed to the router at
    /// cutover; membership is a binary search).
    arcs: Vec<usize>,
    channel: MigrationChannel,
    /// Records waiting for the next round: the snapshot, then the writes
    /// committed on the donor inside the moving range since the last
    /// shipped round, in commit order.
    catchup: Vec<RangeEntry>,
    next_chunk_seq: u64,
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
    next_migration_id: u64,
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
            next_migration_id: 0,
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
            .map(|active| (active.donor, active.arcs.as_slice()))
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
    pub(crate) fn record_capture(&mut self, entry: Option<RangeEntry>) {
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
        entries: &[RangeEntry],
    ) {
        let Some(active) = self.active.as_mut() else {
            return;
        };
        if shard != active.donor {
            return;
        }
        for entry in entries {
            let arc = router.arc_of_point(stable_key_hash(&entry.key));
            if active.arcs.binary_search(&arc).is_ok() {
                active.catchup.push(entry.clone());
            }
        }
    }
}

impl<R: StoreReplica> ShardedCluster<R> {
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
            self.ship_round(now, ChunkPhase::CatchUp);
        } else {
            active.transfer_ready_at = None;
            let donor = active.donor;
            if let Some(t) = self.cluster.shards[donor].telemetry_mut() {
                t.instant(SpanKind::MigrationDrain, 0, now, self.st.next_migration_id);
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
        let exported = cluster.shards[donor]
            .replica_mut(leader)
            .store()
            .export_range(&filter);
        let Ok(entries) = exported else {
            // The donor leader's store failed verification for the range
            // (Byzantine host tampered with host-resident state). Never ship
            // unverified state: abort this attempt; the placement stays as
            // it was and a later window may retry.
            self.st.stats.export_failures += 1;
            return;
        };

        self.st.next_migration_id += 1;
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
        let active = ActiveMigration {
            donor,
            recipient,
            arcs,
            channel: MigrationChannel::new(
                donor,
                recipient,
                self.st.next_migration_id,
                transfer_confidentiality,
            ),
            catchup: entries,
            next_chunk_seq: 0,
            rounds: 0,
            capture_misses: 0,
            transfer_ready_at: None,
        };
        self.st.active = Some(active);
        self.ship_round(now, ChunkPhase::Snapshot);
    }

    /// Ships the records the active migration holds — its snapshot, then
    /// each catch-up delta — as one round, or aborts the migration when a
    /// chunk does not land.
    fn ship_round(&mut self, now: u64, phase: ChunkPhase) {
        let mut active = self.st.active.take().expect("a migration is active");
        let entries = std::mem::take(&mut active.catchup);
        active.rounds += 1;
        let Some(ready_at) = self.ship_entries(&mut active, now, entries, phase) else {
            return self.abort_migration(now);
        };
        active.transfer_ready_at = Some(ready_at);
        self.st.active = Some(active);
    }

    /// Aborts the migration taken out of the controller's state: placement
    /// unchanged, the donor serving on, a later window free to retry. The
    /// end-of-run GC clears the recipient's partial copy.
    fn abort_migration(&mut self, now: u64) {
        self.st.next_check_ns = now + self.rb.check_interval_ns;
        self.st.clear_window();
    }

    /// Seals `entries` into bounded chunks, charges export, wire and import
    /// costs, carries each chunk across the plane between groups and
    /// installs what arrives on every recipient replica. Returns the virtual
    /// time the round lands (`now` for an empty round, which costs nothing
    /// and counts as none), or `None` once a chunk is lost or refused: the
    /// round failed, and no chunk after it ships.
    fn ship_entries(
        &mut self,
        active: &mut ActiveMigration,
        now: u64,
        entries: Vec<RangeEntry>,
        phase: ChunkPhase,
    ) -> Option<u64> {
        let Engine {
            cluster, st, plane, ..
        } = self;
        // Each node is charged under its own group's profile (the donor's
        // and the recipient's shard policies may name different hardware).
        let donor_leader = cluster.shards[active.donor]
            .write_coordinator()
            .unwrap_or_else(|| cluster.shards[active.donor].node_ids()[0]);
        let ends = (Plane::group(active.donor), Plane::group(active.recipient));

        let mut donor_busy_from = now;
        let mut ready_at = now;
        let is_snapshot = matches!(phase, ChunkPhase::Snapshot);
        if !is_snapshot && !entries.is_empty() {
            st.stats.catchup_rounds += 1;
        }
        for batch in entries.chunks(CHUNK_ENTRIES) {
            let chunk = MigrationChunk {
                migration_id: st.next_migration_id,
                phase,
                seq: active.next_chunk_seq,
                entries: batch.to_vec(),
            };
            active.next_chunk_seq += 1;
            let payload_bytes = chunk.payload_len();

            // Donor side: verified export (or replay staging) + seal + send.
            let export = Work::Scan {
                entries: batch.len(),
                bytes: payload_bytes,
            };
            let wire = active.channel.seal(&chunk);
            let send = Work::Send {
                ops: 1,
                bytes: wire.len(),
            };
            let donor = &mut cluster.shards[active.donor];
            let [exported, sent] = [export, send].map(|work| {
                donor.charge(
                    donor_leader,
                    donor_busy_from,
                    ChargeKind::SnapshotExport,
                    work,
                )
            });
            let sent_at = sent.finish_ns;
            donor_busy_from = sent_at;
            if let Some(t) = donor.telemetry_mut() {
                let kind = if is_snapshot {
                    SpanKind::MigrationSnapshot
                } else {
                    SpanKind::MigrationCatchUp
                };
                t.span(kind, donor_leader.0, exported.start_ns, sent_at, chunk.seq);
            }
            st.stats.chunks += 1;
            if is_snapshot {
                st.stats.snapshot_entries += batch.len() as u64;
                st.stats.snapshot_bytes += wire.len() as u64;
            } else {
                st.stats.catchup_entries += batch.len() as u64;
                st.stats.catchup_bytes += wire.len() as u64;
            }
            if active.channel.is_confidential() {
                st.stats.confidential_transfer_bytes += wire.len() as u64;
            }

            // Wire + recipient side: the end opens each delivery in a copy
            // of its own (the shield decrypts in place), and what it opens is
            // installed on every replica of the group (each pays the import).
            let (landed, refused) = plane.cross(
                ends,
                sent_at,
                &wire,
                &mut active.channel,
                |channel, wire| channel.open(&mut wire.to_vec()),
                |channel, copy| channel.open(&mut copy.to_vec()).is_none(),
            );
            st.stats.chunks_rejected += u64::from(refused);
            let (opened, arrival) = landed?;
            let import = Work::Import {
                entries: opened.entries.len(),
                bytes: wire.len(),
            };
            let recipient = &mut cluster.shards[active.recipient];
            for idx in 0..recipient.replica_count() {
                let node = recipient.node_ids()[idx];
                let imported = recipient.charge(node, arrival, ChargeKind::SnapshotImport, import);
                ready_at = ready_at.max(imported.finish_ns);
                recipient
                    .replica_mut(node)
                    .store()
                    .import_range(&opened.entries);
            }
        }
        Some(ready_at)
    }

    /// The drain is empty: ship the final delta, evict the donor's copy, bump
    /// the router epoch. From this instant the old placement earns redirects.
    fn finish_cutover(&mut self, now: u64) {
        let mut active = self.st.active.take().expect("a migration is draining");
        let mut delta = std::mem::take(&mut active.catchup);
        // Zero-loss guard: if any committed moving-range write could not be
        // captured (leader handover, unverifiable record), the catch-up log is
        // not trustworthy — re-export the whole range through the verified
        // path instead. The drain guarantees nothing is in flight, so the
        // re-export is the complete committed state. If even that fails, the
        // migration aborts.
        if active.capture_misses > 0 {
            let filter = self.cluster.router.arc_membership_filter(&active.arcs);
            let donor = &mut self.cluster.shards[active.donor];
            let reexport = donor.write_coordinator().and_then(|leader| {
                let store = donor.replica_mut(leader).store();
                store.export_range(&filter).ok()
            });
            let Some(entries) = reexport else {
                self.st.stats.export_failures += 1;
                return self.abort_migration(now);
            };
            delta = entries;
        }
        let Some(_) = self.ship_entries(&mut active, now, delta, ChunkPhase::Final) else {
            return self.abort_migration(now);
        };
        let Engine {
            cluster, st, rb, ..
        } = self;
        let filter = cluster.router.arc_membership_filter(&active.arcs);
        let donor = &mut cluster.shards[active.donor];
        for idx in 0..donor.replica_count() {
            let node = donor.node_ids()[idx];
            donor.replica_mut(node).store().evict_range(&filter);
        }
        cluster.router.rebalance(&active.arcs, active.recipient);
        st.stats.migrations_completed += 1;
        st.stats.last_cutover_ns = now;
        st.cutover_times.push(now);
        if let Some(t) = cluster.shards[active.donor].telemetry_mut() {
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
