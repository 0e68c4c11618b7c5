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
//!    ships them to the recipient group, which installs them on every replica.
//!    The donor keeps serving the range throughout.
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

use std::cmp::Reverse;
use std::collections::HashSet;

use recipe_protocols::{ChunkPhase, MigrationChannel, MigrationChunk, StoreReplica};
use recipe_sim::{RangeEntry, Work, COST_MODEL};
use recipe_telemetry::{ChargeKind, SpanKind};
use recipe_workload::stable_key_hash;
use serde::{Deserialize, Serialize};

use crate::driver::Engine;
use crate::router::ShardRouter;
use crate::sharded::ShardedCluster;

/// Knobs of the online-rebalancing controller.
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
    /// Upper bound on migrations per run (one is in flight at a time).
    pub max_migrations: u64,
    /// Force payload encryption on every transfer chunk, regardless of
    /// policy. The AEAD choice is normally per move — a chunk is encrypted
    /// iff the donor's or the recipient's shard policy
    /// ([`crate::ShardedCluster::confidentiality_of`]) is confidential, so a
    /// moving range never travels in plaintext when either side treats it as
    /// sensitive — and this knob is the stricter-wins override on top: set it
    /// to seal even plaintext→plaintext moves.
    pub confidential_transfer: bool,
    /// Records per sealed chunk — bounds the EPC staging footprint.
    pub chunk_entries: usize,
    /// A catch-up round at or below this many records triggers the drain.
    pub drain_threshold_ops: usize,
    /// Catch-up rounds before the controller forces the drain regardless.
    pub max_catchup_rounds: u64,
    /// Width of the throughput-timeline buckets, virtual ns (0 disables).
    pub timeline_bucket_ns: u64,
    /// Spacing of the initial client issue stagger, virtual ns (the plain
    /// driver hard-codes 200; open-loop replay tests widen it).
    pub issue_stagger_ns: u64,
}

impl Default for RebalanceConfig {
    fn default() -> Self {
        RebalanceConfig {
            enabled: false,
            check_interval_ns: 20_000_000, // 20 ms
            min_window_commits: 200,
            imbalance_threshold: 1.5,
            max_migrations: 4,
            confidential_transfer: false,
            chunk_entries: 128,
            drain_threshold_ops: 8,
            max_catchup_rounds: 8,
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

/// Counters of the rebalancing machinery for one run.
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
    /// the move touched a confidential shard (or the legacy
    /// [`RebalanceConfig::confidential_transfer`] forced it).
    pub confidential_transfer_bytes: u64,
    /// Catch-up rounds shipped (including the final delta).
    pub catchup_rounds: u64,
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
    /// Virtual nanoseconds of export/seal/import work charged to replicas.
    pub transfer_busy_ns: u64,
    /// Virtual time of the last completed cutover.
    pub last_cutover_ns: u64,
    /// Router epoch at the end of the run.
    pub router_version: u64,
}

/// A migration in flight.
struct ActiveMigration {
    donor: usize,
    recipient: usize,
    /// Moving arcs in ascending order (the unit handed to the router at
    /// cutover).
    arcs: Vec<usize>,
    arc_set: HashSet<usize>,
    channel: MigrationChannel,
    /// Writes committed on the donor inside the moving range since the last
    /// shipped round, in commit order.
    catchup: Vec<RangeEntry>,
    next_chunk_seq: u64,
    rounds: u64,
    /// Committed moving-range writes this migration failed to capture; a
    /// non-zero count forces a full verified re-export at cutover.
    capture_misses: u64,
    draining: bool,
    /// When the in-flight transfer round lands on the recipient (`None` while
    /// draining — progress is then driven by completions).
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
            None if rb.enabled && self.stats.migrations_started < rb.max_migrations => {
                Some(self.next_check_ns)
            }
            None => None,
        }
    }

    /// True when the donor must refuse a fresh operation on `(shard, arc)`
    /// (cutover drain in progress for that range).
    pub(crate) fn refuses(&self, shard: usize, arc: usize) -> bool {
        match &self.active {
            Some(active) => {
                active.draining && shard == active.donor && active.arc_set.contains(&arc)
            }
            None => false,
        }
    }

    /// The active migration's `(donor, moving arcs)`, if one is in flight.
    pub(crate) fn active_range(&self) -> Option<(usize, &HashSet<usize>)> {
        self.active
            .as_ref()
            .map(|active| (active.donor, &active.arc_set))
    }

    /// True while the active migration drains the moving range for cutover.
    pub(crate) fn is_draining(&self) -> bool {
        self.active.as_ref().is_some_and(|active| active.draining)
    }

    /// True when a committed write on `(shard, arc)` must be captured for
    /// the active migration's catch-up log.
    pub(crate) fn captures(&self, shard: usize, arc: usize) -> bool {
        self.active
            .as_ref()
            .is_some_and(|active| shard == active.donor && active.arc_set.contains(&arc))
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
            if active.arc_set.contains(&arc) {
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
        for shard in 0..self.shards.len() {
            let foreign = {
                let router = self.router.clone();
                move |key: &[u8]| router.shard_for_key(key) != shard
            };
            let group = &mut self.shards[shard];
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
        if active.catchup.len() > self.rb.drain_threshold_ops
            && active.rounds < self.rb.max_catchup_rounds
        {
            self.ship_round(now, ChunkPhase::CatchUp);
        } else {
            active.draining = true;
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
        let entries = match exported {
            Ok(entries) => entries,
            Err(_) => {
                // The donor leader's store failed verification for the range
                // (Byzantine host tampered with host-resident state). Never
                // ship unverified state: abort this attempt; the placement
                // stays as it was and a later window may retry.
                self.st.stats.export_failures += 1;
                return;
            }
        };

        self.st.next_migration_id += 1;
        self.st.stats.migrations_started += 1;
        // Transfer AEAD per move, stricter-wins: the chunks are sealed
        // whenever the donor or the recipient treats the range as sensitive
        // (the per-shard policy `confidentiality_of` reports), or when
        // `confidential_transfer` forces sealing globally. On arrival the
        // recipient's replicas re-seal the records under their own policy
        // (their stores encrypt values iff *they* are confidential).
        let transfer_confidentiality = recipe_core::ConfidentialityMode::from(
            self.rb.confidential_transfer
                || cluster.confidentiality_of(donor).is_confidential()
                || cluster.confidentiality_of(recipient).is_confidential(),
        );
        let mut active = ActiveMigration {
            donor,
            recipient,
            arc_set: arcs.iter().copied().collect(),
            arcs,
            channel: MigrationChannel::new(
                donor,
                recipient,
                self.st.next_migration_id,
                transfer_confidentiality,
            ),
            catchup: Vec::new(),
            next_chunk_seq: 0,
            rounds: 0,
            capture_misses: 0,
            draining: false,
            transfer_ready_at: None,
        };
        let ready_at = self.ship_entries(&mut active, now, entries, ChunkPhase::Snapshot);
        active.transfer_ready_at = Some(ready_at);
        self.st.active = Some(active);
    }

    /// Ships the accumulated catch-up delta as one round.
    fn ship_round(&mut self, now: u64, phase: ChunkPhase) {
        let mut active = self.st.active.take().expect("a migration is active");
        let entries = std::mem::take(&mut active.catchup);
        active.rounds += 1;
        let ready_at = self.ship_entries(&mut active, now, entries, phase);
        active.transfer_ready_at = Some(ready_at);
        self.st.active = Some(active);
    }

    /// Seals `entries` into bounded chunks, charges export, wire and import
    /// costs, installs the records on every recipient replica, and returns the
    /// virtual time the transfer lands. An empty `entries` still returns `now`
    /// (a zero-length round costs nothing).
    fn ship_entries(
        &mut self,
        active: &mut ActiveMigration,
        now: u64,
        entries: Vec<RangeEntry>,
        phase: ChunkPhase,
    ) -> u64 {
        let Engine {
            cluster, st, rb, ..
        } = self;
        // Each node is charged under its own group's profile (the donor's
        // and the recipient's shard policies may name different hardware).
        let donor_leader = cluster.shards[active.donor]
            .write_coordinator()
            .unwrap_or_else(|| cluster.shards[active.donor].node_ids()[0]);

        let chunk_entries = rb.chunk_entries.max(1);
        let mut donor_busy_from = now;
        let mut ready_at = now;
        let is_snapshot = matches!(phase, ChunkPhase::Snapshot);
        for batch in entries.chunks(chunk_entries) {
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
            let mut wire = active.channel.seal(&chunk);
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
            st.stats.transfer_busy_ns += exported.cost_ns() + sent.cost_ns();
            if let Some(t) = donor.telemetry_mut() {
                let kind = if is_snapshot {
                    SpanKind::MigrationSnapshot
                } else {
                    SpanKind::MigrationCatchUp
                };
                t.span(kind, donor_leader.0, exported.start_ns, sent_at, chunk.seq);
            }

            // Wire + recipient side: verify the sealed frame, install on every
            // replica of the group (each pays the import).
            let arrival = sent_at + COST_MODEL.link_latency_ns;
            let opened = active
                .channel
                .open(&mut wire)
                .expect("benign-path transfer chunks verify");
            let import = Work::Import {
                entries: opened.entries.len(),
                bytes: wire.len(),
            };
            let recipient = &mut cluster.shards[active.recipient];
            for idx in 0..recipient.replica_count() {
                let node = recipient.node_ids()[idx];
                let imported = recipient.charge(node, arrival, ChargeKind::SnapshotImport, import);
                st.stats.transfer_busy_ns += imported.cost_ns();
                ready_at = ready_at.max(imported.finish_ns);
                recipient
                    .replica_mut(node)
                    .store()
                    .import_range(&opened.entries);
            }

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
        }
        if !is_snapshot {
            st.stats.catchup_rounds += 1;
        }
        ready_at
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
        // migration aborts: no eviction, no epoch bump, the donor keeps
        // serving (the recipient's partial copy of the unowned range is
        // cleared by the end-of-run GC).
        if active.capture_misses > 0 {
            let filter = self.cluster.router.arc_membership_filter(&active.arcs);
            let donor = &mut self.cluster.shards[active.donor];
            let reexport = donor
                .write_coordinator()
                .ok_or_else(|| "no live donor coordinator".to_string())
                .and_then(|leader| donor.replica_mut(leader).store().export_range(&filter));
            match reexport {
                Ok(entries) => delta = entries,
                Err(_) => {
                    self.st.stats.export_failures += 1;
                    self.st.next_check_ns = now + self.rb.check_interval_ns;
                    self.st.clear_window();
                    return;
                }
            }
        }
        if !delta.is_empty() {
            self.ship_entries(&mut active, now, delta, ChunkPhase::Final);
        }
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
