//! The calibrated cost model that drives the simulator's virtual clock.
//!
//! Every unit of work a replica performs is converted into virtual nanoseconds:
//!
//! * **network send/receive** — delegated to [`recipe_net::NetCostModel`], so the
//!   protocol experiments and the Figure 6b network microbenchmark share one set of
//!   transport parameters;
//! * **authentication layer** — MAC computation/verification and counter handling
//!   per shielded message;
//! * **application processing** — request parsing, KV index work, queueing; scaled
//!   by the TEE execution penalty and by EPC pressure when values are large
//!   (Figure 3) — [`recipe_tee::epc::pressure`] supplies the pressure curve;
//! * **confidentiality** — an extra encrypt/decrypt pass over the payload
//!   (Figure 5);
//! * **baseline handicaps** — the PBFT baseline (BFT-Smart) runs over kernel
//!   sockets without direct I/O (paper Table 2) and carries a heavier per-message
//!   software stack, expressed as its own [`CostProfile`].
//!
//! Calibration targets the *relative* numbers the paper reports; `fig <name>` in
//! `recipe-bench` regenerates every figure (README, "Reproducing the paper's
//! experiments").
//!
//! # One body per formula
//!
//! Every formula is one arm of [`ProtocolCostModel::cost`], named by a
//! [`Work`] value. The arm adds its f64 terms to a running sum in a fixed
//! order; the integer charged is that sum truncated. The paper explains
//! Recipe's overhead by splitting it into transport, authentication,
//! TEE-execution, EPC-paging and encryption terms (Fig. 6a, §B.3), and the
//! same arm yields that split: the [`CostBreakdown`] every caller passes is
//! handed, per term, the integer nanoseconds the term adds on top of the sum's
//! previous truncation (`Sum`), so the slots always add up to the exact integer
//! charged — there is no second copy of a formula for the split to drift
//! from, and no charge without a split. Sub-splits of a jointly-added term
//! (MAC bytes vs the fixed counter slot, TEE multiplier vs EPC pressure)
//! divide the already-truncated integer, so rounding crumbs can never change
//! the total. `tests/golden/cost_table.txt` pins every integer and split.

use recipe_net::{ExecMode, NetCostModel, Transport};
use recipe_telemetry::{CostBreakdown, CostCategory};
use serde::{Deserialize, Serialize};

/// The running sum of one charge's f64 terms, in expression order.
///
/// The integer charged is the truncated sum. Each term is also handed the
/// integer nanoseconds it adds on top of the previous truncation (cumulative
/// truncation) and files them in the split, so the integers filed always sum
/// to the truncation of the full sum.
struct Sum<'a> {
    /// Truncated totals of the groups already [`Sum::cut`] off.
    closed: u64,
    acc: f64,
    /// `acc` truncated, as of the last term.
    prev: u64,
    split: &'a mut CostBreakdown,
}

impl<'a> Sum<'a> {
    fn new(split: &'a mut CostBreakdown) -> Self {
        Sum {
            closed: 0,
            acc: 0.0,
            prev: 0,
            split,
        }
    }

    /// Adds `term`; `share` files the term's integer under its categories.
    fn push(&mut self, term: f64, share: impl FnOnce(&mut CostBreakdown, u64)) {
        self.acc += term;
        let cur = self.acc as u64;
        share(self.split, cur - self.prev);
        self.prev = cur;
    }

    /// Adds a term that belongs to one category.
    fn push_as(&mut self, cat: CostCategory, term: f64) {
        self.push(term, |split, ns| split.add(cat, ns));
    }

    /// Truncates what was added so far on its own; later terms start a
    /// fresh sum.
    fn cut(&mut self) {
        self.closed += self.acc as u64;
        self.acc = 0.0;
        self.prev = 0;
    }

    fn total(self) -> u64 {
        self.closed + self.acc as u64
    }
}

/// One unit of charged work: which formula, at what size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Work {
    /// Send one wire frame carrying `ops` protocol messages in `bytes`
    /// total. The fixed per-message overheads — transport setup, MAC/AEAD
    /// fixed cost, signature — are charged **once per frame**, not once per
    /// op; each op past the first pays only the
    /// `ProtocolCostModel::batch_op_overhead_ns` marginal plus its share
    /// of the per-byte work already captured by `bytes`.
    Send {
        /// Protocol messages in the frame (`1` = an unbatched message).
        ops: usize,
        /// Frame length.
        bytes: usize,
    },
    /// Receive and fully process one wire frame of `ops` messages in `bytes`
    /// total: the fixed transport + authentication cost once per frame
    /// (single MAC check, single counter, one AEAD pass), but the
    /// **application work per op** — amortization must not hide real
    /// per-request processing — under the EPC pressure of the frames the
    /// node holds at a time (§B.3).
    Recv {
        /// Protocol messages in the frame (`1` = an unbatched message).
        ops: usize,
        /// Frame length.
        bytes: usize,
    },
    /// A verified bulk scan of `entries` local records totalling `bytes`:
    /// per-entry index walk and integrity re-hash (the partitioned store
    /// verifies every value it copies out of host memory) plus the per-byte
    /// hash work, all under the EPC pressure of staging the scanned bytes.
    /// A donor pays it to export a snapshot or catch-up chunk (the
    /// shield/wire leg is a separate [`Work::Send`] of the sealed frame); a
    /// restarting replica pays it to rehydrate rollback-protected state,
    /// re-reading every host-resident record against the trusted counter.
    Scan {
        /// Records read.
        entries: usize,
        /// Their total payload.
        bytes: usize,
    },
    /// Verify and apply one chunk of `entries` records that arrived in a
    /// sealed frame of `bytes`: the frame's transport +
    /// authentication cost once (single MAC/AEAD pass over the chunk — the
    /// same amortization the batch path gets), then per-entry store writes
    /// under the EPC pressure of staging the frame.
    Import {
        /// Records written.
        entries: usize,
        /// Length of the sealed frame they arrived in.
        bytes: usize,
    },
    /// Verify and execute one 2PC prepare frame: the sealed frame's
    /// transport + authentication cost once, then per-op lock + staging
    /// work under the EPC pressure of keeping the staged writes
    /// enclave-resident. Staged state stays in the enclave from prepare
    /// until commit/abort (the lock table is trusted metadata like the
    /// index), so many large in-flight prepares cross the EPC cliff exactly
    /// like large batch frames and migration chunks do (§B.3).
    TxnPrepare {
        /// Operations in the prepare (at least one is charged).
        ops: usize,
        /// Frame payload.
        bytes: usize,
        /// The store's total in-flight staged footprint *including* this
        /// prepare.
        staged_bytes: usize,
    },
    /// Verify and execute one 2PC commit/abort frame resolving `writes`
    /// staged writes totalling `bytes`: the (64-byte) frame's
    /// transport + authentication cost once, then per-write apply work (the
    /// same application work a single-key write pays — amortization covers
    /// the shield, never the store). An abort is a commit of nothing.
    TxnCommit {
        /// Staged writes applied.
        writes: usize,
        /// Their total payload.
        bytes: usize,
    },
}

impl Work {
    /// Receive a client's request carrying a `value_len`-byte value: what
    /// the replica a request is routed to pays before its protocol sees it.
    pub const fn ingest(value_len: usize) -> Work {
        Work::Recv {
            ops: 1,
            bytes: value_len + 64,
        }
    }
}

/// Per-node execution profile: where the node runs and which layers it pays for.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CostProfile {
    /// Native or TEE execution.
    pub(crate) exec: ExecMode,
    /// Kernel sockets or direct I/O.
    pub transport: Transport,
    /// Whether the Recipe authentication/non-equivocation layer is active.
    pub shielded: bool,
    /// Whether payloads/values are encrypted (confidential mode).
    pub confidential: bool,
    /// Whether this node verifies/produces asymmetric signatures per message
    /// (classical BFT baselines) instead of symmetric MACs.
    pub(crate) uses_signatures: bool,
    /// Fixed application-level processing cost per message, nanoseconds
    /// (request parsing, queue handling, index update).
    pub(crate) app_base_ns: f64,
    /// Usable EPC bytes for this node's enclave (drives the value-size cliff).
    pub(crate) epc_bytes: usize,
    /// Approximate enclave-resident working set in bytes *excluding* per-message
    /// payload buffers (index, metadata, protocol queues).
    pub(crate) resident_bytes: usize,
    /// Number of message payloads resident in enclave buffers at a time
    /// (batching factor; larger batches stress the EPC, §B.3).
    pub(crate) inflight_messages: usize,
}

impl CostProfile {
    /// A Recipe-transformed replica: TEE + direct I/O + authentication layer.
    pub fn recipe() -> Self {
        CostProfile {
            exec: ExecMode::Tee,
            transport: Transport::DirectIo,
            shielded: true,
            confidential: false,
            uses_signatures: false,
            app_base_ns: 550.0,
            epc_bytes: recipe_tee::epc::DEFAULT_EPC_BYTES,
            resident_bytes: 2 * 1024 * 1024,
            inflight_messages: 2_048,
        }
    }

    /// The same stack without the authentication layer and outside a TEE — the
    /// "native" baseline of Figure 6a.
    pub fn native_cft() -> Self {
        CostProfile {
            exec: ExecMode::Native,
            transport: Transport::DirectIo,
            shielded: false,
            confidential: false,
            uses_signatures: false,
            app_base_ns: 550.0,
            epc_bytes: usize::MAX / 2,
            resident_bytes: 0,
            inflight_messages: 0,
        }
    }

    /// The PBFT baseline (BFT-Smart): no TEE, kernel sockets, signature-based
    /// authentication, heavier per-message software stack (managed runtime,
    /// request batching pipeline).
    pub fn pbft_baseline() -> Self {
        CostProfile {
            exec: ExecMode::Native,
            transport: Transport::KernelSockets,
            shielded: false,
            confidential: false,
            uses_signatures: true,
            app_base_ns: 2_400.0,
            epc_bytes: usize::MAX / 2,
            resident_bytes: 0,
            inflight_messages: 0,
        }
    }

    /// The Damysus baseline: TEE-assisted streamlined HotStuff, kernel sockets
    /// (paper Table 2 marks hybrid BFT protocols as not using direct I/O).
    pub fn damysus_baseline() -> Self {
        CostProfile {
            exec: ExecMode::Tee,
            transport: Transport::KernelSockets,
            shielded: true,
            confidential: false,
            uses_signatures: false,
            app_base_ns: 1_100.0,
            epc_bytes: recipe_tee::epc::DEFAULT_EPC_BYTES,
            resident_bytes: 2 * 1024 * 1024,
            inflight_messages: 256,
        }
    }

    /// Sets confidential mode from a per-group policy: the encryption cost
    /// term follows the group's [`recipe_core::ConfidentialityMode`], so a
    /// mixed deployment charges it exactly on the shards whose policy asks
    /// for it. Overwrites (in both directions) whatever the profile carried.
    pub fn with_confidentiality(mut self, mode: recipe_core::ConfidentialityMode) -> Self {
        self.confidential = mode.is_confidential();
        self
    }

    /// Sets the batching factor (in-flight payload buffers inside the enclave).
    pub fn with_inflight(mut self, messages: usize) -> Self {
        self.inflight_messages = messages;
        self
    }
}

/// The full protocol cost model: network parameters plus crypto/app constants.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProtocolCostModel {
    /// Shared network cost parameters (also used by the Figure 6b bench).
    pub net: NetCostModel,
    /// Cost of a MAC computation or verification, nanoseconds (fixed part).
    pub(crate) mac_ns: f64,
    /// Per-byte cost of MAC/hash computation, nanoseconds.
    pub(crate) mac_per_byte_ns: f64,
    /// Cost of an asymmetric signature generation/verification, nanoseconds.
    pub(crate) signature_ns: f64,
    /// Per-byte cost of symmetric encryption (confidential mode), nanoseconds.
    pub(crate) encrypt_per_byte_ns: f64,
    /// Multiplier on application processing when executed inside a TEE
    /// (enclave transitions, shielded memory accesses).
    pub(crate) tee_app_penalty: f64,
    /// One-way network propagation delay between any two nodes, nanoseconds
    /// (same-rack datacenter fabric).
    pub link_latency_ns: u64,
    /// Time a client waits between receiving a reply and issuing its next request.
    pub client_think_ns: u64,
    /// Marginal cost per additional op inside a batch frame, nanoseconds
    /// (sub-frame parsing/dispatch; the fixed transport + MAC/AEAD setup is
    /// charged once per frame).
    pub(crate) batch_op_overhead_ns: f64,
}

/// The cost model every node of every run is charged under.
pub const COST_MODEL: ProtocolCostModel = ProtocolCostModel {
    net: NetCostModel::CALIBRATED,
    mac_ns: 380.0,
    mac_per_byte_ns: 0.45,
    signature_ns: 14_000.0,
    encrypt_per_byte_ns: 1.1,
    tee_app_penalty: 2.6,
    link_latency_ns: 5_000,
    client_think_ns: 1_000,
    batch_op_overhead_ns: 40.0,
};

/// Client-side retransmission timeout, nanoseconds: an outstanding request
/// is re-sent (possibly to a different coordinator) after this long without
/// a reply, which is how clients survive coordinator crashes.
pub(crate) const RETRY_TIMEOUT_NS: u64 = 100_000_000;

/// How long after a crash (or recovery) the trusted configuration service
/// notifies the surviving replicas, nanoseconds, via
/// [`crate::Replica::on_peer_down`] / [`crate::Replica::on_peer_up`].
pub(crate) const FAILURE_DETECTION_DELAY_NS: u64 = 15_000_000;

impl ProtocolCostModel {
    /// The virtual nanoseconds `work` costs a node with `profile`; the same
    /// integer is filed by category into `split`, added to whatever the
    /// breakdown already holds.
    pub fn cost(&self, profile: &CostProfile, work: Work, split: &mut CostBreakdown) -> u64 {
        let mut sum = Sum::new(split);
        match work {
            Work::Send { ops, bytes } => {
                self.push_message(&mut sum, profile, bytes);
                self.push_batch_overhead(&mut sum, ops);
            }
            Work::Recv { ops, bytes } => {
                self.push_message(&mut sum, profile, bytes);
                if ops <= 1 {
                    // An unbatched message truncates its message and
                    // application terms separately, as the seed did: a joint
                    // truncation can differ by 1 ns, which is enough to
                    // reorder events and break bit-for-bit parity of
                    // unbatched runs.
                    sum.cut();
                }
                self.push_batch_overhead(&mut sum, ops);
                let buffered = Self::frames_in_enclave(profile, ops) * bytes;
                self.push_app(&mut sum, profile, ops.max(1), buffered);
            }
            Work::Scan { entries, bytes } => {
                self.push_app(&mut sum, profile, entries, bytes);
                sum.push_as(CostCategory::Mac, bytes as f64 * self.mac_per_byte_ns);
            }
            Work::Import { entries, bytes } => {
                self.push_message(&mut sum, profile, bytes);
                self.push_app(&mut sum, profile, entries, bytes);
            }
            Work::TxnPrepare {
                ops,
                bytes,
                staged_bytes,
            } => {
                self.push_message(&mut sum, profile, bytes);
                self.push_app(&mut sum, profile, ops.max(1), staged_bytes);
            }
            Work::TxnCommit { writes, bytes } => {
                self.push_message(&mut sum, profile, 64);
                self.push_app(&mut sum, profile, writes, bytes);
                sum.push_as(CostCategory::Mac, bytes as f64 * self.mac_per_byte_ns);
            }
        }
        sum.total()
    }

    /// EPC paging pressure factor for a node holding `buffered_bytes` of
    /// payload buffers, staged chunks or staged transaction writes inside
    /// the enclave on top of its resident working set. Large frames of
    /// large values, monolithic snapshots and many large in-flight prepares
    /// all cross the EPC cliff the same way (§B.3) — which is why batches,
    /// migration chunks and prepares are bounded. Native execution never
    /// pays it.
    pub(crate) fn epc_pressure(&self, profile: &CostProfile, buffered_bytes: usize) -> f64 {
        if profile.exec == ExecMode::Native {
            return 1.0;
        }
        recipe_tee::epc::pressure(profile.epc_bytes, profile.resident_bytes + buffered_bytes)
    }

    /// How many frames of `ops` messages a node keeps enclave-resident at a
    /// time. Batching repacks the same in-flight op payloads into
    /// `inflight_messages / ops` frames — the resident population does not
    /// multiply with the frame size, but each frame is resident as a unit
    /// (at least one is).
    fn frames_in_enclave(profile: &CostProfile, ops: usize) -> usize {
        if ops <= 1 {
            profile.inflight_messages
        } else {
            (profile.inflight_messages / ops).max(1)
        }
    }

    /// The per-frame terms: transport, shield, signature, AEAD.
    fn push_message(&self, sum: &mut Sum<'_>, profile: &CostProfile, bytes: usize) {
        sum.push_as(
            CostCategory::Transport,
            self.net
                .message_cost_ns(profile.transport, profile.exec, bytes),
        );
        if profile.shielded {
            let mac_bytes = bytes as f64 * self.mac_per_byte_ns;
            sum.push(self.mac_ns + mac_bytes, |split, shield| {
                let mac = (mac_bytes as u64).min(shield);
                split.add(CostCategory::Mac, mac);
                split.add(CostCategory::CounterSlot, shield - mac);
            });
        }
        if profile.uses_signatures {
            sum.push_as(CostCategory::Signature, self.signature_ns);
        }
        if profile.confidential {
            sum.push_as(CostCategory::Aead, bytes as f64 * self.encrypt_per_byte_ns);
        }
    }

    /// The marginal dispatch cost of every op past a frame's first.
    fn push_batch_overhead(&self, sum: &mut Sum<'_>, ops: usize) {
        if ops > 1 {
            sum.push_as(
                CostCategory::BatchOverhead,
                (ops - 1) as f64 * self.batch_op_overhead_ns,
            );
        }
    }

    /// The application-work term, `ops × app_base × tee_mult × pressure`
    /// (request parsing, KV index work, queueing), the pressure that of
    /// `buffered_bytes` in the enclave. Its integer is split between base
    /// app work, the TEE-execution excess and the EPC-pressure excess
    /// (rounding crumbs land in the base slot).
    fn push_app(
        &self,
        sum: &mut Sum<'_>,
        profile: &CostProfile,
        ops: usize,
        buffered_bytes: usize,
    ) {
        let ops = ops as f64;
        let tee_mult = match profile.exec {
            ExecMode::Native => 1.0,
            ExecMode::Tee => self.tee_app_penalty,
        };
        let no_pressure = profile.app_base_ns * tee_mult;
        let per_op = no_pressure * self.epc_pressure(profile, buffered_bytes);
        sum.push(ops * per_op, |split, total| {
            let epc = ((ops * (per_op - no_pressure)) as u64).min(total);
            let tee = ((ops * (no_pressure - profile.app_base_ns)) as u64).min(total - epc);
            split.add(CostCategory::EpcPressure, epc);
            split.add(CostCategory::TeeExec, tee);
            split.add(CostCategory::App, total - epc - tee);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Recipe profile in confidential mode.
    fn confidential() -> CostProfile {
        CostProfile::recipe().with_confidentiality(recipe_core::ConfidentialityMode::Confidential)
    }

    /// What `work` charges, its split checked to add up to it.
    fn charged(m: &ProtocolCostModel, p: &CostProfile, work: Work) -> u64 {
        split_of(m, p, work).total()
    }

    fn send(m: &ProtocolCostModel, p: &CostProfile, ops: usize, bytes: usize) -> u64 {
        charged(m, p, Work::Send { ops, bytes })
    }

    fn recv(m: &ProtocolCostModel, p: &CostProfile, ops: usize, bytes: usize) -> u64 {
        charged(m, p, Work::Recv { ops, bytes })
    }

    fn split_of(m: &ProtocolCostModel, p: &CostProfile, work: Work) -> CostBreakdown {
        let mut split = CostBreakdown::new();
        let charged = m.cost(p, work, &mut split);
        assert_eq!(split.total(), charged);
        split
    }

    /// EPC pressure while receiving frames of `ops` messages in `bytes`.
    fn frame_pressure(m: &ProtocolCostModel, p: &CostProfile, ops: usize, bytes: usize) -> f64 {
        m.epc_pressure(p, ProtocolCostModel::frames_in_enclave(p, ops) * bytes)
    }

    #[test]
    fn sum_hands_out_integers_that_add_up_to_the_joint_truncation() {
        let parts = [
            (CostCategory::Transport, 1200.7),
            (CostCategory::CounterSlot, 380.0),
            (CostCategory::App, 100.4),
            (CostCategory::Aead, 281.6),
            (CostCategory::App, 100.4),
            (CostCategory::App, 100.4),
        ];
        let mut split = CostBreakdown::new();
        let mut sum = Sum::new(&mut split);
        for (cat, term) in parts {
            sum.push_as(cat, term);
        }
        let joint = parts.iter().map(|p| p.1).sum::<f64>() as u64;
        assert_eq!(sum.total(), joint);
        assert_eq!(split.total(), joint);
        // Every term lands within 1 ns of its own truncation, so a category
        // pushed three times is within 3 ns of its terms' truncations.
        assert_eq!(split.get(CostCategory::Transport), 1200);
        assert_eq!(split.get(CostCategory::CounterSlot), 380);
        assert!(split.get(CostCategory::Aead).abs_diff(281) <= 1);
        assert!(split.get(CostCategory::App).abs_diff(300) <= 3);

        // A cut truncates each side on its own, into a split that already
        // holds time: the sum files on top of it.
        let mut split = CostBreakdown::new();
        split.add(CostCategory::App, 7);
        let mut sum = Sum::new(&mut split);
        sum.push_as(CostCategory::Transport, 10.6);
        sum.cut();
        sum.push_as(CostCategory::App, 20.6);
        assert_eq!(sum.total(), 30);
        assert_eq!(split.total(), 37);
        assert_eq!(split.get(CostCategory::App), 27);
    }

    #[test]
    fn recipe_profile_is_cheaper_per_message_than_pbft() {
        let m = COST_MODEL;
        let recipe = recv(&m, &CostProfile::recipe(), 1, 256);
        let pbft = recv(&m, &CostProfile::pbft_baseline(), 1, 256);
        assert!(
            pbft > recipe,
            "PBFT per-message cost ({pbft}) should exceed Recipe's ({recipe})"
        );
    }

    #[test]
    fn native_cft_is_cheaper_than_recipe() {
        // Figure 6a: the transformation + TEE costs something (2x-15x end to end).
        let m = COST_MODEL;
        let native = recv(&m, &CostProfile::native_cft(), 1, 256);
        let recipe = recv(&m, &CostProfile::recipe(), 1, 256);
        let ratio = recipe as f64 / native as f64;
        assert!(ratio > 1.5, "ratio was {ratio:.2}");
        assert!(ratio < 20.0, "ratio was {ratio:.2}");
    }

    #[test]
    fn confidentiality_adds_cost_proportional_to_payload() {
        let m = COST_MODEL;
        let plain = recv(&m, &CostProfile::recipe(), 1, 1024);
        let conf = recv(&m, &confidential(), 1, 1024);
        assert!(conf > plain);
        let plain_small = recv(&m, &CostProfile::recipe(), 1, 64);
        let conf_small = recv(&m, &confidential(), 1, 64);
        assert!(conf - plain > conf_small - plain_small);
    }

    #[test]
    fn epc_pressure_kicks_in_for_large_values() {
        let m = COST_MODEL;
        let profile = CostProfile::recipe();
        let small = frame_pressure(&m, &profile, 1, 256);
        let large = frame_pressure(&m, &profile, 1, 4096);
        assert_eq!(small, 1.0);
        assert!(
            large > 1.0,
            "4 KiB payloads with batching should exceed the EPC"
        );
        // Reducing the batching factor relieves the pressure (the paper's mitigation
        // for 4 KiB values, §B.3).
        let little_batching = frame_pressure(&m, &profile.clone().with_inflight(4), 1, 4096);
        assert!(little_batching < large);
        // Native execution never pays EPC pressure.
        assert_eq!(m.epc_pressure(&CostProfile::native_cft(), 1 << 20), 1.0);
    }

    #[test]
    fn signature_baselines_pay_per_message() {
        let m = COST_MODEL;
        let mut signing = CostProfile::native_cft();
        signing.uses_signatures = true;
        assert!(
            recv(&m, &signing, 1, 64) as f64
                >= recv(&m, &CostProfile::native_cft(), 1, 64) as f64 + m.signature_ns * 0.9
        );
    }

    #[test]
    fn costs_scale_with_payload_size() {
        let m = COST_MODEL;
        let p = CostProfile::recipe();
        assert!(recv(&m, &p, 1, 4096) > recv(&m, &p, 1, 256));
        assert!(send(&m, &p, 1, 4096) > send(&m, &p, 1, 256));
    }

    #[test]
    fn fixed_overhead_is_charged_once_per_frame_not_once_per_op() {
        // The regression this pins: sending N ops as one frame must cost less
        // than sending N single messages of the same total payload, and the
        // saving must be at least the (N-1) repeated fixed MAC + transport
        // setup costs the unbatched path pays.
        let m = COST_MODEL;
        let profile = confidential();
        let per_op_bytes = 256usize;
        for ops in [4usize, 16, 64] {
            let frame_bytes = ops * per_op_bytes;
            let batched = send(&m, &profile, ops, frame_bytes);
            let unbatched = ops as u64 * send(&m, &profile, 1, per_op_bytes);
            assert!(
                batched < unbatched,
                "{ops} ops: batched {batched} !< unbatched {unbatched}"
            );
            let fixed_saving = ((ops - 1) as f64 * (m.mac_ns + m.net.directio_per_msg_ns)) as u64;
            assert!(
                unbatched - batched >= fixed_saving,
                "{ops} ops: saving {} < fixed saving {fixed_saving}",
                unbatched - batched
            );
        }
    }

    #[test]
    fn batch_recv_still_charges_application_work_per_op() {
        // Amortization covers the shield, not the application: receiving a
        // 16-op frame performs 16 ops' worth of app processing.
        let m = COST_MODEL;
        let profile = CostProfile::recipe();
        let ops = 16usize;
        let frame_bytes = ops * 256;
        let batched = recv(&m, &profile, ops, frame_bytes);
        let app_total = (ops as f64
            * profile.app_base_ns
            * m.tee_app_penalty
            * frame_pressure(&m, &profile, ops, frame_bytes)) as u64;
        assert!(
            batched >= app_total,
            "batched recv {batched} must include per-op app work {app_total}"
        );
        // And each extra op has a positive marginal cost (per-op dispatch).
        assert!(send(&m, &profile, ops + 1, frame_bytes) > send(&m, &profile, ops, frame_bytes));
    }

    #[test]
    fn epc_pressure_is_evaluated_per_frame() {
        // A 64-op frame of 4 KiB values keeps 256 KiB enclave-resident per
        // frame: the pressure term must see whole frames, so batch_recv grows
        // past the EPC cliff for large values — the paper's §B.3 trade-off.
        let m = COST_MODEL;
        let profile = CostProfile::recipe();
        let small_frame = frame_pressure(&m, &profile, 16, 16 * 64);
        let big_frame = frame_pressure(&m, &profile, 64, 64 * 4096);
        assert_eq!(small_frame, 1.0);
        assert!(big_frame > 1.0);
        // An unbatched message pressures with one buffer per in-flight op.
        assert_eq!(
            frame_pressure(&m, &profile, 1, 4096),
            m.epc_pressure(&profile, profile.inflight_messages * 4096)
        );
        // Batching does not multiply the resident op population: a batched
        // frame of N small ops pressures no more than N single messages.
        assert!(
            frame_pressure(&m, &profile, 16, 16 * 256)
                <= frame_pressure(&m, &profile, 1, 256) * 1.01
        );
    }

    #[test]
    fn migration_costs_scale_with_chunk_size_and_pay_epc_pressure() {
        let m = COST_MODEL;
        let profile = CostProfile::recipe();
        let scan = |entries, bytes| charged(&m, &profile, Work::Scan { entries, bytes });
        let import = |entries, bytes| charged(&m, &profile, Work::Import { entries, bytes });
        // More entries and more bytes cost more, on both legs.
        assert!(scan(256, 256 * 256) > scan(64, 64 * 256));
        assert!(import(256, 256 * 300) > import(64, 64 * 300));
        // Import includes the frame's shield verification: costlier than the
        // pure store work of exporting the same records.
        assert!(import(64, 64 * 300) > scan(64, 64 * 256) / 2);
        // A chunk small enough to fit the EPC stages at pressure 1.0; a
        // monolithic multi-megabyte snapshot crosses the cliff — the reason
        // the controller ships bounded chunks.
        assert_eq!(m.epc_pressure(&profile, 64 * 1024), 1.0);
        assert!(m.epc_pressure(&profile, 32 * 1024 * 1024) > 1.0);
        // Native nodes never pay EPC pressure.
        assert_eq!(m.epc_pressure(&CostProfile::native_cft(), 1 << 30), 1.0);
    }

    #[test]
    fn txn_costs_scale_with_ops_and_pay_epc_pressure_per_inflight_prepare() {
        let m = COST_MODEL;
        let profile = CostProfile::recipe();
        let prepare = |ops, bytes, staged_bytes| {
            let work = Work::TxnPrepare {
                ops,
                bytes,
                staged_bytes,
            };
            charged(&m, &profile, work)
        };
        let commit = |writes, bytes| charged(&m, &profile, Work::TxnCommit { writes, bytes });
        // More ops in a prepare cost more; the frame overhead is paid once.
        assert!(prepare(8, 8 * 256, 8 * 256) > prepare(2, 2 * 256, 2 * 256));
        let eight = prepare(8, 8 * 256, 8 * 256);
        let singles = 8 * prepare(1, 256, 256);
        assert!(
            eight < singles,
            "prepare frame must amortize: {eight} !< {singles}"
        );
        // Many large in-flight prepares cross the EPC cliff: the same prepare
        // costs more when the store already stages megabytes.
        let calm = prepare(4, 1024, 4 * 1024);
        let pressured = prepare(4, 1024, 64 * 1024 * 1024);
        assert!(
            pressured > calm,
            "EPC pressure must surface: {pressured} !> {calm}"
        );
        assert!(m.epc_pressure(&profile, 64 * 1024 * 1024) > 1.0);
        assert_eq!(m.epc_pressure(&CostProfile::native_cft(), 1 << 30), 1.0);
        // Commits charge per staged write.
        assert!(commit(8, 8 * 256) > commit(1, 256));
    }

    #[test]
    fn breakdown_categories_land_where_the_profile_says() {
        let m = COST_MODEL;
        // Plain native profile: transport + app only.
        let native = split_of(
            &m,
            &CostProfile::native_cft(),
            Work::Recv { ops: 1, bytes: 256 },
        );
        assert_eq!(native.get(CostCategory::CounterSlot), 0);
        assert_eq!(native.get(CostCategory::Mac), 0);
        assert_eq!(native.get(CostCategory::Aead), 0);
        assert_eq!(native.get(CostCategory::TeeExec), 0);
        assert_eq!(native.get(CostCategory::EpcPressure), 0);
        assert!(native.get(CostCategory::Transport) > 0);
        assert!(native.get(CostCategory::App) > 0);
        // Recipe: shield (counter slot + MAC bytes) and the TEE excess appear.
        let recipe = split_of(
            &m,
            &CostProfile::recipe(),
            Work::Recv { ops: 1, bytes: 256 },
        );
        assert!(recipe.get(CostCategory::CounterSlot) > 0);
        assert!(recipe.get(CostCategory::Mac) > 0);
        assert!(recipe.get(CostCategory::TeeExec) > 0);
        assert_eq!(recipe.get(CostCategory::Aead), 0);
        // Confidential adds AEAD proportional to the payload.
        let conf = split_of(
            &m,
            &confidential(),
            Work::Recv {
                ops: 1,
                bytes: 1024,
            },
        );
        assert!(conf.get(CostCategory::Aead) > 0);
        assert!(
            conf.get(CostCategory::Aead)
                > split_of(&m, &confidential(), Work::Recv { ops: 1, bytes: 64 })
                    .get(CostCategory::Aead)
        );
        // Signature baselines pay the signature slot.
        assert!(
            split_of(
                &m,
                &CostProfile::pbft_baseline(),
                Work::Recv { ops: 1, bytes: 64 }
            )
            .get(CostCategory::Signature)
                > 0
        );
        // EPC pressure shows up for large pressured frames, never for native.
        let big_frame = Work::Recv {
            ops: 64,
            bytes: 64 * 4096,
        };
        let pressured = split_of(&m, &CostProfile::recipe(), big_frame);
        assert!(pressured.get(CostCategory::EpcPressure) > 0);
        let unpressured = split_of(&m, &CostProfile::native_cft(), big_frame);
        assert_eq!(unpressured.get(CostCategory::EpcPressure), 0);
        // Batch frames carry the per-op dispatch overhead.
        assert!(pressured.get(CostCategory::BatchOverhead) > 0);
    }

    #[test]
    fn damysus_sits_between_recipe_and_pbft() {
        let m = COST_MODEL;
        let recipe = recv(&m, &CostProfile::recipe(), 1, 256);
        let damysus = recv(&m, &CostProfile::damysus_baseline(), 1, 256);
        let pbft = recv(&m, &CostProfile::pbft_baseline(), 1, 256);
        assert!(recipe < damysus, "recipe={recipe} damysus={damysus}");
        assert!(damysus < pbft, "damysus={damysus} pbft={pbft}");
    }
}
