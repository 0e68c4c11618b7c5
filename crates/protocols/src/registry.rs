//! The protocol registry: every replication protocol of the evaluation by
//! name, with what a deployment may ask of it and the [`Contract`] it keeps.
//!
//! Scenario validation, the scenario runner and every benchmark figure select
//! a protocol through [`Protocol`] and reach its replica type through a
//! [`ProtocolVisitor`]. The one `match` from a protocol to its replica type
//! is `recipe_bft::dispatch`: the BFT baselines live in a crate of their own
//! that builds on this one, so it is the lowest place that sees all six.

use recipe_core::Membership;
use recipe_sim::CostProfile;
use serde::{Deserialize, Serialize};

use crate::batch::BatchConfig;
use crate::shield::ProtocolMode;
use crate::store::StoreReplica;

/// A replication protocol a run can name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Protocol {
    /// Raft (leader-based, total order).
    Raft,
    /// Chain Replication (leader-based, per-key order).
    Chain,
    /// ABD (leaderless, per-key order).
    Abd,
    /// AllConcur (leaderless, total order).
    AllConcur,
    /// The PBFT (BFT-Smart) baseline.
    Pbft,
    /// The Damysus baseline.
    Damysus,
}

/// One registry line.
struct Entry {
    file_name: &'static str,
    display_name: &'static str,
    /// Holds a single-key request back while a prepared transaction locks
    /// its key, which is what two-phase locking asks of a participant.
    supports_txn: bool,
    /// Has a Recipe transformation (and with it a confidential mode); the
    /// BFT baselines are what they are. With the mode it gives the fault
    /// model: crash-stop natively, Byzantine under Recipe and for a baseline.
    recipe: bool,
    contract: Contract,
}

/// What a protocol promises, stated once: how many replicas it needs, whether
/// it batches, how it answers a read, and the frames between replicas a
/// committed operation costs. `tests/protocol_agreement.rs` runs every
/// protocol against its contract, each transformed core natively and under
/// Recipe, so the transformation leaving the message complexity alone is a
/// checked statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Contract {
    /// Replicas per tolerated fault: the `k` of `n = k·f + 1`.
    pub replicas_per_fault: usize,
    /// Sends through the batching pipeline. A leader-based protocol funnels
    /// every write through one sender, which is where coalescing pays. A
    /// protocol that does not batch is refused a batch config
    /// (`ShardedCluster::build`, scenario validation) rather than left to
    /// drop it.
    pub batches: bool,
    /// Where a read is answered, and with it what the answer promises.
    pub read_path: ReadPath,
    /// Frames per committed write.
    pub write_frames: FrameForm,
    /// The protocol's paper, figure or section behind each field.
    pub source: &'static str,
}

impl Contract {
    /// Frames per committed read: none where one replica answers from its
    /// own store, a write's where reads are agreed on like writes.
    pub const fn read_frames(&self) -> FrameForm {
        match self.read_path {
            ReadPath::Leader | ReadPath::Tail | ReadPath::Local => FrameForm::NONE,
            ReadPath::Quorum(round) => round,
            ReadPath::Agreement => self.write_frames,
        }
    }
}

/// Where a protocol answers a read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadPath {
    /// The leader, from its own store: linearizable while it leads its view.
    Leader,
    /// The chain's tail, which holds committed writes only: linearizable.
    Tail,
    /// A coordinator asks a majority, in this round; when the answers
    /// disagree it writes the newest back before it answers: linearizable.
    Quorum(FrameForm),
    /// Any replica, from its own store: sequentially consistent.
    Local,
    /// Ordered like a write, since a client trusts no one replica's answer.
    Agreement,
}

/// Frames between the replicas of a group of `n` per committed operation:
/// `(linear + quadratic·n)·(n−1)`, batched or not: a batch of `b` ops is
/// `b` of them in one message ([`recipe_sim::RunStats::ops_delivered`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameForm {
    /// Frames on each of the `n−1` links between one replica and the
    /// others: a broadcast, or the replies to one.
    linear: usize,
    /// Frames on each of the `n·(n−1)` ordered pairs of replicas: an
    /// all-to-all round.
    quadratic: usize,
}

impl FrameForm {
    /// No frame: the operation is answered where it arrives.
    const NONE: FrameForm = FrameForm::linear(0);

    /// `rounds·(n−1)` frames.
    const fn linear(rounds: usize) -> FrameForm {
        FrameForm {
            linear: rounds,
            quadratic: 0,
        }
    }

    /// The frames at group size `n`.
    pub const fn at(self, n: usize) -> usize {
        (self.linear + self.quadratic * n) * (n - 1)
    }
}

/// R-Raft's contract.
const RAFT: Contract = Contract {
    replicas_per_fault: 2,
    batches: true,
    read_path: ReadPath::Leader,
    write_frames: FrameForm::linear(4),
    source: "the paper's Fig. 1 and §3.4: per follower an append, its ack, a commit and \
             the commit's ack, 4(n−1), where textbook Raft carries the commit on the next \
             append and sends 2(n−1); reads answered by the leader (§3.4); 2f+1 (Table 2)",
};

/// R-CR's contract.
const CHAIN: Contract = Contract {
    replicas_per_fault: 2,
    batches: true,
    read_path: ReadPath::Tail,
    write_frames: FrameForm::linear(1),
    source: "Chain Replication (van Renesse and Schneider, OSDI '04) as the paper runs it \
             (§B.2, choice C): a write goes head to tail, one frame a hop, n−1; the tail \
             answers reads from a store Recipe lets it verify; 2f+1 (Table 2)",
};

/// R-ABD's contract.
const ABD: Contract = Contract {
    replicas_per_fault: 2,
    batches: false,
    read_path: ReadPath::Quorum(FrameForm::linear(2)),
    write_frames: FrameForm::linear(4),
    source: "ABD (Attiya, Bar-Noy and Dolev, JACM '95), the paper's §B.2 choice A: a write \
             asks for the key's timestamp, then stores the value, each a round to and from \
             the n−1 others, 4(n−1); a read is one such round, 2(n−1), and a write-back \
             round when the majority disagrees; 2f+1 (Table 2); leaderless, so no one \
             sender to batch on",
};

/// R-AllConcur's contract.
const ALLCONCUR: Contract = Contract {
    replicas_per_fault: 2,
    batches: false,
    read_path: ReadPath::Local,
    write_frames: FrameForm::linear(3),
    source: "AllConcur (Poke, Hoefler and Glass, HPDC '17) in the paper's simplified form \
             (§B.2, choice D): a proposal to every peer, each peer's track back and a \
             deliver, 3(n−1); reads local and sequentially consistent, as the paper \
             configures it; 2f+1 (Table 2); leaderless, so no one sender to batch on",
};

/// The PBFT baseline's contract.
const PBFT: Contract = Contract {
    replicas_per_fault: 3,
    batches: true,
    read_path: ReadPath::Agreement,
    write_frames: FrameForm {
        linear: 0,
        quadratic: 2,
    },
    source: "PBFT (Castro and Liskov, OSDI '99) as BFT-SMaRt runs it: the primary's \
             pre-prepare to the n−1 others, a prepare from each backup to its n−1 others \
             (the pre-prepare stands for the primary's) and a commit from all n, \
             (n−1) + (n−1)² + n(n−1) = 2n(n−1); reads agreed on like writes, since a BFT \
             client trusts no one reply; 3f+1 (Table 2); batched as BFT-SMaRt batches \
             requests",
};

/// The Damysus baseline's contract.
const DAMYSUS: Contract = Contract {
    replicas_per_fault: 2,
    batches: false,
    read_path: ReadPath::Agreement,
    write_frames: FrameForm::linear(5),
    source: "Damysus (Decouchant et al., EuroSys '22), its steady state: a proposal, the \
             phase-1 votes, a prepare certificate, the phase-2 votes and the decision, each \
             between the leader and the n−1 others, 5(n−1); reads agreed on like writes; \
             2f+1, its trusted CHECKER and ACCUMULATOR ruling out equivocation; running \
             unbatched is this tree's choice, not yet checked against the Damysus paper's \
             setup, which is not in this repository",
};

impl Protocol {
    /// Every protocol, the four the paper transforms first.
    pub const ALL: [Protocol; 6] = [
        Protocol::Raft,
        Protocol::Chain,
        Protocol::Abd,
        Protocol::AllConcur,
        Protocol::Pbft,
        Protocol::Damysus,
    ];

    /// The registry: one line per protocol, in [`Entry`]'s field order.
    const fn entry(self) -> Entry {
        let (file_name, display_name, supports_txn, recipe, contract) = match self {
            Protocol::Raft => ("raft", "R-Raft", true, true, RAFT),
            Protocol::Chain => ("chain", "R-CR", true, true, CHAIN),
            Protocol::Abd => ("abd", "R-ABD", true, true, ABD),
            Protocol::AllConcur => ("allconcur", "R-AllConcur", false, true, ALLCONCUR),
            Protocol::Pbft => ("pbft", "PBFT", true, false, PBFT),
            Protocol::Damysus => ("damysus", "Damysus", false, false, DAMYSUS),
        };
        Entry {
            file_name,
            display_name,
            supports_txn,
            recipe,
            contract,
        }
    }

    /// What the protocol promises: replicas, batching, read path and frames
    /// per operation.
    pub const fn contract(self) -> Contract {
        self.entry().contract
    }

    /// The name scenario files and summaries use.
    pub fn file_name(self) -> &'static str {
        self.entry().file_name
    }

    /// The name figures print: the Recipe transformation's, or the
    /// baseline's own.
    pub fn display_name(self) -> &'static str {
        self.entry().display_name
    }

    /// The protocol scenario files call `name`.
    pub fn from_file_name(name: &str) -> Option<Protocol> {
        Protocol::ALL.into_iter().find(|p| p.file_name() == name)
    }

    /// Whether groups of this protocol can take part in cross-shard
    /// transactions.
    pub fn supports_txn(self) -> bool {
        self.entry().supports_txn
    }

    /// Whether the protocol has a confidential mode.
    pub const fn supports_confidential(self) -> bool {
        self.entry().recipe
    }

    /// Replicas the protocol needs per tolerated fault: the `k` of
    /// `n >= k * f + 1` ([`Contract::replicas_per_fault`]).
    pub const fn replicas_per_fault(self) -> usize {
        self.contract().replicas_per_fault
    }

    /// Whether the protocol sends through the batching pipeline
    /// ([`Contract::batches`]).
    pub const fn batches(self) -> bool {
        self.contract().batches
    }

    /// Fewest replicas a group tolerating `f` faults can have.
    pub const fn min_replicas(self, f: usize) -> usize {
        self.replicas_per_fault() * f + 1
    }

    /// The hardware and software stack the protocol runs on in `mode`
    /// (Table 2): a BFT baseline has its own whatever the mode, a CFT
    /// protocol its mode's.
    pub fn cost_profile(self, mode: ProtocolMode) -> CostProfile {
        match (self, mode) {
            (Protocol::Pbft, _) => CostProfile::pbft_baseline(),
            (Protocol::Damysus, _) => CostProfile::damysus_baseline(),
            (_, ProtocolMode::Native) => CostProfile::native_cft(),
            (_, ProtocolMode::Recipe { confidentiality }) => {
                CostProfile::recipe().with_confidentiality(confidentiality)
            }
        }
    }
}

/// A replica type the registry can construct: the one way a deployment, a
/// scenario or a figure builds a replica.
pub trait BuildReplica: StoreReplica + Sized {
    /// Builds replica `id` of the group `membership` describes. A protocol
    /// without a Recipe transformation ignores `mode`. A protocol without a
    /// batching pipeline ([`Protocol::batches`]) is given an unbatched
    /// `batch`: `ShardedCluster::build` refuses to build it under a policy
    /// that batches.
    fn build(id: u64, membership: Membership, mode: ProtocolMode, batch: BatchConfig) -> Self;
}

/// Code that runs against a protocol's replica type, chosen at run time by
/// `recipe_bft::dispatch`: the generic function a `match` over protocol
/// names would call in every arm, written once.
pub trait ProtocolVisitor {
    /// What the visit returns.
    type Output;

    /// Runs with `R` the replica type of the chosen protocol
    /// (`R::PROTOCOL`).
    fn visit<R: BuildReplica>(self) -> Self::Output;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_parse_back() {
        for protocol in Protocol::ALL {
            assert_eq!(
                Protocol::from_file_name(protocol.file_name()),
                Some(protocol)
            );
            let same_display = |p: &Protocol| p.display_name() == protocol.display_name();
            assert_eq!(Protocol::ALL.iter().filter(|p| same_display(p)).count(), 1);
        }
        assert_eq!(Protocol::from_file_name("paxos"), None);
    }

    #[test]
    fn a_baseline_keeps_its_profile_and_a_cft_protocol_takes_its_modes() {
        use recipe_core::ConfidentialityMode::{Confidential, Plaintext};
        let modes = [
            ProtocolMode::Native,
            ProtocolMode::Recipe {
                confidentiality: Plaintext,
            },
            ProtocolMode::Recipe {
                confidentiality: Confidential,
            },
        ];
        for protocol in Protocol::ALL {
            for mode in modes {
                let profile = protocol.cost_profile(mode);
                if protocol.supports_confidential() {
                    assert_eq!(profile.shielded, mode.is_recipe(), "{protocol:?}");
                    let confidential = mode.confidentiality().is_confidential();
                    assert_eq!(profile.confidential, confidential, "{protocol:?}");
                } else {
                    let baseline = protocol.cost_profile(ProtocolMode::Native);
                    assert_eq!(profile, baseline, "{protocol:?}");
                }
            }
        }
    }
}
