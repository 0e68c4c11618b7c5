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
use crate::contract::{
    messages, traffic, Carries, Contract, Count, Framing, Messages, ReadPath, Role, Traffic, Wire,
};
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

/// The replicas that play no other role, or one message to each of them.
const OTHERS: Count = Count::peers(1);

/// R-Raft's leader per write: the client's request, an append and a commit
/// to each follower, and each follower's two acknowledgements.
const RAFT_LEADER: Traffic = traffic(
    true,
    messages(OTHERS, OTHERS),
    messages(Count::ZERO, Count::peers(2)),
);

/// R-Raft's contract.
const RAFT: Contract = Contract {
    replicas_per_fault: 2,
    batches: true,
    read_path: ReadPath::Leader,
    rotates: false,
    roles: &[
        Role {
            name: "leader",
            replicas: Count::ONE,
            write: RAFT_LEADER,
            read: Traffic::LOCAL,
            source: "Fig. 1: the leader appends to every follower, commits once a majority \
                     acknowledged and answers once a majority acknowledged the commit; it \
                     answers reads from its own store (§3.4)",
        },
        Role {
            name: "follower",
            replicas: OTHERS,
            write: traffic(
                false,
                messages(Count::ZERO, Count::TWO),
                messages(Count::ONE, Count::ONE),
            ),
            read: Traffic::IDLE,
            source: "Fig. 1: a follower acknowledges the append and the commit",
        },
    ],
    wire: Wire {
        control_words: 2,
        carrier_words: 4,
        carries: Carries::Entry,
        framing: Framing::Library,
    },
    source: "the paper's Fig. 1 and §3.4: per follower an append, its ack, a commit and \
             the commit's ack, 4(n−1), where textbook Raft carries the commit on the next \
             append and sends 2(n−1); reads answered by the leader (§3.4); 2f+1 (Table 2)",
};

/// R-CR's contract.
const CHAIN: Contract = Contract {
    replicas_per_fault: 2,
    batches: true,
    read_path: ReadPath::Tail,
    rotates: false,
    roles: &[
        Role {
            name: "head",
            replicas: Count::ONE,
            write: traffic(true, messages(Count::ONE, Count::ZERO), Messages::NONE),
            read: Traffic::IDLE,
            source: "van Renesse and Schneider: a write enters at the head, which \
                     forwards it",
        },
        Role {
            name: "middle",
            replicas: OTHERS.less_one(),
            write: traffic(
                false,
                messages(Count::ONE, Count::ZERO),
                messages(Count::ONE, Count::ZERO),
            ),
            read: Traffic::IDLE,
            source: "van Renesse and Schneider: each node forwards a write to its \
                     successor",
        },
        Role {
            name: "tail",
            replicas: Count::ONE,
            write: traffic(false, Messages::NONE, messages(Count::ONE, Count::ZERO)),
            read: Traffic::LOCAL,
            source: "van Renesse and Schneider: the tail answers a write once it holds \
                     it, and every read from its store",
        },
    ],
    wire: Wire {
        control_words: 0,
        carrier_words: 3,
        carries: Carries::Entry,
        framing: Framing::Library,
    },
    source: "Chain Replication (van Renesse and Schneider, OSDI '04) as the paper runs it \
             (§B.2, choice C): a write goes head to tail, one frame a hop, n−1; the tail \
             answers reads from a store Recipe lets it verify; 2f+1 (Table 2)",
};

/// R-ABD's contract.
const ABD: Contract = Contract {
    replicas_per_fault: 2,
    batches: false,
    read_path: ReadPath::Quorum,
    rotates: true,
    roles: &[
        Role {
            name: "coordinator",
            replicas: Count::ONE,
            write: traffic(
                true,
                messages(OTHERS, OTHERS),
                messages(Count::ZERO, Count::peers(2)),
            ),
            read: traffic(
                true,
                messages(Count::ZERO, OTHERS),
                messages(OTHERS, Count::ZERO),
            ),
            source: "Attiya, Bar-Noy and Dolev: a write asks every peer for the key's \
                     timestamp, then stores the value at every peer; a read asks every peer \
                     for value and timestamp; every peer answers each round",
        },
        Role {
            name: "peer",
            replicas: OTHERS,
            write: traffic(
                false,
                messages(Count::ZERO, Count::TWO),
                messages(Count::ONE, Count::ONE),
            ),
            read: traffic(
                false,
                messages(Count::ONE, Count::ZERO),
                messages(Count::ZERO, Count::ONE),
            ),
            source: "Attiya, Bar-Noy and Dolev: a peer answers the timestamp query, the \
                     store and the value query",
        },
    ],
    wire: Wire {
        control_words: 3,
        carrier_words: 3,
        carries: Carries::Entry,
        framing: Framing::Library,
    },
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
    rotates: true,
    roles: &[
        Role {
            name: "proposer",
            replicas: Count::ONE,
            write: traffic(
                true,
                messages(OTHERS, OTHERS),
                messages(Count::ZERO, OTHERS),
            ),
            read: Traffic::LOCAL,
            source: "§B.2, choice D: the proposer sends its write to every peer and, once \
                     every peer tracked it, a deliver; it answers reads from its own store",
        },
        Role {
            name: "peer",
            replicas: OTHERS,
            write: traffic(
                false,
                messages(Count::ZERO, Count::ONE),
                messages(Count::ONE, Count::ONE),
            ),
            read: Traffic::IDLE,
            source: "§B.2, choice D: a peer tracks the proposal back and applies it on the \
                     deliver",
        },
    ],
    wire: Wire {
        control_words: 1,
        carrier_words: 1,
        carries: Carries::Entry,
        framing: Framing::Library,
    },
    source: "AllConcur (Poke, Hoefler and Glass, HPDC '17) in the paper's simplified form \
             (§B.2, choice D): a proposal to every peer, each peer's track back and a \
             deliver, 3(n−1); reads local and sequentially consistent, as the paper \
             configures it; 2f+1 (Table 2); leaderless, so no one sender to batch on",
};

/// The PBFT primary per request: the client's request, a pre-prepare and a
/// commit to each backup, and each backup's prepare and commit.
const PBFT_PRIMARY: Traffic = traffic(
    true,
    messages(OTHERS, OTHERS),
    messages(Count::ZERO, Count::peers(2)),
);

/// A PBFT backup per request: the pre-prepare, a prepare from each other
/// backup and a commit from every other replica; its own prepare and commit
/// to every other replica.
const PBFT_BACKUP: Traffic = traffic(
    false,
    messages(Count::ZERO, Count::peers(2)),
    messages(Count::ONE, Count::peers(2).less_one()),
);

/// The PBFT baseline's contract.
const PBFT: Contract = Contract {
    replicas_per_fault: 3,
    batches: true,
    read_path: ReadPath::Agreement,
    rotates: false,
    roles: &[
        Role {
            name: "primary",
            replicas: Count::ONE,
            write: PBFT_PRIMARY,
            read: PBFT_PRIMARY,
            source: "Castro and Liskov §4.2: the primary multicasts the pre-prepare, which \
                     stands for its prepare, and a commit",
        },
        Role {
            name: "backup",
            replicas: OTHERS,
            write: PBFT_BACKUP,
            read: PBFT_BACKUP,
            source: "Castro and Liskov §4.2: a backup multicasts a prepare and a commit",
        },
    ],
    wire: Wire {
        control_words: 4,
        carrier_words: 2,
        carries: Carries::Request,
        framing: Framing::Bare,
    },
    source: "PBFT (Castro and Liskov, OSDI '99) as BFT-SMaRt runs it: the primary's \
             pre-prepare to the n−1 others, a prepare from each backup to its n−1 others \
             (the pre-prepare stands for the primary's) and a commit from all n, \
             (n−1) + (n−1)² + n(n−1) = 2n(n−1); reads agreed on like writes, since a BFT \
             client trusts no one reply; 3f+1 (Table 2); batched as BFT-SMaRt batches \
             requests",
};

/// The Damysus leader per request: the client's request, a proposal, a
/// prepare certificate and a decision to each replica, and each replica's
/// two votes.
const DAMYSUS_LEADER: Traffic = traffic(
    true,
    messages(OTHERS, Count::peers(2)),
    messages(Count::ZERO, Count::peers(2)),
);

/// A Damysus replica per request: the proposal, the certificate and the
/// decision in; its two votes out.
const DAMYSUS_REPLICA: Traffic = traffic(
    false,
    messages(Count::ZERO, Count::TWO),
    messages(Count::ONE, Count::TWO),
);

/// The Damysus baseline's contract.
const DAMYSUS: Contract = Contract {
    replicas_per_fault: 2,
    batches: false,
    read_path: ReadPath::Agreement,
    rotates: false,
    roles: &[
        Role {
            name: "leader",
            replicas: Count::ONE,
            write: DAMYSUS_LEADER,
            read: DAMYSUS_LEADER,
            source: "Decouchant et al.: the leader proposes, gathers the phase-1 votes into \
                     a prepare certificate, gathers the phase-2 votes and decides",
        },
        Role {
            name: "replica",
            replicas: OTHERS,
            write: DAMYSUS_REPLICA,
            read: DAMYSUS_REPLICA,
            source: "Decouchant et al.: a replica votes on the proposal and on the \
                     certificate",
        },
    ],
    wire: Wire {
        control_words: 2,
        carrier_words: 1,
        carries: Carries::Request,
        framing: Framing::Bare,
    },
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

    /// Summed over the role rows, each contract's frames per operation are
    /// its protocol's closed form for the whole group, every frame a role
    /// sends another role receives, and the roles cover the group.
    #[test]
    fn role_rows_sum_to_the_group_frames() {
        for n in 3..=9 {
            let peers = n - 1;
            let forms = [
                (Protocol::Raft, 4 * peers, 0),
                (Protocol::Chain, peers, 0),
                (Protocol::Abd, 4 * peers, 2 * peers),
                (Protocol::AllConcur, 3 * peers, 0),
                (Protocol::Pbft, 2 * n * peers, 2 * n * peers),
                (Protocol::Damysus, 5 * peers, 5 * peers),
            ];
            for (protocol, writes, reads) in forms {
                let contract = protocol.contract();
                assert_eq!(
                    contract.frames(n, false),
                    writes,
                    "{protocol:?} writes, n = {n}"
                );
                assert_eq!(
                    contract.frames(n, true),
                    reads,
                    "{protocol:?} reads, n = {n}"
                );
                for read in [false, true] {
                    let sent: usize = contract
                        .roles
                        .iter()
                        .map(|role| {
                            let traffic = if read { role.read } else { role.write };
                            role.replicas.at(n) * traffic.sent.at(n)
                        })
                        .sum();
                    let received = contract.frames(n, read);
                    assert_eq!(sent, received, "{protocol:?}, n = {n}, reads: {read}");
                }
                let replicas = contract.roles.iter().map(|role| role.replicas.at(n));
                assert_eq!(replicas.sum::<usize>(), n, "{protocol:?}, n = {n}");
            }
        }
    }

    /// ROADMAP's hand arithmetic from the golden cost table, run as code:
    /// at f = 1, half reads and 256-byte values, PBFT's primary, Damysus's
    /// leader and R-Raft's leader limit their groups within 1 % of the
    /// knees the full-size Fig. 4 and Damysus figures measured (4 670,
    /// 17 012 and 91 715 ops/s), and signatures are 85 % of PBFT's cost.
    #[test]
    fn capacities_match_the_measured_knees() {
        use recipe_telemetry::CostCategory;
        let mode = ProtocolMode::Recipe {
            confidentiality: recipe_core::ConfidentialityMode::Plaintext,
        };
        let capacity = |protocol: Protocol| {
            let (contract, n) = (protocol.contract(), protocol.min_replicas(1));
            let profile = protocol.cost_profile(mode);
            contract.capacity(n, &profile, 0.5, 8, 256, 1)
        };
        for (protocol, role, measured) in [
            (Protocol::Pbft, "primary", 4_670.0),
            (Protocol::Damysus, "leader", 17_012.0),
            (Protocol::Raft, "leader", 91_715.0),
        ] {
            let capacity = capacity(protocol);
            assert_eq!(capacity.role, role, "{protocol:?}");
            let off = capacity.ops_per_s / measured - 1.0;
            assert!(off.abs() < 0.01, "{protocol:?}: {capacity:?}");
        }
        let pbft = capacity(Protocol::Pbft);
        let signature_ns = pbft.ns_per_op[CostCategory::Signature as usize];
        let signatures = signature_ns * pbft.ops_per_s / 1e9;
        assert!((0.84..0.86).contains(&signatures), "{signatures:.3}");
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
