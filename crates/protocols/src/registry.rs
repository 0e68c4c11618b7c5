//! The protocol registry: every replication protocol of the evaluation by
//! name, with what a deployment may ask of it.
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
    /// BFT baselines are what they are.
    recipe: bool,
    /// Replicas per tolerated fault: `n >= k * f + 1`.
    replicas_per_fault: usize,
}

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
        let (file_name, display_name, supports_txn, recipe, replicas_per_fault) = match self {
            Protocol::Raft => ("raft", "R-Raft", true, true, 2),
            Protocol::Chain => ("chain", "R-CR", true, true, 2),
            Protocol::Abd => ("abd", "R-ABD", true, true, 2),
            Protocol::AllConcur => ("allconcur", "R-AllConcur", false, true, 2),
            Protocol::Pbft => ("pbft", "PBFT", true, false, 3),
            Protocol::Damysus => ("damysus", "Damysus", false, false, 2),
        };
        Entry {
            file_name,
            display_name,
            supports_txn,
            recipe,
            replicas_per_fault,
        }
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
    pub fn supports_confidential(self) -> bool {
        self.entry().recipe
    }

    /// Replicas the protocol needs per tolerated fault: the `k` of
    /// `n >= k * f + 1`.
    pub fn replicas_per_fault(self) -> usize {
        self.entry().replicas_per_fault
    }

    /// Fewest replicas a group tolerating `f` faults can have.
    pub fn min_replicas(self, f: usize) -> usize {
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
    /// without a Recipe transformation ignores `mode`, one without a
    /// batching pipeline ignores `batch`.
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

    #[test]
    fn only_pbft_needs_a_third_replica_per_fault() {
        for protocol in Protocol::ALL {
            let k = if protocol == Protocol::Pbft { 3 } else { 2 };
            assert_eq!(protocol.min_replicas(0), 1);
            assert_eq!(protocol.min_replicas(2), 2 * k + 1);
        }
    }
}
