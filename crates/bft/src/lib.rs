//! Byzantine fault tolerant baselines used by the evaluation.
//!
//! The paper compares Recipe against two systems (§B.2):
//!
//! * **PBFT** (the BFT-Smart implementation) — a classical BFT protocol needing
//!   `3f + 1` replicas, three broadcast rounds (pre-prepare → prepare → commit) and
//!   O(n²) messages per request ([`pbft::PbftReplica`]).
//! * **Damysus** — a state-of-the-art TEE-assisted streamlined protocol (a HotStuff
//!   derivative) that uses trusted CHECKER/ACCUMULATOR components to run with
//!   `2f + 1` replicas and linear message complexity per phase, at the cost of a
//!   chained two-phase commit through the leader (`damysus::DamysusReplica`).
//!
//! Both baselines run on the same simulator, the same workload generator and the
//! same KV store as the Recipe protocols, so the comparisons in Figures 3–5 differ
//! only in protocol structure and in the per-node cost profiles motivated by
//! Table 2 (no direct I/O for either baseline, signatures for PBFT).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod damysus;
pub mod pbft;

pub use damysus::DamysusMsg;
use damysus::DamysusReplica;
pub use pbft::{PbftMsg, PbftReplica};

use recipe_protocols::{
    AbdReplica, AllConcurReplica, ChainReplica, Protocol, ProtocolVisitor, RaftReplica,
};

/// Runs `visitor` with the replica type of `protocol`: the one place a
/// protocol's name meets its type (see `recipe_protocols::Protocol`).
pub fn dispatch<V: ProtocolVisitor>(protocol: Protocol, visitor: V) -> V::Output {
    match protocol {
        Protocol::Raft => visitor.visit::<RaftReplica>(),
        Protocol::Chain => visitor.visit::<ChainReplica>(),
        Protocol::Abd => visitor.visit::<AbdReplica>(),
        Protocol::AllConcur => visitor.visit::<AllConcurReplica>(),
        Protocol::Pbft => visitor.visit::<PbftReplica>(),
        Protocol::Damysus => visitor.visit::<DamysusReplica>(),
    }
}

/// Descriptor of a replication protocol's resource properties (paper Table 2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolProperties {
    /// Display name.
    pub name: &'static str,
    /// Active replicas required to tolerate `f` faults.
    pub active_replicas: String,
    /// Total replicas required.
    pub total_replicas: String,
    /// Faults tolerated (resilience).
    pub resilience: &'static str,
    /// Message complexity per request.
    pub message_complexity: &'static str,
    /// Whether the protocol uses TEEs.
    pub uses_tees: bool,
    /// Whether the protocol uses direct I/O networking.
    pub uses_direct_io: bool,
    /// Fault model.
    pub fault_model: &'static str,
}

/// Replicas per fault of the cores Recipe transforms, run natively or
/// transformed: the build fails unless their four contracts agree.
const CFT_REPLICAS_PER_FAULT: usize = {
    let k = Protocol::Raft.replicas_per_fault();
    let mut i = 0;
    while i < Protocol::ALL.len() {
        let protocol = Protocol::ALL[i];
        assert!(!protocol.supports_confidential() || protocol.replicas_per_fault() == k);
        i += 1;
    }
    k
};

/// `k·f + 1` replicas, as Table 2 writes it.
fn replicas(k: usize) -> String {
    format!("{k}f+1")
}

/// The rows of Table 2, as data the bench harness prints. The replica cells
/// of the rows this tree runs come from the registry's contracts: PBFT's
/// from [`Protocol::Pbft`], the CFT rows' from the four transformed cores.
/// The MinBFT and FastBFT rows are the paper's text.
pub fn table2_rows() -> Vec<ProtocolProperties> {
    let pbft = replicas(Protocol::Pbft.replicas_per_fault());
    let cft = replicas(CFT_REPLICAS_PER_FAULT);
    vec![
        ProtocolProperties {
            name: "PBFT / HotStuff",
            active_replicas: pbft.clone(),
            total_replicas: pbft,
            resilience: "f",
            message_complexity: "O(n^2), O(n)",
            uses_tees: false,
            uses_direct_io: false,
            fault_model: "Byzantine",
        },
        ProtocolProperties {
            name: "MinBFT / Hybster",
            active_replicas: "2f+1".to_string(),
            total_replicas: "2f+1".to_string(),
            resilience: "f",
            message_complexity: "O(n^2)",
            uses_tees: true,
            uses_direct_io: false,
            fault_model: "Byzantine",
        },
        ProtocolProperties {
            name: "FastBFT / CheapBFT",
            active_replicas: "f+1".to_string(),
            total_replicas: "2f+1".to_string(),
            resilience: "0 (fallback)",
            message_complexity: "O(n), O(n^2)",
            uses_tees: true,
            uses_direct_io: false,
            fault_model: "Byzantine",
        },
        ProtocolProperties {
            name: "CFT (native)",
            active_replicas: cft.clone(),
            total_replicas: cft.clone(),
            resilience: "f",
            message_complexity: "protocol-dependent",
            uses_tees: false,
            uses_direct_io: true,
            fault_model: "Crash-stop",
        },
        ProtocolProperties {
            name: "Recipe",
            active_replicas: cft.clone(),
            total_replicas: cft,
            resilience: "f",
            message_complexity: "protocol-dependent",
            uses_tees: true,
            uses_direct_io: true,
            fault_model: "Byzantine",
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispatch_reaches_the_type_that_implements_the_protocol() {
        struct Implemented;
        impl ProtocolVisitor for Implemented {
            type Output = Protocol;
            fn visit<R: recipe_protocols::StoreReplica>(self) -> Protocol {
                R::PROTOCOL
            }
        }
        for protocol in Protocol::ALL {
            assert_eq!(dispatch(protocol, Implemented), protocol);
        }
    }
}
