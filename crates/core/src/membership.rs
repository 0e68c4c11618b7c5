//! Membership: the set of attested replicas and the quorum arithmetic over it.
//!
//! Recipe requires only `N ≥ 2f + 1` replicas — `f` fewer than classical BFT —
//! because the attested enclaves cannot equivocate (paper §1.4). The membership is
//! distributed as part of the attestation-time configuration and fixed for a
//! replica group's lifetime; a crashed member stays a member, and the chain roles
//! reform around it ([`Membership::chain_successor_live`]).

use recipe_net::NodeId;
use serde::{Deserialize, Serialize};

/// The replica membership of a Recipe deployment.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Membership {
    members: Vec<NodeId>,
    fault_threshold: usize,
    group: u64,
}

impl Membership {
    /// Builds a membership from the given nodes, tolerating `f` faults.
    ///
    /// Duplicate members are collapsed into one.
    ///
    /// # Panics
    /// Panics if `members` is empty.
    pub fn new(mut members: Vec<NodeId>, fault_threshold: usize) -> Self {
        assert!(!members.is_empty(), "membership cannot be empty");
        members.sort();
        members.dedup();
        Membership {
            members,
            fault_threshold,
            group: 0,
        }
    }

    /// Places the membership in replica group `group` of a deployment with
    /// several (a shard index). Replica ids are group-local — every group's
    /// run `0..n` — so whatever a deployment derives per replica from its id
    /// must take the group with it, or it comes out the same in every group.
    pub fn in_group(mut self, group: u64) -> Self {
        self.group = group;
        self
    }

    /// The replica group this membership is (0 unless placed by
    /// [`Membership::in_group`]).
    pub fn group(&self) -> u64 {
        self.group
    }

    /// Builds the common `2f + 1` membership with node ids `0..2f+1`.
    pub fn of_size(n: usize, fault_threshold: usize) -> Self {
        Membership::new((0..n as u64).map(NodeId).collect(), fault_threshold)
    }

    /// All members, sorted.
    pub fn members(&self) -> &[NodeId] {
        &self.members
    }

    /// Number of replicas.
    pub fn n(&self) -> usize {
        self.members.len()
    }

    /// Configured fault threshold `f`.
    pub fn f(&self) -> usize {
        self.fault_threshold
    }

    /// Majority quorum size.
    pub fn quorum(&self) -> usize {
        self.members.len() / 2 + 1
    }

    /// Position of `node` in [`Membership::members`], if it is a member.
    pub fn position(&self, node: NodeId) -> Option<usize> {
        self.members.binary_search(&node).ok()
    }

    /// Peers of `node` (everyone but itself).
    pub fn peers_of(&self, node: NodeId) -> Vec<NodeId> {
        self.members
            .iter()
            .copied()
            .filter(|&m| m != node)
            .collect()
    }

    /// Deterministic leader for a view: round-robin over the sorted membership.
    pub fn leader_for_view(&self, view: u64) -> NodeId {
        self.members[(view as usize) % self.members.len()]
    }

    // ------------------------------------------------------------------
    // Live-set chain roles (crash–recovery reconfiguration).
    //
    // Chain Replication orders its members ascending, head first, tail
    // last, and reconfigures around failed nodes through its external
    // master; here the trusted configuration service plays that role,
    // handing every replica the same `down` set, and the chain
    // deterministically reforms over the survivors in sorted order. With an
    // empty `down` set the chain is the whole membership.
    // ------------------------------------------------------------------

    /// Head of the live chain, `None` when every member is down.
    pub fn chain_head_live(&self, down: &[NodeId]) -> Option<NodeId> {
        self.members.iter().copied().find(|m| !down.contains(m))
    }

    /// Tail of the live chain, `None` when every member is down.
    pub fn chain_tail_live(&self, down: &[NodeId]) -> Option<NodeId> {
        self.members
            .iter()
            .copied()
            .rev()
            .find(|m| !down.contains(m))
    }

    /// Successor of `node` in the live chain: the next live member after it
    /// in sorted order, `None` when `node` is the live tail (or unknown).
    pub fn chain_successor_live(&self, node: NodeId, down: &[NodeId]) -> Option<NodeId> {
        let idx = self.members.iter().position(|&m| m == node)?;
        self.members[idx + 1..]
            .iter()
            .copied()
            .find(|m| !down.contains(m))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn quorum_arithmetic() {
        let m = Membership::of_size(3, 1);
        assert_eq!(m.n(), 3);
        assert_eq!(m.f(), 1);
        assert_eq!(m.quorum(), 2);
        assert_eq!(Membership::of_size(5, 2).quorum(), 3);
    }

    #[test]
    fn membership_and_peers() {
        let m = Membership::of_size(3, 1);
        assert_eq!(m.position(NodeId(0)), Some(0));
        assert_eq!(m.position(NodeId(7)), None);
        assert_eq!(m.peers_of(NodeId(1)), vec![NodeId(0), NodeId(2)]);
        assert_eq!(m.members(), &[NodeId(0), NodeId(1), NodeId(2)]);
    }

    #[test]
    fn leader_rotates_round_robin() {
        let m = Membership::of_size(3, 1);
        assert_eq!(m.leader_for_view(0), NodeId(0));
        assert_eq!(m.leader_for_view(1), NodeId(1));
        assert_eq!(m.leader_for_view(2), NodeId(2));
        assert_eq!(m.leader_for_view(3), NodeId(0));
    }

    #[test]
    fn live_chain_reforms_around_down_nodes() {
        // No failures: the chain is the membership in ascending order,
        // whatever order it was given in.
        let m = Membership::new(vec![NodeId(5), NodeId(1), NodeId(3)], 1);
        assert_eq!(m.chain_head_live(&[]), Some(NodeId(1)));
        assert_eq!(m.chain_tail_live(&[]), Some(NodeId(5)));
        assert_eq!(m.chain_successor_live(NodeId(1), &[]), Some(NodeId(3)));
        assert_eq!(m.chain_successor_live(NodeId(3), &[]), Some(NodeId(5)));
        assert_eq!(m.chain_successor_live(NodeId(5), &[]), None);
        assert_eq!(m.chain_successor_live(NodeId(9), &[]), None);

        let m = Membership::of_size(3, 1);
        // Head down: the next live member takes over; the relay is skipped.
        let down = [NodeId(0)];
        assert_eq!(m.chain_head_live(&down), Some(NodeId(1)));
        assert_eq!(m.chain_successor_live(NodeId(1), &down), Some(NodeId(2)));
        // Middle down: head forwards straight to the tail.
        let down = [NodeId(1)];
        assert_eq!(m.chain_successor_live(NodeId(0), &down), Some(NodeId(2)));
        // Tail down: the predecessor becomes tail (no successor).
        let down = [NodeId(2)];
        assert_eq!(m.chain_tail_live(&down), Some(NodeId(1)));
        assert_eq!(m.chain_successor_live(NodeId(1), &down), None);
        // Everyone down: no roles.
        let all = [NodeId(0), NodeId(1), NodeId(2)];
        assert_eq!(m.chain_head_live(&all), None);
        assert_eq!(m.chain_tail_live(&all), None);
    }

    #[test]
    fn duplicates_are_collapsed() {
        let m = Membership::new(vec![NodeId(1), NodeId(1), NodeId(2)], 0);
        assert_eq!(m.n(), 2);
    }

    #[test]
    #[should_panic(expected = "membership cannot be empty")]
    fn empty_membership_panics() {
        Membership::new(vec![], 0);
    }

    proptest! {
        #[test]
        fn quorums_always_intersect(n in 1usize..20) {
            // Any two majority quorums of the same membership share at least one node
            // — the property every protocol in the workspace relies on.
            let m = Membership::of_size(n, n.saturating_sub(1) / 2);
            let q = m.quorum();
            prop_assert!(q * 2 > n);
        }

        #[test]
        fn leader_is_always_a_member(n in 1usize..10, view in 0u64..1000) {
            let m = Membership::of_size(n, 0);
            prop_assert!(m.position(m.leader_for_view(view)).is_some());
        }
    }
}
