//! Property-based encodings of the three trace properties the paper verifies with
//! Tamarin (§4.3), checked over the authentication layer's behaviour instead of a
//! symbolic model:
//!
//! 1. every accepted message was previously sent by a trusted (attested) process;
//! 2. messages are accepted in the order they were sent;
//! 3. no message is accepted twice.

use std::borrow::Cow;

use proptest::prelude::*;
use recipe::core::{AuthLayer, FramePool, FrameView, Membership, ShieldedMessage, ViewOutcome};
use recipe::crypto::MacKey;
use recipe::protocols::ProtocolShield;
use recipe::tee::{Enclave, EnclaveConfig, EnclaveId};
use recipe_net::NodeId;

fn provisioned_pair() -> (AuthLayer, AuthLayer) {
    let master = MacKey::from_bytes([0x31; 32]);
    let mut e1 = Enclave::launch(EnclaveId(1), EnclaveConfig::new("code", 1));
    let mut e2 = Enclave::launch(EnclaveId(2), EnclaveConfig::new("code", 2));
    for label in ["cq:1->2", "cq:2->1"] {
        e1.provision_mac_key(label, master.derive(label)).unwrap();
        e2.provision_mac_key(label, master.derive(label)).unwrap();
    }
    (
        AuthLayer::new(NodeId(1), e1, false),
        AuthLayer::new(NodeId(2), e2, false),
    )
}

/// What a replica's shield does with `wire` off the network: it is verified
/// where it lies.
fn deliver<'a>(receiver: &mut AuthLayer, wire: &'a [u8]) -> ViewOutcome<'a> {
    receiver.verify_view(FrameView::parse(wire).expect("a well-formed frame"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Property 1 (safety/integrity): only messages genuinely produced by the
    /// attested sender are ever accepted — arbitrary attacker-crafted byte strings
    /// and mutations of honest messages are rejected.
    #[test]
    fn accepted_messages_originate_from_trusted_senders(
        payloads in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..64), 1..10),
        corruption in proptest::collection::vec(any::<u8>(), 1..64),
    ) {
        let (mut sender, mut receiver) = provisioned_pair();
        for payload in &payloads {
            let honest = sender.shield_to_wire(NodeId(2), 1, payload).unwrap();
            // Attacker-forged frame with the honest header but another body,
            // and no key to MAC it: rejected, and no counter moves.
            let mut forged = ShieldedMessage::from_wire(&honest).unwrap();
            forged.payload = corruption.clone();
            if forged.payload != *payload {
                let forged = forged.to_wire();
                let (accepted, (replays, bad_auth, view)) =
                    (receiver.recv_counter_from(NodeId(1)), receiver.rejection_counts());
                prop_assert_eq!(deliver(&mut receiver, &forged), ViewOutcome::Rejected);
                prop_assert_eq!(receiver.recv_counter_from(NodeId(1)), accepted);
                prop_assert_eq!(receiver.rejection_counts(), (replays, bad_auth + 1, view));
            }
            // The honest message is accepted.
            let expected = ViewOutcome::Message { kind: 1, payload: Cow::Borrowed(&payload[..]) };
            prop_assert_eq!(deliver(&mut receiver, &honest), expected);
        }
    }

    /// Property 2 (ordering): for any delivery permutation, the sequence of accepted
    /// (delivered-to-protocol) messages respects the send order.
    #[test]
    fn messages_are_accepted_in_send_order(n in 2usize..12, seed in any::<u64>()) {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let (mut sender, mut receiver) = provisioned_pair();
        let mut wires: Vec<Vec<u8>> = (0..n as u64)
            .map(|i| sender.shield_to_wire(NodeId(2), 1, &i.to_le_bytes()).unwrap())
            .collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        wires.shuffle(&mut rng);

        let index = |payload: &[u8]| u64::from_le_bytes(payload.try_into().unwrap());
        let mut accepted_order = Vec::new();
        for wire in &wires {
            match deliver(&mut receiver, wire) {
                ViewOutcome::Message { payload, .. } => accepted_order.push(index(&payload)),
                ViewOutcome::Buffered => {}
                other => prop_assert!(false, "unexpected outcome {:?}", other),
            }
            for (_, payload, _) in receiver.take_ready(NodeId(1)) {
                accepted_order.push(index(&payload));
            }
        }
        // Everything is eventually accepted, in exactly the send order.
        prop_assert_eq!(accepted_order, (0..n as u64).collect::<Vec<_>>());
    }

    /// Property 3 (freshness): no message is ever accepted twice, no matter how often
    /// the adversary replays it.
    #[test]
    fn no_message_is_accepted_twice(n in 1usize..10, replays in 1usize..5) {
        let (mut sender, mut receiver) = provisioned_pair();
        let wires: Vec<_> = (0..n)
            .map(|i| sender.shield_to_wire(NodeId(2), 1, format!("m{i}").as_bytes()).unwrap())
            .collect();
        let mut accepted = 0usize;
        for _ in 0..=replays {
            for wire in &wires {
                if matches!(deliver(&mut receiver, wire), ViewOutcome::Message { .. }) {
                    accepted += 1;
                }
                accepted += receiver.take_ready(NodeId(1)).len();
            }
        }
        prop_assert_eq!(accepted, n);
    }
}

/// The same freshness property holds at the protocol-shield level used by the
/// transformed protocols.
#[test]
fn shield_level_replays_are_rejected() {
    let membership = Membership::of_size(3, 1);
    let mut tx = ProtocolShield::recipe(NodeId(0), &membership, false);
    let mut rx = ProtocolShield::recipe(NodeId(1), &membership, false);
    let frames = &mut FramePool::default();
    let wire = tx.wrap_in(frames, NodeId(1), 1, 4, |w| {
        w.raw(b"once");
    });
    assert_eq!(rx.unwrap(NodeId(0), &mut wire.clone()).len(), 1);
    for _ in 0..5 {
        assert!(rx.unwrap(NodeId(0), &mut wire.clone()).is_empty());
    }
}
