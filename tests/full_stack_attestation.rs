//! End-to-end integration of the attestation phase with the frame path every
//! replica runs: protocol designer → CAS → enclave provisioning → shielded
//! frames between attested replicas (paper Figure 1, phases A and B).
//!
//! Each replica's enclave is launched, attested by one CAS, provisioned by
//! `run_remote_attestation` and wrapped in the `AuthLayer` a replica's shield
//! holds. Frames then travel as wire bytes, as `ProtocolShield::wrap_in` and
//! `unwrap` move them: `shield_to_wire` on the sender, `FrameView::parse` and
//! `verify_view` on the receiver.

use std::borrow::Cow;

use rand::SeedableRng;
use recipe::attest::{
    derive_channel_keys, run_remote_attestation, ClusterConfig, ConfigAndAttestService,
    SecretBundle,
};
use recipe::core::{AuthLayer, FrameView, RecipeError, ViewOutcome};
use recipe::crypto::{KeyMaterial, MacKey, SigningKeyPair};
use recipe::net::NodeId;
use recipe::tee::{Enclave, EnclaveConfig, EnclaveId, TeeError};

const CODE_IDENTITY: &str = "recipe-replica-v1";

/// The protocol-defined kind the test's replication frames carry.
const REPLICATE: u16 = 1;

fn launch(id: u64) -> Enclave {
    Enclave::launch(EnclaveId(id), EnclaveConfig::new(CODE_IDENTITY, id))
}

/// `n` replicas, each attested by one CAS and provisioned with its channel
/// keys — and, for a confidential group, the cipher key — then wrapped in
/// its authentication layer.
fn attested_cluster(n: usize, confidential: bool) -> Vec<AuthLayer> {
    let members: Vec<u64> = (0..n as u64).collect();
    let mut enclaves: Vec<Enclave> = members.iter().map(|&id| launch(id)).collect();
    let mut cas = ConfigAndAttestService::new(
        enclaves
            .iter()
            .map(|enclave| (enclave.config().platform_id, enclave.platform_vendor_key()))
            .collect(),
        7,
    );
    let master = MacKey::from_bytes([0x77; 32]);
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let mut config = ClusterConfig::for_replicas(n, (n - 1) / 2, CODE_IDENTITY);
    if confidential {
        config = config.confidential();
    }
    for (&id, enclave) in members.iter().zip(&mut enclaves) {
        let bundle = SecretBundle {
            node_id: id,
            signing_seed: SigningKeyPair::generate_from_seed(900 + id)
                .expose_secret()
                .to_vec(),
            channel_keys: derive_channel_keys(&master, &members, id),
            cipher_key: confidential.then(|| vec![0x11; 32]),
            config: config.clone(),
        };
        let outcome = run_remote_attestation(&mut cas, enclave, &bundle, &mut rng)
            .expect("attestation succeeds");
        assert_eq!(outcome.installed_channels.len(), 2 * (n - 1));
    }
    members
        .iter()
        .zip(enclaves)
        .map(|(&id, enclave)| AuthLayer::new(NodeId(id), enclave, confidential))
        .collect()
}

/// What a receiving replica's shield does with bytes off the wire.
fn deliver<'a>(receiver: &mut AuthLayer, bytes: &'a [u8]) -> ViewOutcome<'a> {
    let frame = FrameView::parse(bytes).expect("a well-formed frame");
    receiver.verify_view(frame)
}

fn message(kind: u16, payload: &[u8]) -> ViewOutcome<'_> {
    ViewOutcome::Message {
        kind,
        payload: Cow::Borrowed(payload),
    }
}

#[test]
fn attested_nodes_exchange_verified_messages() {
    let mut nodes = attested_cluster(3, false);
    let payload = b"append index=1 key=a";
    let bytes = nodes[0]
        .shield_to_wire(NodeId(2), REPLICATE, payload)
        .unwrap();
    // A replica the frame was not addressed to rejects it, and its channel
    // from the sender does not move.
    assert_eq!(deliver(&mut nodes[1], &bytes), ViewOutcome::Rejected);
    assert_eq!(nodes[1].rejection_counts(), (0, 1, 0));
    assert_eq!(nodes[1].recv_counter_from(NodeId(0)), 0);
    // The addressee accepts it.
    assert_eq!(deliver(&mut nodes[2], &bytes), message(REPLICATE, payload));
    assert_eq!(nodes[2].recv_counter_from(NodeId(0)), 1);
}

#[test]
fn five_replica_cluster_attests_and_replicates() {
    let mut nodes = attested_cluster(5, false);
    // Fan a message out from the coordinator to every follower.
    for dst in 1..5u64 {
        let payload = format!("entry for {dst}");
        let bytes = nodes[0]
            .shield_to_wire(NodeId(dst), 1, payload.as_bytes())
            .unwrap();
        let follower = &mut nodes[dst as usize];
        assert_eq!(deliver(follower, &bytes), message(1, payload.as_bytes()));
        assert_eq!(follower.recv_counter_from(NodeId(0)), 1);
    }
    assert!((1..5).all(|dst| nodes[0].send_counter_to(NodeId(dst)) == 1));
}

#[test]
fn confidential_cluster_hides_payloads_end_to_end() {
    let payload = b"ssn=123-45-6789";
    let carries_plaintext = |bytes: &[u8]| bytes.windows(payload.len()).any(|w| w == payload);

    let mut nodes = attested_cluster(3, true);
    let bytes = nodes[0].shield_to_wire(NodeId(1), 1, payload).unwrap();
    assert!(!carries_plaintext(&bytes));
    assert_eq!(deliver(&mut nodes[1], &bytes), message(1, payload));
    // The scan can fail: a plaintext group's frame carries the payload.
    let mut plain = attested_cluster(3, false);
    assert!(carries_plaintext(
        &plain[0].shield_to_wire(NodeId(1), 1, payload).unwrap()
    ));

    // An attested confidential replica seals its store under a key of its
    // own; an enclave never provisioned a cipher key has none to give.
    let store_keys: Vec<_> = nodes
        .iter()
        .map(|node| node.store_cipher_key().expect("a provisioned cipher key"))
        .collect();
    assert!(store_keys[0] != store_keys[1] && store_keys[1] != store_keys[2]);
    let never_provisioned = AuthLayer::new(NodeId(9), launch(9), true);
    for unkeyed in [&never_provisioned, &plain[0]] {
        assert!(matches!(
            unkeyed.store_cipher_key(),
            Err(RecipeError::Tee(TeeError::MissingSecret { .. }))
        ));
    }
}

#[test]
fn replay_across_nodes_is_rejected_once_accepted() {
    let mut nodes = attested_cluster(3, false);
    let bytes = nodes[0].shield_to_wire(NodeId(1), 1, b"only once").unwrap();
    assert_eq!(deliver(&mut nodes[1], &bytes), message(1, b"only once"));
    assert_eq!(deliver(&mut nodes[1], &bytes), ViewOutcome::Rejected);
    assert_eq!(nodes[1].rejection_counts(), (1, 0, 0));
    assert_eq!(nodes[1].recv_counter_from(NodeId(0)), 1);
}
