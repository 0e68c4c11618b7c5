//! Secrets and configuration provisioned to attested replicas.
//!
//! After a successful attestation the challenger provisions (paper §3.6, A.7–A.8):
//! the node's signing-key seed, one MAC key per communication channel, the
//! value-encryption key (confidential mode), and the membership configuration. The
//! bundle travels encrypted under the key derived from the attestation-time
//! Diffie-Hellman exchange, so only the attested enclave can open it.

use std::collections::BTreeMap;

use recipe_crypto::{Cipher, Ciphertext, MacKey, Nonce, SharedSecret};
use serde::{Deserialize, Serialize};

use crate::error::AttestError;

/// Static cluster configuration distributed to every attested replica.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClusterConfig {
    /// Ids of all replicas in the membership, in ascending order.
    pub members: BTreeMap<u64, String>,
    /// Number of faults the deployment is sized to tolerate (N ≥ 2f + 1).
    pub fault_threshold: usize,
    /// Code identity every replica must attest to.
    pub code_identity: String,
    /// Whether the deployment runs in confidential mode.
    pub confidential: bool,
}

impl ClusterConfig {
    /// Builds a configuration for `n` replicas named `replica-<id>` tolerating `f`
    /// faults.
    pub fn for_replicas(n: usize, f: usize, code_identity: impl Into<String>) -> Self {
        let members = (0..n as u64)
            .map(|id| (id, format!("replica-{id}")))
            .collect();
        ClusterConfig {
            members,
            fault_threshold: f,
            code_identity: code_identity.into(),
            confidential: false,
        }
    }

    /// Enables confidential mode.
    pub fn confidential(mut self) -> Self {
        self.confidential = true;
        self
    }
}

/// Everything a replica needs to participate, produced by the protocol designer /
/// CAS for one specific node.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SecretBundle {
    /// The node this bundle is intended for.
    pub node_id: u64,
    /// Seed of the node's Ed25519 signing key (32 bytes).
    pub signing_seed: Vec<u8>,
    /// Per-channel MAC keys: `channel label → key`. Labels follow
    /// `recipe_net::ChannelId::label()` (`cq:<src>-><dst>`).
    pub channel_keys: BTreeMap<String, MacKey>,
    /// Value/message encryption key for confidential mode (32 bytes), if enabled.
    pub cipher_key: Option<Vec<u8>>,
    /// Cluster configuration.
    pub config: ClusterConfig,
}

impl SecretBundle {
    /// Serializes and encrypts the bundle under the attestation shared secret.
    pub(crate) fn seal(&self, shared: &SharedSecret) -> Ciphertext {
        let cipher = Cipher::new(&shared.derive_cipher_key("recipe.attest.provisioning"));
        // recipe-lint: allow(unwrap-in-lib, reason = "serializing the self-owned bundle cannot fail")
        let plaintext = serde_json::to_vec(self).expect("bundle serializes");
        cipher.seal(Nonce::from_view_counter(0xA77E, self.node_id), &plaintext)
    }

    /// Decrypts and parses a bundle inside the attested enclave.
    pub(crate) fn open(
        shared: &SharedSecret,
        sealed: &Ciphertext,
    ) -> Result<SecretBundle, AttestError> {
        let cipher = Cipher::new(&shared.derive_cipher_key("recipe.attest.provisioning"));
        let plaintext = cipher
            .open(sealed)
            .map_err(|_| AttestError::ProvisioningFailed)?;
        serde_json::from_slice(&plaintext).map_err(|_| AttestError::ProvisioningFailed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use recipe_crypto::EphemeralSecret;

    fn bundle() -> SecretBundle {
        let mut channel_keys = BTreeMap::new();
        channel_keys.insert("cq:0->1".to_owned(), MacKey::from_bytes([1u8; 32]));
        channel_keys.insert("cq:1->0".to_owned(), MacKey::from_bytes([2u8; 32]));
        SecretBundle {
            node_id: 1,
            signing_seed: vec![7u8; 32],
            channel_keys,
            cipher_key: Some(vec![9u8; 32]),
            config: ClusterConfig::for_replicas(3, 1, "raft-replica-v1"),
        }
    }

    fn shared_pair() -> (SharedSecret, SharedSecret) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let a = EphemeralSecret::generate(&mut rng);
        let b = EphemeralSecret::generate(&mut rng);
        (a.derive_shared(&b.public()), b.derive_shared(&a.public()))
    }

    #[test]
    fn cluster_config_is_plaintext_until_marked_confidential() {
        let config = ClusterConfig::for_replicas(3, 1, "code");
        assert!(!config.confidential);
        assert!(config.confidential().confidential);
    }

    #[test]
    fn bundle_seal_open_roundtrip() {
        let (challenger_side, enclave_side) = shared_pair();
        let sealed = bundle().seal(&challenger_side);
        let opened = SecretBundle::open(&enclave_side, &sealed).unwrap();
        assert_eq!(opened, bundle());
    }

    #[test]
    fn bundle_cannot_be_opened_with_wrong_secret() {
        let (challenger_side, _) = shared_pair();
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        let eavesdropper = EphemeralSecret::generate(&mut rng);
        let other = eavesdropper.derive_shared(&EphemeralSecret::generate(&mut rng).public());
        let sealed = bundle().seal(&challenger_side);
        assert_eq!(
            SecretBundle::open(&other, &sealed),
            Err(AttestError::ProvisioningFailed)
        );
    }

    #[test]
    fn tampered_bundle_is_rejected() {
        let (challenger_side, enclave_side) = shared_pair();
        let mut sealed = bundle().seal(&challenger_side);
        let idx = sealed.bytes.len() / 2;
        sealed.bytes[idx] ^= 0xFF;
        assert_eq!(
            SecretBundle::open(&enclave_side, &sealed),
            Err(AttestError::ProvisioningFailed)
        );
    }
}
