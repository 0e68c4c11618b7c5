//! Ed25519 signatures.
//!
//! Signatures provide *transferable* authentication: a quote or client request signed
//! once can be verified by any replica holding the signer's public key, including for
//! forwarded messages (paper §1.2, Property 1). Recipe uses them for
//! attestation quotes (the simulated `EGETKEY`-derived hardware key signs the
//! measurement), for client request certificates, and wherever a proof must be
//! checkable by third parties rather than only the channel peer.

use ed25519_dalek::{Signer, Verifier};
use serde::{Deserialize, Serialize};
use std::fmt;

use crate::{CryptoError, KeyMaterial};

/// Length of an Ed25519 public key in bytes.
pub const PUBLIC_KEY_LEN: usize = 32;
/// Length of an Ed25519 signature in bytes.
pub const SIGNATURE_LEN: usize = 64;

/// An Ed25519 key pair held inside a (simulated) TEE.
#[derive(Clone)]
pub struct SigningKeyPair {
    signing: ed25519_dalek::SigningKey,
}

impl SigningKeyPair {
    /// Generates a deterministic key pair from a seed.
    ///
    /// Used throughout the simulator so that experiments are reproducible; a given
    /// node id always maps to the same key material.
    pub fn generate_from_seed(seed: u64) -> Self {
        let mut bytes = [0u8; 32];
        bytes[..8].copy_from_slice(&seed.to_le_bytes());
        bytes[8..16].copy_from_slice(&seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).to_le_bytes());
        bytes[16..24].copy_from_slice(&seed.rotate_left(17).to_le_bytes());
        bytes[24..32].copy_from_slice(&seed.wrapping_add(0xDEAD_BEEF).to_le_bytes());
        SigningKeyPair {
            signing: ed25519_dalek::SigningKey::from_bytes(&bytes),
        }
    }

    /// Restores a key pair from its 32-byte secret seed.
    pub fn from_secret_bytes(bytes: &[u8]) -> Result<Self, CryptoError> {
        if bytes.len() != 32 {
            return Err(CryptoError::InvalidLength {
                what: "ed25519 secret key",
                expected: 32,
                actual: bytes.len(),
            });
        }
        let mut seed = [0u8; 32];
        seed.copy_from_slice(bytes);
        Ok(SigningKeyPair {
            signing: ed25519_dalek::SigningKey::from_bytes(&seed),
        })
    }

    /// Signs a message.
    pub fn sign(&self, message: &[u8]) -> Signature {
        Signature(self.signing.sign(message).to_bytes())
    }

    /// Returns the corresponding public (verification) key.
    pub fn public(&self) -> PublicKey {
        PublicKey(self.signing.verifying_key().to_bytes())
    }
}

impl KeyMaterial for SigningKeyPair {
    fn expose_secret(&self) -> &[u8] {
        self.signing.as_bytes()
    }
}

impl fmt::Debug for SigningKeyPair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SigningKeyPair(pub={:?})", self.public())
    }
}

/// An Ed25519 public key, safe to distribute to every replica and client.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PublicKey([u8; PUBLIC_KEY_LEN]);

impl PublicKey {
    /// Verifies `signature` over `message`.
    pub fn verify(&self, message: &[u8], signature: &Signature) -> Result<(), CryptoError> {
        let key = ed25519_dalek::VerifyingKey::from_bytes(&self.0)
            .map_err(|_| CryptoError::MalformedKey)?;
        let sig = ed25519_dalek::Signature::from_bytes(&signature.0);
        key.verify(message, &sig)
            .map_err(|_| CryptoError::BadSignature)
    }
}

impl fmt::Debug for PublicKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let hex: String = self.0[..6].iter().map(|b| format!("{b:02x}")).collect();
        write!(f, "PublicKey({hex}…)")
    }
}

/// A detached Ed25519 signature.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Signature([u8; SIGNATURE_LEN]);

impl Signature {
    /// Wraps raw signature bytes.
    pub fn from_bytes(bytes: [u8; SIGNATURE_LEN]) -> Self {
        Signature(bytes)
    }

    /// Parses a signature from a slice, validating length.
    pub(crate) fn try_from_slice(bytes: &[u8]) -> Result<Self, CryptoError> {
        if bytes.len() != SIGNATURE_LEN {
            return Err(CryptoError::InvalidLength {
                what: "ed25519 signature",
                expected: SIGNATURE_LEN,
                actual: bytes.len(),
            });
        }
        let mut out = [0u8; SIGNATURE_LEN];
        out.copy_from_slice(bytes);
        Ok(Signature(out))
    }

    /// Returns the raw signature bytes.
    pub fn as_bytes(&self) -> &[u8; SIGNATURE_LEN] {
        &self.0
    }
}

impl fmt::Debug for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let hex: String = self.0[..6].iter().map(|b| format!("{b:02x}")).collect();
        write!(f, "Signature({hex}…)")
    }
}

// The 64-byte signature array is serialized by hand as a plain byte sequence
// (the vendored serde stand-in has no `with = "module"` support, and arrays
// this long would otherwise need a const-generic detour).
impl Serialize for Signature {
    fn to_value(&self) -> serde::Value {
        self.0.as_slice().to_value()
    }
}

impl Deserialize for Signature {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let bytes = Vec::<u8>::from_value(v)?;
        Signature::try_from_slice(&bytes)
            .map_err(|_| serde::Error::custom("signature must be 64 bytes"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn sign_verify_roundtrip() {
        let keys = SigningKeyPair::generate_from_seed(1);
        let sig = keys.sign(b"hello");
        assert!(keys.public().verify(b"hello", &sig).is_ok());
    }

    #[test]
    fn verify_rejects_tampered_message() {
        let keys = SigningKeyPair::generate_from_seed(1);
        let sig = keys.sign(b"hello");
        assert_eq!(
            keys.public().verify(b"hellO", &sig),
            Err(CryptoError::BadSignature)
        );
    }

    #[test]
    fn verify_rejects_other_signer() {
        let alice = SigningKeyPair::generate_from_seed(1);
        let bob = SigningKeyPair::generate_from_seed(2);
        let sig = alice.sign(b"hello");
        assert_eq!(
            bob.public().verify(b"hello", &sig),
            Err(CryptoError::BadSignature)
        );
    }

    #[test]
    fn deterministic_seed_generates_same_keys() {
        let a = SigningKeyPair::generate_from_seed(42);
        let b = SigningKeyPair::generate_from_seed(42);
        assert_eq!(a.public(), b.public());
        let c = SigningKeyPair::generate_from_seed(43);
        assert_ne!(a.public(), c.public());
    }

    #[test]
    fn secret_roundtrip() {
        let a = SigningKeyPair::generate_from_seed(7);
        let restored = SigningKeyPair::from_secret_bytes(a.expose_secret()).unwrap();
        assert_eq!(a.public(), restored.public());
        assert!(SigningKeyPair::from_secret_bytes(&[1, 2, 3]).is_err());
    }

    #[test]
    fn slices_validate_length() {
        assert!(Signature::try_from_slice(&[0u8; 63]).is_err());
        let keys = SigningKeyPair::generate_from_seed(9);
        let sig = keys.sign(b"m");
        assert!(Signature::try_from_slice(sig.as_bytes()).is_ok());
    }

    #[test]
    fn signatures_are_transferable() {
        // A third party that only ever saw the public key can verify a forwarded
        // message — the transferable authentication property.
        let signer = SigningKeyPair::generate_from_seed(5);
        let sig = signer.sign(b"forwarded request");
        let forwarded_pubkey: PublicKey = signer.public();
        assert!(forwarded_pubkey.verify(b"forwarded request", &sig).is_ok());
    }

    proptest! {
        #[test]
        fn roundtrip_arbitrary_messages(msg in proptest::collection::vec(any::<u8>(), 0..512),
                                        seed in any::<u64>()) {
            let keys = SigningKeyPair::generate_from_seed(seed);
            let sig = keys.sign(&msg);
            prop_assert!(keys.public().verify(&msg, &sig).is_ok());
        }

        #[test]
        fn flipped_signature_bit_rejected(msg in proptest::collection::vec(any::<u8>(), 1..64),
                                          idx in 0usize..64, bit in 0u8..8) {
            let keys = SigningKeyPair::generate_from_seed(11);
            let sig = keys.sign(&msg);
            let mut bytes = *sig.as_bytes();
            bytes[idx] ^= 1 << bit;
            let tampered = Signature::from_bytes(bytes);
            prop_assert!(keys.public().verify(&msg, &tampered).is_err());
        }
    }
}
