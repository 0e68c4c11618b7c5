//! Collision-resistant hashing.
//!
//! Recipe hashes payloads before signing/MACing them (Algorithm 1's
//! `signed_hash`), hashes enclave code to produce measurements, and hashes stored
//! values for integrity verification in the partitioned KV store.

use serde::{Deserialize, Serialize};
use sha2::{Digest as Sha2Digest, Sha256};
use std::fmt;

use crate::DIGEST_LEN;

/// A 256-bit SHA-256 digest.
///
/// `Digest` is `Copy` and ordered so it can be used directly as a map key, a KV-store
/// integrity tag, or an enclave measurement.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Digest([u8; DIGEST_LEN]);

impl Digest {
    /// The all-zero digest, used as a sentinel for "no value yet".
    pub const ZERO: Digest = Digest([0u8; DIGEST_LEN]);

    /// Returns the digest bytes.
    pub fn as_bytes(&self) -> &[u8; DIGEST_LEN] {
        &self.0
    }

    /// Returns a short hexadecimal prefix, handy for logging.
    pub fn short_hex(&self) -> String {
        self.0[..6].iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Hex-encodes the full digest.
    pub fn to_hex(&self) -> String {
        self.0.iter().map(|b| format!("{b:02x}")).collect()
    }
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest({}…)", self.short_hex())
    }
}

impl AsRef<[u8]> for Digest {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

/// Hashes a single byte string with SHA-256.
pub fn sha256(data: &[u8]) -> Digest {
    let mut hasher = Sha256::new();
    hasher.update(data);
    Digest(hasher.finalize().into())
}

/// Hashes the concatenation of several byte strings, length-prefixing each part so
/// that `hash_parts(&[a, b])` and `hash_parts(&[a ++ b])` are distinct.
pub fn hash_parts(parts: &[&[u8]]) -> Digest {
    let mut hasher = Hasher::new();
    for part in parts {
        hasher.update(&(part.len() as u64).to_le_bytes());
        hasher.update(part);
    }
    hasher.finalize()
}

/// Incremental SHA-256 hasher.
///
/// A thin wrapper over [`sha2::Sha256`] that returns Recipe's [`Digest`] type.
#[derive(Clone, Default)]
pub struct Hasher {
    inner: Sha256,
}

impl Hasher {
    /// Creates an empty hasher.
    pub(crate) fn new() -> Self {
        Hasher {
            inner: Sha256::new(),
        }
    }

    /// Feeds more data into the hasher.
    pub(crate) fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Consumes the hasher and returns the digest.
    pub(crate) fn finalize(self) -> Digest {
        Digest(self.inner.finalize().into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn sha256_matches_known_vector() {
        // SHA-256("abc")
        let digest = sha256(b"abc");
        assert_eq!(
            digest.to_hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn zero_digest_is_all_zero() {
        assert!(Digest::ZERO.as_bytes().iter().all(|&b| b == 0));
    }

    #[test]
    fn incremental_hash_equals_one_shot() {
        let mut hasher = Hasher::new();
        hasher.update(b"hello ");
        hasher.update(b"world");
        assert_eq!(hasher.finalize(), sha256(b"hello world"));
    }

    #[test]
    fn hash_parts_is_not_plain_concatenation() {
        assert_ne!(hash_parts(&[b"ab", b"c"]), hash_parts(&[b"a", b"bc"]));
        assert_ne!(hash_parts(&[b"abc"]), sha256(b"abc"));
    }

    #[test]
    fn debug_and_hex_render() {
        let d = sha256(b"xyz");
        assert_eq!(d.to_hex().len(), 64);
        assert!(format!("{d:?}").starts_with("Digest("));
        assert_eq!(d.short_hex().len(), 12);
    }

    proptest! {
        #[test]
        fn hashing_is_deterministic(data in proptest::collection::vec(any::<u8>(), 0..512)) {
            prop_assert_eq!(sha256(&data), sha256(&data));
        }

        #[test]
        fn distinct_inputs_rarely_collide(a in proptest::collection::vec(any::<u8>(), 0..64),
                                          b in proptest::collection::vec(any::<u8>(), 0..64)) {
            prop_assume!(a != b);
            prop_assert_ne!(sha256(&a), sha256(&b));
        }

        #[test]
        fn parts_roundtrip_determinism(parts in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..32), 0..8)) {
            let refs: Vec<&[u8]> = parts.iter().map(|p| p.as_slice()).collect();
            prop_assert_eq!(hash_parts(&refs), hash_parts(&refs));
        }
    }
}
