//! Authenticated symmetric encryption (encrypt-then-MAC) for Recipe's
//! confidentiality mode.
//!
//! When Recipe runs with confidentiality enabled (paper Figure 5), every byte that
//! leaves the enclave — network payloads and KV values stored in host memory — is
//! encrypted and authenticated. The paper builds on OpenSSL; here we compose the
//! audited primitives we already depend on into a standard encrypt-then-MAC
//! construction:
//!
//! * keystream: `HMAC-SHA-256(k_enc, nonce || counter)` blocks XORed with the
//!   plaintext (a PRF in counter mode);
//! * integrity: `HMAC-SHA-256(k_mac, nonce || ciphertext)` appended as a tag and
//!   checked before any decryption output is released.
//!
//! This is not meant to compete with AES-GCM in throughput; it exists so the
//! confidentiality code path performs *real* encryption work whose cost scales with
//! payload size, which is what the Figure 5 experiment measures.
//!
//! # Cost
//!
//! Counted in SHA-256 compressions (one 64-byte block each), the unit every
//! figure here reduces to. Both sub-keys are [`MacKey`]s, so their HMAC pad
//! states are hashed when the [`Cipher`] is built, not per call:
//!
//! * keystream: **2 per 32 bytes** — the 40-byte `nonce || counter` input
//!   finishes one inner block, the outer hash is a second;
//! * tag: one per 64 bytes of ciphertext, plus 2;
//! * a 1 KiB `seal` or `open`: 64 + 18 = 82; building a `Cipher`: 10 — so
//!   build it once per key and keep it.

use serde::{Deserialize, Serialize};
use std::fmt;

use crate::mac::{MacKey, MacTag};
use crate::nonce::Nonce;
use crate::{CryptoError, KeyMaterial, DIGEST_LEN};

/// A symmetric cipher key (expands internally into independent encryption and MAC
/// sub-keys).
#[derive(Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CipherKey([u8; DIGEST_LEN]);

impl CipherKey {
    /// Builds a key from raw bytes.
    pub const fn from_bytes(bytes: [u8; DIGEST_LEN]) -> Self {
        CipherKey(bytes)
    }

    /// Generates a fresh key from the supplied RNG.
    pub fn generate<R: rand::RngCore>(rng: &mut R) -> Self {
        let mut bytes = [0u8; DIGEST_LEN];
        rng.fill_bytes(&mut bytes);
        CipherKey(bytes)
    }
}

impl KeyMaterial for CipherKey {
    fn expose_secret(&self) -> &[u8] {
        &self.0
    }
}

impl fmt::Debug for CipherKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CipherKey(…)")
    }
}

/// Ciphertext plus the metadata needed to decrypt and authenticate it.
#[derive(Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Ciphertext {
    /// Per-encryption nonce.
    pub nonce: Nonce,
    /// Encrypted payload bytes.
    pub bytes: Vec<u8>,
    /// Integrity tag over nonce and ciphertext.
    pub tag: [u8; DIGEST_LEN],
}

impl Ciphertext {
    /// Total serialized size in bytes (used by the network cost model).
    pub fn wire_len(&self) -> usize {
        Nonce::LEN + self.bytes.len() + DIGEST_LEN
    }
}

impl fmt::Debug for Ciphertext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Ciphertext({} bytes)", self.bytes.len())
    }
}

/// Stateless encrypt-then-MAC cipher.
#[derive(Clone, Debug)]
pub struct Cipher {
    enc_key: MacKey,
    mac_key: MacKey,
}

impl Cipher {
    /// Creates a cipher from a single master key, deriving independent encryption
    /// and authentication sub-keys.
    pub fn new(key: &CipherKey) -> Self {
        let master = MacKey::from_bytes(key.0);
        Cipher {
            enc_key: master.derive("recipe.cipher.enc"),
            mac_key: master.derive("recipe.cipher.mac"),
        }
    }

    /// Encrypts and authenticates `plaintext` using `nonce`.
    ///
    /// The caller is responsible for nonce uniqueness; Recipe derives nonces from the
    /// channel's trusted monotonic counter, which guarantees it.
    pub fn seal(&self, nonce: Nonce, plaintext: &[u8]) -> Ciphertext {
        let mut bytes = plaintext.to_vec();
        self.apply_keystream(&nonce, &mut bytes);
        let tag = self
            .mac_key
            .tag_parts(&[nonce.as_bytes(), &bytes])
            .as_bytes()
            .to_owned();
        Ciphertext { nonce, bytes, tag }
    }

    /// Verifies and decrypts `ciphertext`, returning the plaintext.
    pub fn open(&self, ciphertext: &Ciphertext) -> Result<Vec<u8>, CryptoError> {
        self.mac_key
            .verify_parts(
                &[ciphertext.nonce.as_bytes(), &ciphertext.bytes],
                &MacTag::from_bytes(ciphertext.tag),
            )
            .map_err(|_| CryptoError::CiphertextTampered)?;
        let mut bytes = ciphertext.bytes.clone();
        self.apply_keystream(&ciphertext.nonce, &mut bytes);
        Ok(bytes)
    }

    /// XORs `data` with the keystream `HMAC(k_enc, nonce || counter)`, 32 bytes
    /// per counter value.
    fn apply_keystream(&self, nonce: &Nonce, data: &mut [u8]) {
        // The MAC input is what `tag_parts(&[nonce, counter])` feeds: each part
        // behind its length as a little-endian u64. Only the counter changes
        // from block to block, so the rest is laid out once.
        const COUNTER_AT: usize = 8 + Nonce::LEN + 8;
        let mut input = [0u8; COUNTER_AT + 8];
        input[..8].copy_from_slice(&(Nonce::LEN as u64).to_le_bytes());
        input[8..8 + Nonce::LEN].copy_from_slice(nonce.as_bytes());
        input[8 + Nonce::LEN..COUNTER_AT].copy_from_slice(&8u64.to_le_bytes());
        for (counter, chunk) in (0u64..).zip(data.chunks_mut(DIGEST_LEN)) {
            input[COUNTER_AT..].copy_from_slice(&counter.to_le_bytes());
            let block = self.enc_key.tag(&input);
            for (byte, key) in chunk.iter_mut().zip(block.as_bytes()) {
                *byte ^= key;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;

    fn cipher() -> Cipher {
        Cipher::new(&CipherKey::from_bytes([3u8; 32]))
    }

    #[test]
    fn seal_open_roundtrip() {
        let c = cipher();
        let nonce = Nonce::from_u128(1);
        let ct = c.seal(nonce, b"secret value");
        assert_eq!(c.open(&ct).unwrap(), b"secret value");
    }

    #[test]
    fn ciphertext_differs_from_plaintext() {
        let c = cipher();
        let ct = c.seal(Nonce::from_u128(1), b"secret value");
        assert_ne!(ct.bytes, b"secret value");
    }

    #[test]
    fn distinct_nonces_give_distinct_ciphertexts() {
        let c = cipher();
        let a = c.seal(Nonce::from_u128(1), b"same plaintext");
        let b = c.seal(Nonce::from_u128(2), b"same plaintext");
        assert_ne!(a.bytes, b.bytes);
    }

    #[test]
    fn tampering_is_detected() {
        let c = cipher();
        let mut ct = c.seal(Nonce::from_u128(7), b"payload payload payload");
        ct.bytes[3] ^= 0xFF;
        assert_eq!(c.open(&ct), Err(CryptoError::CiphertextTampered));
    }

    #[test]
    fn tampered_nonce_is_detected() {
        let c = cipher();
        let mut ct = c.seal(Nonce::from_u128(7), b"payload");
        ct.nonce = Nonce::from_u128(8);
        assert_eq!(c.open(&ct), Err(CryptoError::CiphertextTampered));
    }

    #[test]
    fn tampered_tag_is_detected() {
        let c = cipher();
        let sealed = c.seal(Nonce::from_u128(7), b"payload");
        for byte in [0, DIGEST_LEN - 1] {
            let mut ct = sealed.clone();
            ct.tag[byte] ^= 1;
            assert_eq!(c.open(&ct), Err(CryptoError::CiphertextTampered));
        }
    }

    #[test]
    fn wrong_key_cannot_open() {
        let ct = cipher().seal(Nonce::from_u128(1), b"payload");
        let other = Cipher::new(&CipherKey::from_bytes([4u8; 32]));
        assert!(other.open(&ct).is_err());
    }

    #[test]
    fn empty_plaintext_roundtrip() {
        let c = cipher();
        let ct = c.seal(Nonce::from_u128(1), b"");
        assert_eq!(ct.wire_len(), Nonce::LEN + DIGEST_LEN);
        assert_eq!(c.open(&ct).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn generated_keys_are_random() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let a = CipherKey::generate(&mut rng);
        let b = CipherKey::generate(&mut rng);
        assert_ne!(a, b);
    }

    proptest! {
        #[test]
        fn roundtrip_arbitrary_payloads(data in proptest::collection::vec(any::<u8>(), 0..2048),
                                        nonce in any::<u128>()) {
            let c = cipher();
            let ct = c.seal(Nonce::from_u128(nonce), &data);
            prop_assert_eq!(c.open(&ct).unwrap(), data);
        }

        #[test]
        fn bit_flips_always_detected(data in proptest::collection::vec(any::<u8>(), 1..512),
                                     idx in any::<usize>(), bit in 0u8..8) {
            let c = cipher();
            let mut ct = c.seal(Nonce::from_u128(99), &data);
            let i = idx % ct.bytes.len();
            ct.bytes[i] ^= 1 << bit;
            prop_assert!(c.open(&ct).is_err());
        }
    }
}
