//! Authenticated symmetric encryption (encrypt-then-MAC) for Recipe's
//! confidentiality mode.
//!
//! When Recipe runs with confidentiality enabled (paper Figure 5), every byte that
//! leaves the enclave — network payloads and KV values stored in host memory — is
//! encrypted and authenticated. The paper builds on OpenSSL; here two standard
//! primitives are composed encrypt-then-MAC:
//!
//! * keystream: XChaCha20 under `k_enc` (draft-irtf-cfrg-xchacha) — the
//!   sub-key `HChaCha20(k_enc, nonce)`, then ChaCha20 blocks (RFC 8439) under
//!   that sub-key from block 0 on, XORed with the plaintext;
//! * integrity: `HMAC-SHA-256(k_mac, nonce || ciphertext)` appended as a tag and
//!   checked, in constant time, before any keystream is made.
//!
//! `k_enc` and `k_mac` are derived from the one [`CipherKey`] under separate
//! labels, so neither primitive ever sees the other's key.
//!
//! # Nonces
//!
//! XChaCha20 takes 24 nonce bytes: HChaCha20 folds the first 16 into the
//! sub-key and the last 8 go to ChaCha20 itself. A [`Nonce`] is 16 bytes, so it
//! fills the HChaCha20 input exactly and the last 8 are zero: every nonce gets
//! a sub-key of its own, and two nonces that differ anywhere — in the counter
//! half or in the `src`/`dst` half of a channel nonce — share no keystream.
//!
//! The contract is the usual one for a stream cipher: **a (key, nonce) pair
//! seals at most one message**. Sealing two under one pair gives away the XOR
//! of the plaintexts. The caller is responsible; Recipe derives nonces from a
//! channel's trusted monotonic counter, which guarantees it.
//!
//! # Cost
//!
//! Counted in block functions. A SHA-256 compression takes in 64 bytes, a
//! ChaCha20 block gives out 64, and HChaCha20 costs as much as one ChaCha20
//! block:
//!
//! * keystream: 1 HChaCha20 per message, then **1 block per 64 bytes** — made
//!   eight at a time where the CPU has AVX2 and at least 512 bytes are left,
//!   one at a time otherwise (`vendor/chacha20` picks from what the CPU
//!   reports);
//! * tag: one compression per 64 bytes of ciphertext, plus 2 (`k_mac` is a
//!   [`MacKey`], so its pad states are hashed when the [`Cipher`] is built);
//! * a 1 KiB `seal` or `open`: 1 HChaCha20 + 16 blocks + the 18-compression
//!   tag; building a `Cipher`: 8 compressions (the master key's pads, two
//!   derivations, `k_mac`'s pads) — `k_enc` is used as it is derived, with no
//!   state to set up.
//!
//! [`Cipher::seal_owned`] and [`Cipher::open_owned`] work in the buffer they
//! are given; [`Cipher::seal`] and [`Cipher::open`] copy the borrowed input
//! first and are otherwise the same.

use chacha20::XChaCha20;
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
#[derive(Clone)]
pub struct Cipher {
    enc_key: chacha20::Key,
    mac_key: MacKey,
}

impl fmt::Debug for Cipher {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Cipher(…)")
    }
}

impl Cipher {
    /// Creates a cipher from a single master key, deriving independent encryption
    /// and authentication sub-keys.
    pub fn new(key: &CipherKey) -> Self {
        let master = MacKey::from_bytes(key.0);
        Cipher {
            // The 32 bytes `master.derive("recipe.cipher.enc")` would hold,
            // without the HMAC pad state a ChaCha20 key has no use for.
            enc_key: *master.tag(b"recipe.cipher.enc").as_bytes(),
            mac_key: master.derive("recipe.cipher.mac"),
        }
    }

    /// Encrypts and authenticates `plaintext` using `nonce`.
    ///
    /// The caller is responsible for nonce uniqueness; Recipe derives nonces from the
    /// channel's trusted monotonic counter, which guarantees it.
    pub fn seal(&self, nonce: Nonce, plaintext: &[u8]) -> Ciphertext {
        self.seal_owned(nonce, plaintext.to_vec())
    }

    /// [`Cipher::seal`] for a caller that owns the plaintext: it is encrypted
    /// where it lies and becomes the ciphertext's bytes.
    pub fn seal_owned(&self, nonce: Nonce, mut bytes: Vec<u8>) -> Ciphertext {
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
        self.open_owned(ciphertext.clone())
    }

    /// [`Cipher::open`] for a caller that owns the ciphertext: its bytes are
    /// decrypted where they lie and returned. Nothing is decrypted unless the
    /// tag verifies.
    pub fn open_owned(&self, ciphertext: Ciphertext) -> Result<Vec<u8>, CryptoError> {
        self.mac_key
            .verify_parts(
                &[ciphertext.nonce.as_bytes(), &ciphertext.bytes],
                &MacTag::from_bytes(ciphertext.tag),
            )
            .map_err(|_| CryptoError::CiphertextTampered)?;
        let mut bytes = ciphertext.bytes;
        self.apply_keystream(&ciphertext.nonce, &mut bytes);
        Ok(bytes)
    }

    /// XORs `data` with the XChaCha20 keystream of `k_enc` and `nonce`: the 16
    /// nonce bytes are the whole HChaCha20 input, the 8 left over are zero.
    fn apply_keystream(&self, nonce: &Nonce, data: &mut [u8]) {
        let mut extended = [0u8; 24];
        extended[..Nonce::LEN].copy_from_slice(nonce.as_bytes());
        XChaCha20::new(&self.enc_key, &extended).apply_keystream(data);
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

    /// The keystream a nonce selects, read off the ciphertext of zeros.
    fn keystream(nonce: Nonce) -> Vec<u8> {
        cipher().seal_owned(nonce, vec![0u8; 256]).bytes
    }

    /// Bits in which `a` and `b` differ: about half of them for unrelated
    /// keystreams (1 024 ± 23 of 2 048 here), few or a pattern for related ones.
    fn differing_bits(a: &[u8], b: &[u8]) -> u32 {
        a.iter().zip(b).map(|(x, y)| (x ^ y).count_ones()).sum()
    }

    #[test]
    fn nonces_differing_in_either_half_give_unrelated_keystreams() {
        // A channel nonce is `src | dst | counter`, high bytes first: the
        // counter fills the low eight bytes, the channel the high eight.
        let base = 0x0000_0001_0000_0002_0000_0000_0000_0007_u128;
        let streams = [
            keystream(Nonce::from_u128(base)),
            // Only the counter moves, by one.
            keystream(Nonce::from_u128(base + 1)),
            // Only the channel half moves: other `dst`, other `src`.
            keystream(Nonce::from_u128(base ^ (1 << 64))),
            keystream(Nonce::from_u128(base ^ (1 << 96))),
        ];
        for (i, a) in streams.iter().enumerate() {
            for b in &streams[i + 1..] {
                let differing = differing_bits(a, b);
                assert!((850..=1200).contains(&differing), "{differing} bits");
                // No block of one is a block of the other either.
                for block in a.chunks(64) {
                    assert!(b.chunks(64).all(|other| other != block));
                }
            }
        }
    }

    proptest! {
        #[test]
        fn owned_and_borrowing_calls_agree(
            data in proptest::collection::vec(any::<u8>(), 0..1200),
            nonce in any::<u128>(),
        ) {
            let c = cipher();
            let nonce = Nonce::from_u128(nonce);
            let sealed = c.seal(nonce, &data);
            prop_assert_eq!(&c.seal_owned(nonce, data.clone()), &sealed);
            prop_assert_eq!(c.open(&sealed).unwrap(), data.clone());
            prop_assert_eq!(c.open_owned(sealed).unwrap(), data);
        }
    }

    #[test]
    fn open_owned_rejects_what_open_rejects() {
        let c = cipher();
        let mut ct = c.seal(Nonce::from_u128(7), b"payload payload payload");
        ct.bytes[3] ^= 0xFF;
        assert_eq!(c.open_owned(ct), Err(CryptoError::CiphertextTampered));
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
