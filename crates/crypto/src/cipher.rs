//! Symmetric encryption for Recipe's confidentiality mode: a stream cipher,
//! and a self-contained authenticated envelope around it.
//!
//! When Recipe runs with confidentiality enabled (paper Figure 5), every byte that
//! leaves the enclave — network payloads and KV values stored in host memory — is
//! encrypted and authenticated. The paper builds on OpenSSL; here two standard
//! primitives are composed encrypt-then-MAC:
//!
//! * keystream: XChaCha20 under `k_enc` (draft-irtf-cfrg-xchacha) — the
//!   sub-key `HChaCha20(k_enc, nonce[..16])`, then ChaCha20 blocks (RFC 8439)
//!   under that sub-key with `0⁴ ‖ nonce[16..]` as their nonce, from block 0
//!   on, XORed with the plaintext;
//! * integrity: a MAC over the ciphertext, checked in constant time before
//!   any keystream is made.
//!
//! Who computes the MAC depends on where the ciphertext goes, and every sealed
//! byte has exactly one authenticator:
//!
//! * **[`Cipher::seal`] / [`Cipher::open`]** — the self-contained envelope,
//!   for ciphertext nothing else vouches for (`recipe-tee` sealed blobs,
//!   `recipe-attest` provisioned secrets). The tag is
//!   `HMAC-SHA-256(k_mac, nonce || ciphertext)`, carried in the [`Ciphertext`].
//! * **[`Cipher::apply_keystream`]** — the keystream alone, for a caller that
//!   authenticates the ciphertext itself: a shielded frame's MAC covers the
//!   ciphertext, the sequence tuple the nonce is derived from and
//!   [`Cipher::key_commitment`] (`recipe-core`); the partitioned store keeps
//!   an enclave-resident digest over key, nonce and stored bytes
//!   (`recipe-kv`). A second tag over the same bytes would buy nothing and
//!   is how a tag once ended up outside the MAC that was checked first.
//!
//! `k_enc`, `k_mac` and the key commitment are derived from the one
//! [`CipherKey`] under separate labels, so no primitive ever sees another's
//! key.
//!
//! # Nonces
//!
//! XChaCha20 takes 24 nonce bytes ([`XNonce`]): HChaCha20 folds the first 16
//! into the sub-key and the last 8 go to ChaCha20 itself. The envelope's
//! [`Nonce`] is 16 bytes, so it fills the HChaCha20 input exactly and the last
//! 8 are zero ([`Nonce::extended`]): every nonce gets a sub-key of its own, and
//! two nonces that differ anywhere share no keystream. A frame uses all 24:
//! `src ‖ dst` for the first 16, the same for every frame of a channel, and
//! the channel's counter for the last 8. [`Cipher::bind`] makes the sub-key
//! of a 16-byte prefix once, and the [`BoundCipher`] it returns runs the
//! keystream of `prefix ‖ tail` for any 8-byte `tail` without another
//! HChaCha20; [`Cipher::apply_keystream`] is bind-then-apply, so the two are
//! one keystream by construction.
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
//! * keystream: 1 HChaCha20 per message — or per [`BoundCipher`], for
//!   every message under one nonce prefix — then **1 block per 64 bytes**,
//!   made sixteen at a time where the CPU has AVX-512 — every whole 1 KiB, a
//!   rest of nine blocks or more as one more such step, and one of two to
//!   eight as one eight-block step — eight at a time where it has AVX2 alone
//!   — every whole 512 bytes, and a rest of more than two blocks as one more
//!   step — and one at a time otherwise (`vendor/chacha20` picks from what
//!   the CPU reports);
//! * the envelope's tag: one compression per 64 bytes of ciphertext, plus 2
//!   (`k_mac` is a [`MacKey`], so its pad states are hashed when the
//!   [`Cipher`] is built);
//! * a 1 KiB [`Cipher::apply_keystream`]: 1 HChaCha20 + 16 blocks, and that
//!   is all a sealed stored value pays the cipher; a sealed frame pays the
//!   16 blocks alone, its channel's [`BoundCipher`] having paid the
//!   HChaCha20 once. Their one authenticator hashes the ciphertext once, as
//!   it would hash the plaintext of an unsealed one;
//! * a 1 KiB `seal` or `open`: the same keystream **plus the 18-compression
//!   tag**, paid only by the envelope's users — sealed blobs and provisioned
//!   secrets, both off the per-operation path;
//! * building a `Cipher`: 10 compressions (the master key's pads, two
//!   derivations, `k_mac`'s pads, the key commitment) — `k_enc` is used as it
//!   is derived, with no state to set up.
//!
//! [`Cipher::seal_owned`] and [`Cipher::open_owned`] work in the buffer they
//! are given; [`Cipher::seal`] and [`Cipher::open`] copy the borrowed input
//! first and are otherwise the same.

use chacha20::ChaCha20;
use serde::{Deserialize, Serialize};
use std::fmt;

use crate::mac::{MacKey, MacTag};
use crate::nonce::{Nonce, XNonce};
use crate::{CryptoError, KeyMaterial, DIGEST_LEN};

/// Label the key commitment is derived under. Declared as a domain so
/// `recipe-lint` holds it disjoint from every MAC domain in the workspace.
const KEY_COMMITMENT_DOMAIN: &[u8] = b"recipe.cipher_commit.v1";

/// What [`Cipher::key_commitment`] returns.
pub type KeyCommitment = [u8; DIGEST_LEN];

/// A symmetric cipher key (expands internally into independent encryption and MAC
/// sub-keys).
#[derive(Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CipherKey([u8; DIGEST_LEN]);

impl CipherKey {
    /// Builds a key from raw bytes.
    pub const fn from_bytes(bytes: [u8; DIGEST_LEN]) -> Self {
        CipherKey(bytes)
    }

    /// Derives a sub-key bound to `parts` — a domain label, then what the
    /// sub-key is for — the way [`MacKey::derive`] does for channel keys, so
    /// one provisioned secret can back independent ciphers (a replica
    /// group's, a replica's store). The parts are length-prefixed, which
    /// also keeps the input apart from the labels [`Cipher::new`] expands a
    /// key under.
    pub fn derive(&self, parts: &[&[u8]]) -> CipherKey {
        CipherKey(*MacKey::from_bytes(self.0).tag_parts(parts).as_bytes())
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

/// Stateless stream cipher with an encrypt-then-MAC envelope.
#[derive(Clone)]
pub struct Cipher {
    enc_key: chacha20::Key,
    mac_key: MacKey,
    commitment: KeyCommitment,
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
            commitment: *master.tag(KEY_COMMITMENT_DOMAIN).as_bytes(),
        }
    }

    /// A value only holders of this cipher's key can compute, and which says
    /// nothing about the key: a PRF of it under a label of its own. A caller
    /// that authenticates ciphertext itself ([`Cipher::apply_keystream`])
    /// puts this under its MAC and never sends it, so a peer holding the MAC
    /// key but another cipher key fails the MAC instead of decrypting to
    /// junk.
    pub fn key_commitment(&self) -> &KeyCommitment {
        &self.commitment
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
    pub(crate) fn seal_owned(&self, nonce: Nonce, mut bytes: Vec<u8>) -> Ciphertext {
        self.apply_keystream(&nonce.extended(), &mut bytes);
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
    pub(crate) fn open_owned(&self, ciphertext: Ciphertext) -> Result<Vec<u8>, CryptoError> {
        self.mac_key
            .verify_parts(
                &[ciphertext.nonce.as_bytes(), &ciphertext.bytes],
                &MacTag::from_bytes(ciphertext.tag),
            )
            .map_err(|_| CryptoError::CiphertextTampered)?;
        let mut bytes = ciphertext.bytes;
        self.apply_keystream(&ciphertext.nonce.extended(), &mut bytes);
        Ok(bytes)
    }

    /// XORs `data` with the XChaCha20 keystream of `k_enc` and `nonce`, from
    /// block 0: encryption and decryption are the same call. **Nothing is
    /// authenticated** — the caller owns both halves of the contract: the
    /// (key, nonce) pair is used for one message, and the ciphertext, the
    /// nonce (or what it is derived from) and [`Cipher::key_commitment`] are
    /// under a MAC or digest of the caller's that is checked before this is
    /// called to decrypt.
    pub fn apply_keystream(&self, nonce: &XNonce, data: &mut [u8]) {
        let (mut prefix, mut tail) = ([0u8; 16], [0u8; 8]);
        prefix.copy_from_slice(&nonce[..16]);
        tail.copy_from_slice(&nonce[16..]);
        self.bind(&prefix).apply_keystream(&tail, data);
    }

    /// This cipher for every nonce that starts with `prefix`: the HChaCha20
    /// sub-key of `k_enc` and `prefix`, made now (one block function's
    /// work), which [`Cipher::apply_keystream`] would otherwise make for
    /// every message.
    pub fn bind(&self, prefix: &[u8; 16]) -> BoundCipher {
        BoundCipher(chacha20::hchacha(&self.enc_key, prefix))
    }
}

/// A [`Cipher`] with the first 16 nonce bytes fixed ([`Cipher::bind`]): the
/// XChaCha20 sub-key of its key and that prefix, 32 bytes. As secret as the
/// key, and under the same contract: one message per nonce.
#[derive(Clone)]
pub struct BoundCipher(chacha20::Key);

impl BoundCipher {
    /// XORs `data` with the keystream of the nonce `prefix ‖ tail`, from
    /// block 0 — [`Cipher::apply_keystream`]'s bytes, without its HChaCha20:
    /// ChaCha20 under the sub-key with `0⁴ ‖ tail` as its nonce, which is
    /// how draft-irtf-cfrg-xchacha §2.3 defines XChaCha20.
    pub fn apply_keystream(&self, tail: &[u8; 8], data: &mut [u8]) {
        let mut nonce = [0u8; 12];
        nonce[4..].copy_from_slice(tail);
        ChaCha20::new(&self.0, &nonce).apply_keystream(data);
    }
}

impl fmt::Debug for BoundCipher {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never print a sub-key.
        write!(f, "BoundCipher(…)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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

    proptest! {
        #[test]
        fn the_keystream_call_is_the_envelope_without_its_tag(
            data in proptest::collection::vec(any::<u8>(), 0..1200),
            nonce in any::<u128>(),
        ) {
            let c = cipher();
            let nonce = Nonce::from_u128(nonce);
            let mut bytes = data.clone();
            c.apply_keystream(&nonce.extended(), &mut bytes);
            prop_assert_eq!(&bytes, &c.seal(nonce, &data).bytes);
            // Its own inverse.
            c.apply_keystream(&nonce.extended(), &mut bytes);
            prop_assert_eq!(bytes, data);
        }
    }

    /// draft-irtf-cfrg-xchacha-03 A.3.2, the vector `vendor/chacha20` pins as
    /// `xchacha_draft_a_3_2_encryption`: all 24 nonce bytes in use. The draft
    /// encrypts from block 1 and this cipher from block 0, so the plaintext
    /// goes one block in.
    #[test]
    fn the_24_byte_keystream_matches_the_xchacha_draft() {
        let c = Cipher {
            enc_key: core::array::from_fn(|i| 0x80 + i as u8),
            ..cipher()
        };
        let nonce: XNonce = *b"@ABCDEFGHIJKLMNOPQRSTUVX";
        let plaintext = b"The dhole (pronounced \"dole\") is also known as the Asiatic wild dog, \
red dog, and whistling dog. It is about the size of a German shepherd but looks more like a \
long-legged fox. This highly elusive and skilled jumper is classified with wolves, coyotes, \
jackals, and foxes in the taxonomic family Canidae.";
        let mut data = [&[0u8; 64][..], plaintext].concat();
        c.apply_keystream(&nonce, &mut data);
        let hex: String = data[64..].iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(
            hex,
            concat!(
                "7d0a2e6b7f7c65a236542630294e063b7ab9b555a5d5149aa21e4ae1e4fbce87",
                "ecc8e08a8b5e350abe622b2ffa617b202cfad72032a3037e76ffdcdc4376ee05",
                "3a190d7e46ca1de04144850381b9cb29f051915386b8a710b8ac4d027b8b050f",
                "7cba5854e028d564e453b8a968824173fc16488b8970cac828f11ae53cabd201",
                "12f87107df24ee6183d2274fe4c8b1485534ef2c5fbc1ec24bfc3663efaa08bc",
                "047d29d25043532db8391a8a3d776bf4372a6955827ccb0cdd4af403a7ce4c63",
                "d595c75a43e045f0cce1f29c8b93bd65afc5974922f214a40b7c402cdb91ae73",
                "c0b63615cdad0480680f16515a7ace9d39236464328a37743ffc28f4ddb324f4",
                "d0f5bbdc270c65b1749a6efff1fbaa09536175ccd29fb9e6057b307320d31683",
                "8a9c71f70b5b5907a66f7ea49aadc409",
            )
        );
        // The last 8 nonce bytes count: the 16-byte form would ignore them.
        let mut other = nonce;
        other[23] ^= 1;
        let mut again = [&[0u8; 64][..], plaintext].concat();
        c.apply_keystream(&other, &mut again);
        assert_ne!(again, data);
    }

    proptest! {
        /// A bound cipher is the full-nonce call: any prefix, any tail (a
        /// frame's counter), any length, and any shorter run a prefix of it.
        #[test]
        fn a_bound_cipher_runs_the_keystream_of_the_full_nonce(
            nonce in proptest::collection::vec(any::<u8>(), 24),
            data in proptest::collection::vec(any::<u8>(), 0..1400),
            split in any::<usize>(),
        ) {
            let c = cipher();
            let nonce: XNonce = nonce.try_into().unwrap();
            let (prefix, tail) = nonce.split_at(16);
            let bound = c.bind(prefix.try_into().unwrap());
            let tail: &[u8; 8] = tail.try_into().unwrap();

            let mut full = data.clone();
            c.apply_keystream(&nonce, &mut full);
            let mut by_bound = data.clone();
            bound.apply_keystream(tail, &mut by_bound);
            prop_assert_eq!(&by_bound, &full);

            // Where the run ends — one or two blocks left to the one-block
            // function, or one more wide step — moves no byte before it.
            let split = split % (data.len() + 1);
            let mut head = data[..split].to_vec();
            bound.apply_keystream(tail, &mut head);
            prop_assert_eq!(&head[..], &full[..split]);
        }
    }

    #[test]
    fn the_key_commitment_follows_the_key_and_is_none_of_its_sub_keys() {
        let (a, b) = (cipher(), Cipher::new(&CipherKey::from_bytes([4u8; 32])));
        assert_eq!(a.key_commitment(), cipher().key_commitment());
        assert_ne!(a.key_commitment(), b.key_commitment());
        assert_ne!(a.key_commitment(), &a.enc_key);
        assert_ne!(a.key_commitment(), &[3u8; 32]);
        assert_ne!(&a.commitment[..], a.mac_key.expose_secret());
    }

    #[test]
    fn open_owned_rejects_what_open_rejects() {
        let c = cipher();
        let mut ct = c.seal(Nonce::from_u128(7), b"payload payload payload");
        ct.bytes[3] ^= 0xFF;
        assert_eq!(c.open_owned(ct), Err(CryptoError::CiphertextTampered));
    }

    #[test]
    fn derived_keys_follow_the_parent_and_every_part() {
        let parent = CipherKey::from_bytes([3u8; 32]);
        let derived = parent.derive(&[b"recipe.test.v1", b"a"]);
        assert_eq!(derived, parent.derive(&[b"recipe.test.v1", b"a"]));
        assert_ne!(derived, parent);
        assert_ne!(derived, parent.derive(&[b"recipe.test.v1", b"b"]));
        assert_ne!(derived, parent.derive(&[b"recipe.test.v2", b"a"]));
        assert_ne!(derived, parent.derive(&[b"recipe.test.v1a"]));
        let other = CipherKey::from_bytes([4u8; 32]);
        assert_ne!(derived, other.derive(&[b"recipe.test.v1", b"a"]));
        // Not one of the sub-keys the parent's own cipher runs on.
        let cipher = Cipher::new(&parent);
        assert_ne!(derived.0, cipher.enc_key);
        assert_ne!(&derived.0, cipher.key_commitment());
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
