//! Message authentication codes (HMAC-SHA-256).
//!
//! After remote attestation, every pair of Recipe endpoints shares a channel MAC key
//! provisioned by the CAS. `shield_request` computes an HMAC over the frame
//! (paper §3.2, Algorithm 1) and `verify_request` recomputes and compares it
//! in constant time. The MAC input is `channel block ‖ MAC header ‖ body
//! [‖ key commitment]` (`recipe_core`'s frame layer has the layout): the
//! header carries the view and `cnt_cq`, the channel block `cq`.
//!
//! What is constant on a channel — its identity, `cq` — is put in the MAC
//! input's first 64-byte block, and that block is hashed once per channel
//! instead of once per frame: [`MacKey::bind`] yields a [`BoundMacKey`], the
//! keyed state with the block behind it, and a stream started from it is the
//! plain HMAC of `block ‖ message` under the key. A short control frame then
//! costs two SHA-256 compressions, the least an HMAC can, and one whose
//! message behind the block is at most [`MAC_ONE_BLOCK_MAX`] bytes takes the
//! one-block entry ([`BoundMacKey::tag_one_block`]) instead of a stream.

use hmac::{CtOutput, Hmac, HmacCore, Mac};
use serde::{Deserialize, Serialize};
use sha2::{Output32, Sha256};
use std::fmt;

use crate::{CryptoError, KeyMaterial, DIGEST_LEN};

type HmacSha256 = Hmac<Sha256>;

/// A 256-bit symmetric MAC key shared between two attested endpoints.
///
/// Hashing the key into HMAC's inner and outer pad states costs two SHA-256
/// compressions, as much as MACing a short message does. The key pays it once,
/// when it is built, and every tag starts from a copy of those states — the
/// 80-byte [`HmacCore`], not a whole `Hmac` with its block buffer: every 2PC
/// lane between a client and a shard holds four keys for the whole run, so
/// what a key weighs is what standing channels cost in live memory.
/// Equality, serialization and `Debug` see the 32 key bytes only.
#[derive(Clone)]
pub struct MacKey {
    bytes: [u8; DIGEST_LEN],
    keyed: HmacCore<Sha256>,
}

impl MacKey {
    /// Builds a key from raw bytes (e.g. bytes unsealed from enclave storage or
    /// derived from a key-exchange shared secret).
    pub fn from_bytes(bytes: [u8; DIGEST_LEN]) -> Self {
        let keyed = HmacCore::new_from_slice(&bytes).expect("HMAC accepts any key length");
        MacKey { bytes, keyed }
    }

    /// Derives a fresh, unpredictable key from the supplied RNG.
    pub fn generate<R: rand::RngCore>(rng: &mut R) -> Self {
        let mut bytes = [0u8; DIGEST_LEN];
        rng.fill_bytes(&mut bytes);
        MacKey::from_bytes(bytes)
    }

    /// Derives a sub-key bound to a label, so one provisioned secret can back several
    /// independent channels (`derive("cq:3->5")`, `derive("values")`, …).
    pub fn derive(&self, label: &str) -> MacKey {
        MacKey::from_bytes(self.tag(label.as_bytes()).0)
    }

    /// Starts a MAC over a message that arrives in pieces. Feeding the pieces
    /// one after another yields the tag of their concatenation — nothing is
    /// added between them — so a caller holding a message's fields can MAC
    /// them where they lie instead of joining them in a buffer first.
    pub fn stream(&self) -> MacStream {
        MacStream(HmacSha256::from_core(self.keyed.clone()))
    }

    /// A MAC stream keyed with this key and fed every part, length-prefixed.
    fn stream_over_parts(&self, parts: &[&[u8]]) -> MacStream {
        let mut stream = self.stream();
        for part in parts {
            stream.update(&(part.len() as u64).to_le_bytes());
            stream.update(part);
        }
        stream
    }

    /// This key for messages that all start with `block`: a stream from the
    /// bound key, fed `rest`, ends in `self.tag(block ‖ rest)`. Costs one
    /// compression, which every such message then saves.
    pub fn bind(&self, block: &[u8; MAC_BLOCK_LEN]) -> BoundMacKey {
        BoundMacKey(self.keyed.after_block(block))
    }

    /// Computes the HMAC tag over `message`.
    pub fn tag(&self, message: &[u8]) -> MacTag {
        let mut stream = self.stream();
        stream.update(message);
        stream.tag()
    }

    /// Computes the HMAC tag over several length-prefixed parts, mirroring
    /// [`crate::hash::hash_parts`].
    pub fn tag_parts(&self, parts: &[&[u8]]) -> MacTag {
        self.stream_over_parts(parts).tag()
    }

    /// Verifies that `tag` authenticates `message` under this key.
    ///
    /// Verification is constant-time in the tag comparison (delegated to the `hmac`
    /// crate's `verify_slice`).
    pub fn verify(&self, message: &[u8], tag: &MacTag) -> Result<(), CryptoError> {
        let mut stream = self.stream();
        stream.update(message);
        stream.verify(tag)
    }

    /// Verifies a tag computed with [`MacKey::tag_parts`].
    pub fn verify_parts(&self, parts: &[&[u8]], tag: &MacTag) -> Result<(), CryptoError> {
        self.stream_over_parts(parts).verify(tag)
    }
}

/// Bytes in the block a key is bound to ([`MacKey::bind`]): one SHA-256
/// block.
pub const MAC_BLOCK_LEN: usize = 64;

/// The most bytes a [`BoundMacKey`]'s one-block entry takes behind the bound
/// block: what one SHA-256 block holds beside its padding.
pub const MAC_ONE_BLOCK_MAX: usize = hmac::ONE_BLOCK_MAX;

/// A [`MacKey`] with the first block of every message already hashed
/// ([`MacKey::bind`]). As secret as the key: the state forges tags for any
/// message starting with the block.
#[derive(Clone)]
pub struct BoundMacKey(HmacCore<Sha256>);

impl BoundMacKey {
    /// Starts a MAC over a message whose first block is the bound one; feed
    /// what follows it ([`MacKey::stream`]).
    pub fn stream(&self) -> MacStream {
        MacStream(HmacSha256::from_core(self.0.clone()))
    }

    /// The tag a [`BoundMacKey::stream`] fed `block[..len]` ends in, for a
    /// `len` of at most [`MAC_ONE_BLOCK_MAX`]: the one-block entry. The
    /// caller lays the message out at the front of `block`, where it is
    /// padded (`block` is left holding the padded block) and compressed with
    /// the outer block in one call — the block written once, no stream built
    /// around it. `None` for a longer message.
    pub fn tag_one_block(&self, block: &mut [u8; MAC_BLOCK_LEN], len: usize) -> Option<MacTag> {
        let tag = self.0.tag_one_block(block, len)?;
        Some(MacTag(tag.into_bytes().into()))
    }

    /// Checks `tag` against [`BoundMacKey::tag_one_block`] of the same block,
    /// in constant time in the tag comparison. A message longer than
    /// [`MAC_ONE_BLOCK_MAX`] bytes is refused as malformed input.
    pub fn verify_one_block(
        &self,
        block: &mut [u8; MAC_BLOCK_LEN],
        len: usize,
        tag: &MacTag,
    ) -> Result<(), CryptoError> {
        let computed = self
            .0
            .tag_one_block(block, len)
            .ok_or(CryptoError::InvalidLength {
                what: "one-block MAC input",
                expected: MAC_ONE_BLOCK_MAX,
                actual: len,
            })?;
        if computed == CtOutput::new(Output32(tag.0)) {
            Ok(())
        } else {
            Err(CryptoError::MacMismatch)
        }
    }
}

impl fmt::Debug for BoundMacKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never print keyed state.
        write!(f, "BoundMacKey(…)")
    }
}

/// A MAC in progress: a keyed HMAC state taking the message piece by piece
/// (see [`MacKey::stream`]).
pub struct MacStream(HmacSha256);

impl MacStream {
    /// Feeds the next piece of the message.
    pub fn update(&mut self, bytes: &[u8]) {
        self.0.update(bytes);
    }

    /// The tag over everything fed so far.
    pub fn tag(self) -> MacTag {
        MacTag(self.0.finalize().into_bytes().into())
    }

    /// Checks `tag` against everything fed so far, in constant time in the
    /// tag comparison (the `hmac` crate's `verify_slice`).
    pub fn verify(self, tag: &MacTag) -> Result<(), CryptoError> {
        self.0
            .verify_slice(&tag.0)
            .map_err(|_| CryptoError::MacMismatch)
    }
}

impl PartialEq for MacKey {
    fn eq(&self, other: &Self) -> bool {
        self.bytes == other.bytes
    }
}

impl Eq for MacKey {}

// Written by hand because the keyed state must stay off the wire and the
// vendored derive has no `skip`. The shape is the one the derive gave the
// former `MacKey([u8; 32])`: a one-element array holding the byte array.
impl Serialize for MacKey {
    fn to_value(&self) -> serde::Value {
        serde::Value::Array(vec![self.bytes.to_value()])
    }
}

impl Deserialize for MacKey {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        match v.as_array() {
            Some([bytes]) => Ok(MacKey::from_bytes(Deserialize::from_value(bytes)?)),
            _ => Err(serde::Error::custom(
                "expected a one-element array for MacKey",
            )),
        }
    }
}

impl KeyMaterial for MacKey {
    fn expose_secret(&self) -> &[u8] {
        &self.bytes
    }
}

impl fmt::Debug for MacKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never print key bytes.
        write!(f, "MacKey(…)")
    }
}

/// A 256-bit HMAC tag.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MacTag([u8; DIGEST_LEN]);

impl MacTag {
    /// Wraps raw tag bytes received off the wire.
    pub const fn from_bytes(bytes: [u8; DIGEST_LEN]) -> Self {
        MacTag(bytes)
    }

    /// Returns the tag bytes (for serialization onto the wire).
    pub fn as_bytes(&self) -> &[u8; DIGEST_LEN] {
        &self.0
    }

    /// Parses a tag from a byte slice.
    pub fn try_from_slice(bytes: &[u8]) -> Result<Self, CryptoError> {
        if bytes.len() != DIGEST_LEN {
            return Err(CryptoError::InvalidLength {
                what: "mac tag",
                expected: DIGEST_LEN,
                actual: bytes.len(),
            });
        }
        let mut out = [0u8; DIGEST_LEN];
        out.copy_from_slice(bytes);
        Ok(MacTag(out))
    }
}

impl fmt::Debug for MacTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let hex: String = self.0[..6].iter().map(|b| format!("{b:02x}")).collect();
        write!(f, "MacTag({hex}…)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;

    fn key() -> MacKey {
        MacKey::from_bytes([7u8; 32])
    }

    #[test]
    fn tag_then_verify_succeeds() {
        let tag = key().tag(b"payload");
        assert!(key().verify(b"payload", &tag).is_ok());
    }

    #[test]
    fn verify_rejects_modified_message() {
        let tag = key().tag(b"payload");
        assert_eq!(
            key().verify(b"Payload", &tag),
            Err(CryptoError::MacMismatch)
        );
    }

    #[test]
    fn verify_rejects_wrong_key() {
        let tag = key().tag(b"payload");
        let other = MacKey::from_bytes([9u8; 32]);
        assert_eq!(
            other.verify(b"payload", &tag),
            Err(CryptoError::MacMismatch)
        );
    }

    #[test]
    fn tag_parts_is_position_sensitive() {
        let k = key();
        assert_ne!(k.tag_parts(&[b"ab", b"c"]), k.tag_parts(&[b"a", b"bc"]));
    }

    #[test]
    fn derive_produces_distinct_independent_keys() {
        let k = key();
        let a = k.derive("channel:1");
        let b = k.derive("channel:2");
        assert_ne!(a, b);
        assert_ne!(a, k);
        // Deterministic.
        assert_eq!(a, k.derive("channel:1"));
    }

    #[test]
    fn generate_uses_rng() {
        let mut rng1 = rand::rngs::StdRng::seed_from_u64(1);
        let mut rng2 = rand::rngs::StdRng::seed_from_u64(1);
        assert_eq!(MacKey::generate(&mut rng1), MacKey::generate(&mut rng2));
        let mut rng3 = rand::rngs::StdRng::seed_from_u64(2);
        assert_ne!(MacKey::generate(&mut rng1), MacKey::generate(&mut rng3));
    }

    #[test]
    fn tag_slice_roundtrip_and_length_check() {
        let tag = key().tag(b"x");
        let parsed = MacTag::try_from_slice(tag.as_bytes()).unwrap();
        assert_eq!(parsed, tag);
        assert!(matches!(
            MacTag::try_from_slice(&[0u8; 5]),
            Err(CryptoError::InvalidLength { .. })
        ));
    }

    #[test]
    fn debug_does_not_leak_key() {
        assert_eq!(format!("{:?}", key()), "MacKey(…)");
    }

    proptest! {
        /// The bound form is the plain HMAC of `block ‖ message`, however
        /// the message is cut into updates.
        #[test]
        fn a_bound_key_tags_the_block_then_the_message(
            key in proptest::collection::vec(any::<u8>(), 32),
            block in proptest::collection::vec(any::<u8>(), MAC_BLOCK_LEN),
            msg in proptest::collection::vec(any::<u8>(), 0..300),
            splits in proptest::collection::vec(any::<usize>(), 0..4),
        ) {
            let key = MacKey::from_bytes(key.try_into().unwrap());
            let block: [u8; MAC_BLOCK_LEN] = block.try_into().unwrap();
            let mut cuts: Vec<usize> = splits.iter().map(|s| s % (msg.len() + 1)).collect();
            cuts.sort_unstable();
            let bound = key.bind(&block);
            let mut stream = bound.stream();
            let mut from = 0;
            for cut in cuts {
                stream.update(&msg[from..cut]);
                from = cut;
            }
            stream.update(&msg[from..]);
            let expected = key.tag(&[&block[..], &msg].concat());
            prop_assert_eq!(stream.tag(), expected);
            // A stream spends nothing of the bound state.
            let mut again = bound.stream();
            again.update(&msg);
            prop_assert!(again.verify(&expected).is_ok());

            // The one-block entry: the same tag for every message it takes,
            // a flipped tag bit refused, a longer message refused outright.
            let short = &msg[..msg.len().min(MAC_ONE_BLOCK_MAX)];
            let laid_out = || {
                let mut block = [0xEE; MAC_BLOCK_LEN];
                block[..short.len()].copy_from_slice(short);
                block
            };
            let tag = bound.tag_one_block(&mut laid_out(), short.len()).unwrap();
            prop_assert_eq!(tag, key.tag(&[&block[..], short].concat()));
            prop_assert!(bound.verify_one_block(&mut laid_out(), short.len(), &tag).is_ok());
            let mut flipped = *tag.as_bytes();
            flipped[msg.len() % 32] ^= 1 << (msg.len() % 8);
            prop_assert_eq!(
                bound.verify_one_block(&mut laid_out(), short.len(), &MacTag::from_bytes(flipped)),
                Err(CryptoError::MacMismatch)
            );
            let long = msg.len().clamp(MAC_ONE_BLOCK_MAX + 1, MAC_BLOCK_LEN);
            prop_assert_eq!(bound.tag_one_block(&mut laid_out(), long), None);
            prop_assert!(matches!(
                bound.verify_one_block(&mut laid_out(), long, &expected),
                Err(CryptoError::InvalidLength { .. })
            ));
        }

        #[test]
        fn roundtrip_any_message(msg in proptest::collection::vec(any::<u8>(), 0..1024)) {
            let k = key();
            let tag = k.tag(&msg);
            prop_assert!(k.verify(&msg, &tag).is_ok());
        }

        #[test]
        fn tampered_message_rejected(msg in proptest::collection::vec(any::<u8>(), 1..256),
                                     flip_idx in 0usize..256, flip_bit in 0u8..8) {
            let k = key();
            let tag = k.tag(&msg);
            let mut tampered = msg.clone();
            let idx = flip_idx % tampered.len();
            tampered[idx] ^= 1 << flip_bit;
            prop_assume!(tampered != msg);
            prop_assert!(k.verify(&tampered, &tag).is_err());
        }

        #[test]
        fn parts_verify_roundtrip(parts in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..64), 0..6)) {
            let k = key();
            let refs: Vec<&[u8]> = parts.iter().map(|p| p.as_slice()).collect();
            let tag = k.tag_parts(&refs);
            prop_assert!(k.verify_parts(&refs, &tag).is_ok());
        }
    }
}
