//! Nonces for attestation challenges and cipher invocations.

use serde::{Deserialize, Serialize};
use std::fmt;

/// The 24 nonce bytes XChaCha20 takes: the first 16 select a sub-key
/// (HChaCha20), the last 8 are the nonce of ChaCha20 under it.
pub type XNonce = [u8; 24];

/// A 128-bit nonce.
///
/// Attestation uses random nonces to guarantee quote freshness (Algorithm 2's
/// `generate_nonce()`); the cipher uses counter-derived nonces to guarantee keystream
/// uniqueness per message.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Nonce([u8; Nonce::LEN]);

impl Nonce {
    /// Nonce length in bytes.
    pub const LEN: usize = 16;

    /// Builds a nonce from raw bytes.
    pub const fn from_bytes(bytes: [u8; Nonce::LEN]) -> Self {
        Nonce(bytes)
    }

    /// Builds a nonce from a 128-bit integer (e.g. `view << 64 | counter`).
    pub const fn from_u128(value: u128) -> Self {
        Nonce(value.to_le_bytes())
    }

    /// Builds a nonce from a `(view, counter)` pair, the scheme Recipe uses to derive
    /// unique cipher nonces from its trusted channel counters.
    pub fn from_view_counter(view: u64, counter: u64) -> Self {
        Nonce::from_u128(((view as u128) << 64) | counter as u128)
    }

    /// Samples a random nonce from the supplied RNG (attestation challenges).
    pub fn random<R: rand::RngCore>(rng: &mut R) -> Self {
        let mut bytes = [0u8; Nonce::LEN];
        rng.fill_bytes(&mut bytes);
        Nonce(bytes)
    }

    /// Returns the raw nonce bytes.
    pub fn as_bytes(&self) -> &[u8; Nonce::LEN] {
        &self.0
    }

    /// Interprets the nonce as a 128-bit little-endian integer.
    pub(crate) fn as_u128(&self) -> u128 {
        u128::from_le_bytes(self.0)
    }

    /// The nonce as XChaCha20 takes it: these 16 bytes, which fill the
    /// HChaCha20 input exactly, and 8 zero bytes after them.
    pub fn extended(&self) -> XNonce {
        let mut extended = [0u8; 24];
        extended[..Nonce::LEN].copy_from_slice(&self.0);
        extended
    }
}

impl fmt::Debug for Nonce {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Nonce({:#x})", self.as_u128())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn u128_roundtrip() {
        let n = Nonce::from_u128(0xDEAD_BEEF_0123);
        assert_eq!(n.as_u128(), 0xDEAD_BEEF_0123);
    }

    #[test]
    fn view_counter_nonces_are_unique_per_pair() {
        let a = Nonce::from_view_counter(1, 5);
        let b = Nonce::from_view_counter(1, 6);
        let c = Nonce::from_view_counter(2, 5);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }

    #[test]
    fn random_nonces_depend_on_rng_seed() {
        let mut rng1 = rand::rngs::StdRng::seed_from_u64(1);
        let mut rng2 = rand::rngs::StdRng::seed_from_u64(1);
        let mut rng3 = rand::rngs::StdRng::seed_from_u64(2);
        assert_eq!(Nonce::random(&mut rng1), Nonce::random(&mut rng2));
        assert_ne!(Nonce::random(&mut rng1), Nonce::random(&mut rng3));
    }

    #[test]
    fn extended_nonce_is_the_nonce_then_zeros() {
        let extended = Nonce::from_bytes([9u8; 16]).extended();
        assert_eq!(extended[..16], [9u8; 16]);
        assert_eq!(extended[16..], [0u8; 8]);
    }

    #[test]
    fn bytes_roundtrip() {
        let n = Nonce::from_bytes([9u8; 16]);
        assert_eq!(n.as_bytes(), &[9u8; 16]);
    }
}
