//! Cryptographic substrate for the Recipe replication library.
//!
//! Recipe's security argument rests on three classes of primitives (paper §3.1,
//! "Cryptographic model"):
//!
//! * **Collision-resistant hashing** — used to bind message payloads to their
//!   authentication tags and to compute enclave measurements
//!   ([`hash::Digest`], [`hash::sha256`]).
//! * **Unforgeable authentication** — message authentication codes shared between
//!   attested endpoints ([`mac`]) and asymmetric signatures for attestation quotes
//!   and client requests ([`sig`]).
//! * **Confidentiality** — an encrypt-then-MAC stream cipher used when Recipe runs
//!   in confidential mode ([`cipher`]).
//!
//! The crate wraps audited implementations (`sha2`, `hmac`, `ed25519-dalek`) behind
//! small, purpose-named types so the rest of the workspace never touches raw
//! byte-array crypto APIs directly. All key material lives in dedicated newtypes that
//! implement [`zeroize-on-drop`-style](KeyMaterial) best-effort clearing.
//!
//! # Example
//!
//! ```
//! use recipe_crypto::{mac::MacKey, sig::SigningKeyPair};
//!
//! // Transferable authentication: sign once, verify anywhere.
//! let keys = SigningKeyPair::generate_from_seed(7);
//! let sig = keys.sign(b"replicate kv #42");
//! assert!(keys.public().verify(b"replicate kv #42", &sig).is_ok());
//!
//! // Channel authentication between two attested endpoints.
//! let key = MacKey::from_bytes([0x41; 32]);
//! let tag = key.tag(b"payload");
//! assert!(key.verify(b"payload", &tag).is_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cipher;
pub mod error;
pub mod hash;
pub mod kx;
pub mod mac;
pub mod nonce;
pub mod sig;

pub use cipher::{BoundCipher, Cipher, CipherKey, Ciphertext, KeyCommitment};
pub use error::CryptoError;
pub use hash::{hash_parts, sha256, Digest, Hasher};
pub use kx::{EphemeralSecret, KxPublic, SharedSecret};
pub use mac::{BoundMacKey, MacKey, MacStream, MacTag, MAC_BLOCK_LEN, MAC_ONE_BLOCK_MAX};
pub use nonce::{Nonce, XNonce};
pub use sig::{PublicKey, Signature, SigningKeyPair};

/// Marker trait for secret key material.
///
/// Types implementing this trait hold secrets that must never be logged or serialized
/// in plaintext outside of a (simulated) enclave. The trait exists mainly as
/// documentation and to let generic code (e.g. the sealed-storage API in
/// `recipe-tee`) constrain what it will accept.
pub trait KeyMaterial {
    /// Returns the raw bytes of the secret.
    ///
    /// Callers must treat the returned slice as sensitive; it is exposed only so the
    /// sealing layer can encrypt it for persistence.
    fn expose_secret(&self) -> &[u8];
}

/// Number of bytes in every digest, MAC tag, and symmetric key used by Recipe.
pub const DIGEST_LEN: usize = 32;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_len_matches_sha256() {
        assert_eq!(DIGEST_LEN, sha256(b"x").as_bytes().len());
    }
}
