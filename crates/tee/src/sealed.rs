//! Sealed storage: encrypting enclave secrets for persistence in untrusted memory.
//!
//! SGX sealing encrypts data under a key derived from the enclave measurement so that
//! only the same enclave (on the same platform) can unseal it. Recipe uses sealing
//! for durable state a replica needs across restarts (e.g. its signing-key seed), in
//! combination with the recovery protocol of §3.7 (recovered nodes rejoin as fresh
//! replicas after re-attestation).

use recipe_crypto::{Cipher, CipherKey, Ciphertext, MacKey, Nonce};
use serde::{Deserialize, Serialize};

use crate::enclave::Measurement;
use crate::error::TeeError;

/// An encrypted, integrity-protected blob that can live in untrusted host memory or
/// on untrusted disk.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SealedBlob {
    /// Label identifying what was sealed (not secret, bound into the MAC).
    pub label: String,
    ciphertext: Ciphertext,
}

impl SealedBlob {
    /// Seals `plaintext` under a key derived from the platform hardware secret and
    /// the enclave measurement.
    pub(crate) fn seal(
        platform_secret: &MacKey,
        measurement: &Measurement,
        label: &str,
        nonce: Nonce,
        plaintext: &[u8],
    ) -> SealedBlob {
        let cipher = Cipher::new(&Self::sealing_key(platform_secret, measurement, label));
        SealedBlob {
            label: label.to_owned(),
            ciphertext: cipher.seal(nonce, plaintext),
        }
    }

    /// Unseals the blob; fails if the measurement, platform, label or ciphertext do
    /// not match what was sealed.
    pub(crate) fn unseal(
        &self,
        platform_secret: &MacKey,
        measurement: &Measurement,
    ) -> Result<Vec<u8>, TeeError> {
        let cipher = Cipher::new(&Self::sealing_key(
            platform_secret,
            measurement,
            &self.label,
        ));
        cipher
            .open(&self.ciphertext)
            .map_err(|_| TeeError::UnsealFailed)
    }

    fn sealing_key(platform_secret: &MacKey, measurement: &Measurement, label: &str) -> CipherKey {
        let derived = platform_secret
            .derive("recipe.tee.sealing")
            .derive(&measurement.digest().to_hex())
            .derive(label);
        let mut bytes = [0u8; 32];
        bytes.copy_from_slice(derived.tag(b"sealing-key").as_bytes());
        CipherKey::from_bytes(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn platform() -> MacKey {
        MacKey::from_bytes([5u8; 32])
    }

    fn measurement() -> Measurement {
        Measurement::of_code("replica-code-v1")
    }

    #[test]
    fn seal_unseal_roundtrip() {
        let blob = SealedBlob::seal(
            &platform(),
            &measurement(),
            "signing-key",
            Nonce::from_u128(1),
            b"super secret seed",
        );
        assert_eq!(
            blob.unseal(&platform(), &measurement()).unwrap(),
            b"super secret seed"
        );
    }

    #[test]
    fn different_measurement_cannot_unseal() {
        let blob = SealedBlob::seal(
            &platform(),
            &measurement(),
            "signing-key",
            Nonce::from_u128(1),
            b"secret",
        );
        let other = Measurement::of_code("patched-malicious-code");
        assert_eq!(
            blob.unseal(&platform(), &other),
            Err(TeeError::UnsealFailed)
        );
    }

    #[test]
    fn different_platform_cannot_unseal() {
        let blob = SealedBlob::seal(
            &platform(),
            &measurement(),
            "signing-key",
            Nonce::from_u128(1),
            b"secret",
        );
        let other_platform = MacKey::from_bytes([6u8; 32]);
        assert_eq!(
            blob.unseal(&other_platform, &measurement()),
            Err(TeeError::UnsealFailed)
        );
    }

    #[test]
    fn relabelled_blob_cannot_unseal() {
        let mut blob = SealedBlob::seal(
            &platform(),
            &measurement(),
            "signing-key",
            Nonce::from_u128(1),
            b"secret",
        );
        blob.label = "other-label".to_owned();
        assert!(blob.unseal(&platform(), &measurement()).is_err());
    }

    #[test]
    fn empty_payload_supported() {
        let blob = SealedBlob::seal(
            &platform(),
            &measurement(),
            "empty",
            Nonce::from_u128(1),
            b"",
        );
        assert_eq!(blob.unseal(&platform(), &measurement()).unwrap(), b"");
    }
}
