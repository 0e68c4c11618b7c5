//! Attestation reports and quotes.
//!
//! Remote attestation (paper Algorithm 2) proceeds in three steps inside the TEE:
//!
//! 1. `attest()` — produce a [`Report`]: the enclave's measurement plus the
//!    challenger's nonce and the enclave's ephemeral public key.
//! 2. `generate_quote()` — sign the report with the hardware-rooted key
//!    (`EGETKEY` on SGX, a per-platform [`HardwareKey`] here), producing a
//!    [`Quote`].
//! 3. The verifier (CAS/IAS) checks the quote signature against the platform
//!    vendor's root of trust and compares the measurement against the expected
//!    value.

use recipe_crypto::{hash_parts, Nonce, PublicKey, Signature, SigningKeyPair};
use serde::{Deserialize, Serialize};

use crate::enclave::{EnclaveId, Measurement};
use crate::error::TeeError;

/// The hardware-fused attestation key of a (simulated) platform.
///
/// On SGX this key is derived via `EGETKEY` and certified by Intel; here the platform
/// vendor is simulated by a deterministic root key that the CAS/IAS trusts. A
/// Byzantine host cannot reach this key: it is only accessible through
/// [`crate::enclave::Enclave`] methods, mirroring the hardware isolation boundary.
#[derive(Clone, Debug)]
pub(crate) struct HardwareKey {
    keys: SigningKeyPair,
}

impl HardwareKey {
    /// Derives the hardware key for a platform identified by `platform_id`.
    ///
    /// Determinism stands in for "fused at manufacturing time": a given platform
    /// always has the same key, and the vendor (and therefore the CAS) can compute
    /// the matching public key for verification.
    pub(crate) fn for_platform(platform_id: u64) -> Self {
        HardwareKey {
            keys: SigningKeyPair::generate_from_seed(0xA77E_57A7_0000_0000 ^ platform_id),
        }
    }

    /// Public half of the hardware key, published by the platform vendor.
    pub(crate) fn public(&self) -> PublicKey {
        self.keys.public()
    }

    /// Signs an attestation report (the `sign(μ, key_hw)` step of Algorithm 2).
    pub(crate) fn sign_report(&self, report: &Report) -> Signature {
        self.keys.sign(&report.signing_bytes())
    }
}

/// An enclave report: what the enclave claims about itself.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Report {
    /// Identity of the enclave producing the report.
    pub(crate) enclave_id: EnclaveId,
    /// Measurement (hash) of the code and initial state loaded into the enclave.
    pub measurement: Measurement,
    /// The challenger's freshness nonce, echoed back.
    pub nonce: Nonce,
    /// The enclave's ephemeral key-exchange public value, bound into the report so
    /// secrets provisioned over the derived channel reach *this* enclave only.
    pub kx_public: [u8; 32],
}

impl Report {
    /// Canonical byte encoding that gets signed.
    pub(crate) fn signing_bytes(&self) -> Vec<u8> {
        let digest = hash_parts(&[
            b"recipe.tee.report",
            &self.enclave_id.0.to_le_bytes(),
            self.measurement.digest().as_bytes(),
            self.nonce.as_bytes(),
            &self.kx_public,
        ]);
        digest.as_bytes().to_vec()
    }
}

/// A signed report: the evidence a verifier checks.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Quote {
    /// The report being attested.
    pub report: Report,
    /// Signature by the platform's hardware key.
    pub signature: Signature,
    /// Which platform produced the quote (lets the verifier look up the vendor's
    /// public key for that platform).
    pub platform_id: u64,
}

impl Quote {
    /// Verifies the quote against the platform vendor's public key and the expected
    /// measurement.
    ///
    /// Returns the report on success so the verifier can extract the bound
    /// key-exchange public value.
    pub fn verify(
        &self,
        vendor_key: &PublicKey,
        expected_measurement: &Measurement,
        expected_nonce: &Nonce,
    ) -> Result<&Report, TeeError> {
        vendor_key
            .verify(&self.report.signing_bytes(), &self.signature)
            .map_err(|_| TeeError::QuoteRejected {
                reason: "hardware signature invalid",
            })?;
        if &self.report.measurement != expected_measurement {
            return Err(TeeError::QuoteRejected {
                reason: "measurement mismatch",
            });
        }
        if &self.report.nonce != expected_nonce {
            return Err(TeeError::QuoteRejected {
                reason: "stale nonce",
            });
        }
        Ok(&self.report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enclave::{EnclaveConfig, EnclaveId};

    fn sample_report(nonce: Nonce) -> Report {
        Report {
            enclave_id: EnclaveId(7),
            measurement: Measurement::of_code("raft-replica-v1"),
            nonce,
            kx_public: [9u8; 32],
        }
    }

    #[test]
    fn quote_roundtrip_verifies() {
        let hw = HardwareKey::for_platform(3);
        let nonce = Nonce::from_u128(55);
        let report = sample_report(nonce);
        let quote = Quote {
            signature: hw.sign_report(&report),
            report,
            platform_id: 3,
        };
        let expected = Measurement::of_code("raft-replica-v1");
        assert!(quote.verify(&hw.public(), &expected, &nonce).is_ok());
    }

    #[test]
    fn wrong_measurement_rejected() {
        let hw = HardwareKey::for_platform(3);
        let nonce = Nonce::from_u128(55);
        let report = sample_report(nonce);
        let quote = Quote {
            signature: hw.sign_report(&report),
            report,
            platform_id: 3,
        };
        let wrong = Measurement::of_code("tampered-binary");
        assert_eq!(
            quote.verify(&hw.public(), &wrong, &nonce),
            Err(TeeError::QuoteRejected {
                reason: "measurement mismatch"
            })
        );
    }

    #[test]
    fn stale_nonce_rejected() {
        let hw = HardwareKey::for_platform(3);
        let report = sample_report(Nonce::from_u128(55));
        let quote = Quote {
            signature: hw.sign_report(&report),
            report,
            platform_id: 3,
        };
        let expected = Measurement::of_code("raft-replica-v1");
        assert!(matches!(
            quote.verify(&hw.public(), &expected, &Nonce::from_u128(56)),
            Err(TeeError::QuoteRejected {
                reason: "stale nonce"
            })
        ));
    }

    #[test]
    fn forged_signature_rejected() {
        let hw = HardwareKey::for_platform(3);
        let attacker = HardwareKey::for_platform(99);
        let nonce = Nonce::from_u128(1);
        let report = sample_report(nonce);
        let quote = Quote {
            signature: attacker.sign_report(&report),
            report,
            platform_id: 3,
        };
        let expected = Measurement::of_code("raft-replica-v1");
        assert!(matches!(
            quote.verify(&hw.public(), &expected, &nonce),
            Err(TeeError::QuoteRejected {
                reason: "hardware signature invalid"
            })
        ));
    }

    #[test]
    fn tampered_report_field_breaks_signature() {
        let hw = HardwareKey::for_platform(3);
        let nonce = Nonce::from_u128(2);
        let report = sample_report(nonce);
        let mut quote = Quote {
            signature: hw.sign_report(&report),
            report,
            platform_id: 3,
        };
        quote.report.kx_public = [1u8; 32];
        let expected = Measurement::of_code("raft-replica-v1");
        assert!(quote.verify(&hw.public(), &expected, &nonce).is_err());
    }

    #[test]
    fn platform_keys_are_distinct_and_stable() {
        assert_eq!(
            HardwareKey::for_platform(1).public(),
            HardwareKey::for_platform(1).public()
        );
        assert_ne!(
            HardwareKey::for_platform(1).public(),
            HardwareKey::for_platform(2).public()
        );
    }

    #[test]
    fn enclave_config_measurement_used_in_reports() {
        // Sanity check the EnclaveConfig → Measurement wiring used by Enclave::attest.
        let cfg = EnclaveConfig::new("abd-replica", 1);
        assert_eq!(cfg.measurement(), Measurement::of_code("abd-replica"));
    }
}
