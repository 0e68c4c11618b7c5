//! Stand-in for the vendor-hosted Intel Attestation Service (IAS).
//!
//! The real IAS is a wide-area web service operated by the hardware vendor. Its
//! verification *logic* is the same as the CAS's (check the hardware signature and
//! the measurement); what differs is the round-trip latency — the paper measures
//! ≈2.9 s per attestation against IAS versus ≈0.17 s against the datacenter-local
//! CAS (Table 4). The service itself is simulated (README, "Design
//! substitutions"): same checks, IAS latency model.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use recipe_crypto::{Nonce, PublicKey};
use recipe_tee::{Measurement, Quote};
use std::collections::HashMap;

use crate::error::AttestError;
use crate::verifier::QuoteVerifier;

/// Mean verification latency of the vendor attestation service
/// (paper Table 4: 2.913 s).
pub const IAS_MEAN_LATENCY_NS: u64 = 2_913_000_000;
/// Latency jitter applied around the mean (± this fraction). Wide-area paths are
/// noisier than the datacenter-local CAS.
const LATENCY_JITTER: f64 = 0.25;

/// The vendor attestation service stand-in.
pub struct IntelAttestationService {
    vendor_keys: HashMap<u64, PublicKey>,
    rng: StdRng,
    mean_latency_ns: u64,
}

impl IntelAttestationService {
    /// Creates the service trusting the given `(platform_id, vendor_key)` pairs.
    pub fn new(vendor_keys: Vec<(u64, PublicKey)>, seed: u64) -> Self {
        IntelAttestationService {
            vendor_keys: vendor_keys.into_iter().collect(),
            rng: StdRng::seed_from_u64(seed),
            mean_latency_ns: IAS_MEAN_LATENCY_NS,
        }
    }

    /// Overrides the mean latency (calibration tests).
    pub fn with_mean_latency_ns(mut self, latency_ns: u64) -> Self {
        self.mean_latency_ns = latency_ns;
        self
    }
}

impl QuoteVerifier for IntelAttestationService {
    fn verify_quote(
        &self,
        quote: &Quote,
        expected_measurement: &Measurement,
        nonce: &Nonce,
    ) -> Result<(), AttestError> {
        let vendor_key =
            self.vendor_keys
                .get(&quote.platform_id)
                .ok_or(AttestError::UnknownPlatform {
                    platform_id: quote.platform_id,
                })?;
        quote
            .verify(vendor_key, expected_measurement, nonce)
            .map(|_| ())
            .map_err(|err| AttestError::QuoteRejected {
                reason: err.to_string(),
            })
    }

    fn sample_latency_ns(&mut self) -> u64 {
        let jitter = self.rng.gen_range(-LATENCY_JITTER..=LATENCY_JITTER);
        ((self.mean_latency_ns as f64) * (1.0 + jitter)) as u64
    }

    fn name(&self) -> &'static str {
        "IAS"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cas::{ConfigAndAttestService, CAS_MEAN_LATENCY_NS};
    use rand::SeedableRng;
    use recipe_tee::{Enclave, EnclaveConfig, EnclaveId};

    #[test]
    fn verification_logic_matches_cas_but_latency_is_much_higher() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let mut enclave = Enclave::launch(EnclaveId(0), EnclaveConfig::new("code", 5));
        let nonce = Nonce::from_u128(1);
        let report = enclave.attest(nonce, &mut rng).unwrap();
        let quote = enclave.generate_quote(report).unwrap();

        let mut ias = IntelAttestationService::new(vec![(5, enclave.platform_vendor_key())], 1);
        assert!(ias
            .verify_quote(&quote, &Measurement::of_code("code"), &nonce)
            .is_ok());
        assert_eq!(ias.name(), "IAS");

        // Table 4: the IAS path is roughly 18x slower than the CAS path.
        let mut cas = ConfigAndAttestService::new(vec![], 1);
        let ias_mean: f64 = (0..100)
            .map(|_| ias.sample_latency_ns() as f64)
            .sum::<f64>()
            / 100.0;
        let cas_mean: f64 = (0..100)
            .map(|_| cas.sample_latency_ns() as f64)
            .sum::<f64>()
            / 100.0;
        let speedup = ias_mean / cas_mean;
        assert!(
            (14.0..=23.0).contains(&speedup),
            "CAS should be ~18x faster; measured {speedup:.1}x"
        );
        assert!(cas_mean < 1.1 * CAS_MEAN_LATENCY_NS as f64);
    }

    #[test]
    fn unknown_platform_is_rejected() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let mut enclave = Enclave::launch(EnclaveId(0), EnclaveConfig::new("code", 5));
        let nonce = Nonce::from_u128(1);
        let report = enclave.attest(nonce, &mut rng).unwrap();
        let quote = enclave.generate_quote(report).unwrap();
        let ias = IntelAttestationService::new(vec![], 1);
        assert_eq!(
            ias.verify_quote(&quote, &Measurement::of_code("code"), &nonce),
            Err(AttestError::UnknownPlatform { platform_id: 5 })
        );
    }

    #[test]
    fn latency_override_is_respected() {
        let mut ias = IntelAttestationService::new(vec![], 1).with_mean_latency_ns(1_000);
        for _ in 0..50 {
            assert!(ias.sample_latency_ns() <= 1_250);
        }
    }
}
