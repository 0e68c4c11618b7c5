//! The Configuration and Attestation Service (CAS).
//!
//! The CAS is deployed by the protocol designer inside the same datacenter as the
//! replicas (itself running in a TEE and attested once against the vendor's service).
//! Afterwards it verifies replica quotes locally, avoiding the wide-area round trip
//! to the vendor — the source of the ≈18× latency advantage reported in Table 4.
//!
//! In the paper the CAS also stores the secrets and configurations uploaded by
//! the protocol designer and hands the per-node [`crate::secrets::SecretBundle`]
//! to replicas that attest successfully. Here only verification runs:
//! [`crate::run_remote_attestation`] takes the bundle as an argument and never
//! reads the CAS's bundle store or attested set. Their entry points
//! ([`ConfigAndAttestService::upload_bundle`],
//! [`ConfigAndAttestService::mark_attested`],
//! [`ConfigAndAttestService::bundle_for`],
//! [`ConfigAndAttestService::attested_nodes`]) are exercised only by this
//! module's tests; they are what a crash recovery that re-attests through the
//! CAS would wire up.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use recipe_crypto::{Nonce, PublicKey};
use recipe_tee::{Measurement, Quote};

use crate::error::AttestError;
use crate::secrets::SecretBundle;
use crate::verifier::QuoteVerifier;

/// Mean verification latency of the datacenter-local CAS (paper Table 4: 0.169 s).
pub const CAS_MEAN_LATENCY_NS: u64 = 169_000_000;
/// Latency jitter applied around the mean (± this fraction).
const LATENCY_JITTER: f64 = 0.15;

/// The Recipe Configuration and Attestation Service.
pub struct ConfigAndAttestService {
    /// Platform vendor keys the CAS trusts, by platform id.
    vendor_keys: HashMap<u64, PublicKey>,
    /// Per-node secret bundles uploaded by the protocol designer.
    bundles: HashMap<u64, SecretBundle>,
    /// Node ids that have attested successfully.
    attested: Vec<u64>,
    rng: StdRng,
    mean_latency_ns: u64,
}

impl ConfigAndAttestService {
    /// Creates a CAS trusting the given `(platform_id, vendor_key)` pairs.
    pub fn new(vendor_keys: Vec<(u64, PublicKey)>, seed: u64) -> Self {
        ConfigAndAttestService {
            vendor_keys: vendor_keys.into_iter().collect(),
            bundles: HashMap::new(),
            attested: Vec::new(),
            rng: StdRng::seed_from_u64(seed),
            mean_latency_ns: CAS_MEAN_LATENCY_NS,
        }
    }

    /// Overrides the mean verification latency (used by calibration tests).
    pub fn with_mean_latency_ns(mut self, latency_ns: u64) -> Self {
        self.mean_latency_ns = latency_ns;
        self
    }

    /// The protocol designer uploads the secret bundle destined for `node_id`.
    pub fn upload_bundle(&mut self, bundle: SecretBundle) {
        self.bundles.insert(bundle.node_id, bundle);
    }

    /// Returns the bundle for `node_id` if (and only if) that node has attested
    /// successfully.
    pub fn bundle_for(&self, node_id: u64) -> Result<&SecretBundle, AttestError> {
        if !self.attested.contains(&node_id) {
            return Err(AttestError::QuoteRejected {
                reason: format!("node {node_id} has not attested"),
            });
        }
        self.bundles
            .get(&node_id)
            .ok_or(AttestError::NotInMembership { node_id })
    }

    /// Records that `node_id` attested successfully, after its quote passed
    /// [`QuoteVerifier::verify_quote`]. [`crate::run_remote_attestation`]
    /// does not call it (see the module docs).
    pub fn mark_attested(&mut self, node_id: u64) {
        if !self.attested.contains(&node_id) {
            self.attested.push(node_id);
        }
    }

    /// Nodes that have attested successfully so far.
    pub fn attested_nodes(&self) -> &[u64] {
        &self.attested
    }

    fn sample(&mut self, mean: u64) -> u64 {
        let jitter = self.rng.gen_range(-LATENCY_JITTER..=LATENCY_JITTER);
        ((mean as f64) * (1.0 + jitter)) as u64
    }
}

impl QuoteVerifier for ConfigAndAttestService {
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
        let mean = self.mean_latency_ns;
        self.sample(mean)
    }

    fn name(&self) -> &'static str {
        "Recipe CAS"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::secrets::ClusterConfig;
    use rand::SeedableRng;
    use recipe_tee::{Enclave, EnclaveConfig, EnclaveId};
    use std::collections::BTreeMap;

    fn attested_quote(code: &str, platform: u64) -> (Enclave, Quote, Nonce) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut enclave = Enclave::launch(EnclaveId(1), EnclaveConfig::new(code, platform));
        let nonce = Nonce::from_u128(11);
        let report = enclave.attest(nonce, &mut rng).unwrap();
        let quote = enclave.generate_quote(report).unwrap();
        (enclave, quote, nonce)
    }

    fn bundle(node_id: u64) -> SecretBundle {
        SecretBundle {
            node_id,
            signing_seed: vec![1u8; 32],
            channel_keys: BTreeMap::new(),
            cipher_key: None,
            config: ClusterConfig::for_replicas(3, 1, "code-v1"),
        }
    }

    #[test]
    fn accepts_valid_quotes_from_registered_platforms() {
        let (enclave, quote, nonce) = attested_quote("code-v1", 10);
        let cas = ConfigAndAttestService::new(vec![(10, enclave.platform_vendor_key())], 1);
        assert!(cas
            .verify_quote(&quote, &Measurement::of_code("code-v1"), &nonce)
            .is_ok());
    }

    #[test]
    fn rejects_unknown_platforms() {
        let (_, quote, nonce) = attested_quote("code-v1", 10);
        let cas = ConfigAndAttestService::new(vec![], 1);
        assert_eq!(
            cas.verify_quote(&quote, &Measurement::of_code("code-v1"), &nonce),
            Err(AttestError::UnknownPlatform { platform_id: 10 })
        );
    }

    #[test]
    fn rejects_wrong_measurement() {
        let (enclave, quote, nonce) = attested_quote("malicious-code", 10);
        let cas = ConfigAndAttestService::new(vec![(10, enclave.platform_vendor_key())], 1);
        assert!(matches!(
            cas.verify_quote(&quote, &Measurement::of_code("code-v1"), &nonce),
            Err(AttestError::QuoteRejected { .. })
        ));
    }

    #[test]
    fn bundles_are_released_only_after_attestation() {
        let mut cas = ConfigAndAttestService::new(vec![], 1);
        cas.upload_bundle(bundle(3));
        assert!(matches!(
            cas.bundle_for(3),
            Err(AttestError::QuoteRejected { .. })
        ));
        cas.mark_attested(3);
        assert_eq!(cas.bundle_for(3).unwrap().node_id, 3);
        assert_eq!(cas.attested_nodes(), &[3]);
        // A node that attested but has no uploaded bundle is not in the membership.
        cas.mark_attested(9);
        assert_eq!(
            cas.bundle_for(9),
            Err(AttestError::NotInMembership { node_id: 9 })
        );
    }

    #[test]
    fn latency_is_around_the_table4_mean() {
        let mut cas = ConfigAndAttestService::new(vec![], 1);
        let samples: Vec<u64> = (0..200).map(|_| cas.sample_latency_ns()).collect();
        let mean = samples.iter().sum::<u64>() as f64 / samples.len() as f64;
        let expected = CAS_MEAN_LATENCY_NS as f64;
        assert!((mean - expected).abs() / expected < 0.05, "mean was {mean}");
        for s in samples {
            assert!((s as f64) >= expected * 0.8 && (s as f64) <= expected * 1.2);
        }
        assert_eq!(cas.name(), "Recipe CAS");
    }

    #[test]
    fn marking_attested_twice_is_idempotent() {
        let mut cas = ConfigAndAttestService::new(vec![], 1);
        cas.mark_attested(2);
        cas.mark_attested(2);
        assert_eq!(cas.attested_nodes(), &[2]);
    }
}
