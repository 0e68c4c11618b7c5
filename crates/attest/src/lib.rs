//! Attestation services: the transferable-authentication phase of Recipe.
//!
//! Before any node may participate in the replication protocol it must prove that it
//! runs the expected code inside a genuine TEE (paper §3.6). This crate implements
//! the parties and the protocol of that phase:
//!
//! * [`verifier::QuoteVerifier`] — the abstract quote-verification service, with two
//!   implementations: the datacenter-local [`cas::ConfigAndAttestService`] (Recipe
//!   CAS) and the vendor-hosted [`ias::IntelAttestationService`] stand-in. Both run
//!   the same verification logic; they differ in their latency model, which is what
//!   Table 4 measures (CAS ≈ 0.169 s vs IAS ≈ 2.9 s per attestation).
//! * [`secrets::SecretBundle`] — the configuration and key material (signing keys,
//!   per-channel MAC keys, value-encryption key, membership) the protocol designer
//!   provisions to successfully attested replicas.
//! * [`protocol`] — the end-to-end remote-attestation exchange of Algorithm 2:
//!   nonce challenge → enclave report → hardware-signed quote → verification →
//!   Diffie-Hellman-protected secret provisioning.
//!
//! The real Intel Attestation Service is replaced by a latency-modeled stand-in
//! (README, "Design substitutions"); the protocol logic (what gets signed, what gets checked, what gets
//! provisioned) is implemented in full and exercised by both paths.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cas;
pub mod error;
pub mod ias;
pub mod protocol;
pub mod secrets;
pub mod verifier;

pub use cas::ConfigAndAttestService;
pub use error::AttestError;
pub use ias::IntelAttestationService;
pub use protocol::{derive_channel_keys, run_remote_attestation, AttestationOutcome};
pub use secrets::{ClusterConfig, SecretBundle};
pub use verifier::QuoteVerifier;
