//! Simulated Trusted Execution Environment (TEE) substrate.
//!
//! The Recipe paper builds on Intel SGX (via the SCONE runtime). No SGX hardware is
//! available to this reproduction, so this crate provides a **software enclave** that
//! exposes the same *properties* Recipe relies on (see README, "Design
//! substitutions"):
//!
//! * an **identity** — a measurement (hash) of the code loaded into the enclave,
//!   signed by a hardware-rooted key to form an attestation *quote*
//!   ([`enclave::Enclave`], [`quote::Quote`]);
//! * **isolated secrets** — key material provisioned into the enclave is only
//!   reachable through the enclave handle, never through the "host" side of a node
//!   ([`enclave::Enclave::provision_mac_key`], [`sealed::SealedBlob`]);
//! * **trusted monotonic counters** — the building block of the non-equivocation
//!   layer ([`counter::TrustedCounter`]);
//! * **trusted time** — a virtual clock whose progression the enclave may rely on,
//!   because SGX has no trustworthy timer ([`clock::TrustedInstant`]);
//! * an **EPC curve** — SGX's Enclave Page Cache is small (~94 MiB usable);
//!   [`epc::pressure`] maps an enclave's capacity and resident bytes to a pressure
//!   factor that the simulator's cost model turns into the slowdowns the paper
//!   measures for large values (Figure 3) and for batching (Figure 6a).
//!
//! The threat model mirrors the paper's: everything *outside* the enclave (host
//! memory, OS, network) may be Byzantine; the enclave itself can only crash.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clock;
mod counter;
mod enclave;
pub mod epc;
mod error;
mod quote;
mod sealed;

pub use clock::TrustedInstant;
pub use counter::TrustedCounter;
pub use enclave::{
    CipherHandle, CounterHandle, Enclave, EnclaveConfig, EnclaveId, KeyHandle, Measurement,
    CIPHER_LABEL,
};
pub use error::TeeError;
pub use quote::{Quote, Report};
pub use sealed::SealedBlob;
