//! **Recipe-lib** — the paper's primary contribution.
//!
//! Recipe transforms an unmodified Crash-Fault-Tolerant (CFT) replication protocol
//! into one that tolerates Byzantine behaviour of the untrusted infrastructure, by
//! layering two TEE-assisted mechanisms under the protocol (paper §1.2, §3):
//!
//! 1. **Transferable authentication** — every message carries a MAC (or signature)
//!    produced inside the sender's attested enclave; receivers verify it inside
//!    their own enclave. Only attested nodes ever hold the keys, so a valid
//!    authenticator implies the sender runs the correct protocol code
//!    ([`auth::AuthLayer`]).
//! 2. **Non-equivocation** — every channel carries a trusted, monotonically
//!    increasing counter assigned inside the sender's enclave; receivers accept a
//!    message only if its counter is fresh. Replays and conflicting statements for
//!    the same slot become detectable ([`auth::VerifyOutcome`], Algorithm 1).
//!
//! Beside the two layers the crate holds what every transformed protocol
//! shares: the frame formats (`message`), their strict binary codec
//! ([`wire`]) and the recycled buffers frames are built in (`pool`), the
//! replica membership and its quorum arithmetic
//! (`membership`), and the per-group confidentiality policy (`policy`).
//! The replica that wraps a CFT protocol in these layers is
//! `recipe_protocols::RecipeReplica`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod auth;
mod error;
mod membership;
mod message;
mod policy;
mod pool;
pub mod wire;

pub use auth::{AuthLayer, BatchVerifyOutcome, TxnVerifyOutcome, VerifyOutcome, ViewOutcome};
pub use error::RecipeError;
pub use membership::Membership;
pub use message::{
    mac_compressions, BatchFrame, BatchOp, ClientReply, ClientRequest, FrameView, Operation,
    Request, SequenceTuple, ShieldedMessage, TxnBody, TxnFrame, BATCH_MAC_HEADER_LEN,
    SINGLE_MAC_HEADER_LEN, TXN_MAC_HEADER_LEN,
};
pub use policy::ConfidentialityMode;
pub use pool::FramePool;
