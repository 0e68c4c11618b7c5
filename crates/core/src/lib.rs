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
//! On top of these layers the crate provides the pieces every transformed protocol
//! shares: the shielded message format ([`message::ShieldedMessage`]), the client
//! table ([`client_table::ClientTable`]), membership and view/epoch tracking with
//! trusted-lease failure detection ([`membership`], [`view`]), and the recovery /
//! join flow for new replicas ([`recovery`]). The [`node::RecipeNode`] facade wires
//! all of it to an enclave, a partitioned KV store and an RPC endpoint, exposing the
//! Table-3 API that Listing 1 programs against.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod auth;
pub mod client_table;
pub mod error;
pub mod membership;
pub mod message;
pub mod node;
pub mod policy;
pub mod recovery;
pub mod view;
pub mod wire;

pub use auth::{AuthLayer, BatchVerifyOutcome, TxnVerifyOutcome, VerifyOutcome, ViewOutcome};
pub use client_table::ClientTable;
pub use error::RecipeError;
pub use membership::Membership;
pub use message::{
    mac_compressions, BatchFrame, BatchOp, ClientReply, ClientRequest, FrameView, Operation,
    Request, SequenceTuple, ShieldedMessage, TxnBody, TxnFrame, BATCH_MAC_HEADER_LEN,
    SINGLE_MAC_HEADER_LEN, TXN_MAC_HEADER_LEN,
};
pub use node::{NodeRole, RecipeConfig, RecipeNode};
pub use policy::ConfidentialityMode;
pub use recovery::{JoinCoordinator, JoinRequest, StateSnapshot};
pub use view::ViewTracker;
