//! Direct-I/O style RPC stack for Recipe.
//!
//! The paper builds its communication layer on eRPC over RDMA/DPDK, because kernel
//! sockets are prohibitively expensive inside TEEs (paper §A.2 Q1, §A.3 "Recipe
//! networking"). This crate reproduces the *programming model* of that stack and the
//! cost structure of its alternatives:
//!
//! * [`endpoint::RpcEndpoint`] — the per-thread `RPCobj`: registered request
//!   handlers, private TX/RX ring queues, asynchronous `send` / `respond` / `poll`
//!   operations (Table 3, Network API).
//! * [`types`] — message framing: [`types::MsgBuf`], [`types::WireMessage`],
//!   request types, node and channel identifiers.
//! * [`fabric`] — the transport interface that moves wire messages between
//!   endpoints. The in-process [`fabric::LoopbackFabric`] delivers synchronously for
//!   unit tests and examples; the discrete-event simulator in `recipe-sim` provides
//!   the full Byzantine-network implementation.
//! * [`faults`] — the Byzantine network adversary: drop, duplicate, reorder, delay,
//!   tamper and replay injection applied to wire messages.
//! * [`cost`] — the calibrated transport cost model (kernel sockets vs direct I/O,
//!   native vs TEE) used to regenerate Figure 6b and to drive the simulator's
//!   virtual clock.
//!
//! No real NIC is touched: RDMA/DPDK hardware is replaced by an in-memory fabric plus
//! a cost model (README, "Design substitutions"), while the handler/queue/polling
//! code paths the protocols exercise are real.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
pub mod endpoint;
pub mod error;
pub mod fabric;
pub mod faults;
pub mod types;

pub use cost::{ExecMode, NetCostModel, Transport};
pub use endpoint::{PollStats, RequestHandler, RpcEndpoint, RpcEndpointConfig};
pub use error::NetError;
pub use fabric::{Fabric, LoopbackFabric};
pub use faults::{
    CrashEntry, CrashPlan, FaultDecision, FaultPlan, FrameFault, NetworkFaultInjector,
};
pub use types::{ChannelId, MsgBuf, NodeId, ReqType, WireMessage};
