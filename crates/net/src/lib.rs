//! The network substrate of the simulated deployment: identifiers, the
//! Byzantine network adversary and the transport cost model.
//!
//! The paper builds its communication layer on eRPC over RDMA/DPDK, because kernel
//! sockets are prohibitively expensive inside TEEs (paper §A.2 Q1, §A.3 "Recipe
//! networking"). No real NIC is touched here: the discrete-event simulator in
//! `recipe-sim` moves frames between replicas on a virtual clock, and this crate
//! supplies what it moves them with:
//!
//! * `types` — node and channel identifiers, and [`types::WireMessage`], a
//!   frame as the adversary captures it for replay.
//! * `faults` — the Byzantine network adversary: drop, duplicate, delay (and
//!   so reorder), tamper and replay decisions on the frames the simulator
//!   moves, plus the crash plans that take replicas down and bring them back.
//! * `cost` — the calibrated transport cost model (kernel sockets vs direct I/O,
//!   native vs TEE) used to regenerate Figure 6b and to drive the simulator's
//!   virtual clock.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cost;
mod faults;
mod types;

pub use cost::{ExecMode, NetCostModel, Transport};
pub use faults::{CrashEntry, CrashPlan, FaultPlan, FrameFault, NetworkFaultInjector};
pub use types::{ChannelId, NodeId, WireMessage};
