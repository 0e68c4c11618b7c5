//! Deterministic discrete-event cluster simulator.
//!
//! The paper evaluates Recipe on a three-machine SGX cluster with a 40 GbE fabric;
//! this crate replaces that testbed (README, "Design substitutions") with a
//! simulator that:
//!
//! * executes the *real* protocol logic and *real* cryptography of every replica
//!   (replicas are [`replica::Replica`] state machines — the same code the examples
//!   and integration tests run);
//! * moves messages through a Byzantine network model
//!   ([`recipe_net::NetworkFaultInjector`]) with configurable delays, drops,
//!   duplication, tampering and replays;
//! * accounts the work each node performs through a calibrated cost model
//!   ([`cost::CostProfile`]) driving a virtual clock, so throughput and latency
//!   reported by [`cluster::RunStats`] reflect the *relative* behaviour of the
//!   protocols rather than the wall-clock speed of this machine;
//! * is fully deterministic for a given seed — every experiment in the benchmark
//!   harness is reproducible bit-for-bit.
//!
//! A [`cluster::ReplicaGroup`] owns one group's replicas and network, every
//! group of a run schedules onto one [`queue::Calendar`], and the clients
//! live in `recipe_shard`'s request driver.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cluster;
mod cost;
mod queue;
mod replica;

pub use cluster::{
    Charged, Completion, GroupEvent, MessageCounts, ReplicaGroup, RunStats, Scheduler, SimCluster,
    SimConfig, StepOutcome,
};
pub use cost::{CostProfile, ProtocolCostModel, Work, COST_MODEL};
pub use queue::{Calendar, CalendarCounts, Key, Owner, TimerPayload};
pub use replica::{Ctx, RangeEntry, RecoveryState, Replica, RestartReport};

pub use recipe_tee::TrustedInstant as SimTime;
