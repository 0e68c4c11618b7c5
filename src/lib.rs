//! Umbrella crate for the Recipe reproduction.
//!
//! Re-exports every workspace crate under one roof so the examples and the
//! integration tests can use a single dependency. The interesting code lives in the
//! member crates:
//!
//! * [`recipe_core`] — the Recipe library itself (the authentication and
//!   non-equivocation layers, the shielded frame formats and their codec,
//!   membership).
//! * [`recipe_tee`], [`recipe_net`], [`recipe_kv`], [`recipe_attest`],
//!   [`recipe_crypto`] — the substrates (simulated TEE, network framing, faults and
//!   cost model, partitioned KV store, attestation services, cryptography).
//! * [`recipe_protocols`] — Raft, Chain Replication, ABD and AllConcur as cores of
//!   the one replica, `RecipeReplica`, that runs each native or Recipe-transformed
//!   (R-Raft, R-CR, R-ABD, R-AllConcur).
//! * [`recipe_bft`] — the PBFT and Damysus baselines.
//! * [`recipe_sim`] and [`recipe_workload`] — the deterministic cluster simulator
//!   and the YCSB-style workload generator that drive the evaluation.
//! * [`recipe_shard`] — the sharded keyspace subsystem: a consistent-hash router
//!   over many independent replica groups, driven on one virtual clock.
//! * [`recipe_telemetry`] — the deterministic observability subsystem: virtual-clock
//!   span tracing, a metrics registry and per-shard cost attribution.
//! * [`recipe_scenario`] — declarative scenario files: TOML/JSON experiment
//!   descriptions (deployment + workload + expectations) run through the driver.
//! * [`recipe_gateway`] — the tenant gateway: one admit/complete pair
//!   (auth, admission, key scoping) every request traverses before the router.

pub use recipe_attest as attest;
pub use recipe_bft as bft;
pub use recipe_core as core;
pub use recipe_crypto as crypto;
pub use recipe_gateway as gateway;
pub use recipe_kv as kv;
pub use recipe_net as net;
pub use recipe_protocols as protocols;
pub use recipe_scenario as scenario;
pub use recipe_shard as shard;
pub use recipe_sim as sim;
pub use recipe_tee as tee;
pub use recipe_telemetry as telemetry;
pub use recipe_workload as workload;
