//! # recipe-scenario — declarative experiment descriptions
//!
//! Every knob of a sharded deployment — [`recipe_shard::DeploymentSpec`],
//! per-shard [`recipe_shard::ShardPolicy`] overrides, workload mix,
//! fault/crash plans, transaction and rebalancing config, telemetry — used to
//! be reachable only through builder code, so scenario diversity was whatever
//! each experiment binary hand-coded. This crate makes the whole experiment
//! surface *data*: a TOML (or JSON) **scenario file** describes the
//! deployment, the workload and a block of declared expectations, and
//! [`run_scenario`] drives it through the unified driver engine and checks
//! them.
//!
//! The loading path is deliberately strict — stricter than the vendored serde
//! derive, which ignores unknown map keys:
//!
//! * [`toml`] parses the file into a [`serde::Value`] tree (JSON reuses the
//!   `serde_json` stand-in), with line-numbered parse errors;
//! * [`decode`] decodes the tree with full dotted-path error messages,
//!   rejecting unknown keys with the allowed set;
//! * `model` assembles and cross-validates the [`Scenario`], catching
//!   contradictory knobs (a crash entry naming a node outside the group,
//!   `batch_ops = 0`, transaction fan-out wider than the deployment, PBFT
//!   with confidential shards, …) with the offending field named — the same
//!   mistakes the builder API would panic on or silently clamp;
//! * [`run`] executes the scenario once per declared protocol and reports
//!   each outcome with its violated expectations.
//!
//! The corpus of named scenario files lives in `scenarios/` at the repository
//! root and runs as a CI matrix; `scenario_runner` in `recipe-bench` is the
//! CLI entry point.

pub mod decode;
mod model;
pub mod run;
pub mod toml;

pub use decode::ScenarioError;
pub use model::{Expectations, Scenario, WorkloadKind};
pub use recipe_protocols::Protocol;
pub use run::{run_protocol, run_scenario, ScenarioOutcome};
