//! Cost attribution: which category consumed each charged virtual nanosecond.
//!
//! The simulator's cost model composes every charge out of a handful of f64
//! component terms (transport, MAC, AEAD, TEE multiplier, EPC pressure, …) and
//! truncates the sum to integer nanoseconds. The same evaluation files that
//! integer by component into a [`CostBreakdown`] (cumulative truncation, in
//! `recipe_sim::ProtocolCostModel`), so the per-category integers always sum to the exact
//! `u64` the simulator charged — the attribution table cannot drift from the
//! clock it explains.

use serde::{Deserialize, Serialize};

/// A leaf cost component of the calibrated cost model. Every charged virtual
/// nanosecond lands in exactly one category; `Idle` is filled in at export
/// time as `replicas × elapsed − Σ busy`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum CostCategory {
    /// Wire/transport work (NIC, syscall or direct-I/O path, per-byte copies).
    Transport,
    /// Fixed per-frame authentication work: MAC setup plus the trusted
    /// counter slot that makes the frame non-equivocating.
    CounterSlot,
    /// Per-byte MAC/hash work over payloads.
    Mac,
    /// Asymmetric signature work (classical BFT baselines).
    Signature,
    /// Per-byte AEAD encrypt/decrypt work (confidential mode).
    Aead,
    /// Application work at native speed: parsing, KV index, queueing.
    App,
    /// The extra application time caused by TEE execution (enclave
    /// transitions, shielded memory) — the `tee_app_penalty` excess.
    TeeExec,
    /// The extra application time caused by EPC paging pressure — the
    /// pressure-factor excess over 1.0.
    EpcPressure,
    /// Per-op marginal dispatch work inside batch frames.
    BatchOverhead,
    /// Replication round-trip time charged to 2PC participants.
    Replication,
    /// Time a node spent idle (derived at export, never charged).
    Idle,
}

impl CostCategory {
    /// Number of categories (the fixed width of a [`CostBreakdown`]).
    pub const COUNT: usize = 11;

    /// Every category, in declaration order.
    pub const ALL: [CostCategory; CostCategory::COUNT] = [
        CostCategory::Transport,
        CostCategory::CounterSlot,
        CostCategory::Mac,
        CostCategory::Signature,
        CostCategory::Aead,
        CostCategory::App,
        CostCategory::TeeExec,
        CostCategory::EpcPressure,
        CostCategory::BatchOverhead,
        CostCategory::Replication,
        CostCategory::Idle,
    ];

    /// Stable lower-snake name used in exports and bench tables.
    pub fn as_str(self) -> &'static str {
        match self {
            CostCategory::Transport => "transport",
            CostCategory::CounterSlot => "counter_slot",
            CostCategory::Mac => "mac",
            CostCategory::Signature => "signature",
            CostCategory::Aead => "aead",
            CostCategory::App => "app",
            CostCategory::TeeExec => "tee_exec",
            CostCategory::EpcPressure => "epc_pressure",
            CostCategory::BatchOverhead => "batch_overhead",
            CostCategory::Replication => "replication",
            CostCategory::Idle => "idle",
        }
    }

    fn index(self) -> usize {
        CostCategory::ALL
            .iter()
            .position(|c| *c == self)
            // recipe-lint: allow(unwrap-in-lib, reason = "ALL enumerates every CostCategory variant")
            .expect("category is in ALL")
    }
}

/// Integer nanoseconds per [`CostCategory`]; the unit the attribution table
/// accumulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CostBreakdown {
    slots: [u64; CostCategory::COUNT],
}

impl CostBreakdown {
    /// The all-zero breakdown.
    pub fn new() -> Self {
        CostBreakdown::default()
    }

    /// Adds `ns` to one category.
    pub fn add(&mut self, cat: CostCategory, ns: u64) {
        self.slots[cat.index()] += ns;
    }

    /// Nanoseconds attributed to `cat`.
    pub fn get(&self, cat: CostCategory) -> u64 {
        self.slots[cat.index()]
    }

    /// Sum over all categories.
    pub fn total(&self) -> u64 {
        self.slots.iter().sum()
    }

    /// Element-wise accumulate.
    pub(crate) fn merge(&mut self, other: &CostBreakdown) {
        for (a, b) in self.slots.iter_mut().zip(other.slots.iter()) {
            *a += b;
        }
    }

    /// `(category, ns)` pairs in declaration order (zero entries included).
    pub fn entries(&self) -> impl Iterator<Item = (CostCategory, u64)> + '_ {
        CostCategory::ALL
            .iter()
            .map(move |&c| (c, self.slots[c.index()]))
    }
}

/// The per-shard "where the nanoseconds went" row of a telemetry report.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardAttribution {
    /// Shard id.
    pub shard: u32,
    /// Replicas in the shard's group.
    pub replicas: u32,
    /// Virtual time the shard's group ran for, nanoseconds.
    pub elapsed_ns: u64,
    /// Busy nanoseconds by category (plus `Idle` once filled).
    pub busy: CostBreakdown,
}

impl ShardAttribution {
    /// Total node-time the shard had available: `replicas × elapsed`.
    pub fn capacity_ns(&self) -> u64 {
        self.replicas as u64 * self.elapsed_ns
    }

    /// Fills the `Idle` slot so that `busy.total() == capacity_ns()` whenever
    /// charged work fits the run (work scheduled past the end of the run can
    /// push the busy sum above capacity; `Idle` then stays 0 and the caller's
    /// ±1% reconciliation check covers the overhang).
    pub(crate) fn fill_idle(&mut self) {
        let busy = self.busy.total();
        let idle = self.capacity_ns().saturating_sub(busy);
        self.busy.add(CostCategory::Idle, idle);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_stable_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for cat in CostCategory::ALL {
            assert!(seen.insert(cat.as_str()), "duplicate name {}", cat.as_str());
        }
        assert_eq!(seen.len(), CostCategory::COUNT);
    }

    #[test]
    fn merge_accumulates_elementwise() {
        let mut a = CostBreakdown::new();
        a.add(CostCategory::Transport, 10);
        let mut b = CostBreakdown::new();
        b.add(CostCategory::Transport, 5);
        b.add(CostCategory::Aead, 7);
        a.merge(&b);
        assert_eq!(a.get(CostCategory::Transport), 15);
        assert_eq!(a.get(CostCategory::Aead), 7);
        assert_eq!(a.total(), 22);
    }

    #[test]
    fn fill_idle_reconciles_to_capacity() {
        let mut attr = ShardAttribution {
            shard: 2,
            replicas: 3,
            elapsed_ns: 1_000,
            busy: CostBreakdown::new(),
        };
        attr.busy.add(CostCategory::App, 1_800);
        attr.fill_idle();
        assert_eq!(attr.busy.get(CostCategory::Idle), 1_200);
        assert_eq!(attr.busy.total(), attr.capacity_ns());

        // Overcommitted shards keep Idle at zero instead of underflowing.
        let mut over = ShardAttribution {
            shard: 0,
            replicas: 1,
            elapsed_ns: 100,
            busy: CostBreakdown::new(),
        };
        over.busy.add(CostCategory::App, 150);
        over.fill_idle();
        assert_eq!(over.busy.get(CostCategory::Idle), 0);
    }
}
