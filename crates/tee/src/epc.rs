//! Enclave Page Cache (EPC) model.
//!
//! SGX enclaves page through a small protected memory region; once the working set
//! exceeds it, pages are encrypted/evicted and performance collapses. The paper
//! observes exactly this: throughput drops with 4 KiB values (Figure 3), batching
//! large values can exhaust SCONE's memory (§B.3), and running in simulation mode
//! with "unlimited EPC" removes most of the overhead (Figure 6a discussion).
//!
//! [`EpcModel`] tracks the bytes currently resident in the (simulated) enclave and
//! reports a *pressure factor* ≥ 1.0 that the simulator's cost model multiplies into
//! enclave-side processing costs. The factor is 1.0 while the working set fits,
//! then grows linearly with over-subscription up to a cap — a deliberately simple
//! stand-in for the measured EPC-paging cliff.

use serde::{Deserialize, Serialize};

use crate::error::TeeError;

/// Default usable EPC size (bytes). SGXv1 platforms expose ~94 MiB to applications;
/// we default to a deliberately small 8 MiB so that the value-size experiments show
/// EPC pressure at the paper's scale without needing gigabytes of simulated state.
pub const DEFAULT_EPC_BYTES: usize = 8 * 1024 * 1024;

/// Maximum slowdown attributed to EPC paging.
pub const MAX_PRESSURE_FACTOR: f64 = 8.0;

/// Tracks simulated enclave memory usage and derives a paging-pressure factor.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EpcModel {
    capacity: usize,
    resident: usize,
    /// High-water mark, for reporting.
    peak: usize,
    /// When true, allocations beyond capacity fail (models SCONE crashing when
    /// batching exhausts memory, §B.3) instead of merely slowing down.
    strict: bool,
}

impl Default for EpcModel {
    fn default() -> Self {
        EpcModel::new(DEFAULT_EPC_BYTES)
    }
}

impl EpcModel {
    /// Creates a model with the given usable capacity in bytes.
    pub fn new(capacity: usize) -> Self {
        EpcModel {
            capacity,
            resident: 0,
            peak: 0,
            strict: false,
        }
    }

    /// Creates a model that fails allocations beyond capacity instead of paging.
    pub fn new_strict(capacity: usize) -> Self {
        EpcModel {
            strict: true,
            ..EpcModel::new(capacity)
        }
    }

    /// Creates an effectively unlimited model ("simulation mode" in SCONE terms),
    /// used to reproduce the paper's observation that overheads vanish when EPC is
    /// not a constraint.
    pub fn unlimited() -> Self {
        EpcModel::new(usize::MAX / 2)
    }

    /// Usable capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Bytes currently resident in the enclave.
    pub fn resident(&self) -> usize {
        self.resident
    }

    /// Highest residency observed.
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// Registers an allocation of `bytes` inside the enclave.
    pub fn allocate(&mut self, bytes: usize) -> Result<(), TeeError> {
        if self.strict && self.resident.saturating_add(bytes) > self.capacity {
            return Err(TeeError::EpcExhausted {
                requested: bytes,
                available: self.capacity.saturating_sub(self.resident),
            });
        }
        self.resident = self.resident.saturating_add(bytes);
        self.peak = self.peak.max(self.resident);
        Ok(())
    }

    /// Registers a release of `bytes` previously allocated.
    pub fn release(&mut self, bytes: usize) {
        self.resident = self.resident.saturating_sub(bytes);
    }

    /// Current over-subscription ratio (resident / capacity).
    pub fn utilization(&self) -> f64 {
        if self.capacity == 0 {
            return MAX_PRESSURE_FACTOR;
        }
        self.resident as f64 / self.capacity as f64
    }

    /// Paging-pressure multiplier the cost model applies to enclave-side work.
    ///
    /// 1.0 while the working set fits; above capacity it grows linearly with the
    /// over-subscription ratio (2× over-subscribed → ≈(1 + 2·k)×), capped at
    /// [`MAX_PRESSURE_FACTOR`].
    pub fn pressure_factor(&self) -> f64 {
        let util = self.utilization();
        if util <= 1.0 {
            1.0
        } else {
            let over = util - 1.0;
            (1.0 + over * 3.0).min(MAX_PRESSURE_FACTOR)
        }
    }

    /// Convenience: pressure factor if `extra` additional bytes were resident.
    pub fn pressure_factor_with(&self, extra: usize) -> f64 {
        let mut probe = self.clone();
        let _ = probe.allocate(extra);
        probe.pressure_factor()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn no_pressure_below_capacity() {
        let mut epc = EpcModel::new(1024);
        epc.allocate(512).unwrap();
        assert_eq!(epc.pressure_factor(), 1.0);
        assert_eq!(epc.resident(), 512);
    }

    #[test]
    fn pressure_grows_past_capacity() {
        let mut epc = EpcModel::new(1000);
        epc.allocate(2000).unwrap();
        let factor = epc.pressure_factor();
        assert!(factor > 1.0);
        assert!(factor <= MAX_PRESSURE_FACTOR);
        epc.allocate(1_000_000).unwrap();
        assert_eq!(epc.pressure_factor(), MAX_PRESSURE_FACTOR);
    }

    #[test]
    fn release_reduces_pressure() {
        let mut epc = EpcModel::new(1000);
        epc.allocate(3000).unwrap();
        let high = epc.pressure_factor();
        epc.release(2500);
        assert!(epc.pressure_factor() < high);
        assert_eq!(epc.pressure_factor(), 1.0);
        assert_eq!(epc.peak(), 3000);
    }

    #[test]
    fn strict_mode_fails_over_capacity() {
        let mut epc = EpcModel::new_strict(1000);
        epc.allocate(900).unwrap();
        assert!(matches!(
            epc.allocate(200),
            Err(TeeError::EpcExhausted { .. })
        ));
        assert_eq!(epc.resident(), 900);
    }

    #[test]
    fn unlimited_model_never_pressures() {
        let mut epc = EpcModel::unlimited();
        epc.allocate(10_000_000_000).unwrap();
        assert_eq!(epc.pressure_factor(), 1.0);
    }

    #[test]
    fn release_saturates_at_zero() {
        let mut epc = EpcModel::new(100);
        epc.allocate(10).unwrap();
        epc.release(50);
        assert_eq!(epc.resident(), 0);
    }

    #[test]
    fn probe_does_not_mutate() {
        let mut epc = EpcModel::new(1000);
        epc.allocate(900).unwrap();
        let probed = epc.pressure_factor_with(5_000);
        assert!(probed > 1.0);
        assert_eq!(epc.resident(), 900);
        assert_eq!(epc.pressure_factor(), 1.0);
    }

    proptest! {
        #[test]
        fn pressure_is_monotone_in_residency(cap in 1usize..100_000,
                                             a in 0usize..1_000_000,
                                             b in 0usize..1_000_000) {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            let mut epc_lo = EpcModel::new(cap);
            epc_lo.allocate(lo).unwrap();
            let mut epc_hi = EpcModel::new(cap);
            epc_hi.allocate(hi).unwrap();
            prop_assert!(epc_lo.pressure_factor() <= epc_hi.pressure_factor());
        }

        #[test]
        fn pressure_bounded(cap in 1usize..100_000, bytes in 0usize..10_000_000) {
            let mut epc = EpcModel::new(cap);
            epc.allocate(bytes).unwrap();
            let f = epc.pressure_factor();
            prop_assert!((1.0..=MAX_PRESSURE_FACTOR).contains(&f));
        }
    }
}
