//! Enclave Page Cache (EPC) pressure curve.
//!
//! SGX enclaves page through a small protected memory region; once the working set
//! exceeds it, pages are encrypted/evicted and performance collapses. The paper
//! observes exactly this: throughput drops with 4 KiB values (Figure 3), batching
//! large values can exhaust SCONE's memory (§B.3), and running in simulation mode
//! with "unlimited EPC" removes most of the overhead (Figure 6a discussion).
//!
//! [`pressure`] turns an enclave's capacity and resident bytes into a *pressure
//! factor* ≥ 1.0 that the simulator's cost model multiplies into enclave-side
//! processing costs. The factor is 1.0 while the working set fits, then grows
//! linearly with over-subscription up to a cap — a deliberately simple stand-in
//! for the measured EPC-paging cliff.

/// Default usable EPC size (bytes). SGXv1 platforms expose ~94 MiB to applications;
/// we default to a deliberately small 8 MiB so that the value-size experiments show
/// EPC pressure at the paper's scale without needing gigabytes of simulated state.
pub const DEFAULT_EPC_BYTES: usize = 8 * 1024 * 1024;

/// Maximum slowdown attributed to EPC paging.
pub const MAX_PRESSURE_FACTOR: f64 = 8.0;

/// Paging-pressure multiplier for an enclave of `capacity` usable bytes
/// holding `resident` bytes.
///
/// 1.0 while the working set fits; above capacity it grows by 3 per unit of
/// over-subscription (2× over-subscribed → 4×), capped at
/// [`MAX_PRESSURE_FACTOR`]. An enclave with no usable EPC pages everything
/// and pays the cap.
pub fn pressure(capacity: usize, resident: usize) -> f64 {
    if capacity == 0 {
        return MAX_PRESSURE_FACTOR;
    }
    let util = resident as f64 / capacity as f64;
    if util <= 1.0 {
        1.0
    } else {
        (1.0 + (util - 1.0) * 3.0).min(MAX_PRESSURE_FACTOR)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn no_pressure_at_or_below_capacity() {
        assert_eq!(pressure(1024, 0), 1.0);
        assert_eq!(pressure(1024, 512), 1.0);
        assert_eq!(pressure(1024, 1024), 1.0);
    }

    #[test]
    fn pressure_grows_by_three_per_unit_of_over_subscription() {
        assert_eq!(pressure(1000, 1500), 2.5);
        assert_eq!(pressure(1000, 2000), 4.0);
        assert_eq!(pressure(1000, 3000), 7.0);
    }

    #[test]
    fn pressure_is_capped() {
        assert_eq!(pressure(1000, 3334), MAX_PRESSURE_FACTOR);
        assert_eq!(pressure(1000, 1_000_000), 8.0);
    }

    #[test]
    fn zero_capacity_pays_the_cap() {
        assert_eq!(pressure(0, 0), MAX_PRESSURE_FACTOR);
        assert_eq!(pressure(0, 4096), MAX_PRESSURE_FACTOR);
    }

    proptest! {
        #[test]
        fn pressure_is_monotone_in_residency(cap in 1usize..100_000,
                                             a in 0usize..1_000_000,
                                             b in 0usize..1_000_000) {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(pressure(cap, lo) <= pressure(cap, hi));
        }

        #[test]
        fn pressure_bounded(cap in 1usize..100_000, bytes in 0usize..10_000_000) {
            let f = pressure(cap, bytes);
            prop_assert!((1.0..=MAX_PRESSURE_FACTOR).contains(&f));
        }
    }
}
