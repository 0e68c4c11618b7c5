//! Trusted monotonic counters.
//!
//! SGX deprecated its hardware monotonic counters (paper references [22, 25]); Recipe
//! instead maintains per-channel counters *inside* the enclave, which is sufficient
//! because the counter only needs to be protected from the untrusted host, not from
//! enclave crashes (a crashed enclave is a crash fault, which the CFT protocol
//! already tolerates).
//!
//! A [`TrustedCounter`] is the sequencer behind the non-equivocation layer: the
//! sender assigns `cnt_cq + 1` to every message on channel `cq` and the receiver
//! accepts a message only if its counter is consistent with the last committed one
//! (§3.2, Algorithm 1). That freshness rule is decided in one place,
//! `recipe_core::AuthLayer`'s admission step; the counter only holds the value.

use serde::{Deserialize, Serialize};

use crate::error::TeeError;

/// A monotonically increasing counter that can never be rolled back.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct TrustedCounter {
    value: u64,
}

impl TrustedCounter {
    /// Returns the current value without modifying it.
    pub fn current(&self) -> u64 {
        self.value
    }

    /// Increments the counter and returns the **new** value.
    ///
    /// This is the `cnt_cq ← cnt_cq + 1` step of Algorithm 1: the returned value is
    /// unique and strictly greater than every value returned before it.
    pub fn increment(&mut self) -> u64 {
        self.value += 1;
        self.value
    }

    /// Advances the counter to `target`.
    ///
    /// Used by receivers that accept a batch of consecutive messages at once. Returns
    /// an error if `target` is not strictly greater than the current value, because
    /// that would allow replays.
    pub fn advance_to(&mut self, target: u64) -> Result<(), TeeError> {
        if target <= self.value {
            return Err(TeeError::CounterRegression {
                current: self.value,
                attempted: target,
            });
        }
        self.value = target;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn increments_are_strictly_monotonic() {
        let mut c = TrustedCounter::default();
        let a = c.increment();
        let b = c.increment();
        let d = c.increment();
        assert!(a < b && b < d);
        assert_eq!(d, 3);
    }

    #[test]
    fn advance_to_accepts_only_forward_jumps() {
        let mut c = TrustedCounter::default();
        c.advance_to(5).unwrap();
        assert!(c.advance_to(8).is_ok());
        assert_eq!(c.current(), 8);
        assert_eq!(
            c.advance_to(8),
            Err(TeeError::CounterRegression {
                current: 8,
                attempted: 8
            })
        );
        assert!(c.advance_to(3).is_err());
        assert_eq!(c.current(), 8);
    }

    proptest! {
        #[test]
        fn increment_sequence_is_gap_free(start in 0u64..1_000_000, steps in 1usize..200) {
            let mut c = TrustedCounter::default();
            if start > 0 {
                c.advance_to(start).unwrap();
            }
            let mut prev = c.current();
            for _ in 0..steps {
                let next = c.increment();
                prop_assert_eq!(next, prev + 1);
                prev = next;
            }
        }
    }
}
