//! Lamport timestamps.
//!
//! R-ABD tags every key-value pair with a Lamport timestamp `(logical, node)` stored
//! in the enclave next to the key (paper §B.2, choice A): writes pick a timestamp
//! higher than any observed so far, and reads return the value with the highest
//! timestamp. Ties are broken by node id, which makes the order total.

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;

/// A Lamport timestamp: a logical counter with the writing node's id as tiebreaker.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub struct Timestamp {
    /// Logical clock value.
    pub logical: u64,
    /// Writer node id, breaking ties between concurrent writers.
    pub node: u64,
}

impl Timestamp {
    /// The zero timestamp (smaller than every real write).
    pub const ZERO: Timestamp = Timestamp {
        logical: 0,
        node: 0,
    };

    /// Creates a timestamp.
    pub const fn new(logical: u64, node: u64) -> Self {
        Timestamp { logical, node }
    }

    /// Returns the timestamp a writer at `node` should use after having observed
    /// `self` as the highest timestamp so far (ABD's "create a higher TS" step).
    pub fn next_for(&self, node: u64) -> Timestamp {
        Timestamp {
            logical: self.logical + 1,
            node,
        }
    }
}

impl PartialOrd for Timestamp {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Timestamp {
    fn cmp(&self, other: &Self) -> Ordering {
        self.logical
            .cmp(&other.logical)
            .then(self.node.cmp(&other.node))
    }
}

impl fmt::Debug for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ts({}.{})", self.logical, self.node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn ordering_is_by_logical_then_node() {
        assert!(Timestamp::new(2, 0) > Timestamp::new(1, 9));
        assert!(Timestamp::new(2, 3) > Timestamp::new(2, 1));
        assert_eq!(Timestamp::new(2, 3), Timestamp::new(2, 3));
        assert!(Timestamp::ZERO < Timestamp::new(0, 1));
    }

    #[test]
    fn next_for_is_strictly_greater() {
        let observed = Timestamp::new(7, 4);
        let next = observed.next_for(2);
        assert!(next > observed);
        assert_eq!(next, Timestamp::new(8, 2));
    }

    #[test]
    fn max_selects_the_larger() {
        let a = Timestamp::new(3, 1);
        let b = Timestamp::new(3, 2);
        assert_eq!(a.max(b), b);
        assert_eq!(b.max(a), b);
        assert_eq!(a.max(a), a);
    }

    #[test]
    fn debug_format() {
        assert_eq!(format!("{:?}", Timestamp::new(5, 2)), "ts(5.2)");
    }

    proptest! {
        #[test]
        fn next_for_always_dominates(logical in 0u64..u64::MAX / 2, node in 0u64..16, writer in 0u64..16) {
            let observed = Timestamp::new(logical, node);
            prop_assert!(observed.next_for(writer) > observed);
        }

        #[test]
        fn two_writers_never_produce_equal_next(logical in 0u64..1000, a in 0u64..16, b in 0u64..16) {
            prop_assume!(a != b);
            let observed = Timestamp::new(logical, 0);
            prop_assert_ne!(observed.next_for(a), observed.next_for(b));
        }

        #[test]
        fn ordering_is_total_and_antisymmetric(l1 in 0u64..100, n1 in 0u64..8,
                                               l2 in 0u64..100, n2 in 0u64..8) {
            let a = Timestamp::new(l1, n1);
            let b = Timestamp::new(l2, n2);
            match a.cmp(&b) {
                Ordering::Less => prop_assert_eq!(b.cmp(&a), Ordering::Greater),
                Ordering::Greater => prop_assert_eq!(b.cmp(&a), Ordering::Less),
                Ordering::Equal => prop_assert_eq!(a, b),
            }
        }
    }
}
