//! Trusted time.
//!
//! SGX enclaves cannot trust the OS clock (paper §3.5, "Failure detection"): Recipe
//! needs a time source whose *relative* progression is trustworthy. In this
//! reproduction all time is virtual — the simulator advances it deterministically
//! and hands each replica the current [`TrustedInstant`] with every event it
//! delivers.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A point in (virtual) time, measured in nanoseconds from the start of the run.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct TrustedInstant {
    nanos: u64,
}

impl TrustedInstant {
    /// The origin of virtual time.
    pub const ZERO: TrustedInstant = TrustedInstant { nanos: 0 };

    /// Builds an instant from nanoseconds since the origin.
    pub const fn from_nanos(nanos: u64) -> Self {
        TrustedInstant { nanos }
    }

    /// Builds an instant from milliseconds since the origin.
    pub const fn from_millis(millis: u64) -> Self {
        TrustedInstant {
            nanos: millis * 1_000_000,
        }
    }

    /// Nanoseconds since the origin.
    pub const fn as_nanos(&self) -> u64 {
        self.nanos
    }

    /// Seconds since the origin, as a float (for reporting).
    pub(crate) fn as_secs_f64(&self) -> f64 {
        self.nanos as f64 / 1e9
    }
}

impl fmt::Debug for TrustedInstant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.nanos >= 1_000_000_000 {
            write!(f, "t={:.3}s", self.as_secs_f64())
        } else if self.nanos >= 1_000_000 {
            write!(f, "t={:.3}ms", self.nanos as f64 / 1e6)
        } else {
            write!(f, "t={}ns", self.nanos)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn millis_convert_to_nanos() {
        assert_eq!(TrustedInstant::from_millis(2).as_nanos(), 2_000_000);
    }

    #[test]
    fn debug_formats_units() {
        assert_eq!(format!("{:?}", TrustedInstant::from_nanos(5)), "t=5ns");
        assert_eq!(format!("{:?}", TrustedInstant::from_millis(5)), "t=5.000ms");
        assert_eq!(
            format!("{:?}", TrustedInstant::from_millis(1500)),
            "t=1.500s"
        );
    }

    #[test]
    fn seconds_reporting() {
        assert!((TrustedInstant::from_millis(2500).as_secs_f64() - 2.5).abs() < 1e-9);
    }
}
