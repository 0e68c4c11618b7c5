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

    /// Builds an instant from microseconds since the origin.
    pub const fn from_micros(micros: u64) -> Self {
        TrustedInstant {
            nanos: micros * 1_000,
        }
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
    pub fn as_secs_f64(&self) -> f64 {
        self.nanos as f64 / 1e9
    }

    /// Returns this instant advanced by `nanos`.
    pub const fn plus_nanos(&self, nanos: u64) -> TrustedInstant {
        TrustedInstant {
            nanos: self.nanos + nanos,
        }
    }

    /// Returns this instant advanced by `micros`.
    pub const fn plus_micros(&self, micros: u64) -> TrustedInstant {
        self.plus_nanos(micros * 1_000)
    }

    /// Returns this instant advanced by `millis`.
    pub const fn plus_millis(&self, millis: u64) -> TrustedInstant {
        self.plus_nanos(millis * 1_000_000)
    }

    /// Duration in nanoseconds since `earlier`, saturating at zero.
    pub fn nanos_since(&self, earlier: TrustedInstant) -> u64 {
        self.nanos.saturating_sub(earlier.nanos)
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
    fn instant_arithmetic() {
        let t = TrustedInstant::from_millis(2);
        assert_eq!(t.as_nanos(), 2_000_000);
        assert_eq!(t.plus_micros(500).as_nanos(), 2_500_000);
        assert_eq!(t.nanos_since(TrustedInstant::from_millis(1)), 1_000_000);
        assert_eq!(TrustedInstant::from_millis(1).nanos_since(t), 0);
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
