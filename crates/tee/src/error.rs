//! Error type for TEE operations.

use std::fmt;

/// Errors produced by the simulated TEE substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TeeError {
    /// The enclave has been torn down (crash-failed); no further operations are
    /// possible. The TEE fault model allows exactly this failure mode.
    EnclaveCrashed,
    /// A quote's signature or measurement did not verify.
    QuoteRejected {
        /// Human-readable reason used in logs and tests.
        reason: &'static str,
    },
    /// Sealed data failed its integrity check during unsealing.
    UnsealFailed,
    /// A trusted-counter update would have violated monotonicity.
    CounterRegression {
        /// Current counter value.
        current: u64,
        /// Rejected (non-increasing) candidate value.
        attempted: u64,
    },
    /// A secret with the given label was requested but never provisioned.
    MissingSecret {
        /// The requested label.
        label: String,
    },
    /// A label longer than the 45 bytes an enclave keeps secrets under was
    /// offered ([`crate::Label`]).
    LabelTooLong {
        /// The offered label's length in bytes.
        len: usize,
    },
    /// The enclave ran out of (simulated) EPC memory.
    EpcExhausted {
        /// Bytes requested by the failing allocation.
        requested: usize,
        /// Bytes still available.
        available: usize,
    },
}

impl fmt::Display for TeeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TeeError::EnclaveCrashed => write!(f, "enclave has crash-failed"),
            TeeError::QuoteRejected { reason } => write!(f, "attestation quote rejected: {reason}"),
            TeeError::UnsealFailed => write!(f, "sealed blob failed integrity verification"),
            TeeError::CounterRegression { current, attempted } => write!(
                f,
                "trusted counter regression: current={current}, attempted={attempted}"
            ),
            TeeError::MissingSecret { label } => {
                write!(f, "no secret provisioned under label '{label}'")
            }
            TeeError::LabelTooLong { len } => write!(
                f,
                "label of {len} bytes is longer than the {} an enclave holds",
                crate::label::LABEL_CAPACITY
            ),
            TeeError::EpcExhausted {
                requested,
                available,
            } => write!(
                f,
                "enclave page cache exhausted: requested {requested} bytes, {available} available"
            ),
        }
    }
}

impl std::error::Error for TeeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = TeeError::CounterRegression {
            current: 10,
            attempted: 9,
        };
        assert!(e.to_string().contains("10"));
        assert!(e.to_string().contains("9"));
        assert!(TeeError::EnclaveCrashed.to_string().contains("crash"));
    }
}
