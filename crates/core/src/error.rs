//! Error type for the Recipe library.

use recipe_tee::TeeError;
use std::fmt;

/// Errors surfaced by the Recipe library.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecipeError {
    /// Underlying TEE failure.
    Tee(TeeError),
    /// Message could not be decoded.
    Malformed(&'static str),
}

impl fmt::Display for RecipeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecipeError::Tee(err) => write!(f, "TEE error: {err}"),
            RecipeError::Malformed(what) => write!(f, "malformed message: {what}"),
        }
    }
}

impl std::error::Error for RecipeError {}

impl From<TeeError> for RecipeError {
    fn from(err: TeeError) -> Self {
        RecipeError::Tee(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let err: RecipeError = TeeError::EnclaveCrashed.into();
        assert!(err.to_string().contains("TEE"));
        assert!(RecipeError::Malformed("batch count")
            .to_string()
            .contains("batch count"));
    }
}
