//! The sanctioned shape: `recipe.<kind>.v<N>`.
pub(crate) const FIXTURE_MAC_DOMAIN: &str = "recipe.fixture_frame.v1";
