//! The sanctioned form: every suppression still silences a live finding.
pub(crate) fn head(xs: &[u64]) -> u64 {
    // recipe-lint: allow(unwrap-in-lib, reason = "callers check emptiness before indexing")
    *xs.first().unwrap()
}
