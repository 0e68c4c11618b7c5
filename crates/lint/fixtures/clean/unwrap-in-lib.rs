//! The sanctioned form: surface the absence to the caller.
pub(crate) fn head(xs: &[u64]) -> Option<u64> {
    xs.first().copied()
}
