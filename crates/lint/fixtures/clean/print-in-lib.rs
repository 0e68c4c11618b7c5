//! The sanctioned form: render into a buffer the caller owns.
pub(crate) fn report(committed: u64) -> String {
    format!("committed {committed} ops")
}
