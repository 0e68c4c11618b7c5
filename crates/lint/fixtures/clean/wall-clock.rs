//! The sanctioned form: time is a parameter sourced from the virtual clock.
pub(crate) fn stamp_ns(virtual_now_ns: u64) -> u64 {
    virtual_now_ns
}
