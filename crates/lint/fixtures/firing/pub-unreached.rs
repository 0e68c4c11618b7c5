// expect-finding: pub-unreached
//! A helper only its own crate calls, published anyway: rustc's dead-code
//! lint cannot see past `pub`, so nothing would notice it losing its caller.
pub fn checksum(xs: &[u64]) -> u64 {
    xs.iter().fold(0, |acc, x| acc.wrapping_mul(31).wrapping_add(*x))
}

pub(crate) fn digest(xs: &[u64]) -> u64 {
    checksum(xs)
}
