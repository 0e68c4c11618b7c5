//! The sanctioned form: a helper its own crate calls is `pub(crate)`, and
//! an observer only the crate's tests read lives under `#[cfg(test)]`.
pub(crate) fn checksum(xs: &[u64]) -> u64 {
    xs.iter().fold(0, |acc, x| acc.wrapping_mul(31).wrapping_add(*x))
}

#[cfg(test)]
pub fn checksum_of_nothing() -> u64 {
    checksum(&[])
}
