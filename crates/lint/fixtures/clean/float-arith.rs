//! The sanctioned form: integral arithmetic end to end.
pub(crate) fn mean_latency(total_ns: u64, samples: u64) -> u64 {
    total_ns / samples.max(1)
}
