//! The sanctioned form: concurrency is events in the simulator's queue.
pub(crate) fn fan_out(queue: &mut Vec<u64>, at_ns: u64) {
    queue.push(at_ns);
}
