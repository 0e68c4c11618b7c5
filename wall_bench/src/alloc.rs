//! A counting global allocator: how many heap allocations the program under
//! test makes, how many bytes it asks for, and how high its live heap climbs.
//!
//! The simulator is single-threaded and deterministic, so for one seed these
//! counts repeat exactly from run to run — unlike host time they can be
//! compared between two commits without a noise band.
//!
//! The counters are plain thread-local cells, one set per thread, not shared
//! atomics: a locked read-modify-write on every allocation cost a quarter of
//! the measured host time of `small_unbatched` (205 µs against 163 µs per
//! op), a cell costs nothing measurable. The benchmark allocates on one
//! thread, so that thread's counters are the process's.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use crate::speed;

/// Wraps [`System`]; every call is forwarded unchanged and counted.
pub struct CountingAlloc;

// Const-initialised cells of a type without a destructor: reading them from
// inside the allocator neither allocates nor registers a destructor.
thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    // Signed: a block allocated on one thread and freed on another takes the
    // freeing thread's live count below zero, which is harmless as long as it
    // is not mistaken for a huge heap.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

/// One allocation request in [`speed::SAMPLE_EVERY_ALLOCS`] also times the
/// machine-speed probe, so that the probe is sampled *during* whatever is
/// being measured, at a cadence set by the program's own progress.
const SAMPLE_MASK: u64 = speed::SAMPLE_EVERY_ALLOCS - 1;

fn grew(bytes: u64, freed: u64) {
    let allocs = ALLOCS.get() + 1;
    ALLOCS.set(allocs);
    BYTES.set(BYTES.get() + bytes);
    let live = LIVE.get() - freed as i64 + bytes as i64;
    LIVE.set(live);
    if live > PEAK.get() {
        PEAK.set(live);
    }
    if allocs & SAMPLE_MASK == 0 {
        speed::sample();
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the bookkeeping touches only
// thread-local cells and a preallocated buffer, and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` is passed through as received.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size() as u64, 0);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` is passed through as received.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grew(layout.size() as u64, 0);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.set(LIVE.get() - layout.size() as i64);
        // SAFETY: `ptr` and `layout` are the caller's, passed through.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr`, `layout` and `new_size` are the caller's, passed through.
        let new_ptr = unsafe { System.realloc(ptr, layout, new_size) };
        if !new_ptr.is_null() {
            // A realloc is one request for `new_size` bytes; the live heap
            // changes by the difference.
            grew(new_size as u64, layout.size() as u64);
        }
        new_ptr
    }
}

/// The counters at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Snapshot {
    allocs: u64,
    bytes: u64,
    live: i64,
}

/// What happened on the heap between a [`Snapshot`] and now.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Delta {
    /// Allocation requests (`alloc`, `alloc_zeroed` and `realloc`).
    pub allocs: u64,
    /// Bytes requested by them.
    pub bytes: u64,
    /// Highest live-heap size reached in the interval, in bytes, counted
    /// from the live size at the snapshot (so what was already allocated
    /// before the interval is not charged to it).
    pub peak_live_bytes: u64,
}

/// Starts an accounting interval on this thread: records the counters and
/// restarts the peak from the current live size.
pub fn snapshot() -> Snapshot {
    let live = LIVE.get();
    PEAK.set(live);
    Snapshot {
        allocs: ALLOCS.get(),
        bytes: BYTES.get(),
        live,
    }
}

/// Ends the interval started by `since`. Intervals do not nest: a later
/// [`snapshot`] restarts the peak.
pub fn delta(since: Snapshot) -> Delta {
    Delta {
        allocs: ALLOCS.get() - since.allocs,
        bytes: BYTES.get() - since.bytes,
        peak_live_bytes: (PEAK.get() - since.live).max(0) as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The test binary installs the counting allocator too (see `main.rs`).
    // Counters are per thread, so tests running in parallel do not disturb
    // each other's counts.
    #[test]
    fn delta_sees_allocations_bytes_and_peak() {
        let start = snapshot();
        let block = std::hint::black_box(vec![7u8; 1 << 20]);
        let mut grown: Vec<u8> = Vec::with_capacity(16);
        grown.extend_from_slice(&[1u8; 64]); // realloc
        std::hint::black_box(&grown);
        drop(block);
        let d = delta(start);
        assert_eq!(d.allocs, 3, "alloc + alloc + realloc");
        assert_eq!(d.bytes, (1 << 20) + 16 + 64);
        // Peak: the megabyte, the 16-byte vector and its regrowth to 64.
        assert_eq!(d.peak_live_bytes, (1 << 20) + 64);
        drop(grown);
        assert_eq!(delta(start).allocs, 3, "frees are not allocations");
    }
}
