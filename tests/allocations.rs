//! Heap allocations of the 2PC lanes, counted by the global allocator.
//!
//! A lane's keys are provisioned once, at its first transaction, so normal
//! operation pays a counter step and a MAC per frame (paper §3.2,
//! Algorithm 1). This binary holds one test so that no other test's
//! allocations are counted, and its allocator counts on the thread that
//! armed it only — the harness's own threads go uncounted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use recipe_core::{Operation, TxnBody, TxnBodyRef};
use recipe_protocols::TxnLanes;

/// Wraps [`System`], counting the calls that take memory on an armed thread.
struct CountingAlloc;

// Const-initialised cells of a type without a destructor: reading them from
// inside the allocator neither allocates nor registers a destructor.
thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: a thread being torn down has no cells left to count in.
    let _ = ARMED.try_with(|armed| {
        if armed.get() {
            ALLOCS.with(|allocs| allocs.set(allocs.get() + 1));
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the bookkeeping touches only
// const-initialised thread-local cells and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: the caller's arguments are passed through as received.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's `ptr` and `layout` are passed through.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// `work`'s result and the allocations it made on this thread.
fn allocations_in<T>(work: impl FnOnce() -> T) -> (T, u64) {
    ALLOCS.with(|allocs| allocs.set(0));
    ARMED.with(|armed| armed.set(true));
    let result = work();
    ARMED.with(|armed| armed.set(false));
    (result, ALLOCS.with(Cell::get))
}

const CLIENTS: u64 = 48;
const SHARDS: usize = 4;

/// Transaction `txn_id` on every lane: a prepare and its vote, opened at the
/// other end, sealed on the lanes to shard 0. Every buffer goes back to the
/// lanes' free list once read. Returns how many legs opened.
fn exchange(lanes: &mut TxnLanes, txn_id: u64, prepare: &TxnBody, vote: &TxnBody) -> usize {
    let mut opened_legs = 0;
    for client in 0..CLIENTS {
        for shard in 0..SHARDS {
            let seal = shard == 0;
            let mut lane = lanes.lane(client, shard);
            let (mut request_body, mut response_body) = (None, None);
            let request = lane.seal_request(txn_id, prepare, seal);
            let request_ok = matches!(
                lane.open_request(txn_id, &request, &mut request_body),
                Some(TxnBodyRef::Prepare(_))
            );
            let response = lane.seal_response(txn_id, vote, seal);
            let response_ok = matches!(
                lane.open_response(txn_id, &response, &mut response_body),
                Some(TxnBodyRef::Vote { granted: true, .. })
            );
            opened_legs += usize::from(request_ok) + usize::from(response_ok);
            let spares = request_body.into_iter().chain(response_body);
            for buffer in [request, response].into_iter().chain(spares) {
                lanes.recycle(buffer);
            }
        }
    }
    opened_legs
}

#[test]
fn a_fresh_lane_allocates_little_and_a_warm_one_nothing() {
    let prepare = TxnBody::Prepare {
        ops: (0..2)
            .map(|i| Operation::Put {
                key: format!("user{i:012}").into_bytes(),
                value: vec![i as u8; 64],
            })
            .collect(),
    };
    let vote = TxnBody::Vote {
        granted: true,
        conflict: None,
    };
    let lanes_opened = CLIENTS as usize * SHARDS;
    let mut lanes = TxnLanes::default();

    // Every endpoint launched, every lane provisioned, and each lane's first
    // frame both ways.
    let (opened, fresh) = allocations_in(|| exchange(&mut lanes, 1, &prepare, &vote));
    assert_eq!(opened, 2 * lanes_opened, "every first leg opens");
    let per_lane = fresh as f64 / lanes_opened as f64;
    assert!(
        per_lane < 4.0,
        "{fresh} allocations for {lanes_opened} fresh lanes: {per_lane:.2} a lane"
    );

    // The next transaction over the same lanes takes only spares.
    let (opened, warm) = allocations_in(|| exchange(&mut lanes, 2, &prepare, &vote));
    assert_eq!(opened, 2 * lanes_opened, "every second leg opens");
    assert_eq!(warm, 0, "a transaction over warm lanes allocated");
}
