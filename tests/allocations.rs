//! Heap allocations of the 2PC lanes and of the store's verified reads,
//! counted by the global allocator.
//!
//! A lane's keys are provisioned once, at its first transaction, so normal
//! operation pays a counter step and a MAC per frame (paper §3.2,
//! Algorithm 1). A verified read checks the host's bytes against the
//! enclave-held digest and copies the value into a buffer the caller lends
//! (paper §A.3), so a read into a warm buffer pays no allocation either.
//! The allocator counts on the thread that armed it only, so the tests,
//! each on a thread of its own, and the harness's threads never count one
//! another's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use recipe_core::{Operation, TxnBody, TxnBodyRef};
use recipe_crypto::CipherKey;
use recipe_kv::{KvError, PartitionedKvStore, StoreConfig, Timestamp};
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

const READS: usize = 4_096;

/// Verified reads into a lent buffer, on a plaintext store and on a
/// confidential one: once the buffer has room for the longest value, each
/// read checks the digest and copies (and on the confidential store
/// decrypts) the value into it without one allocation, and a value the host
/// tampered with is refused on the same path.
#[test]
fn a_verified_read_into_a_lent_buffer_allocates_nothing() {
    let confidential = StoreConfig::default().with_cipher(CipherKey::from_bytes([7; 32]));
    for config in [StoreConfig::default(), confidential] {
        let mut store = PartitionedKvStore::new(config);
        let keys: Vec<Vec<u8>> = (0..16u8)
            .map(|i| format!("user{i:012}").into_bytes())
            .collect();
        for (i, key) in (0u8..).zip(&keys) {
            let value = vec![i; 64 * (usize::from(i) + 1)];
            store.write(key, &value, Timestamp::new(1, 0)).unwrap();
        }
        // Warm-up: the buffer grows to the longest value once.
        let mut value = Vec::new();
        for key in &keys {
            store.read(key).unwrap().copy_into(&mut value);
        }

        let (bytes, allocations) = allocations_in(|| {
            let mut bytes = 0;
            for (i, key) in (0u8..).zip(&keys).cycle().take(READS) {
                store.read(key).unwrap().copy_into(&mut value);
                assert!(value.iter().all(|&byte| byte == i));
                bytes += value.len();
            }
            bytes
        });
        assert_eq!(bytes, READS / keys.len() * 64 * (1..=16).sum::<usize>());
        let confidential = store.is_confidential();
        assert_eq!(
            allocations, 0,
            "{READS} verified reads (confidential: {confidential}) allocated"
        );

        assert!(store.corrupt_host_value(&keys[3]));
        let refused = store.read(&keys[3]).err();
        assert!(
            matches!(
                refused,
                Some(KvError::IntegrityViolation { .. } | KvError::DecryptionFailed { .. })
            ),
            "a tampered value passed the digest: {refused:?}"
        );
    }
}
