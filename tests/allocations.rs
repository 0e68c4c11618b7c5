//! Heap allocations of the 2PC lanes, of the store's verified reads and of
//! the benchmark's five workloads, counted by the global allocator.
//!
//! A lane's keys are provisioned once, at its first transaction, so normal
//! operation pays a counter step and a MAC per frame (paper §3.2,
//! Algorithm 1). A verified read checks the host's bytes against the
//! enclave-held digest and copies the value into a buffer the caller lends
//! (paper §A.3), so a read into a warm buffer pays no allocation either,
//! and a store that grows allocates only its keys' boxes, its slot pages
//! and one table of 4-byte buckets each time its index doubles.
//! A tenanted gateway writes its prefix into the room a client drew each
//! key with, so admitting a request allocates nothing. A committed
//! transaction's buffers go back to the generator that drew it, so its
//! client draws the next one without allocating. A state transfer reads
//! the donor's records where they lie into frames of one pool, reused
//! chunk after chunk, and installs each chunk from the frame where it
//! lies.
//! The workloads' exact counts per committed op are pinned in
//! `crates/bench/baselines/BENCH_work.json`, whose history is their
//! trajectory.
//! The allocator counts on the thread that armed it only, so the tests,
//! each on a thread of its own, and the harness's threads never count one
//! another's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::Path;

use recipe_core::{FramePool, Operation, Request, TxnBody, TxnBodyRef};
use recipe_crypto::CipherKey;
use recipe_gateway::{Gateway, GatewayConfig, GatewayVerdict, TenantSpec};
use recipe_kv::{KvError, PartitionedKvStore, Snapshot, StoreConfig, Timestamp};
use recipe_net::NodeId;
use recipe_protocols::{
    ChunkPhase, MigrationChannel, ReplicaStore, Stamping, TxnLanes, CHUNK_ENTRIES,
};
use recipe_scenario::{run_protocol, Protocol, Scenario, WorkloadKind};
use recipe_workload::{stable_key_hash, TxnWorkloadSpec};
use serde::{Serialize, Value};

/// Wraps [`System`], counting the calls that take memory on an armed thread
/// and the live heap they leave.
struct CountingAlloc;

// Const-initialised cells of a type without a destructor: reading them from
// inside the allocator neither allocates nor registers a destructor.
thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    // Live bytes since arming, and their highest value. Signed: freeing a
    // block allocated before arming takes the live count below zero, which
    // is harmless as long as it is not mistaken for a huge heap.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

/// Counts one request for `bytes` (a `realloc` asks for its new size) that
/// frees `freed` (a `realloc`'s old size), or only the free when `bytes` is
/// `None` (a `dealloc`).
fn count(bytes: Option<usize>, freed: usize) {
    // `try_with`: a thread being torn down has no cells left to count in.
    let _ = ARMED.try_with(|armed| {
        if !armed.get() {
            return;
        }
        if let Some(bytes) = bytes {
            ALLOCS.with(|allocs| allocs.set(allocs.get() + 1));
            BYTES.with(|total| total.set(total.get() + bytes as u64));
        }
        let grown = bytes.unwrap_or(0) as i64 - freed as i64;
        let live = LIVE.with(|live| {
            live.set(live.get() + grown);
            live.get()
        });
        PEAK.with(|peak| peak.set(peak.get().max(live)));
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the bookkeeping touches only
// const-initialised thread-local cells and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(Some(layout.size()), 0);
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(Some(layout.size()), 0);
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(Some(new_size), layout.size());
        // SAFETY: the caller's arguments are passed through as received.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(None, layout.size());
        // SAFETY: the caller's `ptr` and `layout` are passed through.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// `work`'s result and the allocations it made on this thread.
fn allocations_in<T>(work: impl FnOnce() -> T) -> (T, u64) {
    let (result, heap) = heap_use_in(work);
    (result, heap.allocs)
}

/// What one piece of work did to its thread's heap.
struct HeapUse {
    /// Allocation requests (`alloc`, `alloc_zeroed` and `realloc`).
    allocs: u64,
    /// Bytes they asked for.
    bytes: u64,
    /// The highest the live heap climbed above where it stood at the start
    /// (the peak starts at zero, so it is never negative).
    peak_live_bytes: u64,
}

/// `work`'s result and what it did to this thread's heap.
fn heap_use_in<T>(work: impl FnOnce() -> T) -> (T, HeapUse) {
    ALLOCS.with(|allocs| allocs.set(0));
    BYTES.with(|bytes| bytes.set(0));
    LIVE.with(|live| live.set(0));
    PEAK.with(|peak| peak.set(0));
    ARMED.with(|armed| armed.set(true));
    let result = work();
    ARMED.with(|armed| armed.set(false));
    let heap = HeapUse {
        allocs: ALLOCS.with(Cell::get),
        bytes: BYTES.with(Cell::get),
        peak_live_bytes: PEAK.with(Cell::get) as u64,
    };
    (result, heap)
}

/// One snapshot round of a state transfer, a migration's or a restart's:
/// `snapshot`'s records, read where they lie in `donor`, sealed into
/// chunks on `channel` in frames of `frames`, each opened where it lies and
/// installed on `recipient`, its frame then given back.
fn ship_round(
    channel: &mut MigrationChannel,
    frames: &mut FramePool,
    (donor, snapshot): (&ReplicaStore, &Snapshot),
    recipient: &mut ReplicaStore,
) {
    for start in (0..snapshot.len()).step_by(CHUNK_ENTRIES) {
        let range = start..snapshot.len().min(start + CHUNK_ENTRIES);
        let records = donor.snapshot_records(snapshot, range);
        let sealed = channel.seal(frames, ChunkPhase::Snapshot, records);
        let (_, mut wire) = sealed.expect("a verified snapshot seals");
        let records = channel.open(&mut wire).expect("an authentic chunk opens");
        recipient.import_range(records);
        frames.give(wire);
    }
}

#[test]
fn a_warm_transfer_round_allocates_nothing_and_keeps_no_frame_between_transfers() {
    for confidential in [false, true] {
        let config = || match confidential {
            true => StoreConfig::default().with_cipher(CipherKey::from_bytes([7; 32])),
            false => StoreConfig::default(),
        };
        // 300 records of 16-byte keys and 64-byte values: three chunks. The
        // recipient holds every key already, at a value of the same length,
        // so each record's value is copied over the one it replaces.
        let mut donor = ReplicaStore::new(config(), NodeId(0), Stamping::Sequence);
        let mut recipient = ReplicaStore::new(config(), NodeId(1), Stamping::Sequence);
        for i in 0..300u64 {
            let key = format!("transfer-key-{i:03}").into_bytes();
            donor.apply(&key, format!("{i:>64}").into_bytes());
            recipient.apply(&key, vec![0; 64]);
        }
        // The snapshot is its list of slots, one allocation: no key, no
        // value and no record list is copied.
        let (snapshot, taken) = allocations_in(|| donor.snapshot(&|_| true).unwrap());
        assert_eq!(taken, 1, "confidential: {confidential}");
        let source = (&donor, &snapshot);
        let mut frames = FramePool::default();
        // A transfer's first round provisions its channel's two ends (2).
        // On a fresh pool it writes the first chunk straight into one new
        // buffer, the frame (1), which goes back to the pool's list of
        // large spares (1) and is reused by every later chunk; each chunk
        // is opened and installed where it lies, with no list (0).
        let mut channel = MigrationChannel::new(0, 1, 1, confidential);
        let ((), first) =
            allocations_in(|| ship_round(&mut channel, &mut frames, source, &mut recipient));
        let ((), warm) =
            allocations_in(|| ship_round(&mut channel, &mut frames, source, &mut recipient));
        // The transfer ends, and the cluster's pool drops its spares with
        // it, so no frame is held between transfers. A second transfer on
        // the same pool keys two fresh ends and allocates what the first
        // round did.
        frames.drop_spares();
        let mut channel = MigrationChannel::new(0, 1, 2, confidential);
        let ((), second) =
            allocations_in(|| ship_round(&mut channel, &mut frames, source, &mut recipient));
        assert_eq!(
            (first, warm, second),
            (2 + 1 + 1, 0, 2 + 1 + 1),
            "confidential: {confidential}"
        );
        assert_eq!(
            recipient.get(b"transfer-key-299").unwrap().value,
            format!("{:>64}", 299).into_bytes()
        );
    }
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
    let (opened, fresh) = heap_use_in(|| exchange(&mut lanes, 1, &prepare, &vote));
    assert_eq!(opened, 2 * lanes_opened, "every first leg opens");
    let per_lane = fresh.allocs as f64 / lanes_opened as f64;
    assert!(
        per_lane < 4.0,
        "{} allocations for {lanes_opened} fresh lanes: {per_lane:.2} a lane",
        fresh.allocs
    );
    // 1 505 B a lane, with one enclave slot per channel in pages of four;
    // the bound leaves 6 %.
    let bytes_per_lane = fresh.bytes as f64 / lanes_opened as f64;
    assert!(
        bytes_per_lane < 1_600.0,
        "{} bytes for {lanes_opened} fresh lanes: {bytes_per_lane:.0} a lane",
        fresh.bytes
    );

    // The next transaction over the same lanes takes only spares.
    let (opened, warm) = allocations_in(|| exchange(&mut lanes, 2, &prepare, &vote));
    assert_eq!(opened, 2 * lanes_opened, "every second leg opens");
    assert_eq!(warm, 0, "a transaction over warm lanes allocated");
}

const READS: usize = 4_096;
const OVERWRITES: usize = 4_096;

/// Verified reads into a lent buffer, on a plaintext store and on a
/// confidential one: once the buffer has room for the longest value, each
/// read checks the digest and copies (and on the confidential store
/// decrypts) the value into it without one allocation, and a value the host
/// tampered with is refused on the same path. Same-length overwrites through
/// `write_owned`, each handing in the buffer the last one handed back, and
/// through `write` and `write_if_newer`, each lending the value, go over the
/// host's bytes where they lie (sealed there on the confidential store)
/// without one allocation either.
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

        let given = std::mem::take(&mut value);
        let at = given.as_ptr();
        let (mut given, allocations) = allocations_in(|| {
            let mut given = given;
            let rounds = (0u8..).zip(&keys).cycle().take(OVERWRITES);
            for (round, (i, key)) in (2u64..).zip(rounds) {
                given.clear();
                given.resize(64 * (usize::from(i) + 1), !i);
                given = store
                    .write_owned(key, given, Timestamp::new(round, 0))
                    .expect("a same-length overwrite hands back the buffer it was given");
            }
            given
        });
        assert_eq!(
            allocations, 0,
            "{OVERWRITES} same-length overwrites (confidential: {confidential}) allocated"
        );
        assert_eq!(given.as_ptr(), at);
        for (i, key) in (0u8..).zip(&keys) {
            store.read(key).unwrap().copy_into(&mut given);
            assert!(given.len() == 64 * (usize::from(i) + 1) && given.iter().all(|&b| b == !i));
        }

        // The same overwrites with the value lent, by the plain write and by
        // the ABD rule's, which applies each since its timestamp is newer.
        let first = 2 + OVERWRITES as u64;
        let (applied, allocations) = allocations_in(|| {
            let mut applied = 0;
            let rounds = (0u8..).zip(&keys).cycle().take(2 * OVERWRITES);
            for (round, (i, key)) in (first..).zip(rounds) {
                given.clear();
                given.resize(64 * (usize::from(i) + 1), i ^ round as u8);
                let timestamp = Timestamp::new(round, 0);
                if round % 2 == 0 {
                    store.write(key, &given, timestamp).unwrap();
                    applied += 1;
                } else {
                    applied += usize::from(store.write_if_newer(key, &given, timestamp));
                }
            }
            applied
        });
        assert_eq!(applied, 2 * OVERWRITES);
        assert_eq!(
            allocations,
            0,
            "{} same-length overwrites of lent values (confidential: {confidential}) allocated",
            2 * OVERWRITES
        );
        let last = first + 2 * OVERWRITES as u64 - keys.len() as u64;
        for ((i, key), round) in (0u8..).zip(&keys).zip(last..) {
            store.read(key).unwrap().copy_into(&mut given);
            assert!(given.iter().all(|&b| b == i ^ round as u8));
        }

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

const NEW_KEYS: usize = 4_096;

/// A store grown to [`NEW_KEYS`] new keys, each handed a value buffer of its
/// exact length for the host slot to keep, allocates exactly: one box per
/// key, holding the key's bytes alone; one page a kind per 64 slots, of
/// 56-byte enclave metadata and 16-byte host slots (24 sealed); the two
/// lists of those pages; and one table of 4-byte buckets per doubling of the
/// index, from 4 buckets to the first with room for every key at a load
/// of 7/8.
#[test]
fn a_growing_store_allocates_its_keys_pages_and_one_table_a_doubling() {
    const PAGE: usize = 64;
    let keys: Vec<Vec<u8>> = (0..NEW_KEYS)
        .map(|i| format!("user{i:012}").into_bytes())
        .collect();
    let key_bytes: usize = keys.iter().map(Vec::len).sum();
    let pages = NEW_KEYS.div_ceil(PAGE);
    // What a list of `pages` pages costs as it grows: a list of empty
    // vectors, which allocate nothing of their own.
    let list = heap_use_in(|| {
        let mut grown = Vec::new();
        for _ in 0..pages {
            grown.push(Vec::<u8>::new());
        }
        grown
    })
    .1;
    let tables: Vec<usize> = std::iter::successors(Some(4), |&b| Some(2 * b))
        .take_while(|&buckets| buckets / 2 * 7 / 8 < NEW_KEYS)
        .collect();
    assert_eq!(tables.last(), Some(&8_192));
    let confidential = StoreConfig::default().with_cipher(CipherKey::from_bytes([7; 32]));
    for (config, host_slot) in [(StoreConfig::default(), 16), (confidential, 24)] {
        let mut store = PartitionedKvStore::new(config);
        let values: Vec<Vec<u8>> = (0..NEW_KEYS).map(|i| vec![i as u8; 64]).collect();
        let (_, heap) = heap_use_in(|| {
            for (key, value) in keys.iter().zip(values) {
                let back = store.write_owned(key, value, Timestamp::new(1, 0));
                assert!(back.is_none(), "the host slot keeps an exact buffer");
            }
        });
        let allocs = NEW_KEYS + 2 * pages + 2 * list.allocs as usize + tables.len();
        let bytes = key_bytes
            + pages * PAGE * (56 + host_slot)
            + 2 * list.bytes as usize
            + 4 * tables.iter().sum::<usize>();
        let confidential = store.is_confidential();
        assert_eq!(
            (heap.allocs as usize, heap.bytes as usize),
            (allocs, bytes),
            "{NEW_KEYS} new keys (confidential: {confidential}): allocations and bytes"
        );
        for key in keys.iter().step_by(97) {
            assert_eq!(store.get(key).unwrap().value.len(), 64);
        }
    }
}

const ADMISSIONS: usize = 1_024;

/// Tenanted admissions of a stream of single operations and transactions,
/// their keys drawn with the gateway's room: each key is scoped in its own
/// buffer, so admitting them allocates nothing. The same stream drawn
/// without room is scoped to the same bytes, each key growing once.
#[test]
fn a_tenanted_admission_into_drawn_room_allocates_nothing() {
    let config = GatewayConfig::enabled()
        .with_tenant(TenantSpec::new("alpha"))
        .with_tenant(TenantSpec::new("beta"))
        .with_tenant(TenantSpec::new("noisy"));
    let spec = TxnWorkloadSpec::default();
    let draw = |room| -> Vec<Request> {
        let mut generator = spec.generator().with_key_room(room);
        let classify = |key: &[u8]| (stable_key_hash(key) % 4) as usize;
        (0..ADMISSIONS)
            .map(|_| generator.next_request(&classify))
            .collect()
    };
    let admit = |requests: &mut [Request]| {
        let mut gateway = Gateway::from_config(&config, SEED).expect("enabled");
        allocations_in(|| {
            let mut admitted = 0;
            for (client, request) in (0u64..).zip(requests) {
                let verdict = gateway.admit(client, 1, 0, request);
                admitted += usize::from(matches!(verdict, GatewayVerdict::Admitted { .. }));
            }
            admitted
        })
    };

    let mut roomy = draw(config.key_room());
    let singles = roomy
        .iter()
        .filter(|r| matches!(r, Request::Single(_)))
        .count();
    assert!(
        singles > 0 && singles < ADMISSIONS,
        "{singles} single operations in {ADMISSIONS} requests"
    );
    let (admitted, allocations) = admit(&mut roomy);
    assert_eq!(admitted, ADMISSIONS, "every request is admitted");
    assert_eq!(allocations, 0, "{ADMISSIONS} admissions allocated");

    let mut bare = draw(0);
    let keys: usize = bare.iter().map(Request::len).sum();
    let (admitted, grown) = admit(&mut bare);
    assert_eq!(admitted, ADMISSIONS, "every request is admitted");
    assert!(
        bare == roomy,
        "a key drawn without room is scoped to other bytes"
    );
    assert_eq!(grown, keys as u64, "{keys} keys drawn without room grew");
}

const TRANSACTIONS: usize = 1_024;

/// Transactions drawn under a classifier that rejects most candidates, each
/// handed back to the generator the way a committed one comes back from the
/// driver (its own list of operations): once warm, drawing and reclaiming
/// them allocates nothing. Drawn without reclaim, each takes its list, its
/// keys and its written values, and nothing for a rejected candidate or for
/// the set of classes it touched.
#[test]
fn a_reclaimed_transaction_is_drawn_again_without_allocating() {
    let spec = TxnWorkloadSpec {
        txn_fraction: 1.0,
        fan_out: 1,
        ..TxnWorkloadSpec::default()
    };
    let classified = Cell::new(0usize);
    let classify = |key: &[u8]| {
        classified.set(classified.get() + 1);
        (stable_key_hash(key) % 8) as usize
    };
    let room = 6;

    let mut generator = spec.generator().with_key_room(room);
    let mut round_trip = || {
        let Request::Txn(ops) = generator.next_request(&classify) else {
            panic!("fraction 1.0 must always produce txns");
        };
        generator.reclaim(ops);
    };
    for _ in 0..64 {
        round_trip();
    }
    let ((), allocations) = allocations_in(|| (0..TRANSACTIONS).for_each(|_| round_trip()));
    assert_eq!(
        allocations, 0,
        "{TRANSACTIONS} reclaimed transactions allocated"
    );

    let mut generator = spec.generator().with_key_room(room);
    // The first transaction sizes the class set.
    generator.next_request(&classify);
    classified.set(0);
    let mut drawn = 0;
    for txn in 0..TRANSACTIONS {
        let (request, allocations) = allocations_in(|| generator.next_request(&classify));
        let Request::Txn(ops) = &request else {
            panic!("fraction 1.0 must always produce txns");
        };
        let writes = ops.iter().filter(|op| op.is_write()).count();
        drawn += ops.len();
        assert_eq!(
            allocations as usize,
            1 + ops.len() + writes,
            "transaction {txn}: not one list, one key an operation and one value a write"
        );
    }
    assert!(
        classified.get() > 3 * drawn,
        "{} candidates for {drawn} operations: the classifier rejects too few to tell",
        classified.get()
    );
}

/// The benchmark's workloads, by file name under `wall_bench/workloads/`,
/// and the operations each run commits: enough for `leader_crash` to run
/// past its leaders' recovery at 120 ms of virtual time, and few enough for
/// the five to take a few seconds in a debug build.
const WORKLOADS: [(&str, usize); 5] = [
    ("small_unbatched", 2_000),
    ("large_conf_batched", 2_000),
    ("txn_cross_shard", 2_000),
    ("tenant_gateway", 2_000),
    ("leader_crash", 6_000),
];

/// Seed of every run, the benchmark's default.
const SEED: u64 = 1;

/// Fields of the run's stats left out: the per-shard split and the timeline
/// repeat the totals, and an instant is not a count of work, so a rate per
/// op says nothing.
const LEFT_OUT: [&str; 3] = ["per_shard", "timeline", "last_cutover_ns"];

/// `value` per op, to four decimals: one event in ten thousand ops.
fn per_op(value: f64, committed: u64) -> Value {
    Value::Float((value / committed as f64 * 1e4).round() / 1e4)
}

/// Every count under `value` that is not zero, as `path.field`, per op,
/// but for [`LEFT_OUT`] and `total.committed`, the denominator.
fn counts_per_op(path: &str, value: &Value, committed: u64, out: &mut Vec<(String, Value)>) {
    match value {
        Value::Int(count) if *count != 0 && path != "total.committed" => {
            out.push((path.to_string(), per_op(*count as f64, committed)));
        }
        Value::Map(fields) => {
            for (field, value) in fields {
                if LEFT_OUT.contains(&field.as_str()) {
                    continue;
                }
                let path = if path.is_empty() {
                    field.clone()
                } else {
                    format!("{path}.{field}")
                };
                counts_per_op(&path, value, committed, out);
            }
        }
        Value::Array(items) => {
            for (i, item) in items.iter().enumerate() {
                counts_per_op(&format!("{path}.{i}"), item, committed, out);
            }
        }
        _ => {}
    }
}

/// One workload file, read and left as it is, run at [`SEED`] under Raft
/// until `ops` operations commit: its allocations and bytes and every count
/// of its stats per committed op, its live heap's peak, and the virtual
/// clock's figures.
fn work_counts(name: &str, ops: usize) -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("wall_bench/workloads")
        .join(format!("{name}.toml"));
    let mut scenario = Scenario::from_path(&path).unwrap_or_else(|e| panic!("{name}: {e}"));
    let clients = scenario.deployment.client_model().clients;
    scenario.deployment = scenario
        .deployment
        .with_seed(SEED)
        .with_clients(clients, ops);
    match &mut scenario.workload {
        WorkloadKind::Single(base) | WorkloadKind::HotShard { base, .. } => base.seed = SEED,
        WorkloadKind::Txn(txn) => txn.base.seed = SEED,
    }
    let (outcome, heap) = heap_use_in(|| run_protocol(&scenario, Protocol::Raft));
    assert!(outcome.passed(), "{name}: {:?}", outcome.failures);
    let total = &outcome.stats.total;
    let committed = total.committed;
    let mut counts = Vec::new();
    counts_per_op("", &outcome.stats.to_value(), committed, &mut counts);
    Value::Map(vec![
        ("committed".into(), Value::Int(committed.into())),
        (
            "allocs_per_op".into(),
            per_op(heap.allocs as f64, committed),
        ),
        (
            "alloc_bytes_per_op".into(),
            per_op(heap.bytes as f64, committed),
        ),
        (
            "peak_live_bytes".into(),
            Value::Int(heap.peak_live_bytes.into()),
        ),
        ("counts_per_op".into(), Value::Map(counts)),
        ("virt_ops_per_s".into(), Value::Float(total.throughput_ops)),
        ("virt_mean_us".into(), Value::Float(total.mean_latency_us)),
        ("virt_p90_us".into(), Value::Float(total.p90_latency_us)),
    ])
}

/// The benchmark's five workloads, each run once at seed 1: allocations and
/// bytes per committed op, the live heap's peak, every count of the run's
/// stats per op and the virtual-clock figures are
/// `crates/bench/baselines/BENCH_work.json` byte for byte. Every figure is
/// exact for a seed, and a debug and a release build give the same file. A
/// change that moves one regenerates the file in the same commit (the fresh
/// one is written where the failure says), so its diff shows what the
/// change did to the work per op.
#[test]
fn the_workloads_do_the_committed_work_per_op() {
    let workloads = WORKLOADS
        .iter()
        .map(|&(name, ops)| (name.to_string(), work_counts(name, ops)))
        .collect();
    let file = "BENCH_work.json";
    let mut fresh = serde_json::to_string_pretty(&Value::Map(workloads)).expect("renders");
    fresh.push('\n');
    let fresh_path = Path::new(env!("CARGO_TARGET_TMPDIR")).join(file);
    std::fs::write(&fresh_path, &fresh).expect("the fresh counts are written");
    let baselines = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/bench/baselines");
    let committed = std::fs::read_to_string(baselines.join(file)).unwrap_or_default();
    assert!(
        fresh == committed,
        "{file} moved: copy {} over crates/bench/baselines/{file} in the commit that moves \
         the work per op, or find the regression\nfresh:\n{fresh}",
        fresh_path.display()
    );
}
