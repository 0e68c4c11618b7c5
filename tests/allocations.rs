//! Heap allocations of the 2PC lanes, of the store's verified reads and of
//! the benchmark's five workloads, counted by the global allocator.
//!
//! A lane's keys are provisioned once, at its first transaction, so normal
//! operation pays a counter step and a MAC per frame (paper §3.2,
//! Algorithm 1). A verified read checks the host's bytes against the
//! enclave-held digest and copies the value into a buffer the caller lends
//! (paper §A.3), so a read into a warm buffer pays no allocation either.
//! The workloads' exact counts per committed op are pinned in
//! `crates/bench/baselines/BENCH_work.json`, whose history is their
//! trajectory.
//! The allocator counts on the thread that armed it only, so the tests,
//! each on a thread of its own, and the harness's threads never count one
//! another's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::Path;

use recipe_core::{Operation, TxnBody, TxnBodyRef};
use recipe_crypto::CipherKey;
use recipe_kv::{KvError, PartitionedKvStore, StoreConfig, Timestamp};
use recipe_protocols::TxnLanes;
use recipe_scenario::{run_protocol, Protocol, Scenario, WorkloadKind};
use serde::{Serialize, Value};

/// Wraps [`System`], counting the calls that take memory on an armed thread.
struct CountingAlloc;

// Const-initialised cells of a type without a destructor: reading them from
// inside the allocator neither allocates nor registers a destructor.
thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Counts one request for `bytes` (a `realloc` asks for its new size).
fn count(bytes: usize) {
    // `try_with`: a thread being torn down has no cells left to count in.
    let _ = ARMED.try_with(|armed| {
        if armed.get() {
            ALLOCS.with(|allocs| allocs.set(allocs.get() + 1));
            BYTES.with(|total| total.set(total.get() + bytes as u64));
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the bookkeeping touches only
// const-initialised thread-local cells and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
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
    let (result, allocs, _) = heap_use_in(work);
    (result, allocs)
}

/// `work`'s result, and the allocations it made on this thread and the
/// bytes they asked for.
fn heap_use_in<T>(work: impl FnOnce() -> T) -> (T, u64, u64) {
    ALLOCS.with(|allocs| allocs.set(0));
    BYTES.with(|bytes| bytes.set(0));
    ARMED.with(|armed| armed.set(true));
    let result = work();
    ARMED.with(|armed| armed.set(false));
    (result, ALLOCS.with(Cell::get), BYTES.with(Cell::get))
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
/// repeat the totals, and a maximum, an instant and an epoch are not counts
/// of work, so a rate per op says nothing.
const LEFT_OUT: [&str; 5] = [
    "per_shard",
    "timeline",
    "max_fanout",
    "last_cutover_ns",
    "router_version",
];

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
/// until `ops` operations commit: its heap use and every count of its stats
/// per committed op, and the virtual clock's figures.
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
    let (outcome, allocs, bytes) = heap_use_in(|| run_protocol(&scenario, Protocol::Raft));
    assert!(outcome.passed(), "{name}: {:?}", outcome.failures);
    let total = &outcome.stats.total;
    let committed = total.committed;
    let mut counts = Vec::new();
    counts_per_op("", &outcome.stats.to_value(), committed, &mut counts);
    Value::Map(vec![
        ("committed".into(), Value::Int(committed.into())),
        ("allocs_per_op".into(), per_op(allocs as f64, committed)),
        ("alloc_bytes_per_op".into(), per_op(bytes as f64, committed)),
        ("counts_per_op".into(), Value::Map(counts)),
        ("virt_ops_per_s".into(), Value::Float(total.throughput_ops)),
        ("virt_mean_us".into(), Value::Float(total.mean_latency_us)),
        ("virt_p90_us".into(), Value::Float(total.p90_latency_us)),
    ])
}

/// The benchmark's five workloads, each run once at seed 1: allocations and
/// bytes per committed op, every count of the run's stats per op and the
/// virtual-clock figures are `crates/bench/baselines/BENCH_work.json` byte
/// for byte. Every figure is exact for a seed, and a debug and a release
/// build give the same file. A change that moves one regenerates the file
/// in the same commit (the fresh one is written where the failure says),
/// so its diff shows what the change did to the work per op.
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
