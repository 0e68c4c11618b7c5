//! Isolated replays: one layer's public functions, called from outside with
//! inputs of the workload's own shape.
//!
//! The inputs are the first [`REPLAY_OPS`] operations of the stream the
//! end-to-end run would draw for the same seed, so value size, key space,
//! read share, confidentiality, batch size and tenant configuration are the
//! workload's. Each figure is the median of [`BATCHES`] timed batches, as
//! read: the machine-speed correction of [`crate::speed`] is not applied
//! here, because the probe's own time depends on how much memory the code
//! around it touches, and a replay's working set is not the run's. The heap
//! counts are exact and come from the last batch.

use std::time::Instant;

use recipe_core::{
    auth::CIPHER_LABEL, AuthLayer, BatchFrame, BatchOp, ClientReply, ClientRequest,
    ConfidentialityMode, Operation, RecipeError, Request, ShieldedMessage, TxnBody, TxnFrame,
};
use recipe_crypto::{sha256, Cipher, CipherKey, MacKey, Nonce};
use recipe_gateway::{Gateway, GatewayVerdict};
use recipe_kv::{PartitionedKvStore, StoreConfig, Timestamp, TxnRecordOps};
use recipe_net::NodeId;
use recipe_scenario::{Scenario, WorkloadKind};
use recipe_shard::{request_from_workload, ShardRouter};
use recipe_sim::{CostProfile, Ctx, Replica, SimCluster, SimConfig, StepOutcome};
use recipe_tee::{Enclave, EnclaveConfig, EnclaveId};
use recipe_workload::{WorkloadRequest, WorkloadSpec};

use crate::alloc;
use crate::stats::median;

/// Operations replayed per batch.
pub const REPLAY_OPS: usize = 2_000;
/// Timed batches per figure.
pub const BATCHES: usize = 5;

/// The workload's shape, as the replays need it.
pub struct Shape {
    /// The first [`REPLAY_OPS`] operations of the workload's stream,
    /// transactions flattened.
    pub ops: Vec<Operation>,
    /// The requests those operations arrived in.
    pub requests: Vec<Request>,
    pub base: WorkloadSpec,
    /// Operations per transaction and shards per transaction (the workload's,
    /// or the generator's defaults of 3 and 2 where the workload issues none).
    pub ops_per_txn: usize,
    pub fan_out: usize,
    /// The policy most shards run under (plaintext on a tie): replication
    /// frames and stored values are replayed under it.
    pub confidential: bool,
    /// Whether any shard is confidential: the 2PC coordinator seals a
    /// transaction's frames when one of its participants is.
    pub any_confidential: bool,
    /// The leader-side batching bound: operations per replication frame.
    pub ops_per_frame: usize,
    pub router: ShardRouter,
}

impl Shape {
    pub fn of(scenario: &Scenario) -> Shape {
        let spec = &scenario.deployment;
        let router = ShardRouter::new(spec.shards(), spec.to_sharded_config().vnodes_per_shard);
        let (base, ops_per_txn, fan_out) = match &scenario.workload {
            WorkloadKind::Single(base) | WorkloadKind::HotShard { base, .. } => {
                (base.clone(), 3, 2)
            }
            WorkloadKind::Txn(txn) => (txn.base.clone(), txn.ops_per_txn, txn.fan_out),
        };
        let requests = generate(scenario, &router);
        let ops: Vec<Operation> = requests
            .iter()
            .flat_map(|r| r.ops().iter().cloned())
            .take(REPLAY_OPS)
            .collect();
        let confidential_shards = (0..spec.shards())
            .filter(|&s| spec.policy_for(s).confidentiality.is_confidential())
            .count();
        Shape {
            ops,
            requests,
            base,
            ops_per_txn,
            fan_out,
            confidential: confidential_shards * 2 > spec.shards(),
            any_confidential: confidential_shards > 0,
            ops_per_frame: spec.policy_for(0).batch.max_ops.max(1),
            router,
        }
    }

    fn value(&self) -> Vec<u8> {
        vec![0xAB; self.base.value_size]
    }
}

/// Draws requests from the workload's generator until they carry
/// [`REPLAY_OPS`] operations — the same calls `run_protocol` makes (a
/// `hot_shard` workload is replayed as its base stream).
fn generate(scenario: &Scenario, router: &ShardRouter) -> Vec<Request> {
    let mut next: Box<dyn FnMut() -> WorkloadRequest> = match &scenario.workload {
        WorkloadKind::Single(base) | WorkloadKind::HotShard { base, .. } => {
            let mut gen = base.generator();
            Box::new(move || WorkloadRequest::Single(gen.next_op()))
        }
        WorkloadKind::Txn(txn) => {
            let mut gen = txn.generator();
            Box::new(move || gen.next_request(&|key| router.shard_for_key(key)))
        }
    };
    let mut requests = Vec::new();
    let mut ops = 0;
    while ops < REPLAY_OPS {
        let request = next();
        ops += request.ops().len();
        requests.push(request_from_workload(request));
    }
    requests
}

/// Host time and heap activity of one kind of call.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Timing {
    pub ns_per_call: f64,
    pub allocs_per_call: f64,
}

/// Times [`BATCHES`] runs of `batch`, which returns how many calls it made.
/// Anything a batch must prepare but not time belongs in `prepare`.
fn time_batches<S>(
    mut prepare: impl FnMut() -> S,
    mut batch: impl FnMut(&mut S) -> usize,
) -> Timing {
    let mut ns_per_call = Vec::with_capacity(BATCHES);
    let mut allocs_per_call = 0.0;
    for _ in 0..BATCHES {
        let mut state = prepare();
        let heap = alloc::snapshot();
        let start = Instant::now();
        let calls = batch(&mut state).max(1);
        let ns = start.elapsed().as_nanos() as f64;
        allocs_per_call = alloc::delta(heap).allocs as f64 / calls as f64;
        ns_per_call.push(ns / calls as f64);
    }
    Timing {
        ns_per_call: median(&ns_per_call),
        allocs_per_call,
    }
}

/// [`time_batches`] for a batch that needs nothing prepared.
fn time_calls(mut batch: impl FnMut() -> usize) -> Timing {
    time_batches(|| (), |()| batch())
}

/// `workload`: drawing the request stream. Per generated operation.
pub fn workload_gen(scenario: &Scenario, shape: &Shape) -> Timing {
    time_calls(|| {
        let requests = std::hint::black_box(generate(scenario, &shape.router));
        requests.iter().map(Request::len).sum()
    })
}

/// `scenario`: loading and validating the workload file. Per load.
pub fn scenario_load(path: &std::path::Path) -> Timing {
    time_calls(|| {
        const LOADS: usize = 20;
        for _ in 0..LOADS {
            std::hint::black_box(Scenario::from_path(path).expect("workload file loads"));
        }
        LOADS
    })
}

/// One operation as the protocols put it on the wire (the vendored
/// `serde_json` rendering of the [`Operation`]).
fn wire_payload(op: &Operation) -> Vec<u8> {
    serde_json::to_vec(op).expect("an operation serializes")
}

/// `crypto`: the three primitives at the workload's sizes.
pub struct CryptoTimings {
    /// `MacKey::tag` over one replication frame's bytes.
    pub mac_ns_per_frame: f64,
    /// `sha256` over one value, MB/s.
    pub sha256_mb_s: f64,
    /// `Cipher::seal` + `open` of one value, MB/s of plaintext through both.
    pub aead_mb_s: f64,
}

pub fn crypto(shape: &Shape) -> CryptoTimings {
    let frame: Vec<u8> = shape
        .ops
        .iter()
        .take(shape.ops_per_frame)
        .flat_map(wire_payload)
        .collect();
    let value = shape.value();
    let mac_key = MacKey::from_bytes([7u8; 32]);
    let cipher = Cipher::new(&CipherKey::from_bytes([3u8; 32]));
    let mac = time_calls(|| {
        for _ in 0..REPLAY_OPS {
            std::hint::black_box(mac_key.tag(std::hint::black_box(&frame)));
        }
        REPLAY_OPS
    });
    let hash = time_calls(|| {
        for _ in 0..REPLAY_OPS {
            std::hint::black_box(sha256(std::hint::black_box(&value)));
        }
        REPLAY_OPS
    });
    let aead = time_calls(|| {
        for i in 0..REPLAY_OPS {
            let sealed = cipher.seal(Nonce::from_view_counter(1, i as u64), &value);
            std::hint::black_box(cipher.open(&sealed).expect("own ciphertext opens"));
        }
        REPLAY_OPS
    });
    // bytes per ns × 1000 = MB/s.
    let mb_s = |bytes: usize, ns: f64| bytes as f64 * 1e3 / ns;
    CryptoTimings {
        mac_ns_per_frame: mac.ns_per_call,
        sha256_mb_s: mb_s(value.len(), hash.ns_per_call),
        aead_mb_s: mb_s(2 * value.len(), aead.ns_per_call),
    }
}

/// A sender and a receiver [`AuthLayer`] with attested channel keys, as two
/// replicas of one group hold them.
fn shield_pair(confidential: bool) -> (AuthLayer, AuthLayer) {
    let master = MacKey::from_bytes([9u8; 32]);
    let mut tx = Enclave::launch(EnclaveId(1), EnclaveConfig::new("wall_bench", 1));
    let mut rx = Enclave::launch(EnclaveId(2), EnclaveConfig::new("wall_bench", 2));
    for label in ["cq:1->2", "cq:2->1"] {
        for enclave in [&mut tx, &mut rx] {
            enclave
                .provision_mac_key(label, master.derive(label))
                .expect("fresh enclave accepts a channel key");
        }
    }
    if confidential {
        for enclave in [&mut tx, &mut rx] {
            enclave
                .provision_cipher_key(CIPHER_LABEL, CipherKey::from_bytes([3u8; 32]))
                .expect("fresh enclave accepts the cipher key");
        }
    }
    let mode = ConfidentialityMode::from(confidential);
    (
        AuthLayer::new(NodeId(1), tx, mode),
        AuthLayer::new(NodeId(2), rx, mode),
    )
}

/// `core`: the authentication layer and the wire form of its frames.
pub struct CoreTimings {
    pub shield_ns_per_op: f64,
    pub verify_ns_per_op: f64,
    /// `to_wire` on the sender plus `from_wire` on the receiver, per frame.
    pub wire_ns_per_frame: f64,
    /// Heap allocations of one frame's shield, wire round trip and verify.
    pub allocs_per_frame: f64,
    /// Shield, wire round trip and verify of a frame that carries no
    /// operation, only a [`CONTROL_PAYLOAD_BYTES`] protocol message (an ack,
    /// a commit notice): the fixed cost of a frame.
    pub control_frame_ns: f64,
    /// One plaintext 2PC frame: `shield_txn`, wire round trip, `verify_txn`.
    pub txn_plain_frame_ns: f64,
    /// The same for an AEAD-sealed 2PC frame; `0` when no shard of the
    /// workload is confidential (the coordinator then seals nothing).
    pub txn_sealed_frame_ns: f64,
}

/// A frame type of the shield layer with its wire form.
trait Frame: Sized {
    fn to_wire(&self) -> Vec<u8>;
    fn from_wire(bytes: &[u8]) -> Option<Self>;
}

macro_rules! impl_frame {
    ($($frame:ty),*) => {$(
        impl Frame for $frame {
            fn to_wire(&self) -> Vec<u8> {
                <$frame>::to_wire(self)
            }
            fn from_wire(bytes: &[u8]) -> Option<Self> {
                <$frame>::from_wire(bytes)
            }
        }
    )*};
}
impl_frame!(ShieldedMessage, BatchFrame, TxnFrame);

const PEER: NodeId = NodeId(2);

/// Payload of a control frame: about what a serialized Raft acknowledgement
/// takes.
const CONTROL_PAYLOAD_BYTES: usize = 64;

/// Per-item host time of the three stages a frame passes through, and the
/// heap allocations of all three.
struct FramePath {
    shield_ns: f64,
    wire_ns: f64,
    verify_ns: f64,
    allocs: f64,
}

/// Sends every item through a fresh sender/receiver pair: shield all, put
/// all on the wire and parse them back, verify all — the order a frame
/// travels in, with each stage timed on its own.
fn frame_path<I, F: Frame>(
    confidential: bool,
    items: &[I],
    shield: impl Fn(&mut AuthLayer, usize, &I) -> Result<F, RecipeError>,
    verify: impl Fn(&mut AuthLayer, F) -> bool,
) -> FramePath {
    let n = items.len() as f64;
    let (mut shield_ns, mut wire_ns, mut verify_ns) = (Vec::new(), Vec::new(), Vec::new());
    let mut allocs = 0;
    for _ in 0..BATCHES {
        let (mut tx, mut rx) = shield_pair(confidential);
        let heap = alloc::snapshot();
        let start = Instant::now();
        let sealed: Vec<F> = items
            .iter()
            .enumerate()
            .map(|(i, item)| shield(&mut tx, i, item).expect("provisioned channel shields"))
            .collect();
        let shielded = start.elapsed().as_nanos() as f64;
        let wire: Vec<Vec<u8>> = sealed.iter().map(Frame::to_wire).collect();
        drop(sealed);
        let received: Vec<F> = wire
            .iter()
            .map(|bytes| F::from_wire(bytes).expect("own wire form parses"))
            .collect();
        let parsed = start.elapsed().as_nanos() as f64;
        for frame in received {
            assert!(verify(&mut rx, frame), "own frame verifies");
        }
        let verified = start.elapsed().as_nanos() as f64;
        allocs = alloc::delta(heap).allocs;
        shield_ns.push(shielded / n);
        wire_ns.push((parsed - shielded) / n);
        verify_ns.push((verified - parsed) / n);
    }
    FramePath {
        shield_ns: median(&shield_ns),
        wire_ns: median(&wire_ns),
        verify_ns: median(&verify_ns),
        allocs: allocs as f64 / n,
    }
}

/// Replication frames: `shield` / `verify_owned` one operation per frame when
/// the workload is unbatched, `shield_batch` / `verify_batch` over frames of
/// `ops_per_frame` operations when it batches. 2PC frames: every
/// transaction-sized group of operations is split over `fan_out`
/// participants, and each exchanges four messages with the coordinator
/// (prepare carrying its operations, vote, commit, ack) through `shield_txn`
/// / `verify_txn`.
pub fn core(shape: &Shape) -> CoreTimings {
    let ops: Vec<BatchOp> = shape
        .ops
        .iter()
        .map(|op| BatchOp::new(1, wire_payload(op)))
        .collect();
    let frames: Vec<&[BatchOp]> = ops.chunks(shape.ops_per_frame).collect();
    let replication = if shape.ops_per_frame == 1 {
        frame_path(
            shape.confidential,
            &frames,
            |tx, _, ops| tx.shield(PEER, ops[0].kind, &ops[0].payload),
            |rx, frame| rx.verify_owned(frame).is_accept(),
        )
    } else {
        frame_path(
            shape.confidential,
            &frames,
            |tx, _, ops| tx.shield_batch(PEER, ops),
            |rx, frame| rx.verify_batch(frame).is_accept(),
        )
    };

    let control = vec![vec![0x5Au8; CONTROL_PAYLOAD_BYTES]; REPLAY_OPS];
    let control = frame_path(
        shape.confidential,
        &control,
        |tx, _, payload| tx.shield(PEER, 2, payload),
        |rx, frame| rx.verify_owned(frame).is_accept(),
    );

    // A quarter of the replayed operations is plenty of 2PC frames (about
    // 1 300), and keeps the sealed 1 KiB case to a second.
    let bodies: Vec<TxnBody> = shape.ops[..shape.ops.len() / 4]
        .chunks(shape.ops_per_txn)
        .flat_map(|txn| txn.chunks(txn.len().div_ceil(shape.fan_out)))
        .flat_map(|ops| {
            [
                TxnBody::Prepare { ops: ops.to_vec() },
                TxnBody::Vote {
                    granted: true,
                    conflict: None,
                },
                TxnBody::Commit,
                TxnBody::Ack {
                    applied: ops.iter().filter(|op| op.is_write()).count() as u32,
                },
            ]
        })
        .collect();
    let txn_frame_ns = |sealed: bool| {
        let path = frame_path(
            sealed,
            &bodies,
            // A participant's four frames share an id.
            |tx, i, body| tx.shield_txn(PEER, i as u64 / 4, body),
            |rx, frame| rx.verify_txn(frame).is_accept(),
        );
        path.shield_ns + path.wire_ns + path.verify_ns
    };

    let ops_per_frame = ops.len() as f64 / frames.len() as f64;
    CoreTimings {
        shield_ns_per_op: replication.shield_ns / ops_per_frame,
        verify_ns_per_op: replication.verify_ns / ops_per_frame,
        wire_ns_per_frame: replication.wire_ns,
        allocs_per_frame: replication.allocs,
        control_frame_ns: control.shield_ns + control.wire_ns + control.verify_ns,
        txn_plain_frame_ns: txn_frame_ns(false),
        txn_sealed_frame_ns: if shape.any_confidential {
            txn_frame_ns(true)
        } else {
            0.0
        },
    }
}

/// `kv`: the partitioned store, preloaded with the workload's key space.
pub struct KvTimings {
    pub write_ns: f64,
    pub get_ns: f64,
    pub allocs_per_write: f64,
    /// `txn_prepare` + `txn_take_staged` of one transaction.
    pub txn_prepare_commit_ns: f64,
}

pub fn kv(shape: &Shape) -> KvTimings {
    let mut config = StoreConfig::default();
    if shape.confidential {
        config = config.with_cipher(CipherKey::from_bytes([3u8; 32]));
    }
    let mut store = PartitionedKvStore::new(config);
    let value = shape.value();
    for i in 0..shape.base.key_space {
        let key = format!("user{i:08}").into_bytes();
        store
            .write(&key, &value, Timestamp::new(1, 0))
            .expect("preload write succeeds");
    }
    let mut logical = 1u64;
    let write = time_calls(|| {
        for op in &shape.ops {
            logical += 1;
            let version = store.write(op.key(), &value, Timestamp::new(logical, 0));
            std::hint::black_box(version.expect("write succeeds"));
        }
        shape.ops.len()
    });
    let get = time_calls(|| {
        for op in &shape.ops {
            std::hint::black_box(store.get(op.key()).expect("preloaded key reads back"));
        }
        shape.ops.len()
    });
    let txns: Vec<TxnRecordOps> = shape
        .ops
        .chunks(shape.ops_per_txn)
        .map(|chunk| {
            chunk
                .iter()
                .map(|op| (op.key().to_vec(), op.is_write().then(|| value.clone())))
                .collect()
        })
        .collect();
    let txn = time_calls(|| {
        for (id, ops) in txns.iter().enumerate() {
            store
                .txn_prepare(id as u64, ops)
                .expect("no other transaction holds a lock");
            std::hint::black_box(store.txn_take_staged(id as u64));
        }
        txns.len()
    });
    KvTimings {
        write_ns: write.ns_per_call,
        get_ns: get.ns_per_call,
        allocs_per_write: write.allocs_per_call,
        txn_prepare_commit_ns: txn.ns_per_call,
    }
}

/// A replica with no crypto and no store: the leader forwards each client
/// request to both followers, every follower acks, and the second ack
/// releases the reply. What is left is the simulator's own work per event.
struct EchoReplica {
    id: NodeId,
    /// `(client, request, acks)` of the request in flight at the leader.
    pending: Option<(u64, u64, usize)>,
}

const ECHO_LEADER: NodeId = NodeId(0);

impl Replica for EchoReplica {
    fn id(&self) -> NodeId {
        self.id
    }

    fn on_client_request(&mut self, request: ClientRequest, ctx: &mut Ctx) {
        self.pending = Some((request.client_id, request.request_id, 0));
        let payload = vec![0u8; request.operation.value_len().max(8)];
        ctx.broadcast(&[NodeId(0), NodeId(1), NodeId(2)], payload);
    }

    fn on_message(&mut self, from: NodeId, _bytes: &[u8], ctx: &mut Ctx) {
        if self.id != ECHO_LEADER {
            ctx.send(from, vec![0u8; 8]);
            return;
        }
        if let Some((client_id, request_id, acks)) = self.pending.as_mut() {
            *acks += 1;
            if *acks == 2 {
                ctx.reply(ClientReply {
                    client_id: *client_id,
                    request_id: *request_id,
                    value: None,
                    found: true,
                    replier: self.id.0,
                });
                self.pending = None;
            }
        }
    }

    fn on_timer(&mut self, _token: u64, _ctx: &mut Ctx) {}

    fn coordinates_writes(&self) -> bool {
        self.id == ECHO_LEADER
    }

    fn coordinates_reads(&self) -> bool {
        self.id == ECHO_LEADER
    }

    fn protocol_name(&self) -> &'static str {
        "echo"
    }
}

/// `sim`: the event loop. One client submits the replayed operations one
/// after another in external-client mode; per `SimCluster::step` call.
pub fn sim(shape: &Shape) -> Timing {
    time_batches(
        || {
            let replicas = (0..3)
                .map(|id| EchoReplica {
                    id: NodeId(id),
                    pending: None,
                })
                .collect();
            let mut cluster =
                SimCluster::new(replicas, SimConfig::uniform(3, CostProfile::recipe()));
            cluster.set_external_clients(true);
            cluster.seed_initial_events();
            (cluster, shape.ops.clone())
        },
        |(cluster, ops)| {
            let mut steps = 0;
            for (i, op) in ops.drain(..).enumerate() {
                let submitted = cluster.submit_at(cluster.now_ns(), 0, i as u64 + 1, op);
                assert!(submitted, "the echo leader never crashes");
                while cluster.drain_completions().is_empty() {
                    steps += 1;
                    assert_eq!(cluster.step(), StepOutcome::Processed, "echo round stalls");
                }
            }
            steps
        },
    )
}

/// `shard`: consistent-hash placement of one key.
pub fn route(shape: &Shape) -> Timing {
    time_calls(|| {
        for op in &shape.ops {
            std::hint::black_box(shape.router.shard_for_key(op.key()));
        }
        shape.ops.len()
    })
}

/// `gateway`: `admit` plus, for admitted requests, `complete`, under the
/// workload's tenant configuration. `None` when the workload runs without
/// the gateway. Requests arrive 10 µs of virtual time apart from the
/// workload's client population, so a clamped tenant's bucket runs dry as it
/// does in the run and the throttle path is part of the mix.
pub fn gateway(scenario: &Scenario, shape: &Shape) -> Option<Timing> {
    let spec = &scenario.deployment;
    let clients = spec.client_model().clients as u64;
    if !spec.gateway().enabled {
        return None;
    }
    Some(time_batches(
        || {
            let gateway = Gateway::from_config(spec.gateway(), spec.seed())
                .expect("an enabled configuration builds a gateway");
            (gateway, shape.requests.clone())
        },
        |(gateway, requests)| {
            for (i, request) in requests.iter_mut().enumerate() {
                let (client, now_ns) = (i as u64 % clients, i as u64 * 10_000);
                let verdict = gateway.admit(client, i as u64 + 1, now_ns, request);
                if matches!(verdict, GatewayVerdict::Admitted { .. }) {
                    gateway.complete(client, now_ns + 1_000, request.len());
                }
            }
            requests.len()
        },
    ))
}
