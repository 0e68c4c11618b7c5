//! Cross-crate integration: every registered protocol — the four Recipe
//! transformations and the two BFT baselines — runs as a one-shard
//! deployment through the request driver, commits its workload, and leaves
//! replicas that agree on the data they hold.

use recipe::bft::dispatch;
use recipe::core::{ConfidentialityMode, Membership, Operation};
use recipe::net::FaultPlan;
use recipe::protocols::{BatchConfig, BuildReplica, Protocol, ProtocolMode, ProtocolVisitor};
use recipe::shard::{op_from_workload, DeploymentSpec, ShardedCluster};
use recipe::sim::{RangeEntry, RunStats, SimCluster, SimConfig, StepOutcome};
use recipe::workload::WorkloadSpec;

/// The protocols the paper transforms, each one core run natively or under
/// Recipe.
const TRANSFORMED: [Protocol; 4] = [
    Protocol::Raft,
    Protocol::Chain,
    Protocol::Abd,
    Protocol::AllConcur,
];

/// The mode every group here runs in (the BFT baselines ignore it).
const PLAINTEXT: ProtocolMode = ProtocolMode::Recipe {
    confidentiality: ConfidentialityMode::Plaintext,
};

/// Keys every workload here draws from.
const KEYS: u64 = 40;

fn key(i: u64) -> Vec<u8> {
    format!("key-{}", i % KEYS).into_bytes()
}

fn put(client: u64, seq: u64) -> Operation {
    Operation::Put {
        key: key(client * 7 + seq),
        value: format!("v{client}-{seq}").into_bytes(),
    }
}

fn get(client: u64, seq: u64) -> Operation {
    Operation::Get {
        key: key(client * 7 + seq),
    }
}

/// Half reads, half writes.
fn mixed(client: u64, seq: u64) -> Operation {
    if (client + seq).is_multiple_of(2) {
        put(client, seq)
    } else {
        get(client, seq)
    }
}

/// One group of `protocol` tolerating one fault, at the fewest replicas it
/// needs and under the cost profile its figures charge it: `clients`
/// clients until `ops` commit.
fn one_group(protocol: Protocol, clients: usize, ops: usize) -> DeploymentSpec {
    DeploymentSpec::new(1, protocol.min_replicas(1))
        .with_profile(protocol.cost_profile(PLAINTEXT))
        .with_clients(clients, ops)
}

/// What a run left behind once its in-flight traffic had landed.
struct Outcome {
    protocol: Protocol,
    stats: RunStats,
    /// Operations each replica applied.
    applied: Vec<u64>,
    /// Frames the replicas' shields rejected.
    rejected: u64,
    /// Per key, the values the replicas that hold it hold, in replica order.
    held: Vec<Vec<Vec<u8>>>,
}

impl Outcome {
    /// Any two replicas that hold a key hold the same value. R-AllConcur is
    /// exempt: it orders no two coordinators' writes of one key. Each
    /// coordinator applies its own proposal once every peer has tracked it,
    /// and a peer's when its `Deliver` arrives, so two concurrent writes of
    /// a key land in opposite orders on their two coordinators.
    fn assert_agreement(&self) {
        if self.protocol == Protocol::AllConcur {
            return;
        }
        for (i, values) in self.held.iter().enumerate() {
            let agree = values.windows(2).all(|pair| pair[0] == pair[1]);
            assert!(agree, "{:?}: replicas disagree on key-{i}", self.protocol);
        }
    }

    /// A key held anywhere is held by every replica: once the traffic in
    /// flight has landed, no follower, chain node or peer lacks a committed
    /// write. ABD is exempt: its writes wait for a majority only.
    fn assert_everywhere(&self) {
        if self.protocol == Protocol::Abd {
            return self.assert_on_a_majority();
        }
        let n = self.applied.len();
        for (i, values) in self.held.iter().enumerate() {
            let held = values.len();
            assert!(
                held == 0 || held == n,
                "{:?}: key-{i} on {held} of {n} replicas",
                self.protocol
            );
        }
    }

    /// A key held anywhere is held by a majority of the replicas.
    fn assert_on_a_majority(&self) {
        let n = self.applied.len();
        for (i, values) in self.held.iter().enumerate() {
            let held = values.len();
            assert!(
                held == 0 || 2 * held > n,
                "{:?}: key-{i} on {held} of {n} replicas",
                self.protocol
            );
        }
    }
}

/// Runs `spec` under `workload` and lets the traffic in flight at the end
/// land before looking at the replicas.
struct Run<W> {
    spec: DeploymentSpec,
    workload: W,
}

impl<W: FnMut(u64, u64) -> Operation> ProtocolVisitor for Run<W> {
    type Output = Outcome;

    fn visit<R: BuildReplica>(mut self) -> Outcome {
        let mut cluster = ShardedCluster::<R>::build(self.spec);
        let stats = cluster.run_requests(|client, seq| Some((self.workload)(client, seq).into()));
        cluster.quiesce(50_000_000);
        let group = cluster.shard_mut(0);
        let ids = group.node_ids();
        let held = (0..KEYS)
            .map(|i| {
                let reads = ids
                    .iter()
                    .map(|&id| group.replica_mut(id).store().get(&key(i)));
                reads.flatten().map(|read| read.value).collect()
            })
            .collect();
        let counters = ids
            .iter()
            .filter_map(|&id| group.replica(id).protocol_counters());
        Outcome {
            protocol: R::PROTOCOL,
            stats: stats.total,
            rejected: counters.map(|c| c.rejected_frames).sum(),
            applied: ids
                .iter()
                .map(|&id| group.replica_mut(id).store().applied())
                .collect(),
            held,
        }
    }
}

fn run<W: FnMut(u64, u64) -> Operation>(
    protocol: Protocol,
    spec: DeploymentSpec,
    workload: W,
) -> Outcome {
    dispatch(protocol, Run { spec, workload })
}

/// `protocol`'s one-shard group commits a mixed workload in full and leaves
/// replicas that agree.
fn commits_a_mixed_workload_and_agrees(protocol: Protocol) {
    let run = run(protocol, one_group(protocol, 16, 300), mixed);
    let stats = &run.stats;
    assert_eq!(stats.committed, 300, "{protocol:?}");
    assert!(stats.throughput_ops > 0.0);
    // Classified by what was issued: both kinds commit, nothing else does.
    assert!(stats.committed_reads > 0 && stats.committed_writes > 0);
    assert_eq!(stats.committed_reads + stats.committed_writes, 300);
    run.assert_agreement();
    run.assert_everywhere();
    // Every replica applied every committed write, except under ABD,
    // whose writes wait for a majority only.
    if protocol != Protocol::Abd {
        let everywhere = run.applied.iter().all(|&a| a >= stats.committed_writes);
        assert!(everywhere, "{protocol:?}: applied {:?}", run.applied);
    }
    assert_eq!(run.rejected, 0, "{protocol:?}");
}

#[test]
fn r_raft_commits_the_workload() {
    commits_a_mixed_workload_and_agrees(Protocol::Raft);
}

#[test]
fn r_chain_commits_the_workload() {
    commits_a_mixed_workload_and_agrees(Protocol::Chain);
}

#[test]
fn r_abd_commits_the_workload() {
    commits_a_mixed_workload_and_agrees(Protocol::Abd);
}

#[test]
fn r_allconcur_commits_the_workload() {
    commits_a_mixed_workload_and_agrees(Protocol::AllConcur);
}

#[test]
fn pbft_and_damysus_baselines_commit_the_workload() {
    commits_a_mixed_workload_and_agrees(Protocol::Pbft);
    commits_a_mixed_workload_and_agrees(Protocol::Damysus);
}

/// Where a protocol batches (R-Raft, R-CR and PBFT), 16-op batches commit
/// the same workload in fewer frames; elsewhere every frame carries one op.
#[test]
fn batching_coalesces_frames_wherever_a_protocol_batches() {
    for protocol in Protocol::ALL {
        let batched = |ops| one_group(protocol, 32, 300).with_batching(BatchConfig::of_ops(ops));
        let (unbatched, batched) = (
            run(protocol, batched(1), put),
            run(protocol, batched(16), put),
        );
        batched.assert_agreement();
        batched.assert_everywhere();
        let (one, sixteen) = (&unbatched.stats, &batched.stats);
        assert_eq!(one.committed, 300, "{protocol:?}");
        // One batched ack frame can commit several ops inside a single
        // event, so the closed loop may overshoot by a frame's worth.
        assert!((300..320).contains(&sixteen.committed), "{protocol:?}");
        assert_eq!(one.ops_delivered, one.messages_delivered, "{protocol:?}");
        if matches!(protocol, Protocol::Raft | Protocol::Chain | Protocol::Pbft) {
            assert!(sixteen.messages_delivered < one.messages_delivered);
            assert!(sixteen.ops_delivered > sixteen.messages_delivered);
        } else {
            assert_eq!(sixteen.ops_delivered, sixteen.messages_delivered);
        }
        assert_eq!(batched.rejected, 0, "{protocol:?}");
    }
}

/// Replays and duplicates leave the original frame in its place in the
/// per-channel counter sequence: every Recipe transformation's shield
/// rejects the copies, the run commits in full and the replicas agree.
#[test]
fn the_shield_rejects_replayed_and_duplicated_frames() {
    let plan = FaultPlan {
        replay_probability: 0.08,
        duplicate_probability: 0.08,
        ..FaultPlan::default()
    };
    for protocol in TRANSFORMED {
        let spec = one_group(protocol, 8, 150)
            .with_fault_plan(plan)
            .with_time_cap_ns(5_000_000_000);
        let run = run(protocol, spec, put);
        assert_eq!(run.stats.committed, 150, "{protocol:?}");
        assert!(run.stats.messages_replayed > 0);
        assert!(
            run.rejected > 0,
            "{protocol:?}: the shield rejected nothing"
        );
        run.assert_agreement();
        run.assert_everywhere();
    }
}

/// A tampered frame is rejected, not executed. Without the CFT protocol's
/// own retransmission it stalls its channel — fail-safe, not silent
/// corruption — so a replica may trail, but holds only what clients wrote,
/// and any two replicas that hold a key hold the same value.
#[test]
fn the_shield_rejects_tampered_frames() {
    let plan = FaultPlan {
        tamper_probability: 0.1,
        ..FaultPlan::default()
    };
    for protocol in TRANSFORMED {
        let spec = one_group(protocol, 4, 100)
            .with_fault_plan(plan)
            .with_time_cap_ns(3_000_000_000);
        let run = run(protocol, spec, put);
        assert!(run.stats.messages_tampered > 0, "{protocol:?}");
        assert!(
            run.rejected > 0,
            "{protocol:?}: the shield rejected nothing"
        );
        run.assert_agreement();
        for (i, values) in (0..).zip(&run.held) {
            for value in values {
                let written = written_by_put(i, value);
                assert!(
                    written,
                    "{protocol:?}: key-{i} holds {value:?}, never written"
                );
            }
        }
    }
}

/// Whether `value` is one that [`put`] writes to key `i`.
fn written_by_put(i: u64, value: &[u8]) -> bool {
    let text = std::str::from_utf8(value).unwrap_or_default();
    let fields = text.strip_prefix('v').and_then(|rest| rest.split_once('-'));
    let parsed = fields.and_then(|(c, s)| Some((c.parse::<u64>().ok()?, s.parse::<u64>().ok()?)));
    parsed.is_some_and(|(client, seq)| key(client * 7 + seq) == key(i))
}

/// One client alternating writes and reads of one register: its last write
/// reaches a majority of every protocol's replicas, and no replica holds
/// another value.
#[test]
fn a_single_clients_last_write_reaches_a_majority() {
    let register = |_: u64, seq: u64| {
        if seq % 2 == 1 {
            let value = format!("v{seq}").into_bytes();
            Operation::Put { key: key(0), value }
        } else {
            Operation::Get { key: key(0) }
        }
    };
    for protocol in Protocol::ALL {
        let run = run(protocol, one_group(protocol, 1, 40), register);
        assert_eq!(run.stats.committed, 40, "{protocol:?}");
        run.assert_on_a_majority();
        assert!(
            run.held[0].iter().all(|value| value == b"v39"),
            "{protocol:?}"
        );
    }
}

/// Sixteen clients writing one key at once: every replica of every protocol
/// ends up holding the one value its order (a log, a chain, ABD's
/// timestamps) makes the winner.
#[test]
fn concurrent_writers_of_one_key_converge() {
    let contended = |client: u64, seq: u64| Operation::Put {
        key: key(0),
        value: format!("writer-{client}-{seq}").into_bytes(),
    };
    for protocol in Protocol::ALL {
        let run = run(protocol, one_group(protocol, 16, 100), contended);
        assert_eq!(run.stats.committed, 100, "{protocol:?}");
        assert_eq!(run.held[0].len(), run.applied.len(), "{protocol:?}");
        run.assert_agreement();
    }
}

/// R-CR answers reads at the tail and R-AllConcur at any node, without a
/// frame between replicas: only writes cost traffic, about two chain hops
/// each under R-CR, two broadcasts and their acks under R-AllConcur.
#[test]
fn local_reads_cost_no_replica_traffic() {
    let read_heavy = |client: u64, seq: u64| {
        if seq.is_multiple_of(5) {
            put(client, seq)
        } else {
            get(client, seq)
        }
    };
    for (protocol, frames_per_write, slack) in
        [(Protocol::Chain, 3, 50), (Protocol::AllConcur, 7, 20)]
    {
        let run = run(protocol, one_group(protocol, 16, 300), read_heavy);
        let stats = &run.stats;
        assert!(
            stats.committed_reads > stats.committed_writes,
            "{protocol:?}"
        );
        let bound = frames_per_write * stats.committed_writes + slack;
        assert!(stats.messages_delivered <= bound, "{protocol:?}: {stats:?}");
        run.assert_agreement();
    }
}

/// Per committed write: a pre-prepare broadcast (n-1), then n prepare and n
/// commit broadcasts — O(n²) frames, where Recipe's protocols are linear.
/// One client keeps the pipeline drained, so no frame is still in flight
/// when the run stops.
#[test]
fn pbft_message_complexity_is_quadratic() {
    let run = run(Protocol::Pbft, one_group(Protocol::Pbft, 1, 50), put);
    assert_eq!(run.stats.committed, 50);
    let per_op = run.stats.messages_delivered as f64 / 50.0;
    assert!(per_op >= 15.0, "measured {per_op:.1} messages per op");
}

#[test]
fn recipe_outperforms_pbft_on_the_same_workload() {
    let throughput = |protocol| {
        run(protocol, one_group(protocol, 12, 400), mixed)
            .stats
            .throughput_ops
    };
    let speedup = throughput(Protocol::Chain) / throughput(Protocol::Pbft);
    assert!(
        speedup > 3.0,
        "R-CR was only {speedup:.1}x faster than PBFT"
    );
}

/// One client issues a fixed-seed YCSB stream one operation after the other
/// — so the commit order is the stream's, whatever a frame costs — and the
/// run goes on until the traffic of the last one has landed. Returns the
/// committed count and every replica's final records, timestamps included.
struct FinalState(ProtocolMode);

impl ProtocolVisitor for FinalState {
    type Output = (u64, Vec<Vec<RangeEntry>>);

    fn visit<R: BuildReplica>(self) -> Self::Output {
        const OPS: u64 = 150;
        let m = Membership::of_size(3, 1);
        let replicas = (0..3)
            .map(|id| R::build(id, m.clone(), self.0, BatchConfig::unbatched()))
            .collect();
        let profile = R::PROTOCOL.cost_profile(self.0);
        let mut cluster = SimCluster::<R>::new(replicas, SimConfig::uniform(3, profile));
        cluster.seed_initial_events();
        let mut generator = WorkloadSpec::ycsb(0.5, 64).generator();
        for request in 1..=OPS {
            let operation = op_from_workload(generator.next_op());
            assert!(cluster.submit_at(cluster.now_ns(), 0, request, operation));
            while cluster.drain_completions().is_empty() {
                assert_eq!(cluster.step(), StepOutcome::Processed, "request {request}");
            }
        }
        cluster.run_until(cluster.now_ns() + 3_000_000);
        let nodes = cluster.node_ids().into_iter();
        let records = |id| {
            let store = cluster.replica_mut(id).store();
            store.export_range(&|_| true).expect("nothing corrupts it")
        };
        let state = nodes.map(records).collect();
        (cluster.committed(), state)
    }
}

/// The paper's claim, differentially: the transformation leaves a protocol's
/// logic alone, so the same core run natively and Recipe-transformed commits
/// the same operations into the same state.
#[test]
fn native_and_recipe_modes_of_one_core_reach_one_state() {
    for protocol in TRANSFORMED {
        let (committed, state) = dispatch(protocol, FinalState(ProtocolMode::Native));
        assert_eq!(committed, 150, "{protocol:?}");
        assert!(state.iter().all(|records| !records.is_empty()));
        let under_recipe = dispatch(protocol, FinalState(PLAINTEXT));
        assert_eq!(under_recipe, (committed, state), "{protocol:?}");
    }
}
