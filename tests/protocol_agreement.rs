//! Cross-crate integration: every protocol (four Recipe transformations plus the two
//! BFT baselines) commits a YCSB-style workload on the simulator, and replicas end
//! up agreeing on the data they hold.

use recipe::bft::{dispatch, DamysusReplica, PbftReplica};
use recipe::core::{ConfidentialityMode, Membership, Operation};
use recipe::protocols::{
    AbdReplica, AllConcurReplica, BatchConfig, BuildReplica, ChainReplica, Protocol, ProtocolMode,
    ProtocolVisitor, RaftReplica,
};
use recipe::shard::op_from_workload;
use recipe::sim::{
    ClientModel, CostProfile, RangeEntry, Replica, RunStats, SimCluster, SimConfig, StepOutcome,
};
use recipe::workload::{WorkloadOp, WorkloadSpec};
use std::cell::RefCell;

fn run<R: Replica>(replicas: Vec<R>, profile: CostProfile, ops: usize) -> RunStats {
    let n = replicas.len();
    let mut config = SimConfig::uniform(n, profile);
    config.clients = ClientModel {
        clients: 12,
        total_operations: ops,
    };
    let mut cluster = SimCluster::new(replicas, config);
    let generator = RefCell::new(WorkloadSpec::ycsb(0.7, 256).generator());
    cluster.run(move |_, _| match generator.borrow_mut().next_op() {
        WorkloadOp::Read { key } => Operation::Get { key },
        WorkloadOp::Write { key, value } => Operation::Put { key, value },
    })
}

#[test]
fn r_raft_commits_the_workload() {
    let m = Membership::of_size(3, 1);
    let stats = run(
        (0..3)
            .map(|id| RaftReplica::recipe(id, m.clone(), false))
            .collect(),
        CostProfile::recipe(),
        400,
    );
    assert_eq!(stats.committed, 400);
    assert!(stats.throughput_ops > 0.0);
}

#[test]
fn r_chain_commits_the_workload() {
    let m = Membership::of_size(3, 1);
    let stats = run(
        (0..3)
            .map(|id| ChainReplica::recipe(id, m.clone(), false))
            .collect(),
        CostProfile::recipe(),
        400,
    );
    assert_eq!(stats.committed, 400);
}

#[test]
fn r_abd_commits_the_workload() {
    let m = Membership::of_size(3, 1);
    let stats = run(
        (0..3)
            .map(|id| AbdReplica::recipe(id, m.clone(), false))
            .collect(),
        CostProfile::recipe(),
        400,
    );
    assert_eq!(stats.committed, 400);
}

#[test]
fn r_allconcur_commits_the_workload() {
    let m = Membership::of_size(3, 1);
    let stats = run(
        (0..3)
            .map(|id| AllConcurReplica::recipe(id, m.clone(), false))
            .collect(),
        CostProfile::recipe(),
        400,
    );
    assert_eq!(stats.committed, 400);
}

#[test]
fn pbft_and_damysus_baselines_commit_the_workload() {
    let m4 = Membership::of_size(4, 1);
    let pbft = run(
        (0..4).map(|id| PbftReplica::new(id, m4.clone())).collect(),
        CostProfile::pbft_baseline(),
        300,
    );
    assert_eq!(pbft.committed, 300);

    let m3 = Membership::of_size(3, 1);
    let damysus = run(
        (0..3)
            .map(|id| DamysusReplica::new(id, m3.clone()))
            .collect(),
        CostProfile::damysus_baseline(),
        300,
    );
    assert_eq!(damysus.committed, 300);
}

#[test]
fn recipe_outperforms_pbft_on_the_same_workload() {
    let m3 = Membership::of_size(3, 1);
    let m4 = Membership::of_size(4, 1);
    let recipe = run(
        (0..3)
            .map(|id| ChainReplica::recipe(id, m3.clone(), false))
            .collect(),
        CostProfile::recipe(),
        400,
    );
    let pbft = run(
        (0..4).map(|id| PbftReplica::new(id, m4.clone())).collect(),
        CostProfile::pbft_baseline(),
        400,
    );
    let speedup = recipe.throughput_ops / pbft.throughput_ops;
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
        let profile = match self.0 {
            ProtocolMode::Native => CostProfile::native_cft(),
            ProtocolMode::Recipe { .. } => CostProfile::recipe(),
        };
        let mut cluster = SimCluster::<R>::new(replicas, SimConfig::uniform(3, profile));
        cluster.set_external_clients(true);
        cluster.seed_initial_events();
        let mut generator = WorkloadSpec::ycsb(0.5, 64).generator();
        for request in 1..=OPS {
            let operation = op_from_workload(generator.next_op());
            assert!(cluster.submit_at(cluster.now_ns(), 0, request, operation));
            while cluster.drain_completions().is_empty() {
                assert_eq!(cluster.step(), StepOutcome::Processed, "request {request}");
            }
        }
        let horizon = cluster.now_ns() + 3_000_000;
        while cluster.peek_next_at().is_some_and(|at| at <= horizon) {
            cluster.step();
        }
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
    let recipe = ProtocolMode::Recipe {
        confidentiality: ConfidentialityMode::Plaintext,
    };
    let transformed = [
        Protocol::Raft,
        Protocol::Chain,
        Protocol::Abd,
        Protocol::AllConcur,
    ];
    for protocol in transformed {
        let (committed, state) = dispatch(protocol, FinalState(ProtocolMode::Native));
        assert_eq!(committed, 150, "{protocol:?}");
        assert!(state.iter().all(|records| !records.is_empty()));
        let under_recipe = dispatch(protocol, FinalState(recipe));
        assert_eq!(under_recipe, (committed, state), "{protocol:?}");
    }
}
