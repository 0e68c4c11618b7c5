//! Cross-crate integration: every registered protocol — the four Recipe
//! transformations and the two BFT baselines — runs as a one-shard
//! deployment through the request driver, commits its workload, and keeps
//! its contract: what its clients saw keeps its read path's promise, and
//! its replicas agree on the data they hold.

mod common {
    pub mod history;
    pub mod recorder;
    pub mod replicas;
}

use recipe::bft::dispatch;
use recipe::core::{ConfidentialityMode, Membership, Operation};
use recipe::kv::ExportedEntry;
use recipe::net::FaultPlan;
use recipe::protocols::{
    BatchConfig, Capacity, Protocol, ProtocolMode, ProtocolVisitor, Role, StoreReplica,
};
use recipe::shard::{DeploymentSpec, ShardedCluster};
use recipe::sim::{NodeBooks, RunStats, SimCluster, SimConfig, StepOutcome};
use recipe::telemetry::CostCategory;
use recipe::workload::WorkloadSpec;

use common::history::{History, Violation, FINAL};
use common::replicas::check_run;

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
    stats: RunStats,
    /// Each replica's books, in construction order.
    books: Vec<NodeBooks>,
    /// Operations each replica applied.
    applied: Vec<u64>,
    /// Frames the replicas' shields rejected.
    rejected: u64,
    /// What the clients saw, then each live replica's final value.
    history: History,
    /// The run's check: its clients' history against the protocol's read
    /// promise, and its replicas' agreement ([`check_run`]).
    checked: Result<(), Violation>,
}

/// Runs `spec` under `workload`, recording what the clients saw, and lets
/// the traffic in flight at the end land before checking the run.
struct Run<W> {
    spec: DeploymentSpec,
    workload: W,
}

impl<W: FnMut(u64, u64) -> Operation> ProtocolVisitor for Run<W> {
    type Output = Outcome;

    fn visit<R: StoreReplica>(mut self) -> Outcome {
        let mut cluster = ShardedCluster::<R>::build(self.spec);
        let mut history = History::default();
        let workload = |client, seq| Some((self.workload)(client, seq).into());
        let stats = cluster.run_requests(history.record(workload));
        let checked = check_run(&mut cluster, &mut history);
        let group = cluster.shard_mut(0);
        let ids = group.node_ids().to_vec();
        let counters = ids
            .iter()
            .filter_map(|&id| group.replica(id).protocol_counters());
        Outcome {
            stats: stats.total,
            books: group.books().to_vec(),
            rejected: counters.map(|c| c.rejected_frames).sum(),
            applied: ids
                .iter()
                .map(|&id| group.replica_mut(id).store().applied())
                .collect(),
            history,
            checked,
        }
    }
}

/// Runs `workload` on `protocol` and panics unless the run kept the
/// protocol's contract.
fn run<W: FnMut(u64, u64) -> Operation>(
    protocol: Protocol,
    spec: DeploymentSpec,
    workload: W,
) -> Outcome {
    let outcome = dispatch(protocol, Run { spec, workload });
    if let Err(violation) = &outcome.checked {
        panic!("{violation:?}");
    }
    outcome
}

/// [`run`] for a workload whose clients write one key at once. R-AllConcur
/// orders no two coordinators' writes of one key (ROADMAP item 15): each
/// coordinator applies its own proposal once every peer has tracked it, and
/// a peer's when its `Deliver` arrives, so two concurrent writes of a key
/// land in opposite orders on their two coordinators. Such a run of it may
/// break its read promise in that one way ([`unordered`]), and in no other:
/// every live replica still ends holding every key written.
/// `r_allconcur_breaks_its_read_promise_on_a_contended_key` pins the
/// violation, for item 15's fix to flip.
fn run_contended<W: FnMut(u64, u64) -> Operation>(
    protocol: Protocol,
    spec: DeploymentSpec,
    workload: W,
) -> Outcome {
    if protocol != Protocol::AllConcur {
        return run(protocol, spec, workload);
    }
    let outcome = dispatch(protocol, Run { spec, workload });
    for last in outcome.history.ops.iter().filter(|op| op.client == FINAL) {
        let key = String::from_utf8_lossy(&last.key);
        assert!(
            last.value.is_some(),
            "{protocol:?}: a replica lacks {key:?}"
        );
    }
    if let Some(violation) = outcome.checked.as_ref().err().filter(|v| !unordered(v)) {
        panic!("{violation:?}");
    }
    outcome
}

/// Whether `violation` is R-AllConcur's unordered writes: clients or
/// replicas saw one key's writes in orders no one order keeps, or the
/// replicas ended on different ones.
fn unordered(Violation(violation): &Violation) -> bool {
    let orders = violation.contains("in orders no one order keeps");
    orders || violation.contains("replicas disagree on")
}

/// `protocol`'s one-shard group commits a mixed workload in full and keeps
/// its contract.
fn commits_a_mixed_workload_and_agrees(protocol: Protocol) {
    let run = run(protocol, one_group(protocol, 16, 300), mixed);
    let stats = &run.stats;
    assert_eq!(stats.committed, 300, "{protocol:?}");
    assert!(stats.throughput_ops > 0.0);
    // Classified by what was issued: both kinds commit, nothing else does.
    assert!(stats.committed_reads > 0 && stats.committed_writes > 0);
    assert_eq!(stats.committed_reads + stats.committed_writes, 300);
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

/// A PBFT group of seven under 256 clients ends its run with a replica far
/// behind on its queue: its calendar works on for 831 ms of virtual time
/// after the last commit the run counted. A check that read the replicas
/// 50 ms later found one mid-backlog, holding an older write of a key than
/// its peers ("each precede the other"); the check reads them at rest.
#[test]
fn a_pbft_backlog_lands_before_the_check_reads_it() {
    let protocol = Protocol::Pbft;
    let spec = DeploymentSpec::new(1, 7)
        .with_faults_tolerated(2)
        .with_profile(protocol.cost_profile(PLAINTEXT))
        .with_clients(256, 2_000);
    let run = run(protocol, spec, write_64b);
    assert_eq!(run.stats.committed, 2_000);
}

/// Where a protocol batches, a run of 16-op batches commits the workload
/// and keeps its contract. What batching does to the frames is the
/// contract check's (`keeps_its_contract`).
#[test]
fn batched_groups_agree_wherever_a_protocol_batches() {
    for protocol in Protocol::ALL.into_iter().filter(|p| p.batches()) {
        let spec = one_group(protocol, 32, 300).with_batching(BatchConfig::of_ops(16));
        let batched = run(protocol, spec, put);
        // One batched ack frame can commit several ops inside a single
        // event, so the closed loop may overshoot by a frame's worth.
        let committed = batched.stats.committed;
        assert!((300..320).contains(&committed), "{protocol:?}");
        assert_eq!(batched.rejected, 0, "{protocol:?}");
    }
}

/// Replays and duplicates leave the original frame in its place in the
/// per-channel counter sequence: every Recipe transformation's shield
/// rejects the copies, the run commits in full and keeps its contract.
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
    }
}

/// A tampered frame is rejected, not executed. Without the CFT protocol's
/// own retransmission it stalls its channel — fail-safe, not silent
/// corruption — and what the clients saw still keeps the contract: every
/// replica holds only what clients wrote.
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
    }
}

/// One client alternating writes and reads of one register: every
/// protocol commits all of it, and its replicas end on the last write.
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
    }
}

/// Sixteen clients writing one key at once: every protocol keeps its
/// contract, each replica ending on the one value its order (a log, a
/// chain, ABD's timestamps) makes the winner.
#[test]
fn concurrent_writers_of_one_key_converge() {
    let contended = |client: u64, seq: u64| Operation::Put {
        key: key(0),
        value: format!("writer-{client}-{seq}").into_bytes(),
    };
    for protocol in Protocol::ALL {
        let run = run_contended(protocol, one_group(protocol, 16, 100), contended);
        assert_eq!(run.stats.committed, 100, "{protocol:?}");
    }
}

/// Sixteen clients on one key, half of them reading: the reads each
/// protocol answers keep its read path's promise.
fn contended_reads_and_writes(client: u64, seq: u64) -> Operation {
    if (client + seq).is_multiple_of(2) {
        let value = format!("writer-{client}-{seq}").into_bytes();
        Operation::Put { key: key(0), value }
    } else {
        Operation::Get { key: key(0) }
    }
}

#[test]
fn a_contended_key_keeps_each_read_promise() {
    for protocol in Protocol::ALL {
        let spec = one_group(protocol, 16, 200);
        let run = run_contended(protocol, spec, contended_reads_and_writes);
        assert_eq!(run.stats.committed, 200, "{protocol:?}");
    }
}

/// R-AllConcur's `Local` reads promise sequential consistency, and on one
/// contended key they break it: its clients and its replicas see the
/// writes in orders no one order keeps ([`run_contended`]).
#[test]
fn r_allconcur_breaks_its_read_promise_on_a_contended_key() {
    for (clients, ops) in [(4, 120), (8, 120), (8, 240)] {
        let spec = one_group(Protocol::AllConcur, clients, ops);
        let workload = contended_reads_and_writes;
        let run = dispatch(Protocol::AllConcur, Run { spec, workload });
        let Err(violation) = run.checked else {
            panic!("{clients} clients × {ops} ops: R-AllConcur ordered a contended key");
        };
        let unordered = unordered(&violation);
        assert!(unordered, "{clients} clients × {ops} ops: {violation:?}");
    }
}

/// One client issues a fixed-seed YCSB stream one operation after the other
/// — so the commit order is the stream's, whatever a frame costs — and the
/// run goes on until the traffic of the last one has landed. Returns the
/// committed count and every replica's final records, timestamps included.
struct FinalState(ProtocolMode);

impl ProtocolVisitor for FinalState {
    type Output = (u64, Vec<Vec<ExportedEntry>>);

    fn visit<R: StoreReplica>(self) -> Self::Output {
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
            let operation = generator.next_op();
            assert!(cluster.submit_at(cluster.now_ns(), 0, request, operation));
            while cluster.drain_completions().is_empty() {
                assert_eq!(cluster.step(), StepOutcome::Processed, "request {request}");
            }
        }
        while !cluster.at_rest() {
            assert_eq!(cluster.step(), StepOutcome::Processed);
        }
        let nodes = cluster.node_ids().to_vec().into_iter();
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

/// A write of a 64-byte value.
fn write_64b(client: u64, seq: u64) -> Operation {
    Operation::Put {
        key: key(client * 7 + seq),
        value: format!("{client:>32}{seq:>32}").into_bytes(),
    }
}

/// Half reads, half writes of 64-byte values.
fn mixed_64b(client: u64, seq: u64) -> Operation {
    if (client + seq).is_multiple_of(2) {
        write_64b(client, seq)
    } else {
        get(client, seq)
    }
}

/// How the contract check holds a cell's throughput to the capacity its
/// contract predicts ([`recipe::protocols::Contract::capacity`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Held {
    /// The capacity, within 3 % either way: what a cell its clients
    /// saturate (twice as many move its throughput by less than 1 %) must
    /// show.
    Within,
    /// No more than 3 % over the capacity: a cell its clients do not
    /// saturate.
    AtMost,
    /// It outruns its capacity, for a reason ROADMAP records: held by
    /// `leader_local_reads_outrun_their_coordinator`.
    Outruns,
}

/// The cells whose clients or [`Held`] are not the default: 32 clients
/// saturate a cell ([`Held::Within`]) unless its reads are local
/// ([`Held::Outruns`]). Each entry names a cell ([`Cell`]'s `Display`), or
/// every cell whose name starts with it. Measured by running every cell at
/// its clients and at twice as many.
const CELLS: &[(&str, usize, Held)] = &[
    ("Chain f=1 native batch 16 writes", 64, Held::Within),
    ("Chain f=1 recipe batch 16 writes", 64, Held::Within),
    ("Chain f=2 native batch 1 writes", 64, Held::Within),
    // Saturated only from 128 clients, where its 2 000 ops take 1.8 ms of
    // virtual time: the batches filling at the start and left to the flush
    // timer at the end hold it at 0.967 of the capacity (0.991 at 8 000
    // ops, 0.998 at 32 000).
    ("Chain f=2 native batch 16 writes", 128, Held::AtMost),
    ("Chain f=2 recipe batch 16 writes", 64, Held::Within),
    // The tail answers each write when the write arrives, so the reads
    // charged to it never hold a client back (ROADMAP).
    ("Chain f=1 recipe batch 1 half reads", 32, Held::Outruns),
    // Local reads at their clients' pace, below what three or five native
    // replicas can answer.
    ("AllConcur f=1 native batch 1 reads", 32, Held::AtMost),
    ("AllConcur f=2 native batch 1 reads", 32, Held::AtMost),
    // Not saturated, as no PBFT cell is, but held both ways at half reads,
    // as R-Raft's and Damysus's half-reads cells are: 1.011.
    ("Pbft f=1 recipe batch 1 half reads", 32, Held::Within),
    // The primary's queue ends each run behind work no reply waits for
    // (commits it receives after the backups answered), and more clients
    // leave more of it: +1.2 % throughput from 32 clients to 64, +2.4 %
    // from 64 to 128 (ROADMAP).
    ("Pbft", 32, Held::AtMost),
];

/// One cell of the contract check.
#[derive(Debug, Clone, Copy)]
struct Cell {
    protocol: Protocol,
    f: usize,
    mode: ProtocolMode,
    batch: usize,
    /// The share of operations that read: 0, ½ or 1.
    read_share: f64,
}

impl std::fmt::Display for Cell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mode = match self.mode {
            ProtocolMode::Native => "native",
            ProtocolMode::Recipe { .. } => "recipe",
        };
        let ops = match self.read_share {
            0.0 => "writes",
            1.0 => "reads",
            _ => "half reads",
        };
        let (protocol, faults, batch) = (self.protocol, self.f, self.batch);
        write!(f, "{protocol:?} f={faults} {mode} batch {batch} {ops}")
    }
}

impl Cell {
    /// The cell's replicas.
    fn n(&self) -> usize {
        self.protocol.min_replicas(self.f)
    }

    fn workload(&self) -> fn(u64, u64) -> Operation {
        match self.read_share {
            0.0 => write_64b,
            1.0 => get,
            _ => mixed_64b,
        }
    }

    /// Every operation a read that one replica answers from its own store,
    /// with no frame between replicas.
    fn reads_locally(&self) -> bool {
        let contract = self.protocol.contract();
        self.read_share == 1.0 && contract.frames(self.n(), true) == 0
    }

    /// The cell's clients, and how its throughput is held ([`CELLS`]).
    fn held(&self) -> (usize, Held) {
        let name = self.to_string();
        let entry = CELLS.iter().find(|(cell, ..)| name.starts_with(cell));
        match entry {
            Some(&(_, clients, held)) => (clients, held),
            None if self.reads_locally() => (32, Held::Outruns),
            None => (32, Held::Within),
        }
    }

    /// The capacity the contract predicts for the cell: keys as [`key`]
    /// makes them, 64-byte values written, and read where a write stored
    /// one (no write precedes an all-reads cell's reads).
    fn predicted(&self) -> Capacity {
        let value_bytes = if self.read_share == 1.0 { 0 } else { 64 };
        let key_bytes = key(KEYS - 1).len();
        let profile = self.protocol.cost_profile(self.mode);
        let (n, reads, batch) = (self.n(), self.read_share, self.batch);
        let contract = self.protocol.contract();
        contract.capacity(n, &profile, reads, key_bytes, value_bytes, batch)
    }

    /// The role each of the cell's nodes plays, in construction order: the
    /// contract's roles in their order, each by as many nodes as it counts
    /// (a leader or primary first, a chain head to tail).
    fn roles(&self) -> Vec<&'static Role> {
        let n = self.n();
        let roles = self.protocol.contract().roles.iter();
        let played: Vec<_> = roles
            .flat_map(|role| std::iter::repeat_n(role, role.replicas.at(n)))
            .collect();
        assert_eq!(
            played.len(),
            n,
            "{self}: the roles count other than n nodes"
        );
        played
    }

    /// Runs 2 000 ops of the cell's workload from its clients, and returns
    /// what the run left and its throughput over the predicted capacity.
    fn run(&self) -> (Outcome, f64) {
        let spec = DeploymentSpec::new(1, self.n())
            .with_faults_tolerated(self.f)
            .with_profile(self.protocol.cost_profile(self.mode))
            .with_batching(BatchConfig::of_ops(self.batch))
            .with_clients(self.held().0, 2_000);
        let outcome = run_contended(self.protocol, spec, self.workload());
        let of_capacity = outcome.stats.throughput_ops / self.predicted().ops_per_s;
        (outcome, of_capacity)
    }
}

/// The contract check's cells for `protocol`: f of 1 and 2, batches of 1 op
/// and, where its contract batches, of 16, every operation a write or every
/// one a read, and a transformed core both natively and under Recipe; and
/// one cell of half reads at f = 1, under Recipe, unbatched.
fn cells(protocol: Protocol) -> Vec<Cell> {
    let modes: &[ProtocolMode] = if protocol.supports_confidential() {
        &[ProtocolMode::Native, PLAINTEXT]
    } else {
        &[PLAINTEXT]
    };
    let batches: &[usize] = if protocol.batches() { &[1, 16] } else { &[1] };
    let cell = |f, mode, batch, read_share| Cell {
        protocol,
        f,
        mode,
        batch,
        read_share,
    };
    let mut cells = Vec::new();
    for f in [1, 2] {
        for &mode in modes {
            for &batch in batches {
                cells.push(cell(f, mode, batch, 0.0));
                cells.push(cell(f, mode, batch, 1.0));
            }
        }
    }
    cells.push(cell(1, PLAINTEXT, 1, 0.5));
    cells
}

/// The contract check: every cell of `protocol` ([`cells`]) keeps its
/// contract ([`keeps_its_contract_in`]); the cells that outrun their
/// capacity are `leader_local_reads_outrun_their_coordinator`'s. A protocol
/// whose contract does not batch is refused a batch at build.
fn keeps_its_contract(protocol: Protocol) {
    for cell in cells(protocol) {
        if cell.held().1 != Held::Outruns {
            keeps_its_contract_in(cell);
        }
    }
    if !protocol.batches() {
        let spec = one_group(protocol, 32, 2_000).with_batching(BatchConfig::of_ops(16));
        let refused = std::panic::catch_unwind(|| run(protocol, spec, write_64b));
        assert!(refused.is_err(), "{protocol:?} was built to batch");
    }
}

/// One cell of the contract check: 2 000 ops from the cell's clients,
/// drained to rest. Each node is held to its role's row
/// ([`node_keeps_its_role`]); on a cell held [`Held::Within`] whose contract
/// does not rotate, the node with the most busy time plays the role the
/// capacity names. Its throughput is the contract's capacity as [`Held`]
/// says. Returns the run's throughput and its share of the capacity.
fn keeps_its_contract_in(cell: Cell) -> (f64, f64) {
    let (contract, n) = (cell.protocol.contract(), cell.n());
    let (run, of_capacity) = cell.run();
    let (stats, books) = (&run.stats, &run.books);
    let taken = books
        .iter()
        .map(|node| (node.writes_taken, node.reads_taken));
    let (writes, reads) = taken.fold((0, 0), |(w, r), (dw, dr)| (w + dw, r + dr));
    let roles = cell.roles();
    for (i, node) in books.iter().enumerate() {
        // A rotating node coordinates what it took and is a peer for the rest.
        let shares: Vec<Share> = if contract.rotates {
            let (coordinator, peer) = (&contract.roles[0], &contract.roles[1]);
            let (own_writes, own_reads) = (node.writes_taken, node.reads_taken);
            vec![
                (coordinator, own_writes, own_reads),
                (peer, writes - own_writes, reads - own_reads),
            ]
        } else {
            vec![(roles[i], writes, reads)]
        };
        let name = format!("{cell}: node {i} ({})", shares[0].0.name);
        node_keeps_its_role(&name, node, &shares, n, cell.batch);
    }
    if cell.held().1 == Held::Within && !contract.rotates {
        let busiest = (0..n)
            .max_by_key(|&i| books[i].busy.total())
            .expect("n > 0");
        let busy: Vec<u64> = books.iter().map(|node| node.busy.total()).collect();
        let predicted = cell.predicted();
        assert_eq!(
            roles[busiest].name, predicted.role,
            "{cell}: node {busiest} is the busiest, ns {busy:?}"
        );
        let split = books[busiest].busy;
        let top = CostCategory::ALL.into_iter().max_by_key(|&c| split.get(c));
        let ns = CostCategory::ALL.into_iter().zip(predicted.ns_per_op);
        let predicted_top = ns.max_by(|a, b| a.1.total_cmp(&b.1)).map(|(c, _)| c);
        assert_eq!(
            top, predicted_top,
            "{cell}: node {busiest}'s largest category, split {split:?}, predicted {:?}",
            predicted.ns_per_op
        );
    }
    let band = match cell.held().1 {
        Held::Within => 0.97..=1.03,
        Held::AtMost => 0.0..=1.03,
        Held::Outruns => 1.03..=f64::INFINITY,
    };
    assert!(
        band.contains(&of_capacity),
        "{cell}: {:.0} ops/s, {of_capacity:.3} of the capacity its contract predicts, \
         {:?}",
        stats.throughput_ops,
        cell.predicted()
    );
    (stats.throughput_ops, of_capacity)
}

/// A role row a node plays, for a number of the group's writes and reads.
type Share = (&'static Role, u64, u64);

/// One node of a contract check's cell against the role rows it plays
/// (`shares`). It takes the requests they coordinate. The ops it sends and
/// receives per request the group took are theirs within 1 % (within 0.01
/// where they are 0, for R-Raft's heartbeats). Where it sends or receives,
/// a frame carries more than half a batch of `batch` ops.
fn node_keeps_its_role(name: &str, node: &NodeBooks, shares: &[Share], n: usize, batch: usize) {
    // Writes and reads it coordinates, ops it sends and receives.
    let mut rows = [0u64; 4];
    for &(role, writes, reads) in shares {
        for (traffic, ops, kind) in [(role.write, writes, 0), (role.read, reads, 1)] {
            rows[kind] += u64::from(traffic.coordinates) * ops;
            rows[2] += traffic.sent.at(n) as u64 * ops;
            rows[3] += traffic.received.at(n) as u64 * ops;
        }
    }
    let [writes, reads, sent, received] = rows;
    let taken = (node.writes_taken, node.reads_taken);
    assert_eq!(taken, (writes, reads), "{name} takes (writes, reads)");
    let requests = shares.iter().map(|&(_, writes, reads)| writes + reads);
    let requests = requests.sum::<u64>() as f64;
    for (what, frames, ops, expected) in [
        ("sends", node.frames_sent, node.ops_sent, sent),
        (
            "receives",
            node.frames_received,
            node.ops_received,
            received,
        ),
    ] {
        let (per_request, expected) = (ops as f64 / requests, expected as f64 / requests);
        let tolerance = if expected == 0.0 {
            0.01
        } else {
            expected / 100.0
        };
        assert!(
            (per_request - expected).abs() <= tolerance,
            "{name} {what} {per_request:.3} ops per request, its role {expected:.3} ({})",
            shares[0].0.source
        );
        if expected > 0.0 {
            let fill = ops as f64 / frames as f64;
            let full = batch as f64;
            assert!(
                fill > full / 2.0 && fill <= full,
                "{name}: a frame it {what} carries {fill:.2} ops"
            );
        }
    }
}

/// Every entry of [`CELLS`] names at least one cell of the contract check.
#[test]
fn every_cells_entry_names_a_cell() {
    let names: Vec<String> = Protocol::ALL
        .into_iter()
        .flat_map(cells)
        .map(|cell| cell.to_string())
        .collect();
    for (entry, ..) in CELLS {
        let named = names.iter().any(|name| name.starts_with(entry));
        assert!(named, "{entry:?} names no cell");
    }
}

/// A client's request is answered when the event that completes it
/// arrives, not when its replica has worked through its queue to it
/// (`ReplicaGroup::record_reply`, ROADMAP). A read one replica answers
/// from its own store sends nothing after it, so nothing ever waits for
/// that replica: every all-reads cell whose reads are local commits at its
/// clients' own pace, one request per link latency and think time, whatever
/// its coordinator is charged (below what native R-AllConcur's replicas
/// can answer, so those two cells are held as any other). Where one
/// replica answers every read
/// (R-Raft's leader, R-CR's tail) that is more than twice what the
/// contract says the replica can serve. R-CR's tail answers writes the same
/// way, so at half reads the reads it is charged never slow the writes. The
/// contract check's cells that outrun their capacity ([`Held::Outruns`])
/// run here, each keeping the rest of its contract; the fix flips this
/// test.
#[test]
fn leader_local_reads_outrun_their_coordinator() {
    let outrun = Protocol::ALL
        .into_iter()
        .flat_map(cells)
        .filter(|cell| cell.held().1 == Held::Outruns);
    let mut local_reads = Vec::new();
    for cell in outrun {
        let (throughput, of_capacity) = keeps_its_contract_in(cell);
        if cell.reads_locally() {
            local_reads.push((cell, throughput, of_capacity));
        } else {
            assert_eq!(cell.to_string(), "Chain f=1 recipe batch 1 half reads");
            assert!(
                of_capacity > 1.2,
                "{cell}: {of_capacity:.3} of its capacity"
            );
        }
    }
    assert_eq!(local_reads.len(), 18);
    let pace = local_reads[0].1;
    for (cell, throughput, of_capacity) in local_reads {
        assert!(
            (throughput / pace - 1.0).abs() < 1e-3,
            "{cell}: {throughput:.0} ops/s, not its clients' pace {pace:.0}"
        );
        if !cell.protocol.contract().rotates {
            assert!(
                of_capacity > 2.0,
                "{cell}: {of_capacity:.3} of its capacity"
            );
        }
    }
}

#[test]
fn r_raft_keeps_its_contract() {
    keeps_its_contract(Protocol::Raft);
}

#[test]
fn r_chain_keeps_its_contract() {
    keeps_its_contract(Protocol::Chain);
}

#[test]
fn r_abd_keeps_its_contract() {
    keeps_its_contract(Protocol::Abd);
}

#[test]
fn r_allconcur_keeps_its_contract() {
    keeps_its_contract(Protocol::AllConcur);
}

#[test]
fn pbft_keeps_its_contract() {
    keeps_its_contract(Protocol::Pbft);
}

#[test]
fn damysus_keeps_its_contract() {
    keeps_its_contract(Protocol::Damysus);
}
