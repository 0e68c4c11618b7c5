//! Cross-shard atomic transactions through the typed `Request` API.
//!
//! Four R-Raft shards; shards 0 and 1 are confidential. Clients submit a mix
//! of [`Request::Single`] operations (the fast path — identical to the
//! pre-transaction API) and [`Request::Txn`] multi-key transactions that span
//! replica groups. The coordinator runs two-phase commit across the
//! participating shard leaders, and **every** 2PC frame travels through the
//! shield layer: MAC + trusted counter always, AEAD-sealed whenever any
//! participant shard is confidential (stricter wins).
//!
//! The demo's bank-style invariant makes atomicity visible: every transaction
//! writes the *same* transfer tag to one "debit" key and one "credit" key on
//! different shards — after the run, the two sides of every account pair
//! carry the same tag on every replica, or the transfer never happened.
//!
//! ```bash
//! cargo run --example txn_store
//! ```

use recipe::core::{Operation, Request};
use recipe::protocols::{RaftReplica, StoreReplica};
use recipe::shard::{DeploymentSpec, ShardPolicy, ShardedCluster, FRAMES_PER_PARTICIPANT};

fn main() {
    const SHARDS: usize = 4;
    const PAIRS: usize = 12;
    let spec = DeploymentSpec::new(SHARDS, 3)
        .with_clients(24, 3_000)
        .with_shard_policy(0, ShardPolicy::confidential())
        .with_shard_policy(1, ShardPolicy::confidential());
    let mut cluster = ShardedCluster::<RaftReplica>::build(spec);

    // Account pairs whose two sides live on different shards — transfers
    // between them are genuinely cross-shard (and cross-policy: some pairs
    // straddle the confidential/plaintext boundary).
    let pairs: Vec<(Vec<u8>, Vec<u8>)> = {
        let router = cluster.router();
        let mut pairs = Vec::new();
        let mut candidate = 0u64;
        while pairs.len() < PAIRS {
            let debit = format!("debit:{candidate:06}").into_bytes();
            let credit = format!("credit:{candidate:06}").into_bytes();
            candidate += 1;
            if router.shard_for_key(&debit) != router.shard_for_key(&credit) {
                pairs.push((debit, credit));
            }
        }
        pairs
    };

    let pairs_for_workload = pairs.clone();
    let stats = cluster.run_requests(move |client, seq| {
        if client % 2 == 0 {
            // Transfer: both sides commit atomically or neither does.
            let (debit, credit) = &pairs_for_workload[((client + 3 * seq) as usize) % PAIRS];
            let tag = format!("transfer-{client}-{seq}").into_bytes();
            Some(Request::Txn(vec![
                Operation::Put {
                    key: debit.clone(),
                    value: tag.clone(),
                },
                Operation::Put {
                    key: credit.clone(),
                    value: tag,
                },
            ]))
        } else {
            // Plain single-key traffic interleaves on the fast path.
            Some(Request::Single(Operation::Put {
                key: format!("audit:{client}:{}", seq % 128).into_bytes(),
                value: vec![0x5A; 128],
            }))
        }
    });

    println!(
        "total: {} ops at {:.0} ops/s (mean {:.1} us)",
        stats.total.committed, stats.total.throughput_ops, stats.total.mean_latency_us
    );
    println!(
        "transactions: {} committed ({} cross-shard), {} aborted on conflicts and retried",
        stats.txn.committed, stats.txn.cross_shard_committed, stats.txn.aborted
    );
    println!(
        "participants: {:.2} per attempt over {} attempts, {FRAMES_PER_PARTICIPANT} 2PC frames each",
        stats.txn.participants as f64 / stats.txn.started.max(1) as f64,
        stats.txn.started
    );
    println!(
        "2PC frames: {} sent, {} AEAD-sealed (a confidential shard participated), {} rejected by the shield",
        stats.txn.frames_sent, stats.txn.sealed_frames, stats.txn.frames_rejected
    );
    for (shard, s) in stats.per_shard.iter().enumerate() {
        println!(
            "shard {shard} ({:>12}): {:>5} ops, mean {:>7.1} us",
            cluster.confidentiality_of(shard).label(),
            s.committed,
            s.mean_latency_us,
        );
    }

    // Atomicity check: both sides of every pair hold the same transfer tag
    // on every replica of their respective shards.
    assert!(cluster.quiesce());
    let read = |cluster: &mut ShardedCluster<RaftReplica>, key: &[u8]| -> Option<Vec<u8>> {
        let shard = cluster.router().shard_for_key(key);
        let mut value = None;
        for node in cluster.shard(shard).node_ids().to_vec() {
            let replica_value = cluster
                .shard_mut(shard)
                .replica_mut(node)
                .store()
                .read_entry(key)
                .ok()
                .flatten()
                .map(|(_, value, _)| value);
            match &value {
                None => value = Some(replica_value),
                Some(seen) => assert_eq!(seen, &replica_value, "replica divergence"),
            }
        }
        value.flatten()
    };
    let mut transferred = 0;
    for (debit, credit) in &pairs {
        let d = read(&mut cluster, debit);
        let c = read(&mut cluster, credit);
        assert_eq!(d, c, "a transfer committed on one side only!");
        if d.is_some() {
            transferred += 1;
        }
    }
    println!(
        "\natomicity verified: {transferred}/{PAIRS} account pairs transferred, every pair's \
         two sides (on different shards) carry the same tag on every replica."
    );
}
