//! Per-shard confidentiality policies: one deployment spec, four R-Raft
//! shards, and only the shards holding sensitive ranges pay the encryption
//! cost.
//!
//! Shard 0 and shard 1 run [`ShardPolicy::confidential`]: their replicas
//! AEAD-encrypt every protocol payload inside the enclave, seal stored values
//! before they enter host memory, and their cost profiles charge the
//! per-byte encryption work. Shards 2 and 3 keep the workspace default
//! (plaintext: integrity + non-equivocation only). Shard 1 additionally
//! batches its leader traffic — policies compose per shard.
//!
//! ```bash
//! cargo run --example policy_store
//! ```

use recipe::protocols::{BatchConfig, RaftReplica};
use recipe::shard::{DeploymentSpec, ShardPolicy, ShardedCluster};
use recipe::workload::WorkloadSpec;
use std::cell::RefCell;

fn main() {
    const SHARDS: usize = 4;
    let spec = DeploymentSpec::new(SHARDS, 3)
        .with_clients(48, 2_000)
        .with_shard_policy(0, ShardPolicy::confidential())
        .with_shard_policy(
            1,
            ShardPolicy::confidential().with_batch(BatchConfig::of_ops(16)),
        );

    // Policies are inspectable before anything is built — a client library
    // or auditor can resolve the effective per-shard configuration offline.
    for shard in 0..SHARDS {
        let policy = spec.policy_for(shard);
        println!(
            "shard {shard}: {} (batch_ops {})",
            policy.confidentiality.label(),
            policy.batch.max_ops
        );
    }

    let mut cluster = ShardedCluster::<RaftReplica>::build(spec);
    let generator = RefCell::new(WorkloadSpec::ycsb(0.5, 256).generator());
    let stats =
        cluster.run_requests(move |_client, _seq| Some(generator.borrow_mut().next_op().into()));

    println!(
        "\ntotal: {} ops at {:.0} ops/s (mean {:.1} us)",
        stats.total.committed, stats.total.throughput_ops, stats.total.mean_latency_us,
    );
    for (shard, s) in stats.per_shard.iter().enumerate() {
        println!(
            "shard {shard} ({:>12}): {:>5} ops, mean {:>7.1} us, p99 {:>7.1} us",
            cluster.confidentiality_of(shard).label(),
            s.committed,
            s.mean_latency_us,
            s.p99_latency_us,
        );
    }
    println!(
        "\nthe confidential shards' higher latency is the policy's encryption \
         cost; the plaintext shards serve at the usual Recipe cost."
    );
}
