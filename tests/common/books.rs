//! A run's books: every commit counted once, per shard and in total.

use recipe::shard::ShardedRunStats;

/// Where a run's books do not balance, each line naming the run `name`.
/// Every commit is counted once, so each shard's throughput times its
/// elapsed time gives back its commits, its reads and writes add up to
/// them, and the shards' commits add up to the run's.
pub fn unbalanced_books(name: &str, stats: &ShardedRunStats) -> Vec<String> {
    let mut problems = Vec::new();
    for (shard, s) in stats.per_shard.iter().enumerate() {
        let implied = (s.throughput_ops * s.elapsed_secs).round();
        if implied != s.committed as f64 {
            problems.push(format!(
                "`{name}` shard {shard}: its throughput implies {implied} commits, it counted {}",
                s.committed
            ));
        }
        if s.committed_reads + s.committed_writes != s.committed {
            problems.push(format!(
                "`{name}` shard {shard}: {} reads and {} writes, {} commits",
                s.committed_reads, s.committed_writes, s.committed
            ));
        }
    }
    let shards: u64 = stats.per_shard.iter().map(|s| s.committed).sum();
    if shards != stats.total.committed {
        problems.push(format!(
            "`{name}`: its shards counted {shards} commits, the run {}",
            stats.total.committed
        ));
    }
    problems
}
