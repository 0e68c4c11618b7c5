//! Runs all four Recipe-transformed protocols plus the PBFT and Damysus baselines
//! on the same YCSB-style workload and prints a small comparison table (a
//! mini-version of Figure 4).
//!
//! ```bash
//! cargo run --release --example protocol_comparison
//! ```

use recipe::bft::dispatch;
use recipe::core::ConfidentialityMode;
use recipe::protocols::{BuildReplica, Protocol, ProtocolMode, ProtocolVisitor};
use recipe::shard::{DeploymentSpec, ShardedCluster};
use recipe::sim::RunStats;
use recipe::workload::WorkloadSpec;

// The bench crate is not a dependency of the umbrella crate (it is a harness), so
// this example re-implements the comparison inline using the public APIs.

/// The mode every protocol here runs in (the BFT baselines ignore it).
const PLAINTEXT: ProtocolMode = ProtocolMode::Recipe {
    confidentiality: ConfidentialityMode::Plaintext,
};

/// One group of a protocol tolerating one fault, at the fewest replicas it
/// needs, under 16 clients until 800 operations commit.
struct Run {
    read_ratio: f64,
}

impl ProtocolVisitor for Run {
    type Output = RunStats;

    fn visit<R: BuildReplica>(self) -> RunStats {
        let spec = DeploymentSpec::new(1, R::PROTOCOL.min_replicas(1))
            .with_profile(R::PROTOCOL.cost_profile(PLAINTEXT))
            .with_clients(16, 800);
        let mut generator = WorkloadSpec::ycsb(self.read_ratio, 256).generator();
        let stats =
            ShardedCluster::<R>::build(spec).run_requests(|_, _| Some(generator.next_op().into()));
        stats.total
    }
}

fn run_all(read_ratio: f64) {
    let order = [
        Protocol::Pbft,
        Protocol::Damysus,
        Protocol::Raft,
        Protocol::Chain,
        Protocol::Abd,
        Protocol::AllConcur,
    ];
    let results: Vec<(&str, RunStats)> = order
        .into_iter()
        .map(|protocol| {
            (
                protocol.display_name(),
                dispatch(protocol, Run { read_ratio }),
            )
        })
        .collect();
    let baseline = results[0].1.throughput_ops;
    println!("\nworkload: {:.0}% reads, 256 B values", read_ratio * 100.0);
    println!(
        "{:<12} {:>16} {:>12} {:>10}",
        "protocol", "throughput(op/s)", "latency(us)", "vs PBFT"
    );
    for (name, stats) in &results {
        println!(
            "{:<12} {:>16.0} {:>12.1} {:>9.1}x",
            name,
            stats.throughput_ops,
            stats.mean_latency_us,
            stats.throughput_ops / baseline
        );
    }
}

fn main() {
    for ratio in [0.5, 0.9] {
        run_all(ratio);
    }
}
