//! Multi-tenant store: two tenants share one sharded deployment behind the
//! tenant gateway. Every request passes the gateway
//! (resolve tenant → authenticate → token-bucket admission → key scoping)
//! before it reaches the router, so the tenants get disjoint keyspaces and
//! independent quotas — `acme` runs unthrottled while `hammer`, granted a
//! tiny quota, has its excess demand deferred instead of degrading `acme`.
//!
//! ```bash
//! cargo run --example multi_tenant_store
//! ```

use recipe::gateway::{scoped_prefix, GatewayConfig, TenantSpec};
use recipe::protocols::RaftReplica;
use recipe::shard::{DeploymentSpec, ShardedCluster};
use recipe::workload::{TenantMixSpec, WorkloadSpec};
use std::cell::RefCell;

fn main() {
    // 1. Two tenants on one deployment. `acme` keeps the default unlimited
    //    quota; `hammer` is clamped to 500 ops/s with a 4-op burst, far
    //    below what its closed-loop clients will demand.
    let gateway = GatewayConfig::enabled()
        .with_tenant(TenantSpec::new("acme"))
        .with_tenant(TenantSpec::new("hammer").with_quota(500).with_burst(4));
    let spec = DeploymentSpec::new(2, 3)
        .with_clients(12, 2_000)
        .with_gateway(gateway);
    let mut cluster = ShardedCluster::<RaftReplica>::build(spec);

    // 2. Tenant-scoped keyspaces: the gateway prefixes every key with
    //    `<tenant>/` after admission, so the *same* logical key from the two
    //    tenants names two different entries — and may land on different
    //    shards, because placement hashes the scoped key.
    for tenant in ["acme", "hammer"] {
        let mut key = scoped_prefix(tenant);
        key.extend_from_slice(b"user00000001");
        println!(
            "logical key user00000001 for {tenant:<6} -> stored as {:<20} on shard {}",
            String::from_utf8_lossy(&key),
            cluster.router().shard_for_key(&key)
        );
    }

    // 3. Clients are assigned to tenants round-robin (client 0 -> acme,
    //    client 1 -> hammer, ...); each tenant runs the same YCSB mix with
    //    per-client seeded streams, so the run is fully deterministic.
    let mix = TenantMixSpec::uniform(2, WorkloadSpec::ycsb(0.5, 256));
    let generators = RefCell::new(mix.generators(12));
    let stats = cluster.run_requests(move |client, _seq| {
        Some(generators.borrow_mut()[client as usize].next_op().into())
    });

    // 4. Per-tenant admission accounting, straight from the gateway.
    println!("\nper-tenant gateway accounting:");
    for t in &stats.gateway.tenants {
        println!(
            "  {:<6} admitted {:>5}  throttled {:>5}  rejected {:>3}  committed ops {:>5}",
            t.tenant, t.admitted, t.throttled, t.rejected, t.committed_ops
        );
    }
    let hammer = stats
        .gateway
        .tenants
        .iter()
        .find(|t| t.tenant == "hammer")
        .expect("hammer accounted");
    assert!(hammer.throttled > 0, "hammer was never throttled");

    println!(
        "\ntotal: {} ops at {:.0} ops/s, mean {:.1} us, p99 {:.1} us",
        stats.total.committed,
        stats.total.throughput_ops,
        stats.total.mean_latency_us,
        stats.total.p99_latency_us,
    );
    println!(
        "hammer's overload was deferred at the gateway ({} throttles), not queued in the router",
        hammer.throttled
    );
}
