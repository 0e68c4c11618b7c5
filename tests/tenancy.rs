//! Multi-tenant gateway properties: isolation, admission determinism and
//! off-by-default invisibility.
//!
//! 1. tenant keyspaces are disjoint by construction — scoped keys of
//!    distinct tenants can never collide (names are `/`-free, prefixes end
//!    in `/`, so the prefixed keyspaces are prefix-free), and a real run
//!    stores each tenant's writes only under its own prefix;
//! 2. gateway decisions are deterministic — two same-seed runs with a
//!    throttled tenant agree on every admission counter and every latency;
//! 3. a revoked tenant is rejected at the front door and commits nothing,
//!    without perturbing its neighbours;
//! 4. with the gateway disabled, a run is identical to one that never
//!    configured a gateway at all.

use std::cell::RefCell;

use proptest::prelude::*;
use recipe::core::{Operation, Request};
use recipe::gateway::{scoped_prefix, GatewayConfig, TenantSpec};
use recipe::protocols::RaftReplica;
use recipe::shard::{DeploymentSpec, ShardedCluster, ShardedRunStats};
use recipe::workload::{TenantMixSpec, WorkloadSpec};

/// Two-tenant deployment: `alpha` and `bravo`, one client each.
fn two_tenant_spec(operations: usize) -> DeploymentSpec {
    let gateway = GatewayConfig::enabled()
        .with_tenant(TenantSpec::new("alpha"))
        .with_tenant(TenantSpec::new("bravo"));
    DeploymentSpec::new(2, 3)
        .with_seed(7)
        .with_clients(2, operations)
        .with_gateway(gateway)
}

/// Both tenants write the *same* logical keys with tenant-tagged values:
/// client 0 is `alpha`, client 1 is `bravo` (round-robin resolution).
fn tenant_tagged_write(client: u64, seq: u64) -> Request {
    let tenant = if client.is_multiple_of(2) {
        "alpha"
    } else {
        "bravo"
    };
    Request::Single(Operation::Put {
        key: format!("user{seq:04}").into_bytes(),
        value: format!("written-by-{tenant}-{seq}").into_bytes(),
    })
}

#[test]
fn tenants_share_logical_keys_without_collisions() {
    let mut cluster = ShardedCluster::<RaftReplica>::build(two_tenant_spec(200));
    let stats = cluster.run_requests(|client, seq| Some(tenant_tagged_write(client, seq)));
    assert!(stats.total.committed > 0);
    for t in &stats.gateway.tenants {
        assert!(t.committed_ops > 0, "tenant {} committed nothing", t.tenant);
        assert_eq!(t.rejected, 0);
    }

    // Every committed logical key exists once per tenant, under that
    // tenant's prefix, holding that tenant's value — and never unscoped.
    let read = |cluster: &mut ShardedCluster<RaftReplica>, key: &[u8]| -> Option<Vec<u8>> {
        let shard = cluster.router().shard_for_key(key);
        let leader = cluster.shard(shard).write_coordinator()?;
        cluster.shard_mut(shard).replica_mut(leader).local_read(key)
    };
    for seq in 1..=5u64 {
        for tenant in ["alpha", "bravo"] {
            let mut scoped = scoped_prefix(tenant);
            scoped.extend_from_slice(format!("user{seq:04}").as_bytes());
            let value = read(&mut cluster, &scoped)
                .unwrap_or_else(|| panic!("{tenant}'s user{seq:04} missing"));
            assert_eq!(
                value,
                format!("written-by-{tenant}-{seq}").into_bytes(),
                "cross-tenant clobber on user{seq:04}"
            );
        }
        // The unscoped key must not exist anywhere: the gateway rewrote
        // every access before it reached a shard.
        let raw = format!("user{seq:04}").into_bytes();
        assert_eq!(read(&mut cluster, &raw), None, "unscoped key leaked");
    }
}

#[test]
fn revoked_tenant_is_rejected_without_perturbing_neighbours() {
    let gateway = GatewayConfig::enabled()
        .with_tenant(TenantSpec::new("alpha"))
        .with_tenant(TenantSpec::new("mallory").revoked());
    let spec = DeploymentSpec::new(2, 3)
        .with_seed(7)
        .with_clients(2, 100)
        .with_gateway(gateway);
    let mut cluster = ShardedCluster::<RaftReplica>::build(spec);
    let stats = cluster.run_requests(|client, seq| Some(tenant_tagged_write(client, seq)));

    let by_name = |name: &str| {
        stats
            .gateway
            .tenants
            .iter()
            .find(|t| t.tenant == name)
            .unwrap_or_else(|| panic!("{name} accounted"))
    };
    let mallory = by_name("mallory");
    assert!(mallory.rejected > 0, "revoked tenant was never rejected");
    assert_eq!(mallory.admitted, 0);
    assert_eq!(mallory.committed_ops, 0, "revoked tenant committed state");
    let alpha = by_name("alpha");
    assert!(alpha.committed_ops > 0);
    assert_eq!(alpha.rejected, 0);
}

/// One throttled-tenant run for the determinism property.
fn throttled_run(seed: u64, operations: usize) -> ShardedRunStats {
    let gateway = GatewayConfig::enabled()
        .with_tenant(TenantSpec::new("alpha"))
        .with_tenant(TenantSpec::new("hammer").with_quota(500).with_burst(4));
    let spec = DeploymentSpec::new(2, 3)
        .with_seed(seed)
        .with_clients(8, operations)
        .with_gateway(gateway);
    let mut cluster = ShardedCluster::<RaftReplica>::build(spec);
    let mix = TenantMixSpec::uniform(
        2,
        WorkloadSpec {
            seed,
            ..WorkloadSpec::ycsb(0.5, 128)
        },
    );
    let generators = RefCell::new(mix.generators(8));
    cluster.run_requests(move |client, _seq| {
        Some(generators.borrow_mut()[client as usize].next_op().into())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Property: every gateway decision — admit, throttle, retry timing —
    /// replays bit-identically for the same seed, down to full run stats.
    #[test]
    fn admission_decisions_are_deterministic(seed in any::<u64>(), ops in 100usize..250) {
        let a = throttled_run(seed, ops);
        let b = throttled_run(seed, ops);
        prop_assert!(a.total.committed > 0);
        let hammer = a.gateway.tenants.iter().find(|t| t.tenant == "hammer").expect("accounted");
        prop_assert!(hammer.throttled > 0, "quota never engaged; property exercised nothing");
        prop_assert_eq!(&a, &b);
    }

    /// Property: tenant-scoped keyspaces are prefix-free — a scoped key of
    /// one tenant never equals, or even extends, another tenant's prefix.
    /// Placement hashes the scoped key, so the property survives migration.
    #[test]
    fn scoped_keyspaces_are_prefix_free(
        a_raw in proptest::collection::vec(0usize..38, 1..12),
        b_raw in proptest::collection::vec(0usize..38, 1..12),
        key_a in proptest::collection::vec(any::<u8>(), 0..32),
        key_b in proptest::collection::vec(any::<u8>(), 0..32),
    ) {
        // Tenant-name alphabet: `[a-z0-9_-]` (what TenantSpec::validate admits).
        const ALPHABET: &[u8; 38] = b"abcdefghijklmnopqrstuvwxyz0123456789_-";
        let name = |raw: &[usize]| -> String {
            raw.iter().map(|&i| ALPHABET[i] as char).collect()
        };
        let (a, b) = (name(&a_raw), name(&b_raw));
        prop_assume!(a != b);
        let mut scoped_a = scoped_prefix(&a);
        scoped_a.extend_from_slice(&key_a);
        let mut scoped_b = scoped_prefix(&b);
        scoped_b.extend_from_slice(&key_b);
        prop_assert_ne!(&scoped_a, &scoped_b);
        prop_assert!(!scoped_a.starts_with(&scoped_prefix(&b)));
        prop_assert!(!scoped_b.starts_with(&scoped_prefix(&a)));
    }
}

#[test]
fn disabled_gateway_is_invisible() {
    let run = |spec: DeploymentSpec| {
        let mut cluster = ShardedCluster::<RaftReplica>::build(spec);
        cluster.run_requests(|client, seq| Some(tenant_tagged_write(client, seq)))
    };
    let bare = DeploymentSpec::new(2, 3).with_seed(7).with_clients(2, 200);
    let without = run(bare.clone());
    let with_disabled = run(bare.with_gateway(GatewayConfig::default()));
    assert_eq!(without, with_disabled);
    assert!(without.gateway.tenants.is_empty());
}
