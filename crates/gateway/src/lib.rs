//! # recipe-gateway — the tenant gateway in front of the sharded driver
//!
//! The paper's middleware sits between untrusted clients and a confidential
//! replicated store; this crate is the front door of that middleware. Every
//! [`Request`] passes [`Gateway::admit`] *before* the consistent-hash router,
//! and every completion passes [`Gateway::complete`]:
//!
//! ```text
//! client ──▶ admit (resolve tenant ▸ verify ▸ take tokens ▸ scope keys) ──▶ router ──▶ engine
//!                 │ reject: client observes an error, moves on
//!                 │ defer:  driver retries at the bucket's refill time
//!                 ◀── complete (count the tenant's committed ops) ──
//! ```
//!
//! The steps are one straight-line function over one record per tenant
//! (`tenant::Tenant`: verification key, credential, token bucket, key
//! prefix, counters). The first refusal wins, so a rejected request spends
//! no tokens and a throttled one keeps its keys unscoped — the driver
//! re-presents it unchanged. What that buys is multi-tenancy:
//!
//! * **per-tenant authentication** — a MAC credential per tenant under
//!   `GATEWAY_MAC_DOMAIN`, derived from a master key exactly like
//!   `AuthLayer` derives per-channel keys;
//! * **tenant-scoped keyspaces** — every key is rewritten to
//!   `<tenant>/<key>` before routing, and tenant names are validated
//!   prefix-free, so tenants cannot read or clobber each other's keys on
//!   any shard, through any migration. The prefix is written in place, into
//!   the room the client reserved when it drew the key
//!   ([`GatewayConfig::key_room`]); a key without room grows once;
//! * **deterministic admission control** — integer token buckets on the
//!   virtual clock: same seed, same throttle decisions, bit for bit.
//!   Nothing here may consult a wall clock or ambient randomness
//!   (`recipe-lint`'s determinism family — this crate is a core path).
//!
//! The gateway is **off by default** and bit-invisible when off (the same
//! bar the telemetry subsystem meets): a driver built without a gateway, or
//! with an untenanted one, schedules the identical event sequence.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod admission;
mod tenant;

use recipe_core::Request;
use recipe_crypto::MacKey;
use serde::{Deserialize, Serialize};

use tenant::Tenant;
pub use tenant::{scoped_prefix, TenantSpec};

/// Gateway configuration as carried by a `DeploymentSpec` or scenario file.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct GatewayConfig {
    /// Master switch; when false the driver builds no gateway at all and
    /// runs are bit-identical to a gateway-less build.
    pub enabled: bool,
    /// The deployment's tenants, in declaration order. Empty = enabled but
    /// untenanted: every request passes through (also bit-invisible).
    pub tenants: Vec<TenantSpec>,
}

impl GatewayConfig {
    /// An enabled gateway with no tenants (pass-through).
    pub fn enabled() -> Self {
        GatewayConfig {
            enabled: true,
            tenants: Vec::new(),
        }
    }

    /// Adds a tenant.
    pub fn with_tenant(mut self, tenant: TenantSpec) -> Self {
        self.tenants.push(tenant);
        self
    }

    /// The spare capacity a client leaves in each key so that admission
    /// scopes it in place: the longest [`scoped_prefix`] of the configured
    /// tenants, 0 when the gateway is off or untenanted.
    pub fn key_room(&self) -> usize {
        if !self.enabled {
            return 0;
        }
        let prefixes = self.tenants.iter().map(|t| scoped_prefix(&t.name).len());
        prefixes.max().unwrap_or(0)
    }

    /// Validates the whole gateway block; error messages name the offending
    /// field (`gateway.tenant[1].name: ...`).
    pub fn validate(&self) -> Result<(), String> {
        for (i, tenant) in self.tenants.iter().enumerate() {
            tenant.validate(&format!("gateway.tenant[{i}]"))?;
            if let Some(j) = self.tenants[..i].iter().position(|t| t.name == tenant.name) {
                return Err(format!(
                    "gateway.tenant[{i}].name: duplicate tenant name `{}` (also tenant[{j}]) \
                     — tenant names are key namespaces and must be unique",
                    tenant.name
                ));
            }
        }
        if !self.enabled && !self.tenants.is_empty() {
            return Err(
                "gateway.enabled: tenants are configured but the gateway is disabled \
                 — enable it or drop the tenant blocks"
                    .to_string(),
            );
        }
        Ok(())
    }
}

/// Per-tenant admission/accounting counters, reported in `ShardedRunStats`.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TenantStats {
    /// Tenant name.
    pub tenant: String,
    /// Requests admitted to the router.
    pub admitted: u64,
    /// Requests rejected outright (failed authentication).
    pub rejected: u64,
    /// Throttle events (a request may be deferred several times before a
    /// token frees up; each deferral counts).
    pub throttled: u64,
    /// Operations whose commit completed ([`Gateway::complete`]).
    pub committed_ops: u64,
}

/// Gateway-level run statistics: one entry per tenant, declaration order.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct GatewayStats {
    /// Per-tenant counters (empty when the gateway is off or untenanted).
    pub tenants: Vec<TenantStats>,
}

/// Why the gateway refused a request outright.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The tenant's credential failed MAC verification.
    BadCredential,
}

/// The gateway's verdict on one request, as consumed by the driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GatewayVerdict {
    /// Forward to the router (keys already tenant-scoped).
    Admitted {
        /// Resolved tenant index, if tenanted.
        tenant: Option<usize>,
    },
    /// Drop the request; the client observes an error and issues its next
    /// operation.
    Rejected {
        /// Resolved tenant index, if resolution got that far.
        tenant: Option<usize>,
        /// Why the request was refused.
        reason: RejectReason,
    },
    /// Re-present the request at `retry_at_ns` (virtual time).
    Throttled {
        /// Tenant whose bucket is empty.
        tenant: Option<usize>,
        /// Deterministic retry time.
        retry_at_ns: u64,
    },
}

/// The assembled gateway: one record per tenant. Built once per run by the
/// sharded driver (when the config enables it).
#[derive(Debug)]
pub struct Gateway {
    tenants: Vec<Tenant>,
}

impl Gateway {
    /// Builds the gateway for `config`, or `None` when it is disabled — the
    /// driver then skips the admission hook entirely. The master key is
    /// derived from the deployment seed, so credentials are deterministic
    /// per seed.
    pub fn from_config(config: &GatewayConfig, seed: u64) -> Option<Gateway> {
        if !config.enabled {
            return None;
        }
        let master = master_key(seed);
        Some(Gateway {
            tenants: config
                .tenants
                .iter()
                .map(|spec| Tenant::new(&master, spec))
                .collect(),
        })
    }

    /// The client → tenant mapping: clients are assigned round-robin
    /// (`client_id % tenants`), the same mapping the per-tenant workload
    /// mixes use, so load composition is a pure function of the client id.
    /// `None` on an untenanted gateway.
    fn tenant_of(&self, client_id: u64) -> Option<usize> {
        let tenants = self.tenants.len() as u64;
        (tenants > 0).then(|| (client_id % tenants) as usize)
    }

    /// Decides one request at virtual time `now_ns`: resolve the client's
    /// tenant, verify its credential, take one token per operation, scope
    /// the keys. The first refusal returns, so later steps never see a
    /// refused request. On admission the request's keys are already
    /// rewritten into the tenant's namespace; an untenanted gateway admits
    /// everything untouched. `request_id` decides nothing: credentials are
    /// not sequenced, requests are.
    pub fn admit(
        &mut self,
        client_id: u64,
        _request_id: u64,
        now_ns: u64,
        request: &mut Request,
    ) -> GatewayVerdict {
        let tenant = self.tenant_of(client_id);
        let Some(t) = tenant.map(|t| &mut self.tenants[t]) else {
            return GatewayVerdict::Admitted { tenant };
        };
        if !t.credential_verifies() {
            t.stats.rejected += 1;
            return GatewayVerdict::Rejected {
                tenant,
                reason: RejectReason::BadCredential,
            };
        }
        // Over-quota requests are deferred to the bucket's refill time,
        // never dropped.
        if let Err(retry_at_ns) = t.bucket.try_take(now_ns, request.len() as u64) {
            t.stats.throttled += 1;
            return GatewayVerdict::Throttled {
                tenant,
                retry_at_ns,
            };
        }
        t.scope_keys(request);
        t.stats.admitted += 1;
        GatewayVerdict::Admitted { tenant }
    }

    /// Counts a completed request of `ops` operations against its tenant.
    pub fn complete(&mut self, client_id: u64, _now_ns: u64, ops: usize) {
        if let Some(t) = self.tenant_of(client_id) {
            self.tenants[t].stats.committed_ops += ops as u64;
        }
    }

    /// Snapshot of the per-tenant counters.
    pub fn stats(&self) -> GatewayStats {
        GatewayStats {
            tenants: self.tenants.iter().map(|t| t.stats.clone()).collect(),
        }
    }
}

/// Derives the gateway's master MAC key from the deployment seed — the
/// same "one root secret, per-purpose derivations" pattern the enclave's
/// provisioned `AuthLayer` keys follow.
fn master_key(seed: u64) -> MacKey {
    let mut bytes = [0u8; 32];
    for (i, chunk) in bytes.chunks_mut(8).enumerate() {
        chunk.copy_from_slice(&seed.wrapping_add(i as u64).to_le_bytes());
    }
    MacKey::from_bytes(bytes).derive("gateway:master")
}

#[cfg(test)]
mod tests {
    use super::*;
    use recipe_core::Operation;

    fn tenanted() -> GatewayConfig {
        GatewayConfig::enabled()
            .with_tenant(TenantSpec::new("alice").with_quota(1_000))
            .with_tenant(TenantSpec::new("bob"))
    }

    fn get(key: &[u8]) -> Request {
        Request::Single(Operation::Get { key: key.to_vec() })
    }

    /// A read of `key` drawn with `room` bytes of spare capacity, as the
    /// scenario runner's clients draw their keys.
    fn roomy_get(key: &[u8], room: usize) -> Request {
        let mut roomy = Vec::with_capacity(room + key.len());
        roomy.extend_from_slice(key);
        Request::Single(Operation::Get { key: roomy })
    }

    /// Where the first key of `request` lives, and its capacity.
    fn key_buffer(request: &Request) -> (*const u8, usize) {
        let (Operation::Put { key, .. } | Operation::Get { key }) = &request.ops()[0];
        (key.as_ptr(), key.capacity())
    }

    #[test]
    fn key_room_is_the_longest_tenant_prefix() {
        assert_eq!(GatewayConfig::default().key_room(), 0);
        assert_eq!(GatewayConfig::enabled().key_room(), 0);
        assert_eq!(tenanted().key_room(), scoped_prefix("alice").len());
        let disabled = GatewayConfig {
            enabled: false,
            tenants: vec![TenantSpec::new("a")],
        };
        assert_eq!(disabled.key_room(), 0);
    }

    #[test]
    fn a_key_with_room_is_scoped_in_its_own_buffer() {
        let config = tenanted();
        let mut gw = Gateway::from_config(&config, 42).expect("enabled");
        for (client, name) in [(0, "alice"), (1, "bob")] {
            let mut req = roomy_get(b"user1", config.key_room());
            let (buffer, _) = key_buffer(&req);
            let verdict = gw.admit(client, 1, 0, &mut req);
            assert!(matches!(verdict, GatewayVerdict::Admitted { .. }));
            assert_eq!(key_buffer(&req).0, buffer, "{name}'s key moved");
            assert_eq!(
                req.ops()[0].key(),
                [scoped_prefix(name), b"user1".to_vec()].concat()
            );
        }
    }

    #[test]
    fn a_refused_request_keeps_its_key_and_its_room() {
        let config = GatewayConfig::enabled()
            .with_tenant(TenantSpec::new("mallory").revoked())
            .with_tenant(TenantSpec::new("t").with_quota(1_000));
        let room = config.key_room();
        let mut gw = Gateway::from_config(&config, 7).expect("enabled");

        let mut rejected = roomy_get(b"k", room);
        let before = key_buffer(&rejected);
        let verdict = gw.admit(0, 1, 0, &mut rejected);
        assert!(matches!(verdict, GatewayVerdict::Rejected { .. }));
        assert_eq!((&rejected, key_buffer(&rejected)), (&get(b"k"), before));

        // Tenant `t`'s burst spent, its next request is deferred.
        for rid in 0..100 {
            gw.admit(1, rid, 0, &mut get(b"warm"));
        }
        let mut throttled = roomy_get(b"k", room);
        let before = key_buffer(&throttled);
        let GatewayVerdict::Throttled { retry_at_ns, .. } = gw.admit(1, 100, 0, &mut throttled)
        else {
            panic!("the burst is spent");
        };
        assert_eq!((&throttled, key_buffer(&throttled)), (&get(b"k"), before));
        // Re-presented, it still has the room to be scoped in place.
        let verdict = gw.admit(1, 100, retry_at_ns, &mut throttled);
        assert!(matches!(verdict, GatewayVerdict::Admitted { .. }));
        assert_eq!(
            (&throttled, key_buffer(&throttled).0),
            (&get(b"t/k"), before.0)
        );
    }

    #[test]
    fn disabled_config_builds_no_gateway() {
        assert!(Gateway::from_config(&GatewayConfig::default(), 1).is_none());
        assert!(Gateway::from_config(&GatewayConfig::enabled(), 1).is_some());
    }

    #[test]
    fn admitted_request_is_scoped_and_counted() {
        let mut gw = Gateway::from_config(&tenanted(), 42).expect("enabled");
        let mut req = get(b"user1");
        let verdict = gw.admit(0, 1, 0, &mut req);
        assert_eq!(verdict, GatewayVerdict::Admitted { tenant: Some(0) });
        assert_eq!(req.ops()[0].key(), b"alice/user1");
        gw.complete(0, 10, 1);
        let stats = gw.stats();
        assert_eq!(stats.tenants[0].admitted, 1);
        assert_eq!(stats.tenants[0].committed_ops, 1);
        assert_eq!(stats.tenants[1].admitted, 0);
    }

    #[test]
    fn revoked_tenant_is_rejected_every_time() {
        let config = GatewayConfig::enabled().with_tenant(TenantSpec::new("mallory").revoked());
        let mut gw = Gateway::from_config(&config, 42).expect("enabled");
        let mut req = get(b"k");
        match gw.admit(0, 1, 0, &mut req) {
            GatewayVerdict::Rejected { reason, .. } => {
                assert_eq!(reason, RejectReason::BadCredential)
            }
            other => panic!("expected rejection, got {other:?}"),
        }
        // The rejected request was never key-scoped.
        assert_eq!(req.ops()[0].key(), b"k");
        assert_eq!(gw.stats().tenants[0].rejected, 1);
    }

    #[test]
    fn a_request_rejected_at_authentication_spends_no_tokens() {
        // One token in the bucket: were tokens taken before the credential
        // is checked, the second presentation would be throttled.
        let config = GatewayConfig::enabled()
            .with_tenant(TenantSpec::new("mallory").with_quota(1).revoked());
        let mut gw = Gateway::from_config(&config, 42).expect("enabled");
        let mut req = get(b"k");
        for rid in 1..=5 {
            assert!(matches!(
                gw.admit(0, rid, 0, &mut req),
                GatewayVerdict::Rejected { .. }
            ));
        }
        assert_eq!(req, get(b"k"));
        let stats = gw.stats();
        assert_eq!(stats.tenants[0].rejected, 5);
        assert_eq!(stats.tenants[0].throttled, 0);
    }

    #[test]
    fn a_throttled_request_is_scoped_once_when_it_is_finally_admitted() {
        // The driver re-presents the same request object at each retry
        // time: refusals must leave it untouched or the prefix stacks.
        let config = GatewayConfig::enabled().with_tenant(TenantSpec::new("t").with_quota(1_000));
        let mut gw = Gateway::from_config(&config, 7).expect("enabled");
        let burst = 100;
        for rid in 0..burst {
            let verdict = gw.admit(0, rid, 0, &mut get(b"warm"));
            assert_eq!(verdict, GatewayVerdict::Admitted { tenant: Some(0) });
        }
        let mut req = get(b"k");
        let mut now_ns = 0;
        let mut deferrals = 0;
        loop {
            match gw.admit(0, burst, now_ns, &mut req) {
                GatewayVerdict::Admitted { .. } => break,
                GatewayVerdict::Throttled { retry_at_ns, .. } => {
                    assert_eq!(req, get(b"k"), "a deferred request keeps its keys");
                    assert!(retry_at_ns > now_ns);
                    // Come back a little early once, so one request is
                    // deferred more than one time.
                    now_ns = if deferrals == 0 {
                        retry_at_ns - 1
                    } else {
                        retry_at_ns
                    };
                    deferrals += 1;
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(deferrals, 2);
        assert_eq!(req, get(b"t/k"));
        let stats = gw.stats();
        assert_eq!(stats.tenants[0].throttled, deferrals);
        assert_eq!(stats.tenants[0].admitted, burst + 1);
    }

    #[test]
    fn every_op_of_a_transaction_is_scoped_and_priced() {
        let mut gw = Gateway::from_config(&tenanted(), 42).expect("enabled");
        let mut req = Request::Txn(vec![
            Operation::Put {
                key: b"x".to_vec(),
                value: b"1".to_vec(),
            },
            Operation::Get { key: b"y".to_vec() },
        ]);
        let verdict = gw.admit(1, 1, 0, &mut req);
        assert_eq!(verdict, GatewayVerdict::Admitted { tenant: Some(1) });
        assert_eq!(req.ops()[0].key(), b"bob/x");
        assert_eq!(req.ops()[1].key(), b"bob/y");
        gw.complete(1, 10, req.len());
        assert_eq!(gw.stats().tenants[1].committed_ops, 2);
    }

    #[test]
    fn an_untenanted_gateway_admits_every_request_untouched() {
        let mut gw = Gateway::from_config(&GatewayConfig::enabled(), 1).expect("enabled");
        let mut req = get(b"k");
        for client in 0..4 {
            let verdict = gw.admit(client, 1, 0, &mut req);
            assert_eq!(verdict, GatewayVerdict::Admitted { tenant: None });
            gw.complete(client, 10, 1);
        }
        assert_eq!(req, get(b"k"));
        assert!(gw.stats().tenants.is_empty());
    }

    #[test]
    fn same_seed_same_verdict_sequence() {
        let run = || {
            let mut gw = Gateway::from_config(
                &GatewayConfig::enabled().with_tenant(TenantSpec::new("t").with_quota(100)),
                7,
            )
            .expect("enabled");
            (0..500u64)
                .map(|i| gw.admit(0, i, i * 100_000, &mut get(b"k")))
                .collect::<Vec<_>>()
        };
        let a = run();
        assert_eq!(a, run());
        assert!(a
            .iter()
            .any(|v| matches!(v, GatewayVerdict::Throttled { .. })));
        assert!(a
            .iter()
            .any(|v| matches!(v, GatewayVerdict::Admitted { .. })));
    }

    #[test]
    fn validation_names_the_offending_field() {
        let dup = GatewayConfig::enabled()
            .with_tenant(TenantSpec::new("a"))
            .with_tenant(TenantSpec::new("a"));
        let err = dup.validate().expect_err("duplicate must fail");
        assert!(err.contains("gateway.tenant[1].name"), "{err}");

        let disabled_with_tenants = GatewayConfig {
            enabled: false,
            tenants: vec![TenantSpec::new("a")],
        };
        let err = disabled_with_tenants.validate().expect_err("contradiction");
        assert!(err.contains("gateway.enabled"), "{err}");

        assert!(tenanted().validate().is_ok());
    }
}
