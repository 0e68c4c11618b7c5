//! Tenant specs, per-tenant authentication and keyspace scoping.
//!
//! Tenancy is decided *before* the router sees a request, so everything a
//! tenant does downstream — routing, replication, migration — happens under
//! its scoped keys and nothing downstream needs tenant awareness.

use recipe_core::{Operation, Request};
use recipe_crypto::{MacKey, MacTag};
use serde::{Deserialize, Serialize};

use crate::admission::TokenBucket;
use crate::TenantStats;

/// MAC domain for tenant credentials: a credential is
/// `MAC(derive(master, "gateway:tenant:<name>"), GATEWAY_MAC_DOMAIN || name)`.
/// Domain-separated from every other wire format (the lint registry holds
/// workspace-wide uniqueness).
pub(crate) const GATEWAY_MAC_DOMAIN: &[u8] = b"recipe.gateway.v1";

/// Declarative description of one tenant, as it appears in a
/// `DeploymentSpec` or scenario file.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TenantSpec {
    /// Tenant name; becomes the key-namespace prefix, so it must be
    /// nonempty, `/`-free and unique (validated at deployment build).
    pub name: String,
    /// Admission quota in operations per virtual second; `0` = unlimited.
    pub(crate) quota_ops_per_sec: u64,
    /// Token-bucket burst capacity in operations (how far a tenant may run
    /// ahead of its steady-state quota); at least 1 under a quota. Ignored
    /// when unlimited.
    pub burst_ops: u64,
    /// When false, the gateway mints this tenant's credential under a
    /// revoked key, so every request fails authentication — the
    /// deterministic stand-in for a key-rotation lockout.
    pub(crate) authorized: bool,
}

impl TenantSpec {
    /// An authorized tenant with an unlimited quota.
    pub fn new(name: impl Into<String>) -> Self {
        TenantSpec {
            name: name.into(),
            quota_ops_per_sec: 0,
            burst_ops: 1,
            authorized: true,
        }
    }

    /// Sets the admission quota (ops per virtual second) with a burst
    /// capacity of one tenth of it (at least one op).
    pub fn with_quota(mut self, ops_per_sec: u64) -> Self {
        self.quota_ops_per_sec = ops_per_sec;
        self.burst_ops = (ops_per_sec / 10).max(1);
        self
    }

    /// Overrides the burst capacity.
    pub fn with_burst(mut self, burst_ops: u64) -> Self {
        self.burst_ops = burst_ops;
        self
    }

    /// Marks the tenant's credential revoked.
    pub fn revoked(mut self) -> Self {
        self.authorized = false;
        self
    }

    /// Checks a tenant spec in isolation; `field` names the spec's position
    /// for error messages (`gateway.tenant[2]`).
    pub(crate) fn validate(&self, field: &str) -> Result<(), String> {
        if self.name.is_empty() {
            return Err(format!("{field}.name: must be nonempty"));
        }
        if !self
            .name
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-' || c == '_')
        {
            return Err(format!(
                "{field}.name: `{}` must be [a-z0-9_-]+ (it becomes a key-namespace prefix)",
                self.name
            ));
        }
        if self.quota_ops_per_sec > 0 && self.burst_ops == 0 {
            return Err(format!(
                "{field}.burst_ops: must be >= 1 when quota_ops_per_sec is set \
                 (a request's price is capped at the bucket's capacity, so a zero-burst \
                 bucket prices every request at nothing and the quota would not meter)"
            ));
        }
        Ok(())
    }
}

/// Derives the per-tenant credential key from the deployment's master key.
/// The label is domain-separated per tenant, mirroring `AuthLayer`'s
/// per-channel `master.derive(label)` provisioning.
fn tenant_key(master: &MacKey, name: &str) -> MacKey {
    master.derive(&format!("gateway:tenant:{name}"))
}

/// Mints the credential a tenant presents on every request. A revoked
/// tenant gets a tag under a different derivation, so verification fails
/// without any non-determinism.
pub(crate) fn mint_credential(master: &MacKey, name: &str, authorized: bool) -> MacTag {
    let key = if authorized {
        tenant_key(master, name)
    } else {
        master.derive(&format!("gateway:revoked:{name}"))
    };
    key.tag_parts(&[GATEWAY_MAC_DOMAIN, name.as_bytes()])
}

/// The namespace prefix for a tenant name.
pub fn scoped_prefix(name: &str) -> Vec<u8> {
    let mut p = name.as_bytes().to_vec();
    p.push(b'/');
    p
}

/// Everything the gateway holds for one tenant: who it is, how its
/// credential verifies, what it may still spend, where its keys live and
/// what it has done so far.
#[derive(Debug)]
pub(crate) struct Tenant {
    /// Verification key, derived from the master key — the `AuthLayer`
    /// admission check, specialised to the front door: constant work, no
    /// counters (credentials are not sequenced, requests are).
    key: MacKey,
    /// The credential the tenant presents (unverifiable when revoked).
    credential: MacTag,
    pub(crate) bucket: TokenBucket,
    /// `<name>/`. Names are `/`-free and unique, so the prefixed keyspaces
    /// are prefix-free: no tenant can name — and therefore read or clobber —
    /// another tenant's keys, and the property survives migration because
    /// placement hashes the *scoped* key.
    prefix: Vec<u8>,
    /// Counters; `stats.tenant` is the tenant's name.
    pub(crate) stats: TenantStats,
}

impl Tenant {
    pub(crate) fn new(master: &MacKey, spec: &TenantSpec) -> Self {
        Tenant {
            key: tenant_key(master, &spec.name),
            credential: mint_credential(master, &spec.name, spec.authorized),
            bucket: TokenBucket::new(spec.quota_ops_per_sec, spec.burst_ops),
            prefix: scoped_prefix(&spec.name),
            stats: TenantStats {
                tenant: spec.name.clone(),
                ..TenantStats::default()
            },
        }
    }

    /// Whether the presented credential verifies under the tenant's key.
    pub(crate) fn credential_verifies(&self) -> bool {
        let name = self.stats.tenant.as_bytes();
        self.key
            .verify_parts(&[GATEWAY_MAC_DOMAIN, name], &self.credential)
            .is_ok()
    }

    /// Rewrites every key of `request` into the tenant's namespace
    /// (`<tenant>/<key>`).
    pub(crate) fn scope_keys(&self, request: &mut Request) {
        let scope = |op: &mut Operation| {
            let (Operation::Put { key, .. } | Operation::Get { key }) = op;
            let mut scoped = Vec::with_capacity(self.prefix.len() + key.len());
            scoped.extend_from_slice(&self.prefix);
            scoped.append(key);
            *key = scoped;
        };
        match request {
            Request::Single(op) => scope(op),
            Request::Txn(ops) => ops.iter_mut().for_each(scope),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tenant_names_are_prefix_free_namespaces() {
        // `/` is rejected at validation, so no tenant prefix can be a
        // prefix of another tenant's scoped key.
        assert!(TenantSpec::new("a/b")
            .validate("gateway.tenant[0]")
            .is_err());
        assert!(TenantSpec::new("").validate("gateway.tenant[0]").is_err());
        assert!(TenantSpec::new("a-b_9").validate("t").is_ok());
        let a = scoped_prefix("a");
        let ab = scoped_prefix("ab");
        assert!(!ab.starts_with(&a));
    }
}
