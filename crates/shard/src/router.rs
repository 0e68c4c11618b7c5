//! Consistent-hash placement of keys onto shards, with versioned ownership.
//!
//! The router owns a ring of virtual nodes: every shard contributes
//! `vnodes_per_shard` points, placed by hashing `(shard, replica_index)`
//! labels with the same [`recipe_workload::stable_key_hash`] the workload
//! layer exposes. A key belongs to the shard owning the first ring point at or
//! after the key's hash (wrapping). Placement is therefore:
//!
//! * **deterministic** — no per-process hasher seeds anywhere, so every
//!   component (driver, tests, rebalancers) agrees on ownership;
//! * **balanced** — with enough virtual nodes the arc lengths even out
//!   (the crate tests bound the imbalance over a Zipfian key set);
//! * **stable under growth** — adding a shard moves only the keys that land on
//!   the new shard's arcs, which is what makes rebalancing incremental.
//!
//! On top of the ring sits **versioned ownership**: every executed
//! key-range move ([`ShardRouter::rebalance`]) reassigns whole ring arcs to a
//! new shard and bumps the router epoch ([`RouterVersion`]). Clients cache the
//! epoch they last routed with; resolving a key through [`ShardRouter::route`]
//! with a stale epoch yields a [`RouteDecision::WrongShard`] redirect carrying
//! the new epoch, which is how in-flight traffic drains onto a new placement
//! without downtime (see the crate's `migration` module).

use std::collections::{BTreeMap, HashMap};

use recipe_workload::stable_key_hash;
use serde::{Deserialize, Serialize};

/// A routing-table epoch. Bumped atomically by every executed key-range move;
/// clients cache the epoch they last resolved against and are redirected when
/// it goes stale.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct RouterVersion(pub u64);

/// One executed key-range move: at epoch `version`, the ring arcs in `arcs`
/// changed owner from shard `from` to shard `to`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RangeMove {
    /// The epoch this move created (the first epoch at which `to` owns the arcs).
    pub version: RouterVersion,
    /// Ring-arc indices that moved (see `ShardRouter::arc_of_point`).
    pub arcs: Vec<usize>,
    /// The donor shard.
    pub from: usize,
    /// The recipient shard.
    pub to: usize,
}

/// Outcome of resolving a key under a client's cached router epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteDecision {
    /// The cached epoch still owns this key correctly: send to `shard`.
    Owned {
        /// The owning shard under both the cached and the current epoch.
        shard: usize,
    },
    /// The key's owner changed in a newer epoch. The client holding the stale
    /// epoch is redirected: it must refresh to `new_version` and retry against
    /// `shard` (the current owner). `stale_shard` — the shard the stale epoch
    /// would have hit — refuses the operation.
    WrongShard {
        /// Where the stale epoch would have routed the key.
        stale_shard: usize,
        /// The current owner of the key.
        shard: usize,
        /// The epoch the client must adopt before retrying.
        new_version: RouterVersion,
    },
}

/// Routes keys to shards via a consistent-hash ring with virtual nodes and
/// epoch-stamped arc ownership.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardRouter {
    /// Ring points sorted ascending; arc `i` covers `(points[i-1], points[i]]`
    /// (wrapping, so arc 0 covers everything above the last point too).
    points: Vec<u64>,
    /// Owner of each arc at epoch 0 (ring construction).
    base_owner: Vec<usize>,
    /// Owner of each arc at the current epoch.
    owner: Vec<usize>,
    /// Per-arc ownership history: `(first epoch, owner)` pairs in epoch order.
    /// Arcs that never moved have no entry.
    overrides: HashMap<usize, Vec<(u64, usize)>>,
    /// Every executed move, in epoch order.
    history: Vec<RangeMove>,
    version: u64,
    shards: usize,
    vnodes_per_shard: usize,
}

impl ShardRouter {
    /// Default virtual nodes per shard: enough that the busiest shard's share
    /// of a uniform hash space stays within ~5% of fair (measured over the
    /// 10k-key YCSB universe at 8 shards; see the sharding integration tests).
    pub(crate) const DEFAULT_VNODES: usize = 256;

    /// Builds a ring for `shards` shards with `vnodes_per_shard` points each.
    ///
    /// # Panics
    /// Panics if either argument is zero.
    pub fn new(shards: usize, vnodes_per_shard: usize) -> Self {
        assert!(shards > 0, "at least one shard");
        assert!(vnodes_per_shard > 0, "at least one virtual node per shard");
        let mut ring = Vec::with_capacity(shards * vnodes_per_shard);
        for shard in 0..shards {
            for vnode in 0..vnodes_per_shard {
                ring.push((vnode_point(shard, vnode), shard));
            }
        }
        ring.sort_unstable();
        // Collisions between 64-bit points are astronomically unlikely but must
        // not make placement ambiguous: keep the lowest shard id for a point.
        ring.dedup_by_key(|(point, _)| *point);
        let points = ring.iter().map(|&(point, _)| point).collect();
        let base_owner: Vec<usize> = ring.iter().map(|&(_, shard)| shard).collect();
        ShardRouter {
            points,
            owner: base_owner.clone(),
            base_owner,
            overrides: HashMap::new(),
            history: Vec::new(),
            version: 0,
            shards,
            vnodes_per_shard,
        }
    }

    /// Builds a ring with the default virtual-node count.
    pub fn with_default_vnodes(shards: usize) -> Self {
        Self::new(shards, Self::DEFAULT_VNODES)
    }

    /// The current routing epoch.
    pub fn version(&self) -> RouterVersion {
        RouterVersion(self.version)
    }

    /// Number of arcs on the ring (= distinct ring points).
    pub(crate) fn arc_count(&self) -> usize {
        self.points.len()
    }

    /// The ring arc owning an already-hashed routing point.
    pub(crate) fn arc_of_point(&self, point: u64) -> usize {
        self.points.partition_point(|&p| p < point) % self.points.len()
    }

    /// The current owner of ring arc `arc`.
    pub(crate) fn owner_of_arc(&self, arc: usize) -> usize {
        self.owner[arc]
    }

    /// The arcs shard `shard` owns at the current epoch.
    pub fn arcs_of_shard(&self, shard: usize) -> Vec<usize> {
        (0..self.owner.len())
            .filter(|&arc| self.owner[arc] == shard)
            .collect()
    }

    /// Every executed key-range move, in epoch order.
    pub fn moves(&self) -> &[RangeMove] {
        &self.history
    }

    /// The shard owning `key` at the current epoch.
    pub fn shard_for_key(&self, key: &[u8]) -> usize {
        self.shard_for_point(stable_key_hash(key))
    }

    /// Keys of the YCSB universe (`user00000000` … `user00009999`) owned by
    /// `shard`, at most `per_arc` keys from each of up to `max_arcs` distinct
    /// ring arcs — a hot range spread over enough arcs that the migration
    /// controller can split its load. The figures, the skew scenarios and the
    /// rebalancing tests all take theirs from here, so the scenario the tests
    /// validate is the scenario the figure measures.
    pub fn hot_range(&self, shard: usize, max_arcs: usize, per_arc: usize) -> Vec<Vec<u8>> {
        let mut by_arc: BTreeMap<usize, Vec<Vec<u8>>> = BTreeMap::new();
        for i in 0..10_000 {
            let key = format!("user{i:08}").into_bytes();
            let point = stable_key_hash(&key);
            if self.shard_for_point(point) == shard {
                by_arc
                    .entry(self.arc_of_point(point))
                    .or_default()
                    .push(key);
            }
        }
        by_arc
            .into_values()
            .take(max_arcs)
            .flat_map(|keys| keys.into_iter().take(per_arc))
            .collect()
    }

    /// The shard owning an already-hashed routing point at the current epoch
    /// (see [`recipe_workload::WorkloadOp::routing_hash`]).
    pub fn shard_for_point(&self, point: u64) -> usize {
        self.owner[self.arc_of_point(point)]
    }

    /// The shard that owned `point` at epoch `version`.
    ///
    /// # Panics
    /// Panics if `version` is newer than the router's current epoch — a caller
    /// can only have observed epochs this router already reached.
    pub fn shard_for_point_at(&self, point: u64, version: RouterVersion) -> usize {
        assert!(
            version.0 <= self.version,
            "epoch {} is from the future (current {})",
            version.0,
            self.version
        );
        let arc = self.arc_of_point(point);
        match self.overrides.get(&arc) {
            None => self.base_owner[arc],
            Some(entries) => entries
                .iter()
                .rev()
                .find(|&&(since, _)| since <= version.0)
                .map(|&(_, shard)| shard)
                .unwrap_or(self.base_owner[arc]),
        }
    }

    /// Resolves a routing point under a client's cached epoch: the routing
    /// seam every driver issue goes through. Returns where to send the
    /// operation, or a [`RouteDecision::WrongShard`] redirect when a newer
    /// epoch moved the key — the caller refreshes the client's cached epoch
    /// and retries instead of acting on stale placement.
    pub fn route(&self, point: u64, version: RouterVersion) -> RouteDecision {
        let stale_shard = self.shard_for_point_at(point, version);
        let shard = self.owner[self.arc_of_point(point)];
        if stale_shard == shard {
            RouteDecision::Owned { shard }
        } else {
            RouteDecision::WrongShard {
                stale_shard,
                shard,
                new_version: RouterVersion(self.version),
            }
        }
    }

    /// Builds an owning key filter selecting exactly the keys whose routing
    /// point lands on one of `arcs` — the membership test a migration uses for
    /// range export and donor-side eviction. The filter is self-contained
    /// (it clones the ring points), so it can be handed to replicas while the
    /// router is borrowed elsewhere.
    pub(crate) fn arc_membership_filter(&self, arcs: &[usize]) -> impl Fn(&[u8]) -> bool + 'static {
        let points = self.points.clone();
        let arcs: std::collections::HashSet<usize> = arcs.iter().copied().collect();
        move |key: &[u8]| {
            let point = stable_key_hash(key);
            let arc = points.partition_point(|&p| p < point) % points.len();
            arcs.contains(&arc)
        }
    }

    /// Atomically reassigns ring arcs to shard `to` and bumps the epoch: the
    /// cutover step of an online migration. All arcs must currently belong to
    /// one donor shard (a migration moves one donor's range). Returns the new
    /// epoch.
    ///
    /// # Panics
    /// Panics if `arcs` is empty, out of range, not uniformly owned, or
    /// already owned by `to`.
    pub fn rebalance(&mut self, arcs: &[usize], to: usize) -> RouterVersion {
        assert!(!arcs.is_empty(), "a move must cover at least one arc");
        assert!(to < self.shards, "recipient shard out of range");
        let from = self.owner[arcs[0]];
        assert_ne!(from, to, "donor and recipient must differ");
        for &arc in arcs {
            assert!(arc < self.owner.len(), "arc {arc} out of range");
            assert_eq!(
                self.owner[arc], from,
                "a single move drains a single donor shard"
            );
        }
        self.version += 1;
        for &arc in arcs {
            self.owner[arc] = to;
            self.overrides
                .entry(arc)
                .or_default()
                .push((self.version, to));
        }
        self.history.push(RangeMove {
            version: RouterVersion(self.version),
            arcs: arcs.to_vec(),
            from,
            to,
        });
        RouterVersion(self.version)
    }
}

/// The ring point of virtual node `vnode` of `shard`: the hash of the label
/// `shard:{shard}:vnode:{vnode}`, laid out in a stack buffer. A ring hashes
/// `shards × vnodes` labels, and a `format!` for each was most of a
/// deployment's set-up.
fn vnode_point(shard: usize, vnode: usize) -> u64 {
    let (mut shard_digits, mut vnode_digits) = ([0; 20], [0; 20]);
    let parts: [&[u8]; 4] = [
        b"shard:",
        decimal(shard, &mut shard_digits),
        b":vnode:",
        decimal(vnode, &mut vnode_digits),
    ];
    let mut label = [0u8; 6 + 20 + 7 + 20];
    let mut len = 0;
    for part in parts {
        label[len..len + part.len()].copy_from_slice(part);
        len += part.len();
    }
    stable_key_hash(&label[..len])
}

/// `n` in decimal ASCII digits, written at the end of `digits` (20 hold any
/// `usize`).
fn decimal(mut n: usize, digits: &mut [u8; 20]) -> &[u8] {
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            return &digits[at..];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_ring_is_the_one_format_labels_place() {
        for shards in 1..=8 {
            for vnodes in [1, 9, 10, 99, 100, 256] {
                let mut ring: Vec<(u64, usize)> = (0..shards)
                    .flat_map(|shard| {
                        (0..vnodes).map(move |vnode| {
                            let label = format!("shard:{shard}:vnode:{vnode}");
                            (stable_key_hash(label.as_bytes()), shard)
                        })
                    })
                    .collect();
                ring.sort_unstable();
                ring.dedup_by_key(|(point, _)| *point);
                let owners: Vec<usize> = ring.iter().map(|&(_, shard)| shard).collect();
                let router = ShardRouter::new(shards, vnodes);
                let points: Vec<u64> = ring.iter().map(|&(point, _)| point).collect();
                assert_eq!(router.points, points, "{shards} x {vnodes}");
                assert_eq!(router.base_owner, owners, "{shards} x {vnodes}");
                assert_eq!(router.owner, owners, "{shards} x {vnodes}");
            }
        }
        for n in [0, 7, 10, 4_294_967_296, usize::MAX] {
            assert_eq!(decimal(n, &mut [0; 20]), n.to_string().as_bytes());
        }
        let label = format!("shard:{}:vnode:{}", usize::MAX, usize::MAX);
        assert_eq!(
            vnode_point(usize::MAX, usize::MAX),
            stable_key_hash(label.as_bytes())
        );
    }

    #[test]
    fn single_shard_owns_everything() {
        let router = ShardRouter::new(1, 8);
        for i in 0..100 {
            assert_eq!(router.shard_for_key(format!("k{i}").as_bytes()), 0);
        }
    }

    #[test]
    fn placement_is_deterministic_across_instances() {
        let a = ShardRouter::new(8, 64);
        let b = ShardRouter::new(8, 64);
        assert_eq!(a, b);
        for i in 0..1000 {
            let key = format!("user{i:08}");
            assert_eq!(
                a.shard_for_key(key.as_bytes()),
                b.shard_for_key(key.as_bytes())
            );
        }
    }

    #[test]
    fn every_shard_owns_some_keys() {
        let router = ShardRouter::with_default_vnodes(8);
        let mut seen = vec![false; 8];
        for i in 0..10_000 {
            seen[router.shard_for_key(format!("user{i:08}").as_bytes())] = true;
        }
        assert!(seen.iter().all(|&s| s), "unused shard: {seen:?}");
    }

    #[test]
    fn growing_the_ring_only_moves_keys_to_the_new_shard() {
        let before = ShardRouter::with_default_vnodes(4);
        let after = ShardRouter::with_default_vnodes(5);
        let mut moved_elsewhere = 0usize;
        for i in 0..10_000 {
            let key = format!("user{i:08}");
            let old = before.shard_for_key(key.as_bytes());
            let new = after.shard_for_key(key.as_bytes());
            if old != new && new != 4 {
                moved_elsewhere += 1;
            }
        }
        assert_eq!(
            moved_elsewhere, 0,
            "consistent hashing must not shuffle keys between surviving shards"
        );
    }

    #[test]
    fn fresh_router_routes_everything_as_owned() {
        let router = ShardRouter::with_default_vnodes(4);
        assert_eq!(router.version(), RouterVersion(0));
        for i in 0..1_000u64 {
            let point = stable_key_hash(format!("user{i:08}").as_bytes());
            let shard = router.shard_for_point(point);
            assert_eq!(
                router.route(point, RouterVersion(0)),
                RouteDecision::Owned { shard }
            );
            assert_eq!(router.shard_for_point_at(point, RouterVersion(0)), shard);
        }
    }

    #[test]
    fn rebalance_moves_only_the_named_arcs_and_bumps_the_epoch() {
        let mut router = ShardRouter::with_default_vnodes(4);
        let before = router.clone();
        let moving: Vec<usize> = router.arcs_of_shard(0).into_iter().take(8).collect();
        let v1 = router.rebalance(&moving, 2);
        assert_eq!(v1, RouterVersion(1));
        assert_eq!(router.version(), v1);
        for arc in 0..router.arc_count() {
            if moving.contains(&arc) {
                assert_eq!(router.owner_of_arc(arc), 2);
            } else {
                assert_eq!(router.owner_of_arc(arc), before.owner_of_arc(arc));
            }
        }
        // History records the move.
        assert_eq!(router.moves().len(), 1);
        assert_eq!(router.moves()[0].from, 0);
        assert_eq!(router.moves()[0].to, 2);
    }

    #[test]
    fn stale_epochs_get_wrong_shard_redirects_for_moved_keys_only() {
        let mut router = ShardRouter::with_default_vnodes(4);
        let moving: Vec<usize> = router.arcs_of_shard(0).into_iter().take(16).collect();
        let before = router.clone();
        let v1 = router.rebalance(&moving, 3);
        let mut redirected = 0;
        for i in 0..10_000u64 {
            let point = stable_key_hash(format!("user{i:08}").as_bytes());
            let arc = router.arc_of_point(point);
            match router.route(point, RouterVersion(0)) {
                RouteDecision::Owned { shard } => {
                    assert!(!moving.contains(&arc));
                    assert_eq!(shard, before.shard_for_point(point));
                }
                RouteDecision::WrongShard {
                    stale_shard,
                    shard,
                    new_version,
                } => {
                    assert!(moving.contains(&arc));
                    assert_eq!(stale_shard, 0);
                    assert_eq!(shard, 3);
                    assert_eq!(new_version, v1);
                    redirected += 1;
                }
            }
            // Routing with the fresh epoch is always Owned.
            assert!(matches!(
                router.route(point, v1),
                RouteDecision::Owned { .. }
            ));
        }
        assert!(redirected > 0, "no key landed on the moved arcs");
    }

    #[test]
    fn historical_epochs_keep_resolving_the_old_placement() {
        let mut router = ShardRouter::with_default_vnodes(4);
        let snapshot = router.clone();
        let first: Vec<usize> = router.arcs_of_shard(0).into_iter().take(8).collect();
        router.rebalance(&first, 1);
        let second: Vec<usize> = router.arcs_of_shard(1).into_iter().take(8).collect();
        router.rebalance(&second, 2);
        for i in 0..5_000u64 {
            let point = stable_key_hash(format!("user{i:08}").as_bytes());
            assert_eq!(
                router.shard_for_point_at(point, RouterVersion(0)),
                snapshot.shard_for_point(point),
                "epoch 0 must keep resolving the original placement"
            );
        }
    }

    #[test]
    #[should_panic(expected = "future")]
    fn future_epochs_are_rejected() {
        let router = ShardRouter::with_default_vnodes(2);
        router.shard_for_point_at(1, RouterVersion(5));
    }
}
