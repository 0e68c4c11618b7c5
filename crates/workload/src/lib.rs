//! YCSB-style workload generation.
//!
//! The paper evaluates every protocol with the YCSB benchmark configured with
//! roughly 10 K distinct keys under a Zipfian popularity distribution, varying the
//! read/write ratio (50–99 % reads) and the value size (256 B–4 KiB). This crate
//! reproduces that generator: deterministic, seedable, and independent of any other
//! crate so the benchmark harness can drive any replica implementation with it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rand::distributions::Distribution;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Which operation a client should issue next.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum WorkloadOp {
    /// Read the given key.
    Read {
        /// Key to read.
        key: Vec<u8>,
    },
    /// Write the given value under the given key.
    Write {
        /// Key to write.
        key: Vec<u8>,
        /// Value payload.
        value: Vec<u8>,
    },
}

impl WorkloadOp {
    /// The key the operation touches.
    pub fn key(&self) -> &[u8] {
        match self {
            WorkloadOp::Read { key } | WorkloadOp::Write { key, .. } => key,
        }
    }

    /// The stable 64-bit routing hash of this operation's key; a sharded
    /// deployment places the operation on the shard owning this point of the
    /// hash ring (see `recipe_shard::ShardRouter`).
    pub fn routing_hash(&self) -> u64 {
        stable_key_hash(self.key())
    }
}

/// Hashes a key to a stable 64-bit routing point.
///
/// FNV-1a with a SplitMix64 finalizer: deterministic across runs, processes and
/// platforms (unlike `std`'s seeded `RandomState`), with enough avalanche that
/// sequential YCSB keys (`user0000001`, `user0000002`, …) spread uniformly.
/// Every component that places keys — the consistent-hash router, rebalancers,
/// future cross-shard transactions — must use this one function so they agree
/// on placement.
pub fn stable_key_hash(key: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in key {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    // SplitMix64 finalizer: FNV alone avalanches poorly in the high bits.
    hash = (hash ^ (hash >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    hash = (hash ^ (hash >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    hash ^ (hash >> 31)
}

/// How keys are selected.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum KeyDistribution {
    /// Every key equally likely.
    Uniform,
    /// Zipfian with the given skew parameter (YCSB default ≈ 0.99).
    Zipfian {
        /// Skew parameter θ; larger is more skewed.
        theta: f64,
    },
}

/// A YCSB-like workload specification.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// Number of distinct keys (paper: ~10 000).
    pub key_space: usize,
    /// Fraction of reads, 0.0–1.0 (e.g. 0.9 for "90% R").
    pub read_ratio: f64,
    /// Size of written values in bytes (paper: 256 B / 1024 B / 4096 B).
    pub value_size: usize,
    /// Key popularity distribution.
    pub distribution: KeyDistribution,
    /// RNG seed.
    pub seed: u64,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec {
            key_space: 10_000,
            read_ratio: 0.5,
            value_size: 256,
            distribution: KeyDistribution::Zipfian { theta: 0.99 },
            seed: 1,
        }
    }
}

impl WorkloadSpec {
    /// The paper's standard YCSB configuration with the given read ratio and value
    /// size.
    pub fn ycsb(read_ratio: f64, value_size: usize) -> Self {
        WorkloadSpec {
            read_ratio,
            value_size,
            ..WorkloadSpec::default()
        }
    }

    /// Builds the generator.
    pub fn generator(&self) -> WorkloadGenerator {
        WorkloadGenerator::new(self.clone())
    }
}

/// Zipfian sampler over `0..n` (the YCSB "ScrambledZipfian" shape without the
/// scrambling — keys are already synthetic).
#[derive(Debug, Clone)]
struct Zipf {
    n: usize,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipf {
    fn new(n: usize, theta: f64) -> Self {
        let zetan = Self::zeta(n, theta);
        let zeta2 = Self::zeta(2, theta);
        Zipf {
            n,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan),
        }
    }

    fn zeta(n: usize, theta: f64) -> f64 {
        (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
    }
}

impl Distribution<usize> for Zipf {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let idx = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as usize;
        idx.min(self.n - 1)
    }
}

/// The key at `index` of the key space: `user` and the index, zero-padded to
/// eight digits — the bytes of `format!("user{index:08}")`, written into a
/// buffer sized once for them where `format!` grows a string as it writes.
fn key_of(index: usize) -> Vec<u8> {
    let digits = index.checked_ilog10().map_or(1, |log| log as usize + 1);
    let len = "user".len() + digits.max(8);
    let mut key = Vec::with_capacity(len);
    key.extend_from_slice(b"user");
    key.resize(len, b'0');
    let mut rest = index;
    for digit in key.iter_mut().rev().take(digits) {
        *digit = b'0' + (rest % 10) as u8;
        rest /= 10;
    }
    key
}

/// A deterministic stream of YCSB-like operations.
#[derive(Debug, Clone)]
pub struct WorkloadGenerator {
    spec: WorkloadSpec,
    rng: StdRng,
    zipf: Option<Zipf>,
}

impl WorkloadGenerator {
    /// Creates a generator for `spec`.
    pub(crate) fn new(spec: WorkloadSpec) -> Self {
        let zipf = match spec.distribution {
            KeyDistribution::Zipfian { theta } => Some(Zipf::new(spec.key_space, theta)),
            KeyDistribution::Uniform => None,
        };
        WorkloadGenerator {
            rng: StdRng::seed_from_u64(spec.seed),
            zipf,
            spec,
        }
    }

    /// Produces the next operation.
    pub fn next_op(&mut self) -> WorkloadOp {
        let key_index = match &self.zipf {
            Some(zipf) => zipf.sample(&mut self.rng),
            None => self.rng.gen_range(0..self.spec.key_space),
        };
        let key = key_of(key_index);
        if self.rng.gen_bool(self.spec.read_ratio) {
            WorkloadOp::Read { key }
        } else {
            WorkloadOp::Write {
                key,
                value: vec![0xAB; self.spec.value_size],
            }
        }
    }
}

/// A generated request: one operation, or a multi-key transaction.
///
/// The protocol-level counterpart is `recipe_core::Request`;
/// `recipe_shard::request_from_workload` bridges the two (this crate stays
/// dependency-free).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum WorkloadRequest {
    /// A single-key operation (the fast path).
    Single(WorkloadOp),
    /// A multi-key atomic transaction.
    Txn(Vec<WorkloadOp>),
}

impl WorkloadRequest {
    /// The operations carried, in draw order.
    pub fn ops(&self) -> &[WorkloadOp] {
        match self {
            WorkloadRequest::Single(op) => std::slice::from_ref(op),
            WorkloadRequest::Txn(ops) => ops,
        }
    }
}

/// A multi-key workload specification: the YCSB-style base stream plus
/// transaction shape knobs. Shared by the transaction tests and the
/// `fig_txn` benchmark so the scenario the tests validate is the scenario
/// the figure measures.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TxnWorkloadSpec {
    /// The single-key stream transactions draw their keys from (skew,
    /// read/write mix, value size, seed).
    pub base: WorkloadSpec,
    /// Fraction of requests that are transactions, 0.0–1.0.
    pub txn_fraction: f64,
    /// Operations per transaction.
    pub ops_per_txn: usize,
    /// Upper bound on the number of distinct *placement classes* a
    /// transaction touches. The generator is placement-agnostic (this crate
    /// knows nothing about shards): the caller passes a classifier —
    /// typically `router.shard_for_key` via [`stable_key_hash`] — and draws
    /// are rejection-sampled until the bound holds, so a deployment can
    /// sweep cross-shard fan-out 1→N deterministically.
    pub fan_out: usize,
}

impl Default for TxnWorkloadSpec {
    fn default() -> Self {
        TxnWorkloadSpec {
            base: WorkloadSpec::default(),
            txn_fraction: 0.5,
            ops_per_txn: 3,
            fan_out: 2,
        }
    }
}

impl TxnWorkloadSpec {
    /// Builds the generator.
    pub fn generator(&self) -> TxnWorkloadGenerator {
        TxnWorkloadGenerator::new(self.clone())
    }
}

/// A deterministic stream of single-key operations and multi-key
/// transactions (see [`TxnWorkloadSpec`]).
#[derive(Debug, Clone)]
pub struct TxnWorkloadGenerator {
    spec: TxnWorkloadSpec,
    base: WorkloadGenerator,
    /// Shape decisions (txn-or-single) draw from their own stream so the
    /// key sequence of the base generator matches a pure single-key run
    /// with the same seed as closely as possible.
    shape_rng: StdRng,
}

impl TxnWorkloadGenerator {
    /// Creates a generator for `spec`.
    pub(crate) fn new(spec: TxnWorkloadSpec) -> Self {
        let shape_seed = spec
            .base
            .seed
            .wrapping_add(stable_key_hash(b"txn-workload-shape"));
        TxnWorkloadGenerator {
            base: spec.base.generator(),
            shape_rng: StdRng::seed_from_u64(shape_seed),
            spec,
        }
    }

    /// Produces the next request. `classify` maps a key to its placement
    /// class (e.g. its shard); a transaction's keys span at most
    /// [`TxnWorkloadSpec::fan_out`] distinct classes.
    pub fn next_request(&mut self, classify: &dyn Fn(&[u8]) -> usize) -> WorkloadRequest {
        if self.spec.txn_fraction <= 0.0 || !self.shape_rng.gen_bool(self.spec.txn_fraction) {
            return WorkloadRequest::Single(self.base.next_op());
        }
        let want = self.spec.ops_per_txn.max(1);
        let fan_out = self.spec.fan_out.max(1);
        let mut ops: Vec<WorkloadOp> = Vec::with_capacity(want);
        let mut classes: Vec<usize> = Vec::new();
        // Rejection-sample skewed draws until the fan-out bound holds; the
        // attempt budget keeps the stream finite under adversarial
        // classifiers, falling back to re-touching an accepted key (a
        // same-class op by construction).
        let mut attempts = 0usize;
        while ops.len() < want {
            if attempts >= want * 32 {
                // recipe-lint: allow(unwrap-in-lib, reason = "the first draw is always accepted (fan_out >= 1), so ops is non-empty once the cap trips")
                let repeat = ops.first().cloned().expect("at least one accepted op");
                ops.push(repeat);
                continue;
            }
            attempts += 1;
            let op = self.base.next_op();
            let class = classify(op.key());
            if classes.contains(&class) || classes.len() < fan_out {
                if !classes.contains(&class) {
                    classes.push(class);
                }
                ops.push(op);
            }
        }
        WorkloadRequest::Txn(ops)
    }
}

/// Per-tenant workload mixes for multi-tenant deployments: one
/// [`WorkloadSpec`] per tenant, applied to the clients that tenant owns.
///
/// Clients map to tenants round-robin (`client_id % mixes.len()`) — the same
/// static assignment the gateway's tenant resolver uses — so mix `i` is
/// exactly the traffic tenant `i` submits, and a workload built from this
/// spec stays in lockstep with the gateway's admission accounting.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantMixSpec {
    /// One workload mix per tenant, declaration order (must be non-empty).
    pub(crate) mixes: Vec<WorkloadSpec>,
}

impl TenantMixSpec {
    /// Uniform mixes: every tenant runs the same spec.
    pub fn uniform(tenants: usize, spec: WorkloadSpec) -> Self {
        TenantMixSpec {
            mixes: vec![spec; tenants],
        }
    }

    /// The tenant that owns `client_id` (round-robin).
    ///
    /// # Panics
    /// Panics if `mixes` is empty.
    pub(crate) fn tenant_of(&self, client_id: u64) -> usize {
        assert!(!self.mixes.is_empty(), "at least one tenant mix");
        (client_id % self.mixes.len() as u64) as usize
    }

    /// The per-client spec: the owning tenant's mix with a client-unique
    /// seed folded in, so same-tenant clients draw independent streams while
    /// the whole population stays a pure function of the mix seeds.
    pub(crate) fn spec_for_client(&self, client_id: u64) -> WorkloadSpec {
        let mix = &self.mixes[self.tenant_of(client_id)];
        WorkloadSpec {
            seed: mix
                .seed
                .wrapping_add(stable_key_hash(&client_id.to_le_bytes())),
            ..mix.clone()
        }
    }

    /// One generator per client, ready for a `(client_id, seq)` driver
    /// closure.
    pub fn generators(&self, clients: usize) -> Vec<WorkloadGenerator> {
        (0..clients as u64)
            .map(|c| self.spec_for_client(c).generator())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    #[test]
    fn keys_are_what_format_gives_in_a_string_of_their_length() {
        for index in [0, 7, 99_999_999, 100_000_000, usize::MAX] {
            let key = key_of(index);
            assert_eq!(key, format!("user{index:08}").into_bytes());
            assert_eq!(key.capacity(), key.len());
        }
    }

    #[test]
    fn read_ratio_is_respected() {
        for ratio in [0.5, 0.75, 0.9, 0.95, 0.99] {
            let mut generator = WorkloadSpec::ycsb(ratio, 256).generator();
            let n = 20_000;
            let reads = (0..n)
                .filter(|_| matches!(generator.next_op(), WorkloadOp::Read { .. }))
                .count();
            let measured = reads as f64 / n as f64;
            assert!(
                (measured - ratio).abs() < 0.02,
                "ratio {ratio}: measured {measured}"
            );
        }
    }

    #[test]
    fn value_size_is_respected() {
        let mut generator = WorkloadSpec::ycsb(0.0, 4096).generator();
        for _ in 0..100 {
            match generator.next_op() {
                WorkloadOp::Write { value, .. } => assert_eq!(value.len(), 4096),
                WorkloadOp::Read { .. } => panic!("read_ratio is zero"),
            }
        }
    }

    #[test]
    fn zipfian_skews_towards_hot_keys() {
        let mut generator = WorkloadSpec::default().generator();
        let mut counts: HashMap<Vec<u8>, usize> = HashMap::new();
        for _ in 0..30_000 {
            *counts
                .entry(generator.next_op().key().to_vec())
                .or_default() += 1;
        }
        let max = *counts.values().max().unwrap();
        let distinct = counts.len();
        // The hottest key should be far hotter than average, and far fewer than
        // key_space distinct keys should appear.
        assert!(max > 30_000 / 100, "hottest key hit only {max} times");
        assert!(distinct < 10_000, "saw {distinct} distinct keys");
    }

    #[test]
    fn uniform_distribution_spreads_keys() {
        let spec = WorkloadSpec {
            distribution: KeyDistribution::Uniform,
            key_space: 100,
            ..WorkloadSpec::default()
        };
        let mut generator = spec.generator();
        let mut counts: HashMap<Vec<u8>, usize> = HashMap::new();
        for _ in 0..10_000 {
            *counts
                .entry(generator.next_op().key().to_vec())
                .or_default() += 1;
        }
        assert!(counts.len() > 90);
        let max = *counts.values().max().unwrap();
        assert!(
            max < 300,
            "uniform keys should not be heavily skewed (max {max})"
        );
    }

    #[test]
    fn generators_are_deterministic_per_seed() {
        let mut a = WorkloadSpec::default().generator();
        let mut b = WorkloadSpec::default().generator();
        for _ in 0..100 {
            assert_eq!(a.next_op(), b.next_op());
        }
        let mut c = WorkloadSpec {
            seed: 2,
            ..WorkloadSpec::default()
        }
        .generator();
        let differs = (0..100).any(|_| a.next_op() != c.next_op());
        assert!(differs);
    }

    #[test]
    fn txn_generators_are_deterministic_and_bound_fanout() {
        let spec = TxnWorkloadSpec {
            txn_fraction: 0.4,
            ops_per_txn: 4,
            fan_out: 2,
            ..TxnWorkloadSpec::default()
        };
        let classify = |key: &[u8]| (stable_key_hash(key) % 8) as usize;
        let mut a = spec.generator();
        let mut b = spec.generator();
        let mut txns = 0usize;
        for _ in 0..3_000 {
            let ra = a.next_request(&classify);
            assert_eq!(ra, b.next_request(&classify));
            if let WorkloadRequest::Txn(ops) = &ra {
                txns += 1;
                assert_eq!(ops.len(), 4);
                let mut classes: Vec<usize> = ops.iter().map(|op| classify(op.key())).collect();
                classes.sort_unstable();
                classes.dedup();
                assert!(classes.len() <= 2, "fan-out bound violated: {classes:?}");
            }
        }
        let fraction = txns as f64 / 3_000.0;
        assert!((fraction - 0.4).abs() < 0.05, "txn fraction {fraction}");
    }

    #[test]
    fn txn_fraction_zero_degenerates_to_the_single_key_stream() {
        let spec = TxnWorkloadSpec {
            txn_fraction: 0.0,
            ..TxnWorkloadSpec::default()
        };
        let mut with_txns = spec.generator();
        let mut plain = spec.base.generator();
        let classify = |_: &[u8]| 0usize;
        for _ in 0..500 {
            match with_txns.next_request(&classify) {
                WorkloadRequest::Single(op) => assert_eq!(op, plain.next_op()),
                WorkloadRequest::Txn(_) => panic!("txn at fraction 0"),
            }
        }
    }

    #[test]
    fn fan_out_one_transactions_stay_in_one_class() {
        let spec = TxnWorkloadSpec {
            txn_fraction: 1.0,
            ops_per_txn: 3,
            fan_out: 1,
            ..TxnWorkloadSpec::default()
        };
        let classify = |key: &[u8]| (stable_key_hash(key) % 4) as usize;
        let mut generator = spec.generator();
        for _ in 0..300 {
            let WorkloadRequest::Txn(ops) = generator.next_request(&classify) else {
                panic!("fraction 1.0 must always produce txns");
            };
            let class = classify(ops[0].key());
            assert!(ops.iter().all(|op| classify(op.key()) == class));
        }
    }

    #[test]
    fn tenant_mixes_assign_clients_round_robin_and_stay_deterministic() {
        let mix = TenantMixSpec {
            mixes: vec![
                WorkloadSpec::ycsb(0.9, 256),
                WorkloadSpec::ycsb(0.1, 1024),
                WorkloadSpec::ycsb(0.5, 256),
            ],
        };
        assert_eq!(mix.tenant_of(0), 0);
        assert_eq!(mix.tenant_of(4), 1);
        assert_eq!(mix.tenant_of(8), 2);
        // Clients of the same tenant share the mix but not the stream.
        assert_eq!(mix.spec_for_client(1).value_size, 1024);
        assert_ne!(mix.spec_for_client(1).seed, mix.spec_for_client(4).seed);
        let mut a = mix.generators(6);
        let mut b = mix.generators(6);
        for (ga, gb) in a.iter_mut().zip(b.iter_mut()) {
            for _ in 0..50 {
                assert_eq!(ga.next_op(), gb.next_op());
            }
        }
    }

    proptest! {
        #[test]
        fn keys_are_always_in_range(seed in any::<u64>(), steps in 1usize..200) {
            let spec = WorkloadSpec { seed, key_space: 50, ..WorkloadSpec::default() };
            let mut generator = spec.generator();
            for _ in 0..steps {
                let op = generator.next_op();
                let key = String::from_utf8(op.key().to_vec()).unwrap();
                let index: usize = key.trim_start_matches("user").parse().unwrap();
                prop_assert!(index < 50);
            }
        }
    }
}
