//! YCSB-style workload generation.
//!
//! The paper evaluates every protocol with the YCSB benchmark configured with
//! roughly 10 K distinct keys under a Zipfian popularity distribution, varying the
//! read/write ratio (50–99 % reads) and the value size (256 B–4 KiB). This crate
//! reproduces that generator: deterministic and seedable, it draws the clients'
//! own request type, [`recipe_core::Request`] of [`recipe_core::Operation`]s, so
//! whatever drives a replica group takes each request as drawn.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rand::distributions::Distribution;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use recipe_core::{Operation, Request};
use serde::{Deserialize, Serialize};

/// The generated request's old name, kept because `wall_bench`'s replay
/// names it (ROADMAP item 32 deletes it).
pub use recipe_core::Request as WorkloadRequest;

/// Hashes a key to a stable 64-bit routing point.
///
/// FNV-1a with a SplitMix64 finalizer: deterministic across runs, processes and
/// platforms (unlike `std`'s seeded `RandomState`), with enough avalanche that
/// sequential YCSB keys (`user0000001`, `user0000002`, …) spread uniformly.
/// Every component that places keys — the consistent-hash router, rebalancers,
/// future cross-shard transactions — must use this one function so they agree
/// on placement.
pub fn stable_key_hash(key: &[u8]) -> u64 {
    StableHasher::START.write(key).finish()
}

/// [`stable_key_hash`] taken in parts: the FNV-1a state of the bytes
/// written so far. It is `Copy`, so labels that share a prefix hash it once
/// and each resumes from a copy.
#[derive(Debug, Clone, Copy)]
pub struct StableHasher(u64);

impl StableHasher {
    /// The state before any byte: FNV-1a's offset basis.
    pub const START: StableHasher = StableHasher(0xcbf2_9ce4_8422_2325);

    /// The state after `bytes` follow what was written.
    pub fn write(self, bytes: &[u8]) -> StableHasher {
        let mut hash = self.0;
        for &byte in bytes {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        StableHasher(hash)
    }

    /// The hash of everything written: [`stable_key_hash`] of it.
    pub fn finish(self) -> u64 {
        // SplitMix64 finalizer: FNV alone avalanches poorly in the high bits.
        let mut hash = self.0;
        hash = (hash ^ (hash >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        hash = (hash ^ (hash >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        hash ^ (hash >> 31)
    }
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

/// The longest key: `user` and the twenty digits of `usize::MAX`.
const KEY_MAX_LEN: usize = "user".len() + 20;

/// Writes the key at `index` of the key space into `buf` and returns it:
/// `user` and the index, zero-padded to eight digits — the bytes of
/// `format!("user{index:08}")`, on the caller's stack, where `format!`
/// grows a string on the heap as it writes.
fn key_of(index: usize, buf: &mut [u8; KEY_MAX_LEN]) -> &[u8] {
    let digits = index.checked_ilog10().map_or(1, |log| log as usize + 1);
    let len = "user".len() + digits.max(8);
    buf[..4].copy_from_slice(b"user");
    buf[4..len].fill(b'0');
    let mut rest = index;
    for digit in buf[..len].iter_mut().rev().take(digits) {
        *digit = b'0' + (rest % 10) as u8;
        rest /= 10;
    }
    &buf[..len]
}

/// One draw of the stream, before anything is built: the key's index, then
/// the read/write coin, as the RNG gave them.
#[derive(Debug, Clone, Copy)]
struct Draw {
    index: usize,
    read: bool,
}

/// Buffers of spent operations, drawn into before anything is allocated.
#[derive(Debug, Clone, Default)]
struct Spares {
    lists: Vec<Vec<Operation>>,
    keys: Vec<Vec<u8>>,
    values: Vec<Vec<u8>>,
}

impl Spares {
    /// A spare key (or a new one) holding `bytes`, with capacity for `room`
    /// bytes more: a new key is sized once for them.
    fn key(&mut self, bytes: &[u8], room: usize) -> Vec<u8> {
        let mut key = self.keys.pop().unwrap_or_default();
        key.clear();
        key.reserve_exact(room + bytes.len());
        key.extend_from_slice(bytes);
        key
    }

    /// A spare value (or a new one) holding `len` bytes of `0xAB`, every
    /// written value's bytes.
    fn value(&mut self, len: usize) -> Vec<u8> {
        let mut value = self.values.pop().unwrap_or_default();
        value.clear();
        value.reserve_exact(len);
        value.resize(len, 0xAB);
        value
    }
}

/// A deterministic stream of YCSB-like operations.
#[derive(Debug, Clone)]
pub struct WorkloadGenerator {
    spec: WorkloadSpec,
    rng: StdRng,
    zipf: Option<Zipf>,
    /// Spare capacity every drawn key carries beyond its length.
    key_room: usize,
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
            key_room: 0,
        }
    }

    /// Draws every key with `room` bytes of spare capacity, so a stage in
    /// front of the store that prefixes keys (a tenant gateway's
    /// `<tenant>/`) writes into the key's own buffer instead of copying it.
    /// The room draws nothing from the RNG: the operations are the same
    /// bytes, in the same order, whatever it is.
    pub fn with_key_room(mut self, room: usize) -> Self {
        self.key_room = room;
        self
    }

    /// Produces the next operation.
    pub fn next_op(&mut self) -> Operation {
        let draw = self.draw();
        let mut buf = [0; KEY_MAX_LEN];
        self.build(
            key_of(draw.index, &mut buf),
            draw.read,
            &mut Spares::default(),
        )
    }

    /// Draws the next operation without building it: the key index, then
    /// the read/write coin.
    fn draw(&mut self) -> Draw {
        let index = match &self.zipf {
            Some(zipf) => zipf.sample(&mut self.rng),
            None => self.rng.gen_range(0..self.spec.key_space),
        };
        let read = self.rng.gen_bool(self.spec.read_ratio);
        Draw { index, read }
    }

    /// Builds a read of `key`, or a write of a fresh value under it, in
    /// buffers taken from `spares` (new ones where it has none).
    fn build(&self, key: &[u8], read: bool, spares: &mut Spares) -> Operation {
        let key = spares.key(key, self.key_room);
        if read {
            Operation::Get { key }
        } else {
            Operation::Put {
                key,
                value: spares.value(self.spec.value_size),
            }
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
    /// The placement classes of the transaction being drawn.
    classes: Vec<usize>,
    /// What [`TxnWorkloadGenerator::reclaim`] took back, for the next
    /// transactions to draw into.
    spares: Spares,
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
            classes: Vec::new(),
            spares: Spares::default(),
        }
    }

    /// Draws every key with `room` bytes of spare capacity
    /// ([`WorkloadGenerator::with_key_room`]).
    pub fn with_key_room(mut self, room: usize) -> Self {
        self.base = self.base.with_key_room(room);
        self
    }

    /// Produces the next request. `classify` maps a key to its placement
    /// class (e.g. its shard); a transaction's keys span at most
    /// [`TxnWorkloadSpec::fan_out`] distinct classes. A candidate the bound
    /// rejects is classified from its key on the stack and never built, and
    /// a transaction is built in the buffers of the ones reclaimed before it.
    pub fn next_request(&mut self, classify: &dyn Fn(&[u8]) -> usize) -> Request {
        if self.spec.txn_fraction <= 0.0 || !self.shape_rng.gen_bool(self.spec.txn_fraction) {
            return Request::Single(self.base.next_op());
        }
        let want = self.spec.ops_per_txn.max(1);
        let fan_out = self.spec.fan_out.max(1);
        let mut ops = self
            .spares
            .lists
            .pop()
            .unwrap_or_else(|| Vec::with_capacity(want));
        self.classes.clear();
        // Rejection-sample skewed draws until the fan-out bound holds; the
        // attempt budget keeps the stream finite under adversarial
        // classifiers, falling back to re-touching an accepted key (a
        // same-class op by construction).
        let mut attempts = 0usize;
        let mut buf = [0; KEY_MAX_LEN];
        while ops.len() < want {
            if attempts >= want * 32 {
                // recipe-lint: allow(unwrap-in-lib, reason = "the first draw is always accepted (fan_out >= 1), so ops is non-empty once the cap trips")
                let first = ops.first().expect("at least one accepted op");
                // Built again, it is the same bytes: every value is the
                // spec's size of 0xAB.
                let read = !first.is_write();
                let repeat = self.base.build(first.key(), read, &mut self.spares);
                ops.push(repeat);
                continue;
            }
            attempts += 1;
            let draw = self.base.draw();
            let key = key_of(draw.index, &mut buf);
            let class = classify(key);
            let known = self.classes.contains(&class);
            if known || self.classes.len() < fan_out {
                if !known {
                    self.classes.push(class);
                }
                ops.push(self.base.build(key, draw.read, &mut self.spares));
            }
        }
        Request::Txn(ops)
    }

    /// Takes back the operations of a transaction [`Self::next_request`]
    /// drew, once they are spent (its commit), for the next transactions to
    /// draw into: the list, every key and every value. A reused key keeps
    /// capacity for the generator's key room, a reused value is refilled to
    /// the spec's size. The stream stays the same bytes whether or not its
    /// transactions come back; only the allocations differ. The generator
    /// keeps no more spares than were ever out at once.
    pub fn reclaim(&mut self, mut spent: Vec<Operation>) {
        for op in spent.drain(..) {
            match op {
                Operation::Get { key } => self.spares.keys.push(key),
                Operation::Put { key, value } => {
                    self.spares.keys.push(key);
                    self.spares.values.push(value);
                }
            }
        }
        self.spares.lists.push(spent);
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
            let mut buf = [0; KEY_MAX_LEN];
            let bytes = key_of(index, &mut buf);
            assert_eq!(bytes, format!("user{index:08}").as_bytes());
            for room in [0, 6] {
                let key = Spares::default().key(bytes, room);
                assert_eq!(key, bytes);
                assert_eq!(key.capacity(), room + key.len());
            }
        }
    }

    /// Folds `bytes` into an FNV-1a hash.
    fn fold(hash: &mut u64, bytes: &[u8]) {
        for &byte in bytes {
            *hash ^= byte as u64;
            *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds a request's shape and every operation's kind, key and value,
    /// each length-prefixed, into `hash`.
    fn fold_request(hash: &mut u64, request: &Request) {
        let shape = u8::from(matches!(request, Request::Txn(_)));
        fold(hash, &[shape]);
        fold(hash, &(request.ops().len() as u64).to_le_bytes());
        for op in request.ops() {
            let (kind, value): (u8, &[u8]) = match op {
                Operation::Get { .. } => (0, &[]),
                Operation::Put { value, .. } => (1, value),
            };
            fold(hash, &[kind]);
            fold(hash, &(op.key().len() as u64).to_le_bytes());
            fold(hash, op.key());
            fold(hash, &(value.len() as u64).to_le_bytes());
            fold(hash, value);
        }
    }

    /// The first 20 000 requests of the transactional stream, as FNV-1a
    /// digests taken from the generator that built every operation afresh:
    /// `(seed, fan_out, digest)`. Drawing into reclaimed buffers, with or
    /// without key room, must leave every byte where it was.
    const STREAM_DIGESTS: [(u64, usize, u64); 4] = [
        (1, 1, 0x7067_4d3c_4456_aed5),
        (1, 2, 0xc164_fd6f_bdff_61eb),
        (7, 1, 0xe438_8e2f_648b_c767),
        (7, 2, 0x6a0e_2a7e_70b4_635c),
    ];

    #[test]
    fn the_transaction_stream_is_the_same_bytes_drawn_into_reclaimed_buffers() {
        let classify = |key: &[u8]| (stable_key_hash(key) % 4) as usize;
        for (seed, fan_out, pinned) in STREAM_DIGESTS {
            for room in [0, 6] {
                for reclaim in [false, true] {
                    let spec = TxnWorkloadSpec {
                        base: WorkloadSpec {
                            seed,
                            ..WorkloadSpec::default()
                        },
                        fan_out,
                        ..TxnWorkloadSpec::default()
                    };
                    let mut generator = spec.generator().with_key_room(room);
                    let mut hash = 0xcbf2_9ce4_8422_2325;
                    for _ in 0..20_000 {
                        let request = generator.next_request(&classify);
                        fold_request(&mut hash, &request);
                        for op in request.ops() {
                            let (Operation::Get { key } | Operation::Put { key, .. }) = op;
                            assert!(key.capacity() >= room + key.len(), "{op:?}");
                        }
                        if let (true, Request::Txn(ops)) = (reclaim, request) {
                            generator.reclaim(ops);
                        }
                    }
                    assert_eq!(
                        hash, pinned,
                        "seed {seed}, fan-out {fan_out}, room {room}, reclaimed: {reclaim}: \
                         digest {hash:#018x}"
                    );
                }
            }
        }
    }

    #[test]
    fn the_attempt_cap_repeats_the_first_operation_with_key_room() {
        let spec = TxnWorkloadSpec {
            txn_fraction: 1.0,
            fan_out: 1,
            ..TxnWorkloadSpec::default()
        };
        // Every candidate lands in a class of its own, so only the first of
        // a transaction is accepted.
        let calls = std::cell::Cell::new(0);
        let classify = |_: &[u8]| calls.replace(calls.get() + 1);
        let mut generator = spec.generator().with_key_room(6);
        for _ in 0..2 {
            let Request::Txn(ops) = generator.next_request(&classify) else {
                panic!("fraction 1.0 must always produce txns");
            };
            assert_eq!(ops.len(), 3);
            assert!(ops.iter().all(|op| op == &ops[0]), "{ops:?}");
            for op in &ops {
                let (Operation::Get { key } | Operation::Put { key, .. }) = op;
                assert!(key.capacity() >= 6 + key.len(), "{op:?}");
            }
            generator.reclaim(ops);
        }
        assert_eq!(
            calls.get(),
            2 * 3 * 32,
            "the cap is 32 attempts an operation"
        );
    }

    #[test]
    fn key_room_leaves_the_stream_as_it_is() {
        let room = 6;
        let has_room = |op: &Operation| {
            let (Operation::Get { key } | Operation::Put { key, .. }) = op;
            key.capacity() >= room + key.len()
        };
        let mut plain = WorkloadSpec::default().generator();
        let mut roomy = WorkloadSpec::default().generator().with_key_room(room);
        for _ in 0..2_000 {
            let op = roomy.next_op();
            assert_eq!(op, plain.next_op());
            assert!(has_room(&op), "{op:?}");
        }

        let spec = TxnWorkloadSpec {
            txn_fraction: 0.3,
            ..TxnWorkloadSpec::default()
        };
        let classify = |key: &[u8]| (stable_key_hash(key) % 4) as usize;
        let mut plain = spec.generator();
        let mut roomy = spec.generator().with_key_room(room);
        let mut txns = 0;
        for _ in 0..2_000 {
            let request = roomy.next_request(&classify);
            assert_eq!(request, plain.next_request(&classify));
            txns += usize::from(matches!(request, Request::Txn(_)));
            assert!(request.ops().iter().all(has_room), "{request:?}");
        }
        assert!(txns > 0, "the stream drew no transaction");
    }

    #[test]
    fn read_ratio_is_respected() {
        for ratio in [0.5, 0.75, 0.9, 0.95, 0.99] {
            let mut generator = WorkloadSpec::ycsb(ratio, 256).generator();
            let n = 20_000;
            let reads = (0..n)
                .filter(|_| matches!(generator.next_op(), Operation::Get { .. }))
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
                Operation::Put { value, .. } => assert_eq!(value.len(), 4096),
                Operation::Get { .. } => panic!("read_ratio is zero"),
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
            if let Request::Txn(ops) = &ra {
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
                Request::Single(op) => assert_eq!(op, plain.next_op()),
                Request::Txn(_) => panic!("txn at fraction 0"),
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
            let Request::Txn(ops) = generator.next_request(&classify) else {
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
