//! The history check can fail, and fails where it should: it agrees with
//! exhaustive search on small random histories, flags one hand-made
//! history per kind of violation, and flags a real run's history once one
//! read in it is made stale.

mod common {
    pub mod history;
    pub mod recorder;
}

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use recipe::bft::dispatch;
use recipe::core::{ConfidentialityMode, Operation};
use recipe::protocols::{Consistency, Protocol, ProtocolMode, ProtocolVisitor, StoreReplica};
use recipe::shard::{DeploymentSpec, ShardedCluster};

use common::history::{History, Op};

/// An operation on key `k`; [`on`] moves it to another.
fn op(client: u64, request_id: u64, at: (u64, Option<u64>), write: bool, value: &str) -> Op {
    Op {
        client,
        request_id,
        invoke: at.0,
        response: at.1,
        key: b"k".to_vec(),
        is_write: write,
        value: (!value.is_empty()).then(|| value.as_bytes().to_vec()),
    }
}

fn on(key: &str, op: Op) -> Op {
    Op {
        key: key.as_bytes().to_vec(),
        ..op
    }
}

fn history(ops: Vec<Op>) -> History {
    History { ops }
}

/// Whether some order of the completed operations, and of any pending
/// writes, keeps register semantics and each client's own order, and under
/// `Linearizable` real time too: the search of Wing and Gong.
fn exhaustive(ops: &[Op], consistency: Consistency, done: u32, value: Option<&[u8]>) -> bool {
    let open = |j: usize| done & (1 << j) == 0;
    if (0..ops.len()).all(|j| !open(j) || ops[j].response.is_none()) {
        return true;
    }
    (0..ops.len()).filter(|&i| open(i)).any(|i| {
        let op = &ops[i];
        let before = |other: &Op| match consistency {
            Consistency::Linearizable => other.response.is_some_and(|end| end < op.invoke),
            Consistency::Sequential => {
                other.client == op.client && other.request_id < op.request_id
            }
        };
        let first = !(0..ops.len()).any(|j| open(j) && before(&ops[j]));
        let reads_current = op.is_write || op.value.as_deref() == value;
        let next = if op.is_write {
            op.value.as_deref()
        } else {
            value
        };
        first && reads_current && exhaustive(ops, consistency, done | (1 << i), next)
    })
}

/// A random well-formed history of at most eight operations on one key:
/// up to three closed-loop clients, writes of unique values, reads of a
/// written value, of a value never written or of nothing, and a client's
/// last operation possibly pending.
fn random_history(seed: u64) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed);
    let (clients, count) = (rng.gen_range(1..=3u64), rng.gen_range(1..=8u64));
    let (mut clock, mut ops, mut written) = (vec![0; clients as usize], Vec::new(), 0);
    for i in 0..count {
        let client = rng.gen_range(0..clients);
        let invoke = clock[client as usize] + rng.gen_range(0..4u64);
        let response = invoke + rng.gen_range(0..6u64);
        clock[client as usize] = response + 1;
        let write = rng.gen_bool(0.5);
        let value = match rng.gen_range(0..written + 2) {
            _ if write => format!("w{written}"),
            0 => String::new(),
            1 => "never".to_string(),
            n => format!("w{}", n - 2),
        };
        written += u64::from(write);
        ops.push(op(client, i, (invoke, Some(response)), write, &value));
    }
    for client in 0..clients {
        let last = ops.iter_mut().rev().find(|op| op.client == client);
        if let Some(last) = last.filter(|_| rng.gen_bool(0.25)) {
            last.response = None;
        }
    }
    ops.retain(|op| op.is_write || op.response.is_some());
    ops
}

#[test]
fn both_checks_agree_with_exhaustive_search() {
    let mut verdicts = [[0; 2]; 2];
    for seed in 0..3_000 {
        let ops = random_history(seed);
        for (i, consistency) in [Consistency::Linearizable, Consistency::Sequential]
            .into_iter()
            .enumerate()
        {
            let searched = exhaustive(&ops, consistency, 0, None);
            let checked = history(ops.clone()).check(consistency);
            assert_eq!(
                checked.is_ok(),
                searched,
                "{consistency:?}, seed {seed}: {ops:#?}\n{checked:?}"
            );
            verdicts[i][usize::from(searched)] += 1;
        }
    }
    assert!(
        verdicts.iter().flatten().all(|&count| count > 0),
        "{verdicts:?}"
    );
}

/// Asserts that `ops` break `consistency`, with a message naming `what`.
fn flags(ops: Vec<Op>, consistency: Consistency, what: &str) {
    let Err(violation) = history(ops).check(consistency) else {
        panic!("{consistency:?} missed {what}");
    };
    assert!(violation.0.contains(what), "{violation:?}");
}

#[test]
fn a_stale_read_after_a_completed_write_is_not_linearizable() {
    let ops = vec![
        op(0, 1, (0, Some(1)), true, "a"),
        op(1, 1, (2, Some(3)), true, "b"),
        op(2, 1, (4, Some(5)), false, "a"),
    ];
    // Sequentially, client 2 may read before client 1 wrote.
    assert!(history(ops.clone()).check(Consistency::Sequential).is_ok());
    flags(ops, Consistency::Linearizable, "each precede the other");
}

#[test]
fn a_read_of_a_value_never_written_breaks_both() {
    let ops = vec![
        op(0, 1, (0, Some(1)), true, "a"),
        op(1, 1, (2, Some(3)), false, "x"),
    ];
    flags(ops.clone(), Consistency::Linearizable, "which no one wrote");
    flags(ops, Consistency::Sequential, "which no one wrote");
}

#[test]
fn a_read_that_returns_before_its_write_is_issued_is_not_linearizable() {
    let ops = vec![
        op(0, 1, (5, Some(6)), true, "a"),
        op(1, 1, (0, Some(1)), false, "a"),
    ];
    flags(ops, Consistency::Linearizable, "before it was issued");
}

#[test]
fn a_client_that_sees_two_writes_flip_flop_is_not_sequentially_consistent() {
    let ops = vec![
        op(0, 1, (0, Some(1)), true, "a"),
        op(1, 1, (0, Some(1)), true, "b"),
        op(2, 1, (2, Some(3)), false, "a"),
        op(2, 2, (4, Some(5)), false, "b"),
        op(2, 3, (6, Some(7)), false, "a"),
    ];
    flags(ops, Consistency::Sequential, "in orders no one order keeps");
}

#[test]
fn final_reads_that_mix_two_transactions_tokens_are_not_atomic() {
    let txn = |client, token| {
        let write = |key| on(key, op(client, 1, (0, Some(10)), true, token));
        [write("x"), write("y")]
    };
    let mut whole = history(txn(0, "t0").into_iter().chain(txn(1, "t1")).collect());
    let mut mixed = history(whole.ops.clone());
    for (key, token) in [("x", "t0"), ("y", "t0")] {
        whole.final_read(key.as_bytes(), Some(token.as_bytes().to_vec()));
    }
    for (key, token) in [("x", "t0"), ("y", "t1")] {
        mixed.final_read(key.as_bytes(), Some(token.as_bytes().to_vec()));
    }
    assert!(whole.check(Consistency::Linearizable).is_ok());
    let violation = mixed.check(Consistency::Linearizable).unwrap_err();
    assert!(
        violation.0.contains("though both wrote both"),
        "{violation:?}"
    );
}

/// An R-ABD key on two of its three replicas. An ABD read would find it on
/// any majority, but each replica's value is read back on its own, so the
/// third replica's miss is a stale read once the write has completed, and
/// allowed while it is pending.
#[test]
fn a_key_on_a_majority_alone_is_stale_once_its_write_completes() {
    let consistency = Protocol::Abd.contract().read_path.consistency();
    for (response, stale) in [(Some(1), true), (None, false)] {
        let mut run = history(vec![op(0, 1, (0, response), true, "a")]);
        for value in ["a", "a", ""] {
            let value = (!value.is_empty()).then(|| value.as_bytes().to_vec());
            run.final_read(b"k", value);
        }
        let checked = run.check(consistency);
        assert_eq!(checked.is_err(), stale, "{response:?}: {checked:?}");
    }
}

/// The mode every group here runs in (the BFT baselines ignore it).
const PLAINTEXT: ProtocolMode = ProtocolMode::Recipe {
    confidentiality: ConfidentialityMode::Plaintext,
};

/// A one-group run of `protocol`: four clients, each the only writer of
/// one key and a reader of all four, recorded. Returns the history and the
/// protocol's read promise.
struct Recorded;

impl ProtocolVisitor for Recorded {
    type Output = (History, Consistency);

    fn visit<R: StoreReplica>(self) -> Self::Output {
        let protocol = R::PROTOCOL;
        let spec = DeploymentSpec::new(1, protocol.min_replicas(1))
            .with_profile(protocol.cost_profile(PLAINTEXT))
            .with_clients(4, 240);
        let mut cluster = ShardedCluster::<R>::build(spec);
        let mut history = History::default();
        cluster.run_requests(history.record(|client, seq| {
            Some(if seq % 2 == 1 {
                let value = format!("{client}-{seq}").into_bytes();
                Operation::Put {
                    key: vec![b'k', client as u8],
                    value,
                }
                .into()
            } else {
                Operation::Get {
                    key: vec![b'k', ((client + seq / 2) % 4) as u8],
                }
                .into()
            })
        }));
        (history, protocol.contract().read_path.consistency())
    }
}

/// A key's first writer issues it, then issues or sees another write, then
/// reads the key again: the mutant makes that read return the first write.
fn stale_mutant(history: &History) -> Option<History> {
    let writes = history.ops.iter().filter(|op| op.is_write);
    let mut keys = std::collections::BTreeMap::new();
    let first_writes = writes.filter(|op| keys.insert(&op.key, ()).is_none());
    for first in first_writes {
        let later = (history.ops.iter().enumerate()).filter(|(_, op)| {
            op.key == first.key && op.client == first.client && op.request_id > first.request_id
        });
        let mut moved_on = false;
        for (i, op) in later {
            let other = op.value.is_some() && op.value != first.value;
            if moved_on && !op.is_write && op.response.is_some() && op.value != first.value {
                let mut mutant = self::history(history.ops.clone());
                mutant.ops[i].value = first.value.clone();
                return Some(mutant);
            }
            moved_on |= other;
        }
    }
    None
}

#[test]
fn a_stale_read_planted_in_a_real_run_is_flagged_on_every_protocol() {
    for protocol in Protocol::ALL {
        let (history, consistency) = dispatch(protocol, Recorded);
        history.check(consistency).unwrap();
        let mutant = stale_mutant(&history).expect("a read to make stale");
        assert!(
            mutant.check(consistency).is_err(),
            "{protocol:?}: the mutant passed"
        );
    }
}
