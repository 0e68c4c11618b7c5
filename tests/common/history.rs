//! What a run's clients saw, checked against the promise its protocol's
//! reads make ([`recipe::protocols::ReadPath::consistency`]).
//!
//! A history holds every operation a run's clients issued (`recorder.rs`),
//! with its issue and reply times and what a read returned; a transaction
//! counts as one write of its token on each of its keys. After the run,
//! [`History::final_read`] adds what each replica holds, as reads that
//! follow every operation. Values are unique per key and write.
//!
//! [`History::check`] judges each key on its own, then the transactions:
//! - linearizable: Gibbons–Korach zones (P. B. Gibbons and E. Korach,
//!   "Testing Shared Memories", SIAM J. Comput. 1997), O(n log n) per key;
//! - sequentially consistent: the writes each client issues or observes,
//!   in its own order, form an acyclic graph;
//! - atomic: no two keys' final reads show two transactions that both
//!   wrote both keys.

use std::collections::{BTreeMap, HashMap};
use std::fmt;

use recipe::protocols::Consistency;

/// The client final reads are recorded under.
pub const FINAL: u64 = u64::MAX;

/// One operation on one key, as its client saw it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Op {
    pub client: u64,
    pub request_id: u64,
    /// When the client issued it, in virtual nanoseconds.
    pub invoke: u64,
    /// When its reply reached the client: `None` while pending.
    pub response: Option<u64>,
    pub key: Vec<u8>,
    pub is_write: bool,
    /// A write's value, or a read's result (`None` for a miss).
    pub value: Option<Vec<u8>>,
}

/// Every operation of a run, in the order the clients issued them.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct History {
    pub ops: Vec<Op>,
}

/// Why a history breaks its promise, as a person reads it.
pub struct Violation(pub String);

impl fmt::Debug for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl History {
    /// Records what a replica holds of `key` after the run.
    pub fn final_read(&mut self, key: &[u8], value: Option<Vec<u8>>) {
        let at = u64::MAX;
        self.ops.push(Op {
            client: FINAL,
            request_id: 0,
            invoke: at,
            response: Some(at),
            key: key.to_vec(),
            is_write: false,
            value,
        });
    }

    /// Checks every key against `consistency`, then the transactions'
    /// atomicity on the final reads.
    pub fn check(&self, consistency: Consistency) -> Result<(), Violation> {
        let mut keys: BTreeMap<&[u8], Vec<&Op>> = BTreeMap::new();
        for op in &self.ops {
            keys.entry(&op.key).or_default().push(op);
        }
        for (key, ops) in keys {
            let checked = register(&ops).and_then(|register| match consistency {
                Consistency::Linearizable => linearizable(&register),
                Consistency::Sequential => sequential(&register),
            });
            checked.map_err(|e| Violation(format!("{}: {e}", show(key))))?;
        }
        self.atomic().map_err(Violation)
    }

    /// No two keys' final reads show two requests that each wrote both.
    fn atomic(&self) -> Result<(), String> {
        let mut writer = HashMap::new();
        let mut keys: HashMap<_, Vec<&[u8]>> = HashMap::new();
        for op in self.ops.iter().filter(|op| op.is_write) {
            let request = (op.client, op.request_id);
            writer.insert((&op.key[..], op.value.as_deref()), request);
            keys.entry(request).or_default().push(&op.key);
        }
        let request = |op: &Op| writer.get(&(&op.key[..], op.value.as_deref())).copied();
        let finals = self.ops.iter().filter(|op| op.client == FINAL);
        let held = finals.filter_map(|op| Some((&op.key[..], request(op)?)));
        let last: BTreeMap<_, _> = held.collect();
        for (&key, a) in &last {
            let others = keys[a].iter().filter_map(|other| last.get_key_value(other));
            for (&other, b) in others.filter(|&(_, b)| b != a) {
                if keys[b].contains(&key) {
                    let (key, other) = (show(key), show(other));
                    let mixed = format!("{key} holds request {a:?}'s write, {other} {b:?}'s");
                    return Err(format!("{mixed}, though both wrote both"));
                }
            }
        }
        Ok(())
    }
}

/// One key's operations: its writes, the absent value first (`None`), and
/// the write each completed read returned.
struct Register<'a> {
    writes: Vec<Option<&'a Op>>,
    reads: Vec<(&'a Op, usize)>,
}

fn register<'a>(ops: &[&'a Op]) -> Result<Register<'a>, String> {
    let (mut writes, mut index) = (vec![None], HashMap::new());
    for &op in ops.iter().filter(|op| op.is_write) {
        if index.insert(op.value.as_deref(), writes.len()).is_some() {
            return Err(format!("{} is written twice", describe(Some(op))));
        }
        writes.push(Some(op));
    }
    let mut reads = Vec::new();
    let done = ops.iter().filter(|op| op.response.is_some());
    for &op in done.filter(|op| !op.is_write) {
        let value = op.value.as_deref();
        let Some(&write) = value.map_or(Some(&0), |_| index.get(&value)) else {
            let (client, value) = (op.client, show(value.unwrap_or_default()));
            return Err(format!("client {client} read {value}, which no one wrote"));
        };
        reads.push((op, write));
    }
    Ok(Register { writes, reads })
}

/// Gibbons–Korach: a write and the reads of it form a cluster, whose zone
/// runs from its earliest response `f` to its latest invoke `s`. Two
/// clusters must each come first when each has an operation that ends
/// before one of the other's starts: `f₁ < s₂` and `f₂ < s₁`.
fn linearizable(register: &Register) -> Result<(), String> {
    let time = |t: Option<u64>| t.map_or(i128::MAX, i128::from);
    let zone = |w: &Option<&Op>| w.map_or((-1, -1), |w| (time(w.response), w.invoke.into()));
    let mut zones: Vec<(i128, i128)> = register.writes.iter().map(zone).collect();
    for &(read, w) in &register.reads {
        let (end, start) = (time(read.response), i128::from(read.invoke));
        if let Some(write) = register.writes[w].filter(|w| end < w.invoke.into()) {
            let by = format!("client {} request {}", read.client, read.request_id);
            let write = describe(Some(write));
            return Err(format!("{by} returned {write} before it was issued"));
        }
        zones[w] = (zones[w].0.min(end), zones[w].1.max(start));
    }
    let mut forward: Vec<usize> = (0..zones.len()).collect();
    forward.retain(|&w| zones[w].0 < zones[w].1);
    forward.sort_by_key(|&w| zones[w].0);
    let both = |a: usize, b: usize| {
        let [a, b] = [a, b].map(|w| describe(register.writes[w]));
        Err(format!("{a} and {b} each precede the other in real time"))
    };
    // Forward zones sorted by `f` overlap only if neighbours do.
    if let Some(pair) = forward.windows(2).find(|p| zones[p[1]].0 < zones[p[0]].1) {
        return both(pair[0], pair[1]);
    }
    // A backward zone conflicts only with a forward one that contains it.
    for (w, &(f, s)) in zones.iter().enumerate().filter(|(_, (f, s))| f >= s) {
        let before = forward.partition_point(|&z| zones[z].0 < s);
        if let Some(&z) = forward[..before].last().filter(|&&z| f < zones[z].1) {
            return both(z, w);
        }
    }
    Ok(())
}

/// Each client's operations, in its own order, as the writes it issued or
/// saw. The absent value precedes every write, and a final read's write
/// follows every other.
fn sequential(register: &Register) -> Result<(), String> {
    let n = register.writes.len();
    let mut edges = vec![Vec::new(); n];
    edges[0] = (1..n).collect();
    let mut seen: BTreeMap<u64, Vec<(u64, usize)>> = BTreeMap::new();
    for (w, write) in register.writes.iter().enumerate().skip(1) {
        let write = write.expect("the absent value comes first");
        seen.entry(write.client)
            .or_default()
            .push((write.request_id, w));
    }
    for &(read, w) in &register.reads {
        if read.client == FINAL {
            (1..n)
                .filter(|&other| other != w)
                .for_each(|other| edges[other].push(w));
            continue;
        }
        let own = register.writes[w].filter(|w| w.client == read.client);
        if let Some(write) = own.filter(|w| w.request_id > read.request_id) {
            let (client, write) = (read.client, describe(Some(write)));
            return Err(format!("client {client} read {write} before issuing it"));
        }
        seen.entry(read.client)
            .or_default()
            .push((read.request_id, w));
    }
    for order in seen.values_mut() {
        order.sort_by_key(|&(request_id, _)| request_id);
        for pair in order.windows(2).filter(|pair| pair[0].1 != pair[1].1) {
            edges[pair[0].1].push(pair[1].1);
        }
    }
    // Kahn's algorithm: what is left once every write without a
    // predecessor has been removed lies on a cycle or after one.
    let mut incoming = vec![0; n];
    edges.iter().flatten().for_each(|&w| incoming[w] += 1);
    let mut ready: Vec<usize> = (0..n).filter(|&w| incoming[w] == 0).collect();
    while let Some(w) = ready.pop() {
        for &next in &edges[w] {
            incoming[next] -= 1;
            if incoming[next] == 0 {
                ready.push(next);
            }
        }
    }
    let left = (0..n).filter(|&w| incoming[w] > 0);
    let left: Vec<String> = left.map(|w| describe(register.writes[w])).collect();
    match left.join(", ") {
        left if left.is_empty() => Ok(()),
        left => Err(format!("clients saw {left} in orders no one order keeps")),
    }
}

/// A write as a person reads it.
fn describe(write: Option<&Op>) -> String {
    let Some(op) = write else {
        return "the absent value".to_string();
    };
    let value = show(op.value.as_deref().unwrap_or_default());
    format!("{value} (client {} request {})", op.client, op.request_id)
}

fn show(bytes: &[u8]) -> String {
    format!("{:?}", String::from_utf8_lossy(bytes))
}
