//! What a protocol promises, as data: the [`Contract`] each registry line
//! carries ([`crate::Protocol::contract`]), and the two things derived from
//! its role rows — the frames a committed operation costs the group
//! ([`Contract::frames`]) and the rate the group can sustain
//! ([`Contract::capacity`]).

use recipe_core::wire::bytes_len;
use recipe_core::{ClientRequest, Operation};
use recipe_sim::{CostProfile, Work, COST_MODEL};
use recipe_telemetry::{CostBreakdown, CostCategory};

use crate::shield::ProtocolShield;

/// What a protocol promises, stated once: how many replicas it needs, whether
/// it batches, how it answers a read, and, role by role, the frames a
/// committed operation costs each replica. The group's frames per operation
/// ([`Contract::frames`]) and its capacity ([`Contract::capacity`]) are sums
/// over those [`Role`] rows. `tests/protocol_agreement.rs` runs every
/// protocol against its contract, each transformed core natively and under
/// Recipe, and holds every replica to its role's row, so the transformation
/// leaving the message pattern alone is a checked statement; it holds each
/// run's throughput to the capacity, and
/// checks every history its clients see against the read path's
/// [`ReadPath::consistency`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Contract {
    /// Replicas per tolerated fault: the `k` of `n = k·f + 1`.
    pub replicas_per_fault: usize,
    /// Sends through the batching pipeline. A leader-based protocol funnels
    /// every write through one sender, which is where coalescing pays. A
    /// protocol that does not batch is refused a batch config
    /// (`ShardedCluster::build`, scenario validation) rather than left to
    /// drop it.
    pub batches: bool,
    /// Where a read is answered, and with it what the answer promises.
    pub read_path: ReadPath,
    /// Every replica coordinates operations in turn (the driver routes each
    /// to the next live coordinator), so over a run each replica plays every
    /// role its share of the time. Otherwise each role stays with the
    /// replicas that play it.
    pub rotates: bool,
    /// What each replica sends and receives per operation, by role.
    pub roles: &'static [Role],
    /// The bodies of the protocol's messages and the frames they travel in.
    pub wire: Wire,
    /// The protocol's paper, figure or section behind each field.
    pub source: &'static str,
}

/// Where a protocol answers a read, and with it what the answer promises
/// ([`ReadPath::consistency`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadPath {
    /// The leader, from its own store, while it leads its view.
    Leader,
    /// The chain's tail, which holds committed writes only.
    Tail,
    /// A coordinator asks a majority; when the answers disagree it writes
    /// the newest back before it answers.
    Quorum,
    /// Any replica, from its own store.
    Local,
    /// Ordered like a write, since a client trusts no one replica's answer.
    Agreement,
}

impl ReadPath {
    /// What the histories clients see promise, per key: a local read may
    /// lag the writes other clients already saw complete; every other
    /// path answers with the newest committed write.
    pub const fn consistency(self) -> Consistency {
        match self {
            ReadPath::Local => Consistency::Sequential,
            ReadPath::Leader | ReadPath::Tail | ReadPath::Quorum | ReadPath::Agreement => {
                Consistency::Linearizable
            }
        }
    }
}

/// The promise a protocol's reads make about each key's history.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Consistency {
    /// The operations take effect in one order that keeps each client's
    /// own order and real time: a read returns the newest write that
    /// completed before it began, or a concurrent one.
    Linearizable,
    /// The operations take effect in one order that keeps each client's
    /// own order, but not real time: a read may return an older write than
    /// one another client already saw.
    Sequential,
}

/// One row of a [`Contract`]: what each replica playing a role does for one
/// committed operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Role {
    /// What the protocol calls the role.
    pub name: &'static str,
    /// How many of the group's `n` replicas play it.
    pub replicas: Count,
    /// Per committed write.
    pub write: Traffic,
    /// Per committed read.
    pub read: Traffic,
    /// Where the protocol says so.
    pub source: &'static str,
}

/// What one replica of a role does for one operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Traffic {
    /// Takes the client's request: the replica the driver routes it to.
    pub coordinates: bool,
    /// Messages it sends to its peers.
    pub sent: Messages,
    /// Messages it receives from them.
    pub received: Messages,
}

impl Traffic {
    /// Nothing: the role takes no part in the operation.
    pub(crate) const IDLE: Traffic = Traffic {
        coordinates: false,
        sent: Messages::NONE,
        received: Messages::NONE,
    };

    /// The client's request, and nothing else: answered from the store.
    pub(crate) const LOCAL: Traffic = Traffic {
        coordinates: true,
        ..Traffic::IDLE
    };
}

/// Protocol messages, by kind: the ones that carry the operation (its key
/// and value, or the client's request) and the fixed-size control messages.
/// Batched or not, a message is one op of the frame that carries it, as
/// each replica's books count them ([`recipe_sim::NodeBooks::ops_sent`],
/// [`recipe_sim::NodeBooks::ops_received`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Messages {
    /// Messages that carry the operation ([`Wire::carrier_len`]).
    pub(crate) carrying: Count,
    /// Control messages ([`Wire::control_len`]).
    pub control: Count,
}

impl Messages {
    pub(crate) const NONE: Messages = Messages {
        carrying: Count::ZERO,
        control: Count::ZERO,
    };

    /// All of them, at group size `n`.
    pub const fn at(self, n: usize) -> usize {
        self.carrying.at(n) + self.control.at(n)
    }
}

/// A number at group size `n`: `per_peer·(n−1) + plus`, where `plus` may
/// take back what a role does not send to itself (PBFT's backups hear
/// prepares from the `n−2` other backups) or count one replica (a leader).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Count {
    per_peer: usize,
    plus: isize,
}

impl Count {
    pub(crate) const ZERO: Count = Count::peers(0);
    pub(crate) const ONE: Count = Count {
        per_peer: 0,
        plus: 1,
    };
    pub(crate) const TWO: Count = Count {
        per_peer: 0,
        plus: 2,
    };

    /// `k` for each of the `n−1` other replicas.
    pub(crate) const fn peers(k: usize) -> Count {
        Count {
            per_peer: k,
            plus: 0,
        }
    }

    /// One less.
    pub(crate) const fn less_one(self) -> Count {
        Count {
            plus: self.plus - 1,
            ..self
        }
    }

    /// The number at group size `n` (at least 0).
    pub const fn at(self, n: usize) -> usize {
        let at = (self.per_peer * (n - 1)) as isize + self.plus;
        if at < 0 {
            0
        } else {
            at as usize
        }
    }
}

/// How a protocol's messages look on the wire, as its encoder writes them:
/// every message is a family tag, a variant byte and `u64` fields, and a
/// carrying one then holds the operation. Each protocol's unit tests check
/// its encoder against these lengths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Wire {
    /// `u64` fields of a control message.
    pub(crate) control_words: usize,
    /// `u64` fields of a carrying message, before the operation.
    pub(crate) carrier_words: usize,
    /// How a carrying message holds the operation.
    pub(crate) carries: Carries,
    /// The frames messages travel in.
    pub(crate) framing: Framing,
}

/// How a carrying message holds the operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Carries {
    /// Its key and value as byte strings: the value written, or read.
    Entry,
    /// The client's whole request.
    Request,
}

/// The frames a protocol's messages travel in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Framing {
    /// The Recipe library's ([`crate::ProtocolShield`]): a sealed frame
    /// under a shielded profile, a native one otherwise.
    Library,
    /// The message as its encoder writes it, and a batch as
    /// [`Framing::bare_batch_len`] frames it.
    Bare,
}

impl Framing {
    /// Bytes of a bare batch frame of `ops` messages whose encodings total
    /// `message_bytes`: a family tag, a count and each message as a byte
    /// string.
    pub const fn bare_batch_len(ops: usize, message_bytes: usize) -> usize {
        1 + 4 + ops * bytes_len(0) + message_bytes
    }
}

/// The bytes of a message's family tag and variant.
const MESSAGE_HEAD: usize = 2;

impl Wire {
    /// Bytes of a control message.
    pub const fn control_len(&self) -> usize {
        MESSAGE_HEAD + 8 * self.control_words
    }

    /// Bytes of a message carrying a read (`read`) or a write of a
    /// `key_bytes` key and a `value_bytes` value.
    pub fn carrier_len(&self, key_bytes: usize, value_bytes: usize, read: bool) -> usize {
        let carried = match self.carries {
            Carries::Entry => bytes_len(key_bytes) + bytes_len(value_bytes),
            Carries::Request => {
                let key = vec![0; key_bytes];
                let operation = if read {
                    Operation::Get { key }
                } else {
                    let value = vec![0; value_bytes];
                    Operation::Put { key, value }
                };
                let request = ClientRequest {
                    client_id: 0,
                    request_id: 0,
                    operation,
                    signature: None,
                };
                request.wire_len()
            }
        };
        MESSAGE_HEAD + 8 * self.carrier_words + carried
    }

    /// Wire bytes of one frame of `ops` messages whose bodies total
    /// `bytes`, `batched` or not, under `profile`.
    fn frame_len(&self, profile: &CostProfile, batched: bool, ops: usize, bytes: usize) -> usize {
        match (self.framing, batched) {
            (Framing::Library, _) => {
                ProtocolShield::frame_len(profile.shielded, batched, ops, bytes)
            }
            (Framing::Bare, false) => bytes,
            (Framing::Bare, true) => Framing::bare_batch_len(ops, bytes),
        }
    }
}

/// What a group can sustain, and what limits it ([`Contract::capacity`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Capacity {
    /// The role whose replicas are busiest; for a contract that
    /// [`Contract::rotates`], every replica is.
    pub role: &'static str,
    /// Nanoseconds one of its replicas is charged per committed operation,
    /// by category, in [`CostCategory::ALL`]'s order.
    pub ns_per_op: [f64; CostCategory::COUNT],
    /// Committed operations per second: one over the busiest replica's
    /// time per operation.
    pub ops_per_s: f64,
}

/// The name [`Capacity::role`] gives the replicas of a contract that
/// rotates.
const EVERY_REPLICA: &str = "every replica, coordinating in turn";

impl Contract {
    /// Frames between the replicas per committed write (`read` false) or
    /// read at group size `n`: what the roles receive. Batched or not, a
    /// batch of `b` ops is `b` of them in one frame.
    pub const fn frames(&self, n: usize, read: bool) -> usize {
        let mut total = 0;
        let mut i = 0;
        while i < self.roles.len() {
            let role = &self.roles[i];
            let traffic = if read { role.read } else { role.write };
            total += role.replicas.at(n) * traffic.received.at(n);
            i += 1;
        }
        total
    }

    /// The group's capacity at size `n` under `profile`: each role's
    /// messages, and the client requests its replicas coordinate, charged
    /// through [`COST_MODEL`]'s own formulas, for a share `read_share` of
    /// reads, keys of `key_bytes` and values of `value_bytes` (the value a
    /// write carries and a read returns), in frames of `batch` messages
    /// where the protocol batches. The busiest replica's time per
    /// operation bounds the rate.
    ///
    /// # Panics
    /// Panics on a batch of more than one where the contract does not
    /// batch.
    pub fn capacity(
        &self,
        n: usize,
        profile: &CostProfile,
        read_share: f64,
        key_bytes: usize,
        value_bytes: usize,
        batch: usize,
    ) -> Capacity {
        assert!(batch <= 1 || self.batches, "the contract does not batch");
        let role_ns = |role: &Role| {
            let mut ns = [0.0; CostCategory::COUNT];
            for (share, traffic, read) in [
                (1.0 - read_share, role.write, false),
                (read_share, role.read, true),
            ] {
                let ingest = traffic.coordinates.then(|| {
                    let value_len = if read { 0 } else { value_bytes };
                    (Work::ingest(value_len), 1.0)
                });
                let carrier = self.wire.carrier_len(key_bytes, value_bytes, read);
                let frames = self.frame_work(n, profile, traffic, carrier, batch);
                for (work, times) in ingest.into_iter().chain(frames) {
                    let mut split = CostBreakdown::new();
                    COST_MODEL.cost(profile, work, &mut split);
                    for (slot, category) in ns.iter_mut().zip(CostCategory::ALL) {
                        *slot += share * times * split.get(category) as f64;
                    }
                }
            }
            ns
        };
        let total = |ns: &[f64; CostCategory::COUNT]| ns.iter().sum::<f64>();
        let (role, ns_per_op) = if self.rotates {
            let mut ns = [0.0; CostCategory::COUNT];
            for role in self.roles {
                let share = role.replicas.at(n) as f64 / n as f64;
                for (slot, role_ns) in ns.iter_mut().zip(role_ns(role)) {
                    *slot += share * role_ns;
                }
            }
            (EVERY_REPLICA, ns)
        } else {
            let mut busiest = ("", [0.0; CostCategory::COUNT]);
            for role in self.roles.iter().filter(|role| role.replicas.at(n) > 0) {
                let ns = role_ns(role);
                if total(&ns) > total(&busiest.1) {
                    busiest = (role.name, ns);
                }
            }
            busiest
        };
        Capacity {
            role,
            ns_per_op,
            ops_per_s: 1e9 / total(&ns_per_op),
        }
    }

    /// The frames one replica sends and receives per operation of
    /// `traffic`, as charges and how many of each: a frame per message
    /// unbatched, else full frames of `batch` messages, each message of
    /// the operation's mix.
    fn frame_work(
        &self,
        n: usize,
        profile: &CostProfile,
        traffic: Traffic,
        carrier: usize,
        batch: usize,
    ) -> Vec<(Work, f64)> {
        let control = self.wire.control_len();
        let mut work = Vec::new();
        for (messages, send) in [(traffic.sent, true), (traffic.received, false)] {
            let frame = |ops, bytes| match send {
                true => Work::Send { ops, bytes },
                false => Work::Recv { ops, bytes },
            };
            let (carrying, controls) = (messages.carrying.at(n), messages.control.at(n));
            if batch > 1 {
                let count = carrying + controls;
                let bodies = (carrying * carrier + controls * control) * batch / count.max(1);
                let bytes = self.wire.frame_len(profile, true, batch, bodies);
                work.push((frame(batch, bytes), count as f64 / batch as f64));
            } else {
                for (count, body) in [(carrying, carrier), (controls, control)] {
                    let bytes = self.wire.frame_len(profile, false, 1, body);
                    work.push((frame(1, bytes), count as f64));
                }
            }
        }
        work
    }
}

/// The frames of a role that sends `sent` and receives `received` per
/// operation, coordinating it or not.
pub(crate) const fn traffic(coordinates: bool, sent: Messages, received: Messages) -> Traffic {
    Traffic {
        coordinates,
        sent,
        received,
    }
}

/// `carrying` operation-carrying and `control` control messages.
pub(crate) const fn messages(carrying: Count, control: Count) -> Messages {
    Messages { carrying, control }
}
