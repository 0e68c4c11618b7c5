//! R-CR: the Recipe transformation of Chain Replication (leader-based, per-key
//! order).
//!
//! Replicas are organized in a chain (head → … → tail). Writes enter at the head and
//! are forwarded down the chain; a write is committed when it reaches the tail,
//! which replies to the client. Reads are served locally by the tail — which is
//! linearizable because the tail only ever holds committed writes and, under Recipe,
//! can verify the integrity of its local store (paper §B.2, choice C). Local tail
//! reads are why R-CR shows the largest speedups on read-heavy workloads (Figure 4).

use recipe_core::wire::{bytes_len, tag, Reader, Writer};
use recipe_core::{ClientRequest, Membership, Operation};
use recipe_net::NodeId;

use crate::registry::Protocol;
use crate::replica::{CftProtocol, Handle, RecipeReplica};
use crate::store::Stamping;

/// Chain Replication protocol messages.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum ChainMsg {
    /// Forwarded write, travelling head → tail.
    Forward {
        seq: u64,
        key: Vec<u8>,
        value: Vec<u8>,
        client_id: u64,
        request_id: u64,
    },
}

impl ChainMsg {
    /// Wire form: `tag | variant | seq | client_id | request_id | key | value`.
    pub fn encode(&self) -> Vec<u8> {
        let ChainMsg::Forward {
            seq,
            key,
            value,
            client_id,
            request_id,
        } = self;
        let mut w = Writer::tagged(
            tag::CHAIN,
            2 + 3 * 8 + bytes_len(key.len()) + bytes_len(value.len()),
        );
        w.u8(0)
            .u64(*seq)
            .u64(*client_id)
            .u64(*request_id)
            .bytes(key)
            .bytes(value);
        w.finish()
    }

    /// Parses a message; `None` on anything but one well-formed encoding.
    pub fn decode(bytes: &[u8]) -> Option<ChainMsg> {
        let mut r = Reader::tagged(bytes, tag::CHAIN)?;
        if r.u8()? != 0 {
            return None;
        }
        let (seq, client_id, request_id) = (r.u64()?, r.u64()?, r.u64()?);
        let msg = ChainMsg::Forward {
            seq,
            key: r.bytes()?.to_vec(),
            value: r.bytes()?.to_vec(),
            client_id,
            request_id,
        };
        r.finish()?;
        Some(msg)
    }
}

/// The Chain Replication protocol: one node's place in the live chain.
///
/// Each node has exactly one downstream destination, so batching coalesces
/// the head's (and every relay's) forwards into amortized frames.
pub struct Chain {
    id: NodeId,
    membership: Membership,
    next_seq: u64,
    /// Members the trusted configuration service reported down (sorted).
    /// Chain roles — head, tail, successor — are computed over the live
    /// members only, which is Chain Replication's master-driven
    /// reconfiguration. Empty in crash-free runs, where every role matches
    /// the static chain exactly.
    down: Vec<NodeId>,
}

/// A Chain Replication replica (native or Recipe-transformed, R-CR).
pub type ChainReplica = RecipeReplica<Chain>;

#[cfg(test)]
impl ChainReplica {
    /// True if this node heads the live chain.
    pub(crate) fn is_head(&self) -> bool {
        self.core().is_head()
    }

    /// True if this node is the tail of the live chain.
    pub(crate) fn is_tail(&self) -> bool {
        self.core().is_tail()
    }
}

impl Chain {
    fn is_head(&self) -> bool {
        self.membership.chain_head_live(&self.down) == Some(self.id)
    }

    fn is_tail(&self) -> bool {
        self.membership.chain_tail_live(&self.down) == Some(self.id)
    }

    fn forward_or_commit(&mut self, msg: ChainMsg, h: &mut Handle<'_>) {
        match self.membership.chain_successor_live(self.id, &self.down) {
            Some(next) => h.send(next, &msg.encode()),
            None => {
                // This is the tail: the write is committed; answer the client.
                let ChainMsg::Forward {
                    client_id,
                    request_id,
                    ..
                } = msg;
                h.reply(client_id, request_id, None, false);
            }
        }
        // Every node along the chain applies the write as it passes through,
        // handing the store the value it holds.
        let ChainMsg::Forward { key, value, .. } = msg;
        h.store().apply(&key, value);
    }
}

impl CftProtocol for Chain {
    const PROTOCOL: Protocol = Protocol::Chain;
    const NAME: &'static str = "CR";
    const STAMPING: Stamping = Stamping::Sequence;
    const BATCHES: bool = true;

    fn new(id: NodeId, membership: Membership) -> Self {
        Chain {
            id,
            membership,
            next_seq: 0,
            down: Vec::new(),
        }
    }

    fn on_client_request(&mut self, request: ClientRequest, h: &mut Handle<'_>) {
        match request.operation {
            Operation::Get { key } => {
                // Reads are served locally at the tail.
                if !self.is_tail() {
                    return;
                }
                h.reply_local_read(request.client_id, request.request_id, &key);
            }
            Operation::Put { key, value } => {
                // Writes enter at the head.
                if !self.is_head() {
                    return;
                }
                self.next_seq += 1;
                let msg = ChainMsg::Forward {
                    seq: self.next_seq,
                    key,
                    value,
                    client_id: request.client_id,
                    request_id: request.request_id,
                };
                self.forward_or_commit(msg, h);
            }
        }
    }

    fn on_message(&mut self, _from: NodeId, payload: &[u8], h: &mut Handle<'_>) {
        if let Some(msg) = ChainMsg::decode(payload) {
            self.forward_or_commit(msg, h);
        }
    }

    fn coordinates_writes(&self) -> bool {
        self.is_head()
    }

    fn coordinates_reads(&self) -> bool {
        self.is_tail()
    }

    fn on_restart(&mut self, _view: u64, _h: &mut Handle<'_>) {
        // `next_seq`, like the store's applied count, is backed by the
        // trusted monotonic counter and survives the crash.
        self.down.clear();
    }

    fn on_peer_down(&mut self, peer: NodeId, h: &mut Handle<'_>) {
        if let Err(idx) = self.down.binary_search(&peer) {
            self.down.insert(idx, peer);
        }
        if self.is_head() {
            // This node just became (or confirmed itself as) the live head:
            // adopt any prepare records replicated from a crashed head so
            // in-flight transactions resolve here.
            let _ = h.store().txn_adopt_replicated();
        }
    }

    fn on_peer_up(&mut self, peer: NodeId, _h: &mut Handle<'_>) {
        if let Ok(idx) = self.down.binary_search(&peer) {
            self.down.remove(idx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build_cluster;
    use recipe_sim::Replica;

    #[test]
    fn roles_follow_chain_positions() {
        let replicas = build_cluster(3, 1, |id, m| ChainReplica::recipe(id, m, false));
        assert!(replicas[0].is_head());
        assert!(replicas[2].is_tail());
        assert!(!replicas[1].is_head());
        assert!(!replicas[1].is_tail());
        assert!(replicas[0].coordinates_writes());
        assert!(!replicas[0].coordinates_reads());
        assert!(replicas[2].coordinates_reads());
        assert_eq!(replicas[0].protocol_name(), "R-CR");
        assert_eq!(
            ChainReplica::native(0, Membership::of_size(3, 1)).protocol_name(),
            "CR"
        );
    }
}
