//! Core message and identifier types shared by the networking stack, the Recipe
//! library and the protocols.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a node (replica or client) in the deployment.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default)]
pub struct NodeId(pub u64);

impl NodeId {
    /// Convenience constructor.
    pub const fn new(id: u64) -> Self {
        NodeId(id)
    }

    /// Raw id.
    pub const fn raw(&self) -> u64 {
        self.0
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<u64> for NodeId {
    fn from(value: u64) -> Self {
        NodeId(value)
    }
}

/// Identifier of a directed communication channel (the paper's `cq`) between two
/// endpoints.
///
/// Recipe's non-equivocation counter is maintained *per channel*: the sender and
/// receiver each track the latest counter for `(src → dst)`, so replays and
/// reordering are detectable independently on every channel.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ChannelId {
    /// Sending endpoint.
    pub src: NodeId,
    /// Receiving endpoint.
    pub dst: NodeId,
}

impl ChannelId {
    /// Builds the channel from `src` to `dst`.
    pub const fn new(src: NodeId, dst: NodeId) -> Self {
        ChannelId { src, dst }
    }

    /// The reverse channel (`dst → src`), used for responses.
    pub const fn reverse(&self) -> ChannelId {
        ChannelId {
            src: self.dst,
            dst: self.src,
        }
    }

    /// Stable string label, used to key enclave counters and channel MAC keys.
    pub fn label(&self) -> String {
        format!("cq:{}->{}", self.src.0, self.dst.0)
    }
}

impl fmt::Debug for ChannelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cq:{}->{}", self.src.0, self.dst.0)
    }
}

/// Request type tag carried beside a frame's bytes (eRPC's request type,
/// which selects the handler a frame is dispatched to).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ReqType(pub u16);

impl ReqType {
    /// Replication-phase request (e.g. Raft AppendEntries, CR chain forward).
    pub const REPLICATE: ReqType = ReqType(1);
    /// Commit-phase request.
    pub const COMMIT: ReqType = ReqType(2);
    /// Acknowledgement response.
    pub const ACK: ReqType = ReqType(3);
    /// Client-facing request.
    pub const CLIENT: ReqType = ReqType(4);
    /// View-change / leader-election traffic.
    pub const VIEW_CHANGE: ReqType = ReqType(5);
    /// Attestation / membership traffic.
    pub const MEMBERSHIP: ReqType = ReqType(6);
    /// Read-path request.
    pub const READ: ReqType = ReqType(7);
}

impl fmt::Debug for ReqType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match *self {
            ReqType::REPLICATE => "REPLICATE",
            ReqType::COMMIT => "COMMIT",
            ReqType::ACK => "ACK",
            ReqType::CLIENT => "CLIENT",
            ReqType::VIEW_CHANGE => "VIEW_CHANGE",
            ReqType::MEMBERSHIP => "MEMBERSHIP",
            ReqType::READ => "READ",
            _ => return write!(f, "ReqType({})", self.0),
        };
        write!(f, "{name}")
    }
}

/// The bytes one message carries.
///
/// Mirrors eRPC's `MsgBuffer`: an owned byte payload plus the request type. The
/// payload of a Recipe-shielded message is its wire frame (`recipe_core::wire`).
#[derive(Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MsgBuf {
    /// Request type used for handler dispatch.
    pub req_type: ReqType,
    /// Owned payload bytes.
    pub payload: Vec<u8>,
}

impl MsgBuf {
    /// Creates a buffer.
    pub fn new(req_type: ReqType, payload: Vec<u8>) -> Self {
        MsgBuf { req_type, payload }
    }

    /// Payload length in bytes.
    pub fn len(&self) -> usize {
        self.payload.len()
    }

    /// True if the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.payload.is_empty()
    }
}

impl fmt::Debug for MsgBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "MsgBuf({:?}, {} bytes)",
            self.req_type,
            self.payload.len()
        )
    }
}

/// A framed message in flight on the simulated network.
#[derive(Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WireMessage {
    /// Monotonically increasing per-network id (assigned at submission); used for
    /// deterministic tie-breaking and by the replay injector.
    pub wire_id: u64,
    /// Sending node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Whether this is a response to an earlier request.
    pub is_response: bool,
    /// Buffer being carried.
    pub buf: MsgBuf,
}

impl WireMessage {
    /// The directed channel this message travels on.
    pub fn channel(&self) -> ChannelId {
        ChannelId::new(self.src, self.dst)
    }

    /// Total bytes on the wire (payload plus a fixed header estimate).
    pub fn wire_bytes(&self) -> usize {
        /// UDP/eRPC-style header estimate: addressing, request type, sequence.
        const HEADER_BYTES: usize = 64;
        HEADER_BYTES + self.buf.len()
    }
}

impl fmt::Debug for WireMessage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "WireMessage(#{} {}→{} {:?} {}B{})",
            self.wire_id,
            self.src,
            self.dst,
            self.buf.req_type,
            self.buf.len(),
            if self.is_response { " resp" } else { "" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_display_and_conversion() {
        let n: NodeId = 7u64.into();
        assert_eq!(format!("{n}"), "n7");
        assert_eq!(format!("{n:?}"), "n7");
        assert_eq!(n.raw(), 7);
    }

    #[test]
    fn channel_reverse_and_label() {
        let cq = ChannelId::new(NodeId(1), NodeId(2));
        assert_eq!(cq.reverse(), ChannelId::new(NodeId(2), NodeId(1)));
        assert_eq!(cq.label(), "cq:1->2");
        assert_eq!(cq.reverse().reverse(), cq);
    }

    #[test]
    fn req_type_debug_names() {
        assert_eq!(format!("{:?}", ReqType::REPLICATE), "REPLICATE");
        assert_eq!(format!("{:?}", ReqType(99)), "ReqType(99)");
    }

    #[test]
    fn msgbuf_accessors() {
        let buf = MsgBuf::new(ReqType::CLIENT, vec![1, 2, 3]);
        assert_eq!(buf.len(), 3);
        assert!(!buf.is_empty());
        assert!(MsgBuf::new(ReqType::ACK, vec![]).is_empty());
    }

    #[test]
    fn wire_message_channel_and_size() {
        let msg = WireMessage {
            wire_id: 1,
            src: NodeId(1),
            dst: NodeId(2),
            is_response: false,
            buf: MsgBuf::new(ReqType::REPLICATE, vec![0u8; 100]),
        };
        assert_eq!(msg.channel(), ChannelId::new(NodeId(1), NodeId(2)));
        assert_eq!(msg.wire_bytes(), 164);
        assert!(format!("{msg:?}").contains("n1→n2"));
    }
}
