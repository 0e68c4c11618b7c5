//! Core message and identifier types shared by the networking stack, the Recipe
//! library and the protocols.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a node (replica or client) in the deployment.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default)]
pub struct NodeId(pub u64);

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

/// A frame the network carried, as the fault injector's capture buffer
/// keeps it for replay.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct WireMessage {
    /// Monotonically increasing per-network id (assigned at submission); a
    /// replay never picks the frame it is deciding for.
    pub wire_id: u64,
    /// Sending node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// The frame's bytes (`recipe_core::wire`).
    pub payload: Vec<u8>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_display_and_conversion() {
        let n: NodeId = 7u64.into();
        assert_eq!(format!("{n}"), "n7");
        assert_eq!(format!("{n:?}"), "n7");
        assert_eq!(n.0, 7);
    }

    #[test]
    fn channel_label() {
        let cq = ChannelId::new(NodeId(1), NodeId(2));
        assert_eq!(cq.label(), "cq:1->2");
    }
}
