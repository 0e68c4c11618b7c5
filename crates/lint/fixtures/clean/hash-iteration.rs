//! The sanctioned form: an ordered container, identical visit order always.
use std::collections::BTreeMap;

pub(crate) struct Routing {
    peers: BTreeMap<u64, u64>,
}

impl Routing {
    pub(crate) fn checksum(&self) -> u64 {
        let mut acc = 0u64;
        for (id, weight) in self.peers.iter() {
            acc = acc.wrapping_mul(31).wrapping_add(id ^ weight);
        }
        acc
    }
}
