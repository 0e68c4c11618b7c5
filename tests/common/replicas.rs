//! A run's end, as its replicas hold it: every live replica's value of
//! every key the run wrote becomes a final read of the run's history.

use std::collections::BTreeSet;

use recipe::kv::ReadResult;
use recipe::net::NodeId;
use recipe::protocols::StoreReplica;
use recipe::shard::ShardedCluster;
use recipe::sim::ReplicaGroup;

use super::history::{History, Violation};

/// Checks a run once it is drained to rest ([`ShardedCluster::quiesce`]):
/// each live replica's value of every key the run wrote is appended to
/// `history` as a final read, and the history is checked against the
/// promise of `R`'s read path. A final read follows every operation, so a
/// live replica that lacks a key, or holds another value than its peers,
/// breaks that promise wherever a write of the key completed; every live
/// replica is held to this, a quorum-read protocol's included. Where every
/// write of a key is still pending the history allows any value, so the
/// replicas that hold the key must still agree on it.
///
/// A frame the network drops or tampers with stalls its channel for good,
/// since the cores do not retransmit. In a group whose network does either,
/// a replica may trail: it need not hold a key, its lack of one is not
/// read, and the group need not come to rest. Nor need it hold a key's
/// newest write: a replica whose value of a key is older than a peer's (a
/// lower logical timestamp; replicas stamp one write with one logical
/// value) is trailing, and its value is neither read nor held to agree.
/// Any other group must rest, and its replicas must hold every key.
pub fn check_run<R: StoreReplica>(
    cluster: &mut ShardedCluster<R>,
    history: &mut History,
) -> Result<(), Violation> {
    let protocol = R::PROTOCOL;
    let may_trail = |group: &ReplicaGroup<R>| {
        let plan = group.config().fault_plan;
        plan.drop_probability > 0.0 || plan.tamper_probability > 0.0
    };
    let rested = cluster.quiesce();
    for shard in (0..cluster.shards()).filter(|_| !rested) {
        let group = cluster.shard(shard);
        if !group.at_rest() && !may_trail(group) {
            let in_flight = group.in_flight();
            let e = format!("shard {shard} is not at rest by the time cap: {in_flight} in flight");
            return Err(Violation(format!("{protocol:?}: {e}")));
        }
    }
    let mut apart = Ok(());
    let writes = history.ops.iter().filter(|op| op.is_write);
    let keys: BTreeSet<Vec<u8>> = writes.map(|op| op.key.clone()).collect();
    for key in keys {
        let group = cluster.shard_mut(cluster.router().shard_for_key(&key));
        let may_trail = may_trail(group);
        let crashed = group.crashed_nodes().clone();
        let live: Vec<NodeId> = (group.node_ids().iter())
            .filter(|id| !crashed.contains(id))
            .copied()
            .collect();
        let mut held: Vec<Option<ReadResult>> = (live.iter())
            .map(|&id| group.replica_mut(id).store().get(&key))
            .collect();
        if may_trail {
            let newest = held.iter().flatten().map(|read| read.timestamp.logical);
            let newest = newest.max();
            held.retain(|read| {
                read.as_ref()
                    .is_some_and(|read| Some(read.timestamp.logical) == newest)
            });
        }
        let holders: Vec<&Vec<u8>> = held.iter().flatten().map(|read| &read.value).collect();
        if apart.is_ok() && holders.windows(2).any(|pair| pair[0] != pair[1]) {
            let name = String::from_utf8_lossy(&key);
            apart = Err(format!("{protocol:?}: replicas disagree on {name:?}"));
        }
        for read in held {
            history.final_read(&key, read.map(|read| read.value));
        }
    }
    let read_path = protocol.contract().read_path;
    let checked = history.check(read_path.consistency());
    checked.map_err(|Violation(e)| Violation(format!("{protocol:?}: {e}")))?;
    apart.map_err(Violation)
}
