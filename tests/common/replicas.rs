//! A run's end, as its replicas hold it: every live replica's value of
//! every key the run wrote becomes a final read of the run's history.

use std::collections::BTreeSet;

use recipe::net::NodeId;
use recipe::protocols::StoreReplica;
use recipe::shard::ShardedCluster;

use super::history::{History, Violation};

/// Checks a run once its traffic has landed. Each live replica's value of
/// every key the run wrote is appended to `history` as a final read, and
/// the history is checked against the promise of `R`'s read path. A final
/// read follows every operation, so a live replica that lacks a key, or
/// holds another value than its peers, breaks that promise wherever a
/// write of the key completed; every live replica is held to this, a
/// quorum-read protocol's included. Where every write of a key is still
/// pending the history allows any value, so the replicas that hold the
/// key must still agree on it.
///
/// A frame the network drops or tampers with stalls its channel for good,
/// since the cores do not retransmit. In a group whose network does either,
/// a replica may trail: it need not hold a key, and its lack of one is not
/// read.
pub fn check_run<R: StoreReplica>(
    cluster: &mut ShardedCluster<R>,
    history: &mut History,
) -> Result<(), Violation> {
    let protocol = R::PROTOCOL;
    let mut apart = Ok(());
    let writes = history.ops.iter().filter(|op| op.is_write);
    let keys: BTreeSet<Vec<u8>> = writes.map(|op| op.key.clone()).collect();
    for key in keys {
        let group = cluster.shard_mut(cluster.router().shard_for_key(&key));
        let plan = group.config().fault_plan;
        let may_trail = plan.drop_probability > 0.0 || plan.tamper_probability > 0.0;
        let crashed = group.crashed_nodes().clone();
        let live: Vec<NodeId> = (group.node_ids().iter())
            .filter(|id| !crashed.contains(id))
            .copied()
            .collect();
        let held: Vec<Option<Vec<u8>>> = (live.iter())
            .map(|&id| {
                group
                    .replica_mut(id)
                    .store()
                    .get(&key)
                    .map(|read| read.value)
            })
            .collect();
        let holders: Vec<&Vec<u8>> = held.iter().flatten().collect();
        if apart.is_ok() && holders.windows(2).any(|pair| pair[0] != pair[1]) {
            let name = String::from_utf8_lossy(&key);
            apart = Err(format!("{protocol:?}: replicas disagree on {name:?}"));
        }
        for value in held
            .into_iter()
            .filter(|value| value.is_some() || !may_trail)
        {
            history.final_read(&key, value);
        }
    }
    let read_path = protocol.contract().read_path;
    let checked = history.check(read_path.consistency());
    checked.map_err(|Violation(e)| Violation(format!("{protocol:?}: {e}")))?;
    apart.map_err(Violation)
}
