//! Token groups for two-phase commit: every transaction writes one token,
//! unique to its client and request, to every key of a group whose keys
//! span shards. A partial commit leaves two keys of a group holding
//! different tokens, which the history's final reads show.

use recipe::core::{Operation, Request};
use recipe::shard::ShardedCluster;
use recipe::sim::Replica;

/// `groups` groups of `size` keys, each spanning at least two shards of
/// `cluster`, so that transactions on it are cross-shard.
pub fn key_groups<R: Replica>(
    cluster: &ShardedCluster<R>,
    groups: usize,
    size: usize,
) -> Vec<Vec<Vec<u8>>> {
    let router = cluster.router();
    let mut out = Vec::new();
    let mut candidate = 0u64;
    while out.len() < groups {
        let mut keys: Vec<Vec<u8>> = Vec::new();
        let mut shards: Vec<usize> = Vec::new();
        while keys.len() < size {
            let key = format!("txn{candidate:08}").into_bytes();
            candidate += 1;
            let shard = router.shard_for_key(&key);
            if keys.len() == size - 1 && shards.iter().all(|&s| s == shard) {
                continue; // force at least two shards per group
            }
            shards.push(shard);
            keys.push(key);
        }
        out.push(keys);
    }
    out
}

/// The transaction of `client`'s request `seq`: its token on every key of
/// `group`.
pub fn group_txn(group: &[Vec<u8>], client: u64, seq: u64) -> Request {
    let token = format!("token-{client}-{seq}").into_bytes();
    let put = |key: &Vec<u8>| Operation::Put {
        key: key.clone(),
        value: token.clone(),
    };
    Request::Txn(group.iter().map(put).collect())
}

/// Every client writes its tokens to the groups in turn, over a stride of
/// its own so that the groups contend.
pub fn group_txn_workload(groups: Vec<Vec<Vec<u8>>>) -> impl FnMut(u64, u64) -> Option<Request> {
    move |client, seq| {
        let group = &groups[((client + seq) as usize * 7) % groups.len()];
        Some(group_txn(group, client, seq))
    }
}
