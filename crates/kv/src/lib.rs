//! Recipe's partitioned key-value store (the data layer).
//!
//! The paper's KV store (§A.3, "Recipe key-value store") makes two deliberate design
//! choices that this crate reproduces:
//!
//! 1. **Partitioned placement** — keys and their metadata (the digest of the
//!    value the host holds and the Lamport timestamp of the latest write)
//!    live *inside* the enclave, while the bulk values live in untrusted host
//!    memory. The index maps each key to its slot (4 bytes a bucket: the
//!    slot's number alone); the slot numbers the key's metadata (56 bytes:
//!    the key's box, the digest and the timestamp packed into one word) in
//!    the enclave and its value buffer on the host (16 bytes, 24 sealed, the
//!    value at its exact length), both kept in fixed pages of slots that
//!    never move.
//!    This keeps the trusted working set small (limiting EPC pressure) while
//!    still letting a replica verify the integrity of everything it reads,
//!    which is what makes trustworthy **local reads** possible.
//! 2. **Hashed index** — the enclave-resident index maps each key to its slot
//!    in a hash table, so a point operation is one probe, and compares keys
//!    in the slots' metadata. The paper builds its
//!    index on folly's concurrent skiplist for lock-free ordered access; this
//!    store runs on one thread, migration selects keys by hash arc rather than by
//!    key range, and the virtual clock charges index work through the cost model,
//!    so no reproduced figure depends on the host structure. Walks of the keys
//!    go over the slots, never the table, and the few operations that hand
//!    keys out in order (snapshots, exports, recovery) sort their slots by
//!    key.
//!
//! In confidential mode the store encrypts values before they leave the enclave
//! region, which is the basis of the Figure 5 experiment.
//!
//! ```
//! use recipe_kv::{PartitionedKvStore, StoreConfig, Timestamp};
//!
//! let mut store = PartitionedKvStore::new(StoreConfig::default());
//! store.write(b"user:1", b"alice", Timestamp::new(1, 0)).unwrap();
//! let value = store.get(b"user:1").unwrap();
//! assert_eq!(value.value, b"alice");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod store;
mod timestamp;
mod txn;

pub use error::KvError;
pub use store::{
    ExportedEntry, PartitionedKvStore, ReadResult, Snapshot, SnapshotRecord, StoreConfig,
    VerifiedRead,
};
pub use timestamp::Timestamp;
pub use txn::{TxnOpRef, TxnRecordOps};
