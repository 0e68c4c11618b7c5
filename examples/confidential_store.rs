//! Confidential mode (Figure 5): values and protocol payloads are encrypted before
//! they leave the enclave, so neither the untrusted host nor the network learns
//! plaintext — a property classical BFT protocols do not offer.
//!
//! ```bash
//! cargo run --example confidential_store
//! ```

use recipe::core::{FramePool, Membership};
use recipe::kv::{PartitionedKvStore, StoreConfig, Timestamp};
use recipe::protocols::ProtocolShield;
use recipe_crypto::CipherKey;
use recipe_net::NodeId;

fn main() {
    // --- Confidential KV store: host memory only ever sees ciphertext. ---
    let mut store = PartitionedKvStore::new(
        StoreConfig::default().with_cipher(CipherKey::from_bytes([0x42; 32])),
    );
    store
        .write(
            b"patient:17",
            b"diagnosis: hypertension",
            Timestamp::new(1, 0),
        )
        .unwrap();
    let host_view = store.host_visible_bytes(b"patient:17").unwrap();
    let enclave_view = store.get(b"patient:17").unwrap().value;
    println!(
        "host-visible bytes   : {:02x?}...",
        &host_view[..16.min(host_view.len())]
    );
    println!(
        "enclave (decrypted)  : {}",
        String::from_utf8_lossy(&enclave_view)
    );

    // --- Confidential messaging between two attested replicas. ---
    let membership = Membership::of_size(3, 1);
    let mut sender = ProtocolShield::recipe(NodeId(0), &membership, true);
    let mut receiver = ProtocolShield::recipe(NodeId(1), &membership, true);
    let message = b"replicate patient:17 -> hypertension";
    let frames = &mut FramePool::default();
    let mut wire = sender.wrap_in(frames, NodeId(1), 1, message.len(), |w| {
        w.raw(message);
    });
    println!(
        "wire bytes contain plaintext? {}",
        wire.windows(b"hypertension".len())
            .any(|w| w == b"hypertension")
    );
    let delivered = receiver.unwrap(NodeId(0), &mut wire);
    println!(
        "receiver decrypted   : {}",
        String::from_utf8_lossy(&delivered.as_slice()[0].1)
    );
}
