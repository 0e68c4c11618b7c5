//! Microbenchmarks of Recipe's core primitives: the hash, MAC and AEAD kernels,
//! shield/verify, the partitioned KV store and the skiplist index.
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use recipe_core::{AuthLayer, Membership};
use recipe_crypto::{sha256, Cipher, CipherKey, MacKey, Nonce};
use recipe_kv::{PartitionedKvStore, SkipList, StoreConfig, Timestamp};
use recipe_net::NodeId;
use recipe_tee::{Enclave, EnclaveConfig, EnclaveId};

fn shield_pair() -> (AuthLayer, AuthLayer) {
    let master = MacKey::from_bytes([9u8; 32]);
    let mut e1 = Enclave::launch(EnclaveId(1), EnclaveConfig::new("code", 1));
    let mut e2 = Enclave::launch(EnclaveId(2), EnclaveConfig::new("code", 2));
    for label in ["cq:1->2", "cq:2->1"] {
        e1.provision_mac_key(label, master.derive(label)).unwrap();
        e2.provision_mac_key(label, master.derive(label)).unwrap();
    }
    let _ = Membership::of_size(3, 1);
    (
        AuthLayer::new(NodeId(1), e1, false),
        AuthLayer::new(NodeId(2), e2, false),
    )
}

fn bench(c: &mut Criterion) {
    // The kernels under every frame, smallest first: `shield_and_verify_256B`
    // below is two MACs plus bookkeeping, a confidential frame adds the AEAD.
    c.bench_function("sha256_1KiB", |b| {
        let data = vec![0x5au8; 1024];
        b.iter(|| black_box(sha256(black_box(&data))))
    });

    c.bench_function("hmac_tag_128B", |b| {
        let key = MacKey::from_bytes([9u8; 32]);
        let frame = vec![0x5au8; 128];
        b.iter(|| black_box(key.tag(black_box(&frame))))
    });

    // The keystream alone (HChaCha20 + 16 blocks), then the cipher around it:
    // what is left of a seal or an open beyond this line is the HMAC tag.
    c.bench_function("chacha20_keystream_1KiB", |b| {
        let key = [3u8; 32];
        let mut buffer = vec![0x5au8; 1024];
        let mut counter = 0u64;
        b.iter(|| {
            counter += 1;
            let mut nonce = [0u8; 24];
            nonce[..8].copy_from_slice(&counter.to_le_bytes());
            chacha20::XChaCha20::new(black_box(&key), &nonce).apply_keystream(&mut buffer);
            black_box(buffer[0])
        })
    });

    for (name, len) in [("aead_seal_open_1KiB", 1024), ("aead_seal_open_64B", 64)] {
        c.bench_function(name, |b| {
            let cipher = Cipher::new(&CipherKey::from_bytes([3u8; 32]));
            let value = vec![0x5au8; len];
            let mut counter = 0u128;
            b.iter(|| {
                counter += 1;
                let sealed = cipher.seal(Nonce::from_u128(counter), black_box(&value));
                black_box(cipher.open(&sealed).unwrap())
            })
        });
    }

    c.bench_function("aead_seal_1KiB", |b| {
        let cipher = Cipher::new(&CipherKey::from_bytes([3u8; 32]));
        let value = vec![0x5au8; 1024];
        let mut counter = 0u128;
        b.iter(|| {
            counter += 1;
            black_box(cipher.seal(Nonce::from_u128(counter), black_box(&value)))
        })
    });

    c.bench_function("aead_open_1KiB", |b| {
        let cipher = Cipher::new(&CipherKey::from_bytes([3u8; 32]));
        let sealed = cipher.seal(Nonce::from_u128(1), &[0x5au8; 1024]);
        b.iter(|| black_box(cipher.open(black_box(&sealed)).unwrap()))
    });

    c.bench_function("shield_and_verify_256B", |b| {
        let (mut tx, mut rx) = shield_pair();
        let payload = vec![0u8; 256];
        b.iter(|| {
            let msg = tx.shield(NodeId(2), 1, &payload).unwrap();
            assert!(rx.verify(&msg).is_accept());
        })
    });

    c.bench_function("kv_write_then_get_256B", |b| {
        let mut store = PartitionedKvStore::new(StoreConfig::default());
        let value = vec![0u8; 256];
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let key = format!("key-{}", i % 1000);
            store
                .write(key.as_bytes(), &value, Timestamp::new(i, 0))
                .unwrap();
            store.get(key.as_bytes()).unwrap();
        })
    });

    c.bench_function("skiplist_insert_lookup", |b| {
        let mut list: SkipList<u64> = SkipList::new();
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let key = format!("key-{}", i % 4096);
            list.insert(key.as_bytes(), i);
            list.get(key.as_bytes());
        })
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
