//! Golden vectors for the keyed-hash layer and the cipher over it, all from
//! outside this workspace. The `MacKey` strings are HMAC-SHA-256 from
//! Python's `hmac` module (`hmac.new(key, msg, hashlib.sha256)`, parts
//! length-prefixed as little-endian `u64`s by hand, a derived key the tag of
//! its label); the `Cipher` strings are HChaCha20 written out in Python, the
//! ChaCha20 keystream from OpenSSL (`openssl enc -chacha20` and
//! pyca/cryptography agreeing), the tag from Python's `hmac`. Any change to
//! how `MacKey` or `Cipher` compute must leave these bytes alone — frames,
//! sealed values and tenant credentials are all built from them.

use recipe_crypto::{Cipher, CipherKey, KeyMaterial, MacKey, Nonce, MAC_BLOCK_LEN};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn key() -> MacKey {
    MacKey::from_bytes([7u8; 32])
}

/// A 150-byte message: about the size of a channel MAC input, and long enough
/// to cross two SHA-256 block boundaries after the key block.
fn frame_sized() -> Vec<u8> {
    (0..150u32).map(|i| (i * 7 + 3) as u8).collect()
}

#[test]
fn tag_golden() {
    let k = key();
    assert_eq!(
        hex(k.tag(b"").as_bytes()),
        "9dac6a74401b46ed9b489d0e19d68d1b13cc6b5090352fdcfa5bd74df4e69d87"
    );
    assert_eq!(
        hex(k.tag(b"payload").as_bytes()),
        "3edb2ff2999b660a1a2c8659d65745afb24d7bb5924855188740fcffd6de8f1b"
    );
    assert_eq!(
        hex(k.tag(&frame_sized()).as_bytes()),
        "c503ac91e0b8426ce986b3652daa5dca947ee30bec5047754142e8f5101f549c"
    );
}

/// Both sides of where the inner hash's padding needs a block of its own —
/// 55/56 bytes, and one block on 119/120 — on prefixes of [`frame_sized`].
#[test]
fn tag_golden_at_the_padding_boundaries() {
    let k = key();
    let msg = frame_sized();
    let cases = [
        (
            55,
            "eb154124c5639a14cf5fa0d836710c93302fa41929be4c0779d5509c360e89b1",
        ),
        (
            56,
            "78e8976ccacbb90d753f2fcc2358b12d501ea8309928c14abfe8599f2b8a7a18",
        ),
        (
            119,
            "ebcd8eacb8ea6bedc29da62158341452588119a5ec725b8b6c0a0c384fe9b8a5",
        ),
        (
            120,
            "64bb76058dbca38c363cf519de96ad07f87586d4158036d50ab4739917f5cd7e",
        ),
    ];
    for (len, expected) in cases {
        assert_eq!(hex(k.tag(&msg[..len]).as_bytes()), expected, "{len} bytes");
    }
}

/// A key bound to a block tags `block ‖ message`: the HMAC of the two
/// joined, under the plain key. 0 and 55 bytes behind the block take the
/// one-block entry as well as a stream; 56 bytes only a stream.
#[test]
fn bound_tag_golden_either_side_of_one_block() {
    let block: [u8; MAC_BLOCK_LEN] = std::array::from_fn(|i| (i * 11 + 5) as u8);
    let bound = key().bind(&block);
    let msg = frame_sized();
    let cases = [
        (
            0,
            "05e748712eb50e554347da5e374dd0561407d4a0148138ec0c67f34ab86e1574",
        ),
        (
            55,
            "51f1666fddf61593963f381345d1098be7844cec64cc83abcff6bc4bad9a218b",
        ),
        (
            56,
            "315453c2a1b7dee29eb7f13fc135033d392403992de6d2e9e89c41ab84791614",
        ),
    ];
    for (len, expected) in cases {
        let mut stream = bound.stream();
        stream.update(&msg[..len]);
        assert_eq!(hex(stream.tag().as_bytes()), expected, "{len} bytes");
        let laid_out = || {
            let mut block = [0u8; MAC_BLOCK_LEN];
            block[..len].copy_from_slice(&msg[..len]);
            block
        };
        match bound.tag_one_block(&mut laid_out(), len) {
            Some(tag) => {
                assert_eq!(hex(tag.as_bytes()), expected, "{len} bytes");
                assert!(bound.verify_one_block(&mut laid_out(), len, &tag).is_ok());
            }
            None => assert_eq!(len, 56),
        }
    }
}

#[test]
fn tag_parts_golden() {
    let k = key();
    assert_eq!(
        hex(k.tag_parts(&[]).as_bytes()),
        "9dac6a74401b46ed9b489d0e19d68d1b13cc6b5090352fdcfa5bd74df4e69d87"
    );
    assert_eq!(
        hex(k.tag_parts(&[b"ab", b"c"]).as_bytes()),
        "cb26cbd8f92f96666adb85ea48780f04962ec8ae8998cd24c8bfb1721f19bb3c"
    );
    assert_eq!(
        hex(k.tag_parts(&[b"a", b"bc", &frame_sized()]).as_bytes()),
        "6799373f761bbfe93dd1add4de5ad8b71540a6981a2c734b2a24792860af733c"
    );
}

#[test]
fn verify_accepts_the_golden_tags() {
    let k = key();
    let msg = frame_sized();
    assert!(k.verify(&msg, &k.tag(&msg)).is_ok());
    assert!(k.verify(b"other", &k.tag(&msg)).is_err());
    let parts: [&[u8]; 3] = [b"a", b"bc", &msg];
    assert!(k.verify_parts(&parts, &k.tag_parts(&parts)).is_ok());
    assert!(k.verify_parts(&parts[..2], &k.tag_parts(&parts)).is_err());
}

#[test]
fn derive_golden() {
    let derived = key().derive("cq:0->1");
    assert_eq!(
        hex(derived.expose_secret()),
        "31f4ff0fcccd18b3809695816b47710c7df9e037b6dee7f34d2b90ea1e783d8f"
    );
    // The derived key is usable as a key, not only comparable as bytes.
    assert_eq!(
        hex(derived.tag(b"payload").as_bytes()),
        "a0238af6fa0b8b7a41d544a2f5749639352def0c4c40a4d9d7e1be8cedc80b9f"
    );
    assert_eq!(
        hex(derived.derive("recipe.cipher.enc").expose_secret()),
        "2ea58700e9c9ce8d2ea27f628cd9ba12e41515c8dfbbfa51cbaf99cd8e73f01b"
    );
}

#[test]
fn mac_key_serde_round_trip_keeps_the_key_and_only_the_key() {
    let k = key();
    let json = serde_json::to_string(&k).unwrap();
    // The 32 key bytes and nothing else: no cached hash state reaches the wire.
    assert_eq!(json, format!("[[{}]]", ["7"; 32].join(",")));
    let back: MacKey = serde_json::from_str(&json).unwrap();
    assert_eq!(back, k);
    assert_eq!(back.tag(b"payload"), k.tag(b"payload"));
    assert_eq!(back.derive("cq:0->1"), k.derive("cq:0->1"));
    assert!(serde_json::from_str::<MacKey>("[[1,2,3]]").is_err());
}

#[test]
fn mac_key_debug_prints_no_key_bytes() {
    assert_eq!(format!("{:?}", key()), "MacKey(…)");
    assert_eq!(format!("{:?}", key().derive("x")), "MacKey(…)");
}

/// Ciphertext of the 1 024-byte plaintext `p[i] = 31 i + 5 (mod 256)` under key
/// `[3; 32]` and [`NONCE`]. The keystream does not depend on the plaintext
/// length, so every shorter case below is a prefix of this one.
const CIPHERTEXT_1024: &str = concat!(
    "0d0904dfdbd6bc3eca54f3463734e89ee8fc998771f82fadc533ae82327d921f",
    "01402756a3e7c579bcc4b1b1c29c7892e41afbc60e7998df034096e065ceefee",
    "ff549d572cf7fde96797cc94f7b7145e6efb91679c46af88970d6550094899d5",
    "4dc96a027fee3d4f06045172524b321c010a4719ace9120770c1afd6a386712f",
    "a323d116e4512797daaeebf898448c3cf0b5e2ffe2ae749a9232ad6f1cadc931",
    "67cd6e3d9a7862808b7e9195b7a72159644009018f7fa573f3a263af4ade0173",
    "98ff7654517e0e2d5a90388e1129b5a59172d813653778cfef1a20bbb54fd148",
    "163670a346c05464c479abf463d3cf9ed9ae02e1b568bbe524221877210e0fd2",
    "079302f32f8f4cc4f83026603bdca6138ca6791af745a2061b48d008df0bf392",
    "41189ddc88abcc32dc2e2dac6a1986ad5265745c6bd7ac4284fb1800822fc1c0",
    "01935ed937a788ec779b3933a01991d70ffa46f3dd54b16210e193be528755bc",
    "f31b586371e22bc2345591dc257fd475f32162c8b457c39a36d95b180016eff0",
    "0e9f1c9a1af1b338876393ef288bb00fde6bc1cc0f3207a235ab04cd920a7af1",
    "324369a55e2f4903224bc16cb2c9d64ed8eb7ac61e59506799719fea4b3dd698",
    "c4b5082031adf243de30743a1464c23678befeb20ceed5c18940cd29ccf811ac",
    "98c37a05e100152aedfa69869cfdd587f354ceba729fcdb81d2d9c785c324846",
    "e85fb9fdf7bd2371c6d6eb77a0904652e8bf0a8d5f457c85ed2308f939c7122b",
    "aff75d78168844977744ca111ac378f04ce226a7f1a165d7735953045adf14cd",
    "338cef7159b26fa6b2d6be28b881c7ec592b543eda1d873546cec30cdee07d03",
    "936b3dc2424c7f478fe261ebea3ab0fb6709a574eb501fdc22b3a8d5746e6e4a",
    "149f5397f609b1d6c8100429fd5f3aa9c2c9823e88c6199faa2817931ed99faf",
    "15a8d9be305b43d8dee7a91ca5791c1e91ae0dde3004432ca245f4f78cfa5ad6",
    "1ae44749dd75732fa033d4094f6d7460a92fc1c9c42daf3a80fac2705f0fe5ea",
    "41e62c94136d81c9e3db3c8a6192502853097769ceae9be5ba70f71663a58478",
    "4853c05fe00ce11b73ef65f001f2e76ebce5192d9e2dad61b44c40e30487a7b8",
    "960c3eb1cab05f078624e6d7daf498ce8d9000891f095b036f02316534ecae7e",
    "ecdc002a829ebafb680f9b018961dbea1b43b32f368f3335f4123ed9105b3a07",
    "98144c13717fddc0e2cbb71fc461ae9557c35f258b6816e0259c62ae7667dfde",
    "9b245d071d948227e646184d8630bd52eaf503d2043c39a7cf5bf3cc59e3592a",
    "05ff5655142bc69c567388d291acee2f520dbf0b468aa571d0cd783cea2649f2",
    "78f53113d48d1cdec2eb5a7d56a9660832dc855091327c61dca6c4fda41d6576",
    "f0a1b53750b47b75e7741ade1c6efda773c0aafdaec7224d418112abd1983ea9",
);

const NONCE: u128 = 0x0102_0304_0506_0708_090a_0b0c_0d0e_0f10;

#[test]
fn seal_golden() {
    let cipher = Cipher::new(&CipherKey::from_bytes([3u8; 32]));
    let cases: [(usize, &str); 6] = [
        (
            0,
            "a2492d4868ddd535dc5629f84eca6c3a476c95f23e4cd591a04749e230ff6d12",
        ),
        (
            1,
            "bc2d09219041f6e001746df7de77c0ae473463e5624703d65346fb1594a79770",
        ),
        (
            31,
            "7a1fb82c7de6cd7be4be2feac6646c1e4e92027e1fa6f668d1c946f5e9ccebb5",
        ),
        (
            32,
            "25999ab4ce91356efa60dda741788f5c981fa5443c25941d26e2774fad65b5ee",
        ),
        (
            33,
            "35e23ead95dd7938dc3fb0e96be1e05760394d2871ea1dc86d4b2732ce992347",
        ),
        (
            1024,
            "8e6473ad98456aa3750ed1b7d08e69e81151df3d1525b769668da967db420cd7",
        ),
    ];
    for (len, tag) in cases {
        let plaintext: Vec<u8> = (0..len).map(|i| (i * 31 + 5) as u8).collect();
        let sealed = cipher.seal(Nonce::from_u128(NONCE), &plaintext);
        // What the HMAC keystream gave too: no length moves, on the wire or
        // in the cost model.
        assert_eq!(sealed.bytes.len(), len);
        assert_eq!(sealed.wire_len(), 16 + len + 32);
        assert_eq!(
            hex(&sealed.bytes),
            &CIPHERTEXT_1024[..2 * len],
            "ciphertext, {len} B"
        );
        assert_eq!(hex(&sealed.tag), tag, "tag, {len} B");
        assert_eq!(cipher.open(&sealed).unwrap(), plaintext, "open, {len} B");
    }
}
