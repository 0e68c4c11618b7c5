//! Golden vectors for the keyed-hash layer: every hex string below was printed
//! by the implementation that re-keyed HMAC for every message and for every
//! keystream block. Any change to how `MacKey` or `Cipher` compute must leave
//! these bytes alone — frames, sealed values and tenant credentials are all
//! built from them.

use recipe_crypto::{Cipher, CipherKey, KeyMaterial, MacKey, Nonce};

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
    "f26fb10d66533d2b2662ed0fce35c068bc642213d64f32b5ed56e37f94368eff",
    "3742638885d3d6bcde7c858aecdcc5b369b9430bc78900633c1b4b0af8d0b125",
    "e1e4a1c20acdfdd342df3eea86cedf01b1b845477324e2e7fd8d5989041eb85c",
    "f55e5b70bc443eb74dc2865a4baebaf7fb6d9a1a0e649bdd513bf493e6081b1c",
    "d946f1b1a3cf6ed6fbf07a0df9dd2a87a945589d8625171db7efa75facc7fb30",
    "67129cf1790113af5bb163fdb479ec3027da583138139bfcf40bef3ee5c5a63f",
    "b1fef6e10a6ba457f6b27f1766d118acdca2d4ded46c9b8b30e656a17258b76a",
    "bdbd80ee364e1df3fb5855744eae67042dcb13528e1e8e52be6e17354d00f3f6",
    "eec7cd0649ec517a541a7cbcfe9de26de9da15857f78842e257536c68413afe3",
    "3223e387a642bad4836ac8ff31993da1715fdeec6165cf1986421d00d9c6098d",
    "36820314a55e515b4c5058a21eac6e5cf613bff7b2e9cc22e3b17690649621d2",
    "bad95f194c1f73131c0141a81ae282672a5e576de169287cc13496c36b91e913",
    "feda928d5c9db6e6df325d812b9b55f7b13c113522f52faaa8e2411065c153c1",
    "720dd8612a095fab7e3dc1799de3348c8f762b47c2a3aec5537a76645e347e9f",
    "5d9dac76b8a78cbabc5e4e23204052ed9581b085ac9bdb2a7266251f9e9bd92d",
    "00f09cda794096b152c7b740c72c760c69a7208987029cec656814bb274e3df5",
    "31b0225b20b466ad21f922d32f73dfb4d259ac56ef5aa6e45ed8dfae98341f4d",
    "0c53acd04432c7b601b1cae1a24b2d50b2723380b7bdf9d0a3a5f5d58b2dabfa",
    "bdf1893a4e7b2bd62a4667deb094e2dfd0e931eb823a2bb6554fb5cb38555085",
    "ddeeb79d8476be0b0a4fdfb07e91bb4820f3441365b7e04f1088106a1c23862e",
    "0c542e3f21d26674729724930a7b2d8f597801018cb4484a855cbe847187ca7c",
    "3234874ab19166ad3e6fa51d6c35fabb9b6bf6e50fcd58572735537666f85ded",
    "7930204a9d886f1091d1c6e3c19948ba671c701cdbec1773cc28e45c9626f486",
    "421f18d8fe1996d8e4ad17028e5cd0fc24bb250563d3cab5cf954b9554596a61",
    "2ce64ed4db160b6b85eac212699bbe20ca90cf6611980730e638b909b2c13325",
    "8dfd9f2cc41f77eb72076464bf6c5b18c758f26e47f174d77a5f26711c5d8cf7",
    "84da8530edaf18a457e8769e8e9730c84205040f41ced824eb3e95ddcc6468b4",
    "4f54eaef4eef40eadd30d5f99e25b3f257f1eb80337be291d6a953a7a1e52c3f",
    "644d7fc5565fc52c3896bb655295bf7873e556bbce4d6665963fd3cfffffd012",
    "a47eac873a2d5cc466a3a20dc38708e6e6f1448fd2fdfb53ad568c86fcb150d7",
    "aeec447c0adc7289f9c435e639c283703e375afdf4784169a2c8d5db54b3d0b7",
    "e58bce425c228b17012b089495b448f11a1a758aeb4df62f869a1524c318618a",
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
            "98687e6c96c61d1b7e5388c3d1e6ba22dd14517eec9e420ed442035ad1bc0908",
        ),
        (
            31,
            "9f7b898e2652b4810246078319523d95a14d9029d1cb529f3b218fa255ecdaed",
        ),
        (
            32,
            "f2cd420d67c8a4eecfa1412a285106f08fdde250e14bfd024cc3138e2b19e33f",
        ),
        (
            33,
            "084e658665c71fdb68cf5c1032f9ca5f3b13293a7076cb3260b97f532af9752c",
        ),
        (
            1024,
            "e3f1d094734ca2a27e339a228e82dd127f0cab9f13b7d49e45fa03ecee753d02",
        ),
    ];
    for (len, tag) in cases {
        let plaintext: Vec<u8> = (0..len).map(|i| (i * 31 + 5) as u8).collect();
        let sealed = cipher.seal(Nonce::from_u128(NONCE), &plaintext);
        assert_eq!(
            hex(&sealed.bytes),
            &CIPHERTEXT_1024[..2 * len],
            "ciphertext, {len} B"
        );
        assert_eq!(hex(&sealed.tag), tag, "tag, {len} B");
        assert_eq!(cipher.open(&sealed).unwrap(), plaintext, "open, {len} B");
    }
}
