//! The simulated enclave.
//!
//! An [`Enclave`] is the per-node trusted computing base: it owns every secret a
//! Recipe replica uses (channel MAC keys, signing keys, cipher keys) and its
//! trusted monotonic counters, one slot per channel holding the channel's
//! key, its counter and its bound cipher. Code "inside" the enclave is
//! simply code that holds the `Enclave` handle; the untrusted host side of a
//! node never receives one, mirroring the SGX isolation boundary in the type
//! system rather than in hardware.

use std::fmt;
use std::sync::OnceLock;

use recipe_crypto::{
    hash_parts, BoundCipher, BoundMacKey, Cipher, CipherKey, Digest, EphemeralSecret,
    KeyCommitment, KxPublic, MacKey, Nonce, SharedSecret, SigningKeyPair, MAC_BLOCK_LEN,
};
use serde::{Deserialize, Serialize};

use crate::counter::TrustedCounter;
use crate::error::TeeError;
use crate::label::Label;
use crate::quote::{HardwareKey, Quote, Report};
use crate::sealed::SealedBlob;

/// Identifier of an enclave instance (unique per node in a deployment).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct EnclaveId(pub u64);

/// Measurement of the code and initial data loaded into an enclave (SGX `MRENCLAVE`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Measurement(Digest);

impl Measurement {
    /// Measures a code identity string (stand-in for hashing the enclave binary).
    pub fn of_code(code_identity: &str) -> Self {
        Measurement(hash_parts(&[
            b"recipe.tee.measurement",
            code_identity.as_bytes(),
        ]))
    }

    /// The underlying digest.
    pub(crate) fn digest(&self) -> &Digest {
        &self.0
    }
}

/// Static configuration for creating an enclave.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EnclaveConfig {
    /// Identity of the code to load (the protocol binary); determines the
    /// measurement and therefore what the CAS will accept.
    pub code_identity: String,
    /// Platform (machine) on which the enclave runs; determines the hardware key.
    pub platform_id: u64,
}

impl EnclaveConfig {
    /// Creates a config for `code_identity` on platform `platform_id`.
    pub fn new(code_identity: impl Into<String>, platform_id: u64) -> Self {
        EnclaveConfig {
            code_identity: code_identity.into(),
            platform_id,
        }
    }

    /// Measurement this configuration will produce.
    pub fn measurement(&self) -> Measurement {
        Measurement::of_code(&self.code_identity)
    }
}

/// Label under which the cluster-wide value/message cipher key is
/// provisioned, by attestation and by the shield alike.
pub const CIPHER_LABEL: &str = "recipe.values";

/// A provisioned cipher key and the cipher expanded from it. Expanding costs
/// as much hashing as sealing 100 bytes, so it is done once — on first use, to
/// keep it out of deployment set-up for enclaves that never seal.
struct CipherSlot {
    label: Label,
    key: CipherKey,
    cipher: OnceLock<Cipher>,
}

impl CipherSlot {
    fn cipher(&self) -> &Cipher {
        self.cipher.get_or_init(|| Cipher::new(&self.key))
    }
}

/// A channel's MAC key as provisioned or, from the channel's next frame on
/// ([`Enclave::bind_channel`]), its bound form: the key with the channel's
/// block hashed in. The bound form forges like the key does and is all a
/// frame needs, so it takes the key's place; provisioning the label again
/// puts a key back.
enum ChannelKey {
    Provisioned(MacKey),
    Bound(BoundMacKey),
}

/// What an enclave holds for one directed channel, under the channel's
/// label (`cq:src->dst`): its MAC key; this node's trusted counter for it —
/// frames sealed when the node is the source, the last frame accepted when
/// it is the destination; and, once a frame on it is sealed, the cipher
/// under [`CIPHER_LABEL`] bound to its nonce prefix. The label is inline,
/// so a channel takes its slot and no other memory.
struct ChannelSlot {
    label: Label,
    key: ChannelKey,
    counter: TrustedCounter,
    cipher: Option<BoundCipher>,
}

/// A 46 B label, a 120 B key, an 8 B counter and a 33 B cipher, padded to
/// 8: a page of [`CHANNEL_PAGE`] slots is 832 B.
const _: () = assert!(std::mem::size_of::<ChannelSlot>() == 208);

/// Slots in one page of an enclave's channels: a replica of a three-node
/// group holds 4, both directions to each of two peers.
const CHANNEL_PAGE: usize = 4;

/// A channel slot's position in the enclave that provisioned it: the
/// per-frame code resolves a channel label once ([`Enclave::channel_handle`])
/// and indexes from then on. A handle stays valid for the life of its
/// enclave — slots are replaced in place, never moved or removed — and
/// means nothing to another.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChannelHandle(u32);

/// A per-node simulated enclave.
pub struct Enclave {
    id: EnclaveId,
    config: EnclaveConfig,
    measurement: Measurement,
    hardware_key: HardwareKey,
    platform_secret: MacKey,
    crashed: bool,

    // Secrets provisioned after attestation. Reachable only through this handle.
    // One slot per channel label, in provisioning order, in pages of
    // `CHANNEL_PAGE` each allocated once at its size and never moved, so a
    // `ChannelHandle` is an index; a label is looked up by scanning, which
    // only provisioning and a peer's first frame do.
    channels: Vec<Vec<ChannelSlot>>,
    // Cipher keys in provisioning order beside their labels.
    ciphers: Vec<CipherSlot>,
    signing_key: Option<SigningKeyPair>,

    // Ephemeral key-exchange secret generated during attestation.
    kx_secret: Option<EphemeralSecret>,
}

impl Enclave {
    /// Launches an enclave: measures the code identity and derives platform keys.
    pub fn launch(id: EnclaveId, config: EnclaveConfig) -> Self {
        let measurement = config.measurement();
        let hardware_key = HardwareKey::for_platform(config.platform_id);
        // The platform sealing secret is derived from the platform id; like the
        // hardware key it stands in for a fused secret.
        let platform_secret = MacKey::from_bytes(
            *hash_parts(&[b"recipe.tee.platform", &config.platform_id.to_le_bytes()]).as_bytes(),
        );
        Enclave {
            id,
            measurement,
            hardware_key,
            platform_secret,
            crashed: false,
            channels: Vec::new(),
            ciphers: Vec::new(),
            signing_key: None,
            kx_secret: None,
            config,
        }
    }

    /// The configuration the enclave was launched with.
    pub fn config(&self) -> &EnclaveConfig {
        &self.config
    }

    /// Public half of this platform's hardware attestation key (what the vendor
    /// would publish for verifiers).
    pub fn platform_vendor_key(&self) -> recipe_crypto::PublicKey {
        self.hardware_key.public()
    }

    /// Crash-fails the enclave. Every subsequent operation returns
    /// [`TeeError::EnclaveCrashed`]; this is the only failure mode the TCB has.
    pub fn crash(&mut self) {
        self.crashed = true;
    }

    /// True if the enclave has crash-failed.
    pub fn is_crashed(&self) -> bool {
        self.crashed
    }

    fn ensure_alive(&self) -> Result<(), TeeError> {
        if self.crashed {
            Err(TeeError::EnclaveCrashed)
        } else {
            Ok(())
        }
    }

    // ------------------------------------------------------------------
    // Attestation (Algorithm 2: attest / generate_quote)
    // ------------------------------------------------------------------

    /// `attest()`: produces a report binding the challenger's nonce and a fresh
    /// ephemeral key-exchange public value to this enclave's measurement.
    pub fn attest<R: rand::RngCore>(
        &mut self,
        nonce: Nonce,
        rng: &mut R,
    ) -> Result<Report, TeeError> {
        self.ensure_alive()?;
        let kx = EphemeralSecret::generate(rng);
        let kx_public = *kx.public().as_bytes();
        self.kx_secret = Some(kx);
        Ok(Report {
            enclave_id: self.id,
            measurement: self.measurement,
            nonce,
            kx_public,
        })
    }

    /// `generate_quote()`: signs a report with the platform hardware key.
    pub fn generate_quote(&self, report: Report) -> Result<Quote, TeeError> {
        self.ensure_alive()?;
        let signature = self.hardware_key.sign_report(&report);
        Ok(Quote {
            report,
            signature,
            platform_id: self.config.platform_id,
        })
    }

    /// Completes the attestation key exchange with the challenger's public value,
    /// returning the shared secret under which provisioned secrets are protected.
    pub fn complete_key_exchange(&self, challenger: &KxPublic) -> Result<SharedSecret, TeeError> {
        self.ensure_alive()?;
        let kx = self.kx_secret.as_ref().ok_or(TeeError::MissingSecret {
            label: "attestation ephemeral key".to_owned(),
        })?;
        Ok(kx.derive_shared(challenger))
    }

    // ------------------------------------------------------------------
    // Secret provisioning and access
    // ------------------------------------------------------------------

    /// Installs a channel MAC key under `label`, replacing — in place, so
    /// handles to the channel and its counter stay good — a key already
    /// provisioned there; the channel's next frame binds the new key
    /// ([`Enclave::bind_channel`]). A label longer than a [`Label`] holds
    /// is refused before anything grows.
    pub fn provision_mac_key(
        &mut self,
        label: impl AsRef<str>,
        key: MacKey,
    ) -> Result<(), TeeError> {
        self.ensure_alive()?;
        let label = Label::new(label.as_ref())?;
        let key = ChannelKey::Provisioned(key);
        if let Some(slot) = self
            .channels
            .iter_mut()
            .flatten()
            .find(|s| s.label == label)
        {
            slot.key = key;
            return Ok(());
        }
        let slot = ChannelSlot {
            label,
            key,
            counter: TrustedCounter::default(),
            cipher: None,
        };
        // A handle is four bytes: 2³² slots are hundreds of gigabytes,
        // where the EPC has long run out.
        if self.channel_count() >= u32::MAX as usize {
            return Err(TeeError::EpcExhausted {
                requested: std::mem::size_of::<ChannelSlot>(),
                available: 0,
            });
        }
        match self.channels.last_mut() {
            Some(page) if page.len() < CHANNEL_PAGE => page.push(slot),
            _ => {
                let mut page = Vec::with_capacity(CHANNEL_PAGE);
                page.push(slot);
                self.channels.push(page);
            }
        }
        Ok(())
    }

    /// Resolves the channel provisioned under `label` to its handle.
    pub fn channel_handle(&self, label: &str) -> Result<ChannelHandle, TeeError> {
        self.ensure_alive()?;
        let wanted = Label::new(label)?;
        self.channels
            .iter()
            .flatten()
            .position(|slot| slot.label == wanted)
            // Lossless: no slot is added past `u32::MAX`.
            .map(|index| ChannelHandle(index as u32))
            .ok_or_else(|| TeeError::MissingSecret {
                label: label.to_owned(),
            })
    }

    /// Number of channels provisioned (for diagnostics and tests).
    pub fn channel_count(&self) -> usize {
        self.channels.iter().map(Vec::len).sum()
    }

    fn slot(&self, handle: ChannelHandle) -> Result<&ChannelSlot, TeeError> {
        self.ensure_alive()?;
        let index = handle.0 as usize;
        self.channels
            .get(index / CHANNEL_PAGE)
            .and_then(|page| page.get(index % CHANNEL_PAGE))
            .ok_or_else(|| TeeError::MissingSecret {
                label: format!("channel #{}", handle.0),
            })
    }

    fn slot_mut(&mut self, handle: ChannelHandle) -> Result<&mut ChannelSlot, TeeError> {
        self.ensure_alive()?;
        let index = handle.0 as usize;
        self.channels
            .get_mut(index / CHANNEL_PAGE)
            .and_then(|page| page.get_mut(index % CHANNEL_PAGE))
            .ok_or_else(|| TeeError::MissingSecret {
                label: format!("channel #{}", handle.0),
            })
    }

    /// Readies the channel `handle` names for a frame and returns its
    /// trusted counter. `block` is the 64 bytes every message MAC on the
    /// channel starts with: the first frame after its key was provisioned
    /// binds the key to it ([`MacKey::bind`]), one compression then and one
    /// fewer for every frame after. With `prefix`, the first 16 nonce bytes
    /// of every frame on it, the first sealed frame after the cipher key
    /// under [`CIPHER_LABEL`] was provisioned binds that cipher to it
    /// ([`Cipher::bind`]): one HChaCha20 then, none for every frame after.
    /// Both are the channel's own, the same for every frame, so what a slot
    /// holds bound it keeps.
    pub fn bind_channel(
        &mut self,
        handle: ChannelHandle,
        block: &[u8; MAC_BLOCK_LEN],
        prefix: Option<&[u8; 16]>,
    ) -> Result<&mut TrustedCounter, TeeError> {
        let cipher = match prefix {
            Some(prefix) if self.slot(handle)?.cipher.is_none() => {
                Some(self.cipher_slot(CIPHER_LABEL)?.cipher().bind(prefix))
            }
            _ => None,
        };
        let slot = self.slot_mut(handle)?;
        if let ChannelKey::Provisioned(key) = &slot.key {
            slot.key = ChannelKey::Bound(key.bind(block));
        }
        if cipher.is_some() {
            slot.cipher = cipher;
        }
        Ok(&mut slot.counter)
    }

    /// The bound key of the channel `handle` names — of the key provisioned
    /// under its label now, once [`Enclave::bind_channel`] bound it.
    pub fn channel_key(&self, handle: ChannelHandle) -> Result<&BoundMacKey, TeeError> {
        match &self.slot(handle)?.key {
            ChannelKey::Bound(key) => Ok(key),
            ChannelKey::Provisioned(_) => Err(TeeError::MissingSecret {
                label: format!("bound key #{}", handle.0),
            }),
        }
    }

    /// The cipher [`Enclave::bind_channel`] bound for the channel `handle`
    /// names — from the key provisioned under [`CIPHER_LABEL`] now — and
    /// that key's commitment ([`Cipher::key_commitment`]).
    pub fn channel_cipher(
        &self,
        handle: ChannelHandle,
    ) -> Result<(&BoundCipher, &KeyCommitment), TeeError> {
        let cipher = self.slot(handle)?.cipher.as_ref();
        let cipher = cipher.ok_or_else(|| TeeError::MissingSecret {
            label: format!("bound cipher #{}", handle.0),
        })?;
        let commitment = self.cipher_slot(CIPHER_LABEL)?.cipher().key_commitment();
        Ok((cipher, commitment))
    }

    /// Installs a cipher key under `label` (confidentiality mode), replacing
    /// — in place — a key already provisioned there. Replacing the key
    /// under [`CIPHER_LABEL`] unbinds every channel's cipher, and each
    /// channel's next sealed frame binds the new one. A label longer than a
    /// [`Label`] holds is refused.
    pub fn provision_cipher_key(
        &mut self,
        label: impl AsRef<str>,
        key: CipherKey,
    ) -> Result<(), TeeError> {
        self.ensure_alive()?;
        let label = Label::new(label.as_ref())?;
        match self.ciphers.iter_mut().find(|slot| slot.label == label) {
            Some(slot) => {
                slot.key = key;
                slot.cipher = OnceLock::new();
                if label.as_str() == CIPHER_LABEL {
                    for slot in self.channels.iter_mut().flatten() {
                        slot.cipher = None;
                    }
                }
            }
            None => {
                // An enclave holds one cipher key or none: no spare slots.
                self.ciphers.reserve_exact(1);
                self.ciphers.push(CipherSlot {
                    label,
                    key,
                    cipher: OnceLock::new(),
                });
            }
        }
        Ok(())
    }

    fn cipher_slot(&self, label: &str) -> Result<&CipherSlot, TeeError> {
        self.ciphers
            .iter()
            .find(|slot| slot.label.as_str() == label)
            .ok_or_else(|| TeeError::MissingSecret {
                label: label.to_owned(),
            })
    }

    /// Derives a sub-key of the cipher key provisioned under `label`
    /// ([`CipherKey::derive`]); the provisioned key itself never leaves the
    /// enclave.
    pub fn derive_cipher_key(&self, label: &str, parts: &[&[u8]]) -> Result<CipherKey, TeeError> {
        self.ensure_alive()?;
        Ok(self.cipher_slot(label)?.key.derive(parts))
    }

    /// Installs the node's signing key pair.
    pub fn install_signing_key(&mut self, keys: SigningKeyPair) -> Result<(), TeeError> {
        self.ensure_alive()?;
        self.signing_key = Some(keys);
        Ok(())
    }

    /// Returns the node's signing key pair.
    pub fn signing_key(&self) -> Result<&SigningKeyPair, TeeError> {
        self.ensure_alive()?;
        self.signing_key.as_ref().ok_or(TeeError::MissingSecret {
            label: "signing key".to_owned(),
        })
    }

    // ------------------------------------------------------------------
    // Trusted counters
    // ------------------------------------------------------------------

    /// The trusted counter of the channel `handle` names.
    pub fn counter_mut(&mut self, handle: ChannelHandle) -> Result<&mut TrustedCounter, TeeError> {
        Ok(&mut self.slot_mut(handle)?.counter)
    }

    /// The current value of the trusted counter of the channel `handle`
    /// names.
    pub fn counter_value(&self, handle: ChannelHandle) -> Result<u64, TeeError> {
        Ok(self.slot(handle)?.counter.current())
    }

    // ------------------------------------------------------------------
    // Sealing
    // ------------------------------------------------------------------

    /// Seals `plaintext` so only an enclave with the same measurement on the same
    /// platform can recover it.
    pub fn seal(
        &self,
        label: &str,
        nonce: Nonce,
        plaintext: &[u8],
    ) -> Result<SealedBlob, TeeError> {
        self.ensure_alive()?;
        Ok(SealedBlob::seal(
            &self.platform_secret,
            &self.measurement,
            label,
            nonce,
            plaintext,
        ))
    }

    /// Unseals a blob previously produced by [`Enclave::seal`] on this platform with
    /// this measurement.
    // recipe-lint: allow(pub-unreached, reason = "sealed storage is the recovery path ROADMAP item 4 wires up; until then only this crate's tests unseal")
    pub fn unseal(&self, blob: &SealedBlob) -> Result<Vec<u8>, TeeError> {
        self.ensure_alive()?;
        blob.unseal(&self.platform_secret, &self.measurement)
    }
}

impl fmt::Debug for Enclave {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Enclave")
            .field("id", &self.id)
            .field("measurement", &self.measurement.digest().short_hex())
            .field("crashed", &self.crashed)
            .field("channels", &self.channel_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::LABEL_CAPACITY;
    use rand::SeedableRng;
    use recipe_crypto::MacTag;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(1)
    }

    fn enclave() -> Enclave {
        Enclave::launch(EnclaveId(1), EnclaveConfig::new("raft-replica-v1", 10))
    }

    /// The block the tests' channels are bound to.
    const BLOCK: [u8; MAC_BLOCK_LEN] = [0x5A; MAC_BLOCK_LEN];

    /// The tag of `frame` on the channel `handle` names, readied for it as
    /// a frame is.
    fn tag_of(e: &mut Enclave, handle: ChannelHandle) -> MacTag {
        e.bind_channel(handle, &BLOCK, None).unwrap();
        let mut stream = e.channel_key(handle).unwrap().stream();
        stream.update(b"frame");
        stream.tag()
    }

    /// The tag `key` gives the same message, unbound.
    fn tag_under(key: &MacKey) -> MacTag {
        key.tag(&[&BLOCK[..], b"frame"].concat())
    }

    fn label(i: u64) -> String {
        format!("cq:{i}->{}", i + 1)
    }

    fn key(i: u64) -> MacKey {
        MacKey::from_bytes([i as u8; 32])
    }

    #[test]
    fn launch_measures_code_identity() {
        let e = enclave();
        assert_eq!(
            e.config().measurement(),
            Measurement::of_code("raft-replica-v1")
        );
        assert!(!e.is_crashed());
    }

    #[test]
    fn attestation_quote_verifies_against_vendor_key() {
        let mut e = enclave();
        let nonce = Nonce::from_u128(77);
        let report = e.attest(nonce, &mut rng()).unwrap();
        let quote = e.generate_quote(report).unwrap();
        let expected = Measurement::of_code("raft-replica-v1");
        assert!(quote
            .verify(&e.platform_vendor_key(), &expected, &nonce)
            .is_ok());
    }

    #[test]
    fn key_exchange_agrees_with_challenger() {
        let mut e = enclave();
        let mut r = rng();
        let report = e.attest(Nonce::from_u128(1), &mut r).unwrap();
        let challenger = EphemeralSecret::generate(&mut r);
        let enclave_side = e
            .complete_key_exchange(&challenger.public())
            .unwrap()
            .derive_mac_key("provisioning");
        let challenger_side = challenger
            .derive_shared(&KxPublic::try_from_slice(&report.kx_public).unwrap())
            .derive_mac_key("provisioning");
        assert_eq!(enclave_side, challenger_side);
    }

    #[test]
    fn key_exchange_requires_prior_attest() {
        let e = enclave();
        let mut r = rng();
        let challenger = EphemeralSecret::generate(&mut r);
        assert!(matches!(
            e.complete_key_exchange(&challenger.public()),
            Err(TeeError::MissingSecret { .. })
        ));
    }

    #[test]
    fn secrets_are_label_scoped() {
        let mut e = enclave();
        let key = MacKey::from_bytes([1u8; 32]);
        e.provision_mac_key("cq:0->1", key.clone()).unwrap();
        let handle = e.channel_handle("cq:0->1").unwrap();
        assert_eq!(tag_of(&mut e, handle), tag_under(&key));
        assert!(matches!(
            e.channel_handle("cq:0->2"),
            Err(TeeError::MissingSecret { .. })
        ));
    }

    #[test]
    fn an_unprovisioned_label_gets_no_slot() {
        let mut e = enclave();
        e.provision_mac_key("cq:0->1", key(1)).unwrap();
        e.provision_cipher_key(CIPHER_LABEL, CipherKey::from_bytes([2u8; 32]))
            .unwrap();
        // Asking for a channel — the other direction, a made-up peer, the
        // cipher's label — finds nothing and makes nothing.
        for label in ["cq:1->0", "cq:0->2", CIPHER_LABEL] {
            assert!(matches!(
                e.channel_handle(label),
                Err(TeeError::MissingSecret { .. })
            ));
        }
        assert_eq!((e.channel_count(), e.channels.len()), (1, 1));
    }

    #[test]
    fn the_longest_channel_label_fits_and_one_byte_more_is_refused() {
        let mut e = enclave();
        let worst = format!("cq:{}->{}", u64::MAX, u64::MAX);
        assert_eq!(worst.len(), LABEL_CAPACITY);
        assert_eq!(Label::new(&worst).unwrap().as_str(), worst);
        let key = MacKey::from_bytes([4u8; 32]);
        e.provision_mac_key(&worst, key.clone()).unwrap();
        let handle = e.channel_handle(&worst).unwrap();
        assert_eq!(tag_of(&mut e, handle), tag_under(&key));
        e.provision_cipher_key(&worst, CipherKey::from_bytes([5u8; 32]))
            .unwrap();
        assert!(e.derive_cipher_key(&worst, &[b"x"]).is_ok());

        // Refused, not cut short to the label above, and nothing grows.
        let over = format!("{worst}0");
        let too_long = Err(TeeError::LabelTooLong {
            len: LABEL_CAPACITY + 1,
        });
        let tables = |e: &Enclave| (e.channel_count(), e.channels.len(), e.ciphers.len());
        let before = tables(&e);
        assert_eq!(e.provision_mac_key(&over, key), too_long);
        assert_eq!(
            e.provision_cipher_key(over.as_str(), CipherKey::from_bytes([6u8; 32])),
            too_long
        );
        assert_eq!(e.channel_handle(&over).map(|_| ()), too_long);
        assert_eq!(tables(&e), before);
        assert_eq!(
            Label::format(format_args!("{worst}{}", 0)).map(|_| ()),
            too_long
        );
    }

    #[test]
    fn an_equal_label_replaces_in_place_whether_string_or_str() {
        let mut e = enclave();
        e.provision_mac_key("cq:0->1", key(1)).unwrap();
        e.provision_mac_key("cq:1->0", key(2)).unwrap();
        let handle = e.channel_handle("cq:0->1").unwrap();
        e.provision_mac_key(String::from("cq:0->1"), key(3))
            .unwrap();
        assert_eq!(e.channel_handle("cq:0->1"), Ok(handle));
        assert_eq!(tag_of(&mut e, handle), tag_under(&key(3)));
        e.provision_mac_key("cq:0->1", key(4)).unwrap();
        assert_eq!(e.channel_handle("cq:0->1"), Ok(handle));
        assert_eq!(tag_of(&mut e, handle), tag_under(&key(4)));
        assert_eq!(e.channel_count(), 2);
    }

    #[test]
    fn handles_stay_valid_as_the_table_grows_past_several_pages() {
        let mut e = enclave();
        e.provision_mac_key(label(0), key(0)).unwrap();
        let first_page = e.channels[0].as_ptr();
        let channels = 5 * CHANNEL_PAGE as u64 + 1;
        let mut handles = Vec::new();
        for i in 0..channels {
            e.provision_mac_key(label(i), key(i)).unwrap();
            let handle = e.channel_handle(&label(i)).unwrap();
            e.counter_mut(handle).unwrap().advance_to(i + 1).unwrap();
            handles.push(handle);
        }
        // Six pages, each allocated at its size; the first never moved.
        assert_eq!(e.channels.len(), 6);
        assert!(e.channels.iter().all(|p| p.capacity() == CHANNEL_PAGE));
        assert!(std::ptr::eq(e.channels[0].as_ptr(), first_page));
        for (i, &handle) in (0..).zip(&handles) {
            assert_eq!(e.channel_handle(&label(i)), Ok(handle));
            assert_eq!(e.counter_value(handle), Ok(i + 1));
            assert_eq!(tag_of(&mut e, handle), tag_under(&key(i)));
        }

        // A handle this enclave never issued names nothing, past its last
        // slot or in another enclave.
        let past = ChannelHandle(channels as u32);
        let mut other = enclave();
        for (e, handle) in [(&mut e, past), (&mut other, handles[0])] {
            let missing = |r: Result<(), TeeError>| {
                assert!(matches!(r, Err(TeeError::MissingSecret { .. })));
            };
            missing(e.counter_value(handle).map(|_| ()));
            missing(e.counter_mut(handle).map(|_| ()));
            missing(e.bind_channel(handle, &BLOCK, None).map(|_| ()));
            missing(e.channel_key(handle).map(|_| ()));
            missing(e.channel_cipher(handle).map(|_| ()));
        }
    }

    #[test]
    fn a_bound_channel_reprovisioned_in_a_later_page_binds_the_new_key_only() {
        let mut e = enclave();
        for i in 0..2 * CHANNEL_PAGE as u64 + 2 {
            e.provision_mac_key(label(i), key(i)).unwrap();
        }
        let late = e.channel_handle(&label(9)).unwrap();
        let beside = e.channel_handle(&label(8)).unwrap();
        assert_eq!(late.0 as usize / CHANNEL_PAGE, 2);
        assert_eq!(tag_of(&mut e, late), tag_under(&key(9)));
        e.counter_mut(late).unwrap().increment();
        // One channel's binding is not another's.
        assert!(e.channel_key(beside).is_err());

        let rotated = MacKey::from_bytes([0xEE; 32]);
        e.provision_mac_key(label(9), rotated.clone()).unwrap();
        // Unbound until its next frame readies it: nothing is MAC'd under
        // the old key in between.
        assert!(matches!(
            e.channel_key(late),
            Err(TeeError::MissingSecret { .. })
        ));
        let tag = tag_of(&mut e, late);
        assert_eq!(tag, tag_under(&rotated));
        assert_ne!(tag, tag_under(&key(9)));
        // The handle, the counter and the channel beside it stay.
        assert_eq!(e.channel_handle(&label(9)), Ok(late));
        assert_eq!(e.counter_value(late), Ok(1));
        assert_eq!(tag_of(&mut e, beside), tag_under(&key(8)));
    }

    #[test]
    fn counters_are_independent_per_channel_and_never_go_back() {
        let mut e = enclave();
        for label in ["cq:0->1", "cq:0->2"] {
            e.provision_mac_key(label, key(1)).unwrap();
        }
        let to_1 = e.channel_handle("cq:0->1").unwrap();
        let to_2 = e.channel_handle("cq:0->2").unwrap();
        assert_ne!(to_1, to_2);
        assert_eq!(e.counter_value(to_1), Ok(0));
        assert_eq!(e.counter_mut(to_1).unwrap().increment(), 1);
        // Readying a channel for a frame hands out the same counter.
        assert_eq!(e.bind_channel(to_1, &BLOCK, None).unwrap().increment(), 2);
        assert_eq!(e.counter_mut(to_2).unwrap().increment(), 1);
        e.counter_mut(to_2).unwrap().advance_to(40).unwrap();
        assert_eq!(e.counter_value(to_1), Ok(2));
        assert_eq!(e.counter_value(to_2), Ok(40));

        // No counter goes back: not by a regression, and not when its
        // label is provisioned again.
        assert!(e.counter_mut(to_1).unwrap().advance_to(1).is_err());
        e.provision_mac_key("cq:0->1", key(2)).unwrap();
        assert_eq!(e.counter_value(to_1), Ok(2));
        assert_eq!(e.counter_value(to_2), Ok(40));
    }

    #[test]
    fn signing_key_installation() {
        let mut e = enclave();
        assert!(e.signing_key().is_err());
        e.install_signing_key(SigningKeyPair::generate_from_seed(5))
            .unwrap();
        assert!(e.signing_key().is_ok());
    }

    #[test]
    fn cipher_provisioning() {
        let mut e = enclave();
        e.provision_mac_key("cq:0->1", key(1)).unwrap();
        let channel = e.channel_handle("cq:0->1").unwrap();
        // No cipher key: a sealed frame readies nothing.
        assert!(matches!(
            e.bind_channel(channel, &BLOCK, Some(&[1; 16])),
            Err(TeeError::MissingSecret { .. })
        ));
        let parent = CipherKey::from_bytes([2u8; 32]);
        e.provision_cipher_key(CIPHER_LABEL, parent.clone())
            .unwrap();
        e.bind_channel(channel, &BLOCK, Some(&[1; 16])).unwrap();
        let (_, commitment) = e.channel_cipher(channel).unwrap();
        assert_eq!(commitment, Cipher::new(&parent).key_commitment());
        // Built once and handed out, not rebuilt per call.
        assert!(std::ptr::eq(
            commitment,
            e.channel_cipher(channel).unwrap().1
        ));
        // Sub-keys come from the provisioned key, under its label only.
        assert_eq!(
            e.derive_cipher_key(CIPHER_LABEL, &[b"store", b"7"])
                .unwrap(),
            parent.derive(&[b"store", b"7"])
        );
        assert!(matches!(
            e.derive_cipher_key("other", &[b"store", b"7"]),
            Err(TeeError::MissingSecret { .. })
        ));
    }

    #[test]
    fn a_bound_cipher_follows_the_key_under_its_label() {
        let mut e = enclave();
        for label in ["cq:a->b", "cq:b->a"] {
            e.provision_mac_key(label, key(1)).unwrap();
        }
        let (ab, ba) = (
            e.channel_handle("cq:a->b").unwrap(),
            e.channel_handle("cq:b->a").unwrap(),
        );
        let key = CipherKey::from_bytes([2u8; 32]);
        e.provision_cipher_key(CIPHER_LABEL, key.clone()).unwrap();
        // A frame in plaintext binds no cipher.
        e.bind_channel(ab, &BLOCK, None).unwrap();
        assert!(e.channel_cipher(ab).is_err());

        let (p_ab, p_ba) = ([1; 16], [2; 16]);
        let keystream = |e: &mut Enclave, handle, prefix: &[u8; 16]| {
            e.bind_channel(handle, &BLOCK, Some(prefix)).unwrap();
            let mut data = [0u8; 100];
            let (cipher, _) = e.channel_cipher(handle).unwrap();
            cipher.apply_keystream(&[7; 8], &mut data);
            data
        };
        let expected = |key: &CipherKey, prefix: &[u8; 16]| {
            let mut data = [0u8; 100];
            let nonce: [u8; 24] = core::array::from_fn(|i| if i < 16 { prefix[i] } else { 7 });
            Cipher::new(key).apply_keystream(&nonce, &mut data);
            data
        };
        assert_eq!(keystream(&mut e, ab, &p_ab), expected(&key, &p_ab));
        assert_eq!(keystream(&mut e, ba, &p_ba), expected(&key, &p_ba));

        // Rotation unbinds every channel's cipher, under the handles issued
        // before it; each channel's next sealed frame binds the new key's.
        let rotated = CipherKey::from_bytes([5u8; 32]);
        e.provision_cipher_key(CIPHER_LABEL, rotated.clone())
            .unwrap();
        assert!(e.channel_cipher(ab).is_err() && e.channel_cipher(ba).is_err());
        assert_eq!(keystream(&mut e, ab, &p_ab), expected(&rotated, &p_ab));
        assert_eq!(keystream(&mut e, ba, &p_ba), expected(&rotated, &p_ba));
        assert_eq!(
            e.channel_cipher(ab).unwrap().1,
            Cipher::new(&rotated).key_commitment()
        );

        // A cipher key under another label leaves the channels' alone.
        e.provision_cipher_key("other", CipherKey::from_bytes([6u8; 32]))
            .unwrap();
        e.provision_cipher_key("other", CipherKey::from_bytes([7u8; 32]))
            .unwrap();
        assert_eq!(keystream(&mut e, ab, &p_ab), expected(&rotated, &p_ab));
    }

    #[test]
    fn sealing_roundtrip_and_cross_enclave_rejection() {
        let e = enclave();
        let blob = e.seal("state", Nonce::from_u128(9), b"log tail").unwrap();
        assert_eq!(e.unseal(&blob).unwrap(), b"log tail");

        // Same platform, different code → different measurement → unseal fails.
        let other = Enclave::launch(EnclaveId(2), EnclaveConfig::new("different-code", 10));
        assert_eq!(other.unseal(&blob), Err(TeeError::UnsealFailed));
    }

    #[test]
    fn crashed_enclave_refuses_everything() {
        let mut e = enclave();
        e.provision_mac_key("cq", MacKey::from_bytes([1u8; 32]))
            .unwrap();
        e.provision_cipher_key(CIPHER_LABEL, CipherKey::from_bytes([2u8; 32]))
            .unwrap();
        let channel = e.channel_handle("cq").unwrap();
        e.bind_channel(channel, &BLOCK, Some(&[0; 16])).unwrap();
        e.crash();
        assert!(e.is_crashed());
        let crashed = |r: Result<(), TeeError>| assert_eq!(r, Err(TeeError::EnclaveCrashed));
        crashed(e.attest(Nonce::from_u128(1), &mut rng()).map(|_| ()));
        crashed(e.provision_mac_key("cq", MacKey::from_bytes([3u8; 32])));
        crashed(e.provision_cipher_key(CIPHER_LABEL, CipherKey::from_bytes([4u8; 32])));
        crashed(e.derive_cipher_key(CIPHER_LABEL, &[b"x"]).map(|_| ()));
        // Handles resolved while it was alive are refused like labels are.
        crashed(e.channel_handle("cq").map(|_| ()));
        crashed(e.bind_channel(channel, &BLOCK, None).map(|_| ()));
        crashed(e.channel_key(channel).map(|_| ()));
        crashed(e.channel_cipher(channel).map(|_| ()));
        crashed(e.counter_mut(channel).map(|_| ()));
        crashed(e.counter_value(channel).map(|_| ()));
        crashed(e.seal("s", Nonce::from_u128(1), b"x").map(|_| ()));
    }

    #[test]
    fn debug_output_omits_secrets() {
        let mut e = enclave();
        e.provision_mac_key("cq", MacKey::from_bytes([0xAB; 32]))
            .unwrap();
        let text = format!("{e:?}");
        assert!(!text.contains("ab, ab"));
        assert!(text.contains("Enclave"));
        assert!(text.contains("channels: 1 }"));
    }
}
