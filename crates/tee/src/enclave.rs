//! The simulated enclave.
//!
//! An [`Enclave`] is the per-node trusted computing base: it owns every secret a
//! Recipe replica uses (channel MAC keys, signing keys, cipher keys) and its
//! trusted monotonic counters. Code "inside" the enclave is simply code that holds
//! the `Enclave` handle; the untrusted host side of a node never receives one,
//! mirroring the SGX isolation boundary in the type system rather than in
//! hardware.

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

/// A cipher bound to a nonce prefix ([`Enclave::bind_cipher`]), beside the
/// cipher slot it was bound from and the prefix. The sub-key decrypts like
/// the key does, so it is made, kept and — when the cipher's label is
/// provisioned again — remade in here.
struct BoundCipherSlot {
    slot: usize,
    prefix: [u8; 16],
    cipher: BoundCipher,
}

/// A provisioned channel MAC key and, once the channel is in use, its bound
/// form: the key with the channel's block hashed in
/// ([`Enclave::bind_mac_key`]). The bound state forges like the key does, so
/// it is made, kept and — when the label is provisioned again — remade in
/// here, from the block kept beside it. The label is held inline, so a
/// channel's keys take their table slot and no other memory.
struct MacSlot {
    label: Label,
    key: MacKey,
    bound: Option<(BoundMacKey, [u8; MAC_BLOCK_LEN])>,
}

/// A MAC key's position in the enclave that provisioned it: the per-frame
/// code resolves a channel label once ([`Enclave::mac_key_handle`]) and
/// indexes from then on. A handle stays valid for the life of its enclave —
/// keys are replaced in place, never removed — and means nothing to another.
/// Handles are four bytes, so a channel record holding three of them — key,
/// counter and bound cipher — is two registers wide: at 24 bytes the
/// plaintext frame path read 5 % slower.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyHandle(u32);

/// A trusted counter's position in its enclave (see [`KeyHandle`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterHandle(u32);

/// A bound cipher's position in its enclave ([`Enclave::bind_cipher`]; see
/// [`KeyHandle`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CipherHandle(u32);

/// Refuses to grow a table handles index past what four bytes hold: 2³²
/// entries are hundreds of gigabytes, where the EPC has long run out. So
/// every index a handle is made from fits ([`handle_of`]).
fn room_for_one_more<T>(table: &[T]) -> Result<(), TeeError> {
    if table.len() < u32::MAX as usize {
        Ok(())
    } else {
        Err(TeeError::EpcExhausted {
            requested: std::mem::size_of::<T>(),
            available: 0,
        })
    }
}

/// `index` as a handle's four bytes — lossless, as no table grows past
/// [`room_for_one_more`].
fn handle_of(index: usize) -> u32 {
    index as u32
}

/// A per-node simulated enclave.
pub struct Enclave {
    id: EnclaveId,
    config: EnclaveConfig,
    measurement: Measurement,
    hardware_key: HardwareKey,
    platform_secret: MacKey,
    crashed: bool,

    // Secrets provisioned after attestation. Reachable only through this handle.
    // Channel keys sit in provisioning order beside their labels, so a
    // `KeyHandle` is an index; a label is looked up by scanning, which only
    // provisioning, attestation and a channel's first frame do.
    mac_keys: Vec<MacSlot>,
    // Cipher keys in provisioning order beside their labels, like the MAC
    // keys, and the ciphers bound from them in binding order: a
    // `CipherHandle` indexes the latter.
    ciphers: Vec<CipherSlot>,
    bound_ciphers: Vec<BoundCipherSlot>,
    signing_key: Option<SigningKeyPair>,

    // Ephemeral key-exchange secret generated during attestation.
    kx_secret: Option<EphemeralSecret>,

    // Trusted monotonic counters beside their channel labels
    // (`send:cq:src->dst`, `recv:cq:src->dst`), in creation order: a
    // `CounterHandle` is an index. Labels are inline, so a counter is its
    // slot and nothing on the heap.
    counters: Vec<(Label, TrustedCounter)>,
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
            mac_keys: Vec::new(),
            ciphers: Vec::new(),
            bound_ciphers: Vec::new(),
            signing_key: None,
            kx_secret: None,
            counters: Vec::new(),
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
    /// handles to it stay good, and with its bound form remade from the new
    /// key — a key already provisioned there. A label longer than a
    /// [`Label`] holds is refused.
    pub fn provision_mac_key(
        &mut self,
        label: impl AsRef<str>,
        key: MacKey,
    ) -> Result<(), TeeError> {
        self.ensure_alive()?;
        let label = Label::new(label.as_ref())?;
        match self.mac_keys.iter_mut().find(|slot| slot.label == label) {
            Some(slot) => {
                if let Some((bound, block)) = &mut slot.bound {
                    *bound = key.bind(block);
                }
                slot.key = key;
            }
            None => {
                room_for_one_more(&self.mac_keys)?;
                self.mac_keys.push(MacSlot {
                    label,
                    key,
                    bound: None,
                });
            }
        }
        Ok(())
    }

    /// Resolves the MAC key provisioned under `label` to its handle.
    pub fn mac_key_handle(&self, label: &str) -> Result<KeyHandle, TeeError> {
        self.ensure_alive()?;
        let wanted = Label::new(label)?;
        self.mac_keys
            .iter()
            .position(|slot| slot.label == wanted)
            .map(|index| KeyHandle(handle_of(index)))
            .ok_or_else(|| TeeError::MissingSecret {
                label: label.to_owned(),
            })
    }

    /// Binds the MAC key `handle` was resolved for to `block`, the 64 bytes
    /// every message on its channel starts with ([`MacKey::bind`]): one
    /// compression now, one fewer for every message MAC'd through
    /// [`Enclave::bound_mac_key_at`] afterwards. Binding again to the same
    /// block does nothing; to another block, replaces it.
    pub fn bind_mac_key(
        &mut self,
        handle: KeyHandle,
        block: &[u8; MAC_BLOCK_LEN],
    ) -> Result<(), TeeError> {
        self.ensure_alive()?;
        let slot =
            self.mac_keys
                .get_mut(handle.0 as usize)
                .ok_or_else(|| TeeError::MissingSecret {
                    label: format!("mac key #{}", handle.0),
                })?;
        if !matches!(&slot.bound, Some((_, held)) if held == block) {
            slot.bound = Some((slot.key.bind(block), *block));
        }
        Ok(())
    }

    /// Returns the bound form of the MAC key `handle` was resolved for — of
    /// the key provisioned under its label now, not when it was bound.
    pub fn bound_mac_key_at(&self, handle: KeyHandle) -> Result<&BoundMacKey, TeeError> {
        self.ensure_alive()?;
        self.mac_keys
            .get(handle.0 as usize)
            .and_then(|slot| slot.bound.as_ref())
            .map(|(bound, _)| bound)
            .ok_or_else(|| TeeError::MissingSecret {
                label: format!("bound mac key #{}", handle.0),
            })
    }

    /// Returns the MAC key provisioned under `label`.
    pub fn mac_key(&self, label: &str) -> Result<&MacKey, TeeError> {
        self.mac_key_at(self.mac_key_handle(label)?)
    }

    /// Returns the MAC key `handle` was resolved for.
    pub(crate) fn mac_key_at(&self, handle: KeyHandle) -> Result<&MacKey, TeeError> {
        self.ensure_alive()?;
        self.mac_keys
            .get(handle.0 as usize)
            .map(|slot| &slot.key)
            .ok_or_else(|| TeeError::MissingSecret {
                label: format!("mac key #{}", handle.0),
            })
    }

    /// Installs a cipher key under `label` (confidentiality mode), replacing
    /// — in place, so handles to it stay good, and with every cipher bound
    /// from it remade from the new key — a key already provisioned there. A
    /// label longer than a [`Label`] holds is refused.
    pub fn provision_cipher_key(
        &mut self,
        label: impl AsRef<str>,
        key: CipherKey,
    ) -> Result<(), TeeError> {
        self.ensure_alive()?;
        let label = Label::new(label.as_ref())?;
        match self.ciphers.iter().position(|slot| slot.label == label) {
            Some(index) => {
                let slot = &mut self.ciphers[index];
                slot.key = key;
                slot.cipher = OnceLock::new();
                let slot = &self.ciphers[index];
                for bound in self.bound_ciphers.iter_mut().filter(|b| b.slot == index) {
                    bound.cipher = slot.cipher().bind(&bound.prefix);
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

    fn cipher_slot(&self, label: &str) -> Result<usize, TeeError> {
        let wanted = Label::new(label)?;
        self.ciphers
            .iter()
            .position(|slot| slot.label == wanted)
            .ok_or_else(|| TeeError::MissingSecret {
                label: label.to_owned(),
            })
    }

    /// Binds the cipher provisioned under `label` to `prefix`, the first 16
    /// nonce bytes of every message on one channel ([`Cipher::bind`]): one
    /// HChaCha20 now, none for every message sealed or opened through
    /// [`Enclave::bound_cipher_at`] afterwards. Binding again to a prefix
    /// already bound resolves to the cipher bound then.
    pub fn bind_cipher(
        &mut self,
        label: &str,
        prefix: &[u8; 16],
    ) -> Result<CipherHandle, TeeError> {
        self.ensure_alive()?;
        let slot = self.cipher_slot(label)?;
        let held = self
            .bound_ciphers
            .iter()
            .position(|bound| bound.slot == slot && bound.prefix == *prefix);
        let index = match held {
            Some(index) => index,
            None => {
                room_for_one_more(&self.bound_ciphers)?;
                let cipher = self.ciphers[slot].cipher().bind(prefix);
                self.bound_ciphers.push(BoundCipherSlot {
                    slot,
                    prefix: *prefix,
                    cipher,
                });
                self.bound_ciphers.len() - 1
            }
        };
        Ok(CipherHandle(handle_of(index)))
    }

    /// Returns the cipher `handle` was bound for — from the key provisioned
    /// under its label now, not when it was bound — and that key's
    /// commitment ([`Cipher::key_commitment`]).
    pub fn bound_cipher_at(
        &self,
        handle: CipherHandle,
    ) -> Result<(&BoundCipher, &KeyCommitment), TeeError> {
        self.ensure_alive()?;
        let bound =
            self.bound_ciphers
                .get(handle.0 as usize)
                .ok_or_else(|| TeeError::MissingSecret {
                    label: format!("bound cipher #{}", handle.0),
                })?;
        let commitment = self.ciphers[bound.slot].cipher().key_commitment();
        Ok((&bound.cipher, commitment))
    }

    /// Derives a sub-key of the cipher key provisioned under `label`
    /// ([`CipherKey::derive`]); the provisioned key itself never leaves the
    /// enclave.
    pub fn derive_cipher_key(&self, label: &str, parts: &[&[u8]]) -> Result<CipherKey, TeeError> {
        self.ensure_alive()?;
        Ok(self.ciphers[self.cipher_slot(label)?].key.derive(parts))
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

    /// Resolves the trusted counter for `channel` to its handle, creating the
    /// counter at zero on first use. This is the only way a counter comes to
    /// exist, so callers decide what deserves one before asking. A label
    /// longer than a [`Label`] holds is refused.
    pub fn counter_handle(&mut self, channel: &str) -> Result<CounterHandle, TeeError> {
        self.ensure_alive()?;
        let channel = Label::new(channel)?;
        let index = match self.counters.iter().position(|(held, _)| *held == channel) {
            Some(index) => index,
            None => {
                room_for_one_more(&self.counters)?;
                self.counters.push((channel, TrustedCounter::default()));
                self.counters.len() - 1
            }
        };
        Ok(CounterHandle(handle_of(index)))
    }

    /// Number of trusted counters that exist (for diagnostics and tests).
    pub fn counter_count(&self) -> usize {
        self.counters.len()
    }

    /// Returns a mutable reference to the trusted counter `handle` was
    /// resolved for.
    pub fn counter_mut(&mut self, handle: CounterHandle) -> Result<&mut TrustedCounter, TeeError> {
        self.ensure_alive()?;
        self.counters
            .get_mut(handle.0 as usize)
            .map(|(_, counter)| counter)
            .ok_or_else(|| TeeError::MissingSecret {
                label: format!("counter #{}", handle.0),
            })
    }

    /// Returns the current value of the trusted counter `handle` was resolved
    /// for.
    pub fn counter_value(&self, handle: CounterHandle) -> Result<u64, TeeError> {
        self.ensure_alive()?;
        self.counters
            .get(handle.0 as usize)
            .map(|(_, counter)| counter.current())
            .ok_or_else(|| TeeError::MissingSecret {
                label: format!("counter #{}", handle.0),
            })
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
            .field("channels", &self.mac_keys.len())
            .field("counters", &self.counters.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(1)
    }

    fn enclave() -> Enclave {
        Enclave::launch(EnclaveId(1), EnclaveConfig::new("raft-replica-v1", 10))
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
        assert_eq!(e.mac_key("cq:0->1").unwrap(), &key);
        assert!(matches!(
            e.mac_key("cq:0->2"),
            Err(TeeError::MissingSecret { .. })
        ));
    }

    #[test]
    fn the_longest_channel_label_fits_and_one_byte_more_is_refused() {
        let mut e = enclave();
        let channel = format!("cq:{}->{}", u64::MAX, u64::MAX);
        let worst = format!("recv:{channel}");
        assert_eq!(worst.len(), crate::label::LABEL_CAPACITY);
        assert_eq!(Label::new(&worst).unwrap().as_str(), worst);
        let key = MacKey::from_bytes([4u8; 32]);
        e.provision_mac_key(&worst, key.clone()).unwrap();
        assert_eq!(e.mac_key(&worst).unwrap(), &key);
        let counter = e.counter_handle(&worst).unwrap();
        assert_eq!(e.counter_mut(counter).unwrap().increment(), 1);
        assert_eq!(e.counter_handle(&worst), Ok(counter));
        e.provision_cipher_key(&worst, CipherKey::from_bytes([5u8; 32]))
            .unwrap();
        assert!(e.derive_cipher_key(&worst, &[b"x"]).is_ok());

        // Refused, not cut short to the label above, and no table grows.
        let over = format!("{worst}0");
        let too_long = Err(TeeError::LabelTooLong {
            len: crate::label::LABEL_CAPACITY + 1,
        });
        let tables = |e: &Enclave| (e.mac_keys.len(), e.ciphers.len(), e.counters.len());
        let before = tables(&e);
        assert_eq!(e.provision_mac_key(&over, key), too_long);
        assert_eq!(
            e.provision_cipher_key(over.as_str(), CipherKey::from_bytes([6u8; 32])),
            too_long
        );
        assert_eq!(e.counter_handle(&over).map(|_| ()), too_long);
        assert_eq!(e.mac_key_handle(&over).map(|_| ()), too_long);
        assert_eq!(tables(&e), before);
        assert_eq!(
            Label::format(format_args!("recv:{channel}{}", 0)).map(|_| ()),
            too_long
        );
    }

    #[test]
    fn an_equal_label_replaces_in_place_whether_string_or_str() {
        let mut e = enclave();
        e.provision_mac_key("cq:0->1", MacKey::from_bytes([1u8; 32]))
            .unwrap();
        e.provision_mac_key("cq:1->0", MacKey::from_bytes([2u8; 32]))
            .unwrap();
        let handle = e.mac_key_handle("cq:0->1").unwrap();
        let rotated = MacKey::from_bytes([3u8; 32]);
        e.provision_mac_key(String::from("cq:0->1"), rotated.clone())
            .unwrap();
        assert_eq!(e.mac_key_handle("cq:0->1"), Ok(handle));
        assert_eq!(e.mac_key_at(handle).unwrap(), &rotated);
        let again = MacKey::from_bytes([4u8; 32]);
        e.provision_mac_key("cq:0->1", again.clone()).unwrap();
        assert_eq!(e.mac_key_handle("cq:0->1"), Ok(handle));
        assert_eq!(e.mac_key_at(handle).unwrap(), &again);
        assert_eq!(e.mac_keys.len(), 2);
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
        assert!(e.bind_cipher("values", &[1; 16]).is_err());
        let parent = CipherKey::from_bytes([2u8; 32]);
        e.provision_cipher_key("values", parent.clone()).unwrap();
        let handle = e.bind_cipher("values", &[1; 16]).unwrap();
        let (_, commitment) = e.bound_cipher_at(handle).unwrap();
        assert_eq!(commitment, Cipher::new(&parent).key_commitment());
        // Built once and handed out, not rebuilt per call.
        assert!(std::ptr::eq(
            commitment,
            e.bound_cipher_at(handle).unwrap().1
        ));
        // Sub-keys come from the provisioned key, under its label only.
        assert_eq!(
            e.derive_cipher_key("values", &[b"store", b"7"]).unwrap(),
            parent.derive(&[b"store", b"7"])
        );
        assert!(matches!(
            e.derive_cipher_key("other", &[b"store", b"7"]),
            Err(TeeError::MissingSecret { .. })
        ));
    }

    #[test]
    fn counters_are_per_channel_and_persistent() {
        let mut e = enclave();
        let to_1 = e.counter_handle("cq:0->1").unwrap();
        assert_eq!(e.counter_value(to_1), Ok(0));
        assert_eq!(e.counter_mut(to_1).unwrap().increment(), 1);
        assert_eq!(e.counter_mut(to_1).unwrap().increment(), 2);
        let to_2 = e.counter_handle("cq:0->2").unwrap();
        assert_ne!(to_1, to_2);
        assert_eq!(e.counter_mut(to_2).unwrap().increment(), 1);
        // Asking again resolves to the same counter, not a fresh one.
        assert_eq!(e.counter_handle("cq:0->1"), Ok(to_1));
        assert_eq!(e.counter_value(to_1), Ok(2));
        assert_eq!(e.counter_value(to_2), Ok(1));
    }

    #[test]
    fn a_handle_only_ever_yields_its_own_label() {
        let mut e = enclave();
        let key_ab = MacKey::from_bytes([1u8; 32]);
        e.provision_mac_key("cq:a->b", key_ab.clone()).unwrap();
        let ab = e.mac_key_handle("cq:a->b").unwrap();
        let ab_counter = e.counter_handle("send:cq:a->b").unwrap();
        e.counter_mut(ab_counter).unwrap().increment();

        // Later provisioning and other channels' counters leave it where it is.
        for (i, label) in ["cq:b->a", "cq:a->c", "cq:c->a"].into_iter().enumerate() {
            e.provision_mac_key(label, MacKey::from_bytes([10 + i as u8; 32]))
                .unwrap();
            let other = e.counter_handle(&format!("send:{label}")).unwrap();
            assert_ne!(other, ab_counter);
            e.counter_mut(other).unwrap().advance_to(40).unwrap();
            assert_ne!(e.mac_key_handle(label).unwrap(), ab);
        }
        assert_eq!(e.mac_key_at(ab).unwrap(), &key_ab);
        assert_eq!(e.mac_key_handle("cq:a->b"), Ok(ab));
        assert_eq!(e.counter_value(ab_counter), Ok(1));

        // Re-provisioning the label replaces the key under the same handle.
        let rotated = MacKey::from_bytes([2u8; 32]);
        e.provision_mac_key("cq:a->b", rotated.clone()).unwrap();
        assert_eq!(e.mac_key_handle("cq:a->b"), Ok(ab));
        assert_eq!(e.mac_key_at(ab).unwrap(), &rotated);
        // It was never bound, and stays so.
        assert!(matches!(
            e.bound_mac_key_at(ab),
            Err(TeeError::MissingSecret { .. })
        ));

        // A handle this enclave never issued names nothing.
        let mut other = enclave();
        assert!(matches!(
            other.mac_key_at(ab),
            Err(TeeError::MissingSecret { .. })
        ));
        assert!(matches!(
            other.counter_mut(ab_counter),
            Err(TeeError::MissingSecret { .. })
        ));
        assert!(matches!(
            other.counter_value(ab_counter),
            Err(TeeError::MissingSecret { .. })
        ));
    }

    #[test]
    fn a_bound_key_follows_the_key_under_its_label() {
        let mut e = enclave();
        let key = MacKey::from_bytes([1u8; 32]);
        e.provision_mac_key("cq:a->b", key.clone()).unwrap();
        e.provision_mac_key("cq:b->a", MacKey::from_bytes([3u8; 32]))
            .unwrap();
        let ab = e.mac_key_handle("cq:a->b").unwrap();
        let ba = e.mac_key_handle("cq:b->a").unwrap();
        let block = [0x5A; MAC_BLOCK_LEN];
        let tag_of = |e: &Enclave, handle| {
            let mut stream = e.bound_mac_key_at(handle).unwrap().stream();
            stream.update(b"frame");
            stream.tag()
        };
        let unbound_tag = |key: &MacKey, block: &[u8]| key.tag(&[block, b"frame"].concat());

        e.bind_mac_key(ab, &block).unwrap();
        assert_eq!(tag_of(&e, ab), unbound_tag(&key, &block));
        // One key's binding is not another's.
        assert!(e.bound_mac_key_at(ba).is_err());

        // Rotation reaches the bound state, under the block it was bound to.
        let rotated = MacKey::from_bytes([2u8; 32]);
        e.provision_mac_key("cq:a->b", rotated.clone()).unwrap();
        assert_eq!(tag_of(&e, ab), unbound_tag(&rotated, &block));
        // Binding again to the same block is a no-op, to another replaces it.
        e.bind_mac_key(ab, &block).unwrap();
        assert_eq!(tag_of(&e, ab), unbound_tag(&rotated, &block));
        let other = [0xA5; MAC_BLOCK_LEN];
        e.bind_mac_key(ab, &other).unwrap();
        assert_eq!(tag_of(&e, ab), unbound_tag(&rotated, &other));

        // A handle this enclave never issued binds nothing.
        let mut stranger = enclave();
        assert!(matches!(
            stranger.bind_mac_key(ab, &block),
            Err(TeeError::MissingSecret { .. })
        ));
    }

    #[test]
    fn a_bound_cipher_follows_the_key_under_its_label() {
        let mut e = enclave();
        assert!(matches!(
            e.bind_cipher("values", &[1; 16]),
            Err(TeeError::MissingSecret { .. })
        ));
        let key = CipherKey::from_bytes([2u8; 32]);
        e.provision_cipher_key("values", key.clone()).unwrap();
        let (ab, ba) = ([1; 16], [2; 16]);
        let h_ab = e.bind_cipher("values", &ab).unwrap();
        let h_ba = e.bind_cipher("values", &ba).unwrap();
        assert_ne!(h_ab, h_ba);
        // Binding again to a prefix finds the sub-key made before.
        assert_eq!(e.bind_cipher("values", &ab), Ok(h_ab));
        let keystream = |e: &Enclave, handle| {
            let mut data = [0u8; 100];
            e.bound_cipher_at(handle)
                .unwrap()
                .0
                .apply_keystream(&[7; 8], &mut data);
            data
        };
        let expected = |key: &CipherKey, prefix: &[u8; 16]| {
            let mut data = [0u8; 100];
            let nonce: [u8; 24] = core::array::from_fn(|i| if i < 16 { prefix[i] } else { 7 });
            Cipher::new(key).apply_keystream(&nonce, &mut data);
            data
        };
        assert_eq!(keystream(&e, h_ab), expected(&key, &ab));
        assert_eq!(keystream(&e, h_ba), expected(&key, &ba));
        assert_eq!(
            e.bound_cipher_at(h_ab).unwrap().1,
            Cipher::new(&key).key_commitment()
        );

        // Rotation reaches every bound sub-key and the commitment, under
        // the handles issued before it.
        let rotated = CipherKey::from_bytes([5u8; 32]);
        e.provision_cipher_key("values", rotated.clone()).unwrap();
        assert_eq!(keystream(&e, h_ab), expected(&rotated, &ab));
        assert_eq!(keystream(&e, h_ba), expected(&rotated, &ba));
        assert_eq!(
            e.bound_cipher_at(h_ab).unwrap().1,
            Cipher::new(&rotated).key_commitment()
        );
        assert_eq!(
            e.bound_cipher_at(h_ba).unwrap().1,
            Cipher::new(&rotated).key_commitment()
        );

        // A handle this enclave never issued names nothing.
        let mut stranger = enclave();
        assert!(matches!(
            stranger.bound_cipher_at(h_ab),
            Err(TeeError::MissingSecret { .. })
        ));
        stranger
            .provision_cipher_key("values", CipherKey::from_bytes([2u8; 32]))
            .unwrap();
        assert!(stranger.bound_cipher_at(h_ba).is_err());
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
        let key = e.mac_key_handle("cq").unwrap();
        e.bind_mac_key(key, &[0; MAC_BLOCK_LEN]).unwrap();
        e.provision_cipher_key("values", CipherKey::from_bytes([2u8; 32]))
            .unwrap();
        let cipher = e.bind_cipher("values", &[0; 16]).unwrap();
        let counter = e.counter_handle("cq").unwrap();
        e.crash();
        assert!(e.is_crashed());
        assert_eq!(e.mac_key("cq").unwrap_err(), TeeError::EnclaveCrashed);
        assert_eq!(
            e.attest(Nonce::from_u128(1), &mut rng()).unwrap_err(),
            TeeError::EnclaveCrashed
        );
        // Handles resolved while it was alive are refused like labels are.
        assert_eq!(
            e.mac_key_handle("cq").unwrap_err(),
            TeeError::EnclaveCrashed
        );
        assert_eq!(e.mac_key_at(key).unwrap_err(), TeeError::EnclaveCrashed);
        assert_eq!(
            e.bound_mac_key_at(key).unwrap_err(),
            TeeError::EnclaveCrashed
        );
        assert_eq!(
            e.bind_mac_key(key, &[0; MAC_BLOCK_LEN]).unwrap_err(),
            TeeError::EnclaveCrashed
        );
        assert_eq!(
            e.bind_cipher("values", &[0; 16]).unwrap_err(),
            TeeError::EnclaveCrashed
        );
        assert_eq!(
            e.bound_cipher_at(cipher).unwrap_err(),
            TeeError::EnclaveCrashed
        );
        assert_eq!(
            e.counter_handle("cq").unwrap_err(),
            TeeError::EnclaveCrashed
        );
        assert_eq!(
            e.counter_mut(counter).unwrap_err(),
            TeeError::EnclaveCrashed
        );
        assert_eq!(
            e.counter_value(counter).unwrap_err(),
            TeeError::EnclaveCrashed
        );
        assert_eq!(
            e.seal("s", Nonce::from_u128(1), b"x").unwrap_err(),
            TeeError::EnclaveCrashed
        );
    }

    #[test]
    fn debug_output_omits_secrets() {
        let mut e = enclave();
        e.provision_mac_key("cq", MacKey::from_bytes([0xAB; 32]))
            .unwrap();
        let text = format!("{e:?}");
        assert!(!text.contains("ab, ab"));
        assert!(text.contains("Enclave"));
    }
}
