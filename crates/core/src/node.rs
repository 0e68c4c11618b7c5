//! [`RecipeNode`]: the per-replica facade that wires the enclave, the authentication
//! layer, the partitioned KV store, the RPC endpoint and the membership/view
//! machinery together and exposes the Table-3 API that Listing 1 programs against.
//!
//! | Table 3 API            | `RecipeNode` method                        |
//! |-------------------------|--------------------------------------------|
//! | `attest(measurement)`   | [`RecipeNode::attest`]                      |
//! | `create_rpc(app_ctx)`   | [`RecipeNode::connect_to`] / endpoint setup |
//! | `init_store()`          | [`RecipeNode::init_store`]                  |
//! | `reg_hdlr(&func)`       | [`RecipeNode::reg_hdlr`]                    |
//! | `send(&msg_buf)`        | [`RecipeNode::send_shielded`]               |
//! | `respond(&msg_buf)`     | [`RecipeNode::respond_shielded`]            |
//! | `poll()`                | [`RecipeNode::poll`]                        |
//! | `verify_msg(&msg_buf)`  | [`RecipeNode::verify_msg`]                  |
//! | `shield_msg(&msg_buf)`  | [`RecipeNode::shield_msg`]                  |
//! | `write(key, value)`     | [`RecipeNode::write`]                       |
//! | `get(key, &v_TEE)`      | [`RecipeNode::get`]                         |

use rand::RngCore;
use recipe_attest::{run_remote_attestation, QuoteVerifier, SecretBundle};
use recipe_kv::{PartitionedKvStore, ReadResult, StoreConfig, Timestamp};
use recipe_net::{
    Fabric, MsgBuf, NodeId, ReqType, RequestHandler, RpcEndpoint, RpcEndpointConfig, WireMessage,
};
use recipe_tee::{Enclave, EnclaveConfig, EnclaveId, TrustedInstant};
use serde::{Deserialize, Serialize};

use crate::auth::{AuthLayer, VerifyOutcome};
use crate::client_table::ClientTable;
use crate::error::RecipeError;
use crate::membership::Membership;
use crate::message::ShieldedMessage;
use crate::view::{ViewAction, ViewTracker};

/// The role a node currently plays in the protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NodeRole {
    /// Drives the protocol for client requests (leader / head / coordinator).
    Coordinator,
    /// Follows the coordinator.
    Follower,
}

/// Static configuration of a Recipe node.
#[derive(Debug, Clone)]
pub struct RecipeConfig {
    /// This node's id.
    pub node_id: NodeId,
    /// The replica membership.
    pub membership: Membership,
    /// Code identity loaded into the enclave (determines the measurement).
    pub code_identity: String,
    /// Platform the node runs on.
    pub platform_id: u64,
    /// Confidential mode (encrypt values and payloads).
    pub confidential: bool,
    /// Leader lease duration in milliseconds.
    pub lease_millis: u64,
    /// Optional EPC size override in bytes.
    pub epc_bytes: Option<usize>,
}

impl RecipeConfig {
    /// A reasonable default configuration for `node_id` in `membership`.
    pub fn new(node_id: NodeId, membership: Membership) -> Self {
        RecipeConfig {
            node_id,
            membership,
            code_identity: "recipe-replica-v1".to_owned(),
            platform_id: node_id.0,
            confidential: false,
            lease_millis: 50,
            epc_bytes: None,
        }
    }

    /// Enables confidential mode.
    pub fn confidential(mut self) -> Self {
        self.confidential = true;
        self
    }
}

/// A full Recipe replica node.
pub struct RecipeNode {
    config: RecipeConfig,
    auth: AuthLayer,
    store: Option<PartitionedKvStore>,
    endpoint: RpcEndpoint,
    view: ViewTracker,
    clients: ClientTable,
    attested: bool,
}

impl RecipeNode {
    /// Launches the node's enclave and networking endpoint. The node cannot process
    /// protocol traffic until [`RecipeNode::attest`] and [`RecipeNode::init_store`]
    /// have run.
    pub fn launch(config: RecipeConfig) -> Self {
        let mut enclave_config =
            EnclaveConfig::new(config.code_identity.clone(), config.platform_id);
        if let Some(bytes) = config.epc_bytes {
            enclave_config = enclave_config.with_epc_bytes(bytes);
        }
        let enclave = Enclave::launch(EnclaveId(config.node_id.0), enclave_config);
        let auth = AuthLayer::new(config.node_id, enclave, config.confidential);
        let endpoint = RpcEndpoint::new(RpcEndpointConfig::new(config.node_id));
        let view = ViewTracker::new(config.membership.clone(), config.lease_millis);
        RecipeNode {
            config,
            auth,
            store: None,
            endpoint,
            view,
            clients: ClientTable::new(),
            attested: false,
        }
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.config.node_id
    }

    /// The node's current role, derived from the view.
    pub fn role(&self) -> NodeRole {
        if self.view.is_leader(self.config.node_id) {
            NodeRole::Coordinator
        } else {
            NodeRole::Follower
        }
    }

    /// True once the transferable-authentication phase completed.
    pub fn is_attested(&self) -> bool {
        self.attested
    }

    /// The membership this node believes in.
    pub fn membership(&self) -> &Membership {
        self.view.membership()
    }

    /// The view tracker (failure detector, current leader).
    pub fn view(&self) -> &ViewTracker {
        &self.view
    }

    /// Mutable view tracker access (heartbeats, view installation).
    pub fn view_mut(&mut self) -> &mut ViewTracker {
        &mut self.view
    }

    /// The client table.
    pub fn clients_mut(&mut self) -> &mut ClientTable {
        &mut self.clients
    }

    /// Access to the authentication layer (and through it, the enclave).
    pub fn auth(&self) -> &AuthLayer {
        &self.auth
    }

    /// Mutable access to the authentication layer.
    pub fn auth_mut(&mut self) -> &mut AuthLayer {
        &mut self.auth
    }

    // ------------------------------------------------------------------
    // Transferable authentication + initialization phases
    // ------------------------------------------------------------------

    /// Runs the transferable-authentication phase against `verifier`, installing the
    /// secrets from `bundle` into the enclave (Figure 1, A.1–A.8).
    pub fn attest<V: QuoteVerifier, R: RngCore>(
        &mut self,
        verifier: &mut V,
        bundle: &SecretBundle,
        rng: &mut R,
    ) -> Result<u64, RecipeError> {
        let outcome = run_remote_attestation(verifier, self.auth.enclave_mut(), bundle, rng)
            .map_err(|_| RecipeError::NotAttested)?;
        self.attested = true;
        Ok(outcome.latency_ns)
    }

    /// Initializes the local KV store (`init_store()`). In confidential mode
    /// its values are sealed under this node's sub-key of the provisioned
    /// cluster cipher key ([`AuthLayer::store_cipher_key`]), so a node that
    /// was never provisioned one has no store.
    pub fn init_store(&mut self) -> Result<(), RecipeError> {
        let mut store_config = StoreConfig::default();
        if self.config.confidential {
            let key = self
                .auth
                .store_cipher_key()
                .map_err(|_| RecipeError::NotAttested)?;
            store_config = store_config.with_cipher(key);
        }
        self.store = Some(PartitionedKvStore::new(store_config));
        Ok(())
    }

    /// Establishes connections to every peer in the membership
    /// (`create_rpc` + `wait_until_connected`).
    pub fn connect_to_peers(&mut self) {
        for peer in self.view.membership().peers_of(self.config.node_id) {
            self.endpoint.connect(peer);
        }
    }

    /// Connects to one specific peer or client.
    pub fn connect_to(&mut self, peer: NodeId) {
        self.endpoint.connect(peer);
    }

    /// Registers a request handler on the endpoint (`reg_hdlr`).
    pub fn reg_hdlr(&mut self, req_type: ReqType, handler: RequestHandler) {
        self.endpoint.reg_hdlr(req_type, handler);
    }

    // ------------------------------------------------------------------
    // Security API: shield_msg / verify_msg
    // ------------------------------------------------------------------

    /// Shields a protocol message for `dst` (`shield_msg`).
    pub fn shield_msg(
        &mut self,
        dst: NodeId,
        kind: u16,
        payload: &[u8],
    ) -> Result<ShieldedMessage, RecipeError> {
        if !self.attested {
            return Err(RecipeError::NotAttested);
        }
        self.auth.shield(dst, kind, payload)
    }

    /// Verifies an incoming shielded message (`verify_msg`).
    pub fn verify_msg(&mut self, msg: &ShieldedMessage) -> VerifyOutcome {
        self.auth.verify(msg)
    }

    // ------------------------------------------------------------------
    // Network API: send / respond / poll
    // ------------------------------------------------------------------

    /// Shields `payload` and enqueues it for `dst` (`send`).
    pub fn send_shielded(
        &mut self,
        dst: NodeId,
        req_type: ReqType,
        payload: &[u8],
    ) -> Result<(), RecipeError> {
        let shielded = self.shield_msg(dst, req_type.0, payload)?;
        self.endpoint
            .send(dst, MsgBuf::new(req_type, shielded.to_wire()))?;
        Ok(())
    }

    /// Shields `payload` and enqueues it as a response to `dst` (`respond`).
    pub fn respond_shielded(
        &mut self,
        dst: NodeId,
        req_type: ReqType,
        payload: &[u8],
    ) -> Result<(), RecipeError> {
        let shielded = self.shield_msg(dst, req_type.0, payload)?;
        self.endpoint
            .respond(dst, MsgBuf::new(req_type, shielded.to_wire()))?;
        Ok(())
    }

    /// Feeds an incoming wire message into the RX ring.
    pub fn enqueue_incoming(&mut self, message: WireMessage) -> Result<(), RecipeError> {
        self.endpoint.enqueue_incoming(message)?;
        Ok(())
    }

    /// Polls the endpoint (`poll`): dispatches RX to handlers and flushes TX into the
    /// supplied fabric.
    pub fn poll<F: Fabric>(&mut self, fabric: &mut F) -> recipe_net::endpoint::PollStats {
        self.endpoint.poll(fabric)
    }

    // ------------------------------------------------------------------
    // KV Store API
    // ------------------------------------------------------------------

    /// Writes a key-value pair to the local store (`write`).
    pub fn write(&mut self, key: &[u8], value: &[u8], ts: Timestamp) -> Result<u64, RecipeError> {
        self.store_mut()?
            .write(key, value, ts)
            .map_err(RecipeError::from)
    }

    /// Reads (and integrity-verifies) the value for `key` (`get`).
    pub fn get(&mut self, key: &[u8]) -> Result<ReadResult, RecipeError> {
        self.store_mut()?.get(key).map_err(RecipeError::from)
    }

    /// Direct access to the KV store for protocols that need timestamps/versions.
    pub fn store_mut(&mut self) -> Result<&mut PartitionedKvStore, RecipeError> {
        self.store
            .as_mut()
            .ok_or(RecipeError::Malformed("store not initialized"))
    }

    // ------------------------------------------------------------------
    // Failure detection helpers
    // ------------------------------------------------------------------

    /// Records a leader heartbeat.
    pub fn leader_heartbeat(&mut self, from: NodeId, now: TrustedInstant) {
        self.view.record_leader_heartbeat(from, now);
    }

    /// Checks the failure detector.
    pub fn check_view(&self, now: TrustedInstant) -> ViewAction {
        self.view.check(now)
    }

    /// Installs a confirmed new view and aligns the authentication layer with it.
    pub fn install_view(&mut self, view: u64, now: TrustedInstant) {
        self.view.install_view(view, now);
        self.auth.set_view(self.view.view());
    }
}

impl std::fmt::Debug for RecipeNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RecipeNode")
            .field("id", &self.config.node_id)
            .field("role", &self.role())
            .field("view", &self.view.view())
            .field("attested", &self.attested)
            .field("confidential", &self.config.confidential)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use recipe_attest::{derive_channel_keys, ClusterConfig, ConfigAndAttestService};
    use recipe_crypto::{KeyMaterial, MacKey, SigningKeyPair};
    use recipe_net::LoopbackFabric;

    /// Builds a fully attested 3-node cluster plus the CAS used to attest it.
    fn attested_cluster(confidential: bool) -> Vec<RecipeNode> {
        let membership = Membership::of_size(3, 1);
        let master = MacKey::from_bytes([0x55; 32]);
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let mut nodes = Vec::new();
        for id in 0..3u64 {
            let mut config = RecipeConfig::new(NodeId(id), membership.clone());
            if confidential {
                config = config.confidential();
            }
            let mut node = RecipeNode::launch(config);
            let mut cas = ConfigAndAttestService::new(
                vec![(
                    node.auth().enclave().config().platform_id,
                    node.auth().enclave().platform_vendor_key(),
                )],
                id,
            );
            let bundle = SecretBundle {
                node_id: id,
                signing_seed: SigningKeyPair::generate_from_seed(500 + id)
                    .expose_secret()
                    .to_vec(),
                channel_keys: derive_channel_keys(&master, &[0, 1, 2], id),
                cipher_key: Some(vec![0x77; 32]),
                config: ClusterConfig::for_replicas(3, 1, "recipe-replica-v1"),
            };
            node.attest(&mut cas, &bundle, &mut rng).unwrap();
            node.init_store().unwrap();
            node.connect_to_peers();
            nodes.push(node);
        }
        nodes
    }

    #[test]
    fn launch_attest_init_lifecycle() {
        let membership = Membership::of_size(3, 1);
        let mut node = RecipeNode::launch(RecipeConfig::new(NodeId(0), membership));
        assert_eq!(node.id(), NodeId(0));
        assert_eq!(node.role(), NodeRole::Coordinator); // view 0 → leader 0
        assert!(!node.is_attested());
        // Shielding before attestation is refused.
        assert_eq!(
            node.shield_msg(NodeId(1), 1, b"x").unwrap_err(),
            RecipeError::NotAttested
        );
        // KV access before init_store is refused.
        assert!(node.get(b"k").is_err());
        assert!(format!("{node:?}").contains("RecipeNode"));
    }

    #[test]
    fn attested_nodes_exchange_shielded_messages_end_to_end() {
        let mut nodes = attested_cluster(false);
        assert!(nodes.iter().all(RecipeNode::is_attested));

        // Node 0 (coordinator) shields a replication message for node 1 and ships it
        // over the loopback fabric.
        let mut fabric = LoopbackFabric::new();
        let payload = b"replicate key=alpha value=1";
        nodes[0]
            .send_shielded(NodeId(1), ReqType::REPLICATE, payload)
            .unwrap();
        nodes[0].poll(&mut fabric);

        let delivered = fabric.drain(NodeId(1));
        assert_eq!(delivered.len(), 1);
        let shielded = ShieldedMessage::from_wire(&delivered[0].buf.payload).unwrap();
        match nodes[1].verify_msg(&shielded) {
            VerifyOutcome::Accept { payload: got, .. } => assert_eq!(got, payload),
            other => panic!("expected Accept, got {other:?}"),
        }
    }

    #[test]
    fn confidential_nodes_hide_payload_from_the_network() {
        let mut nodes = attested_cluster(true);
        let shielded = nodes[0]
            .shield_msg(NodeId(1), ReqType::REPLICATE.0, b"secret diagnosis")
            .unwrap();
        assert!(shielded.confidential);
        assert!(!shielded
            .payload
            .windows(b"diagnosis".len())
            .any(|w| w == b"diagnosis"));
        match nodes[1].verify_msg(&shielded) {
            VerifyOutcome::Accept { payload, .. } => assert_eq!(payload, b"secret diagnosis"),
            other => panic!("expected Accept, got {other:?}"),
        }
        // Confidential KV store hides values from the host too.
        nodes[0]
            .write(b"k", b"secret-value", Timestamp::new(1, 0))
            .unwrap();
        assert_eq!(nodes[0].get(b"k").unwrap().value, b"secret-value");
    }

    #[test]
    fn kv_api_roundtrip_and_roles() {
        let mut nodes = attested_cluster(false);
        nodes[1].write(b"x", b"42", Timestamp::new(1, 1)).unwrap();
        assert_eq!(nodes[1].get(b"x").unwrap().value, b"42");
        assert_eq!(nodes[0].role(), NodeRole::Coordinator);
        assert_eq!(nodes[1].role(), NodeRole::Follower);
        assert_eq!(nodes[2].role(), NodeRole::Follower);
    }

    #[test]
    fn view_change_rotates_coordinator_and_updates_auth_view() {
        let mut nodes = attested_cluster(false);
        let now = TrustedInstant::from_millis(0);
        nodes[1].leader_heartbeat(NodeId(0), now);
        assert_eq!(
            nodes[1].check_view(TrustedInstant::from_millis(10)),
            ViewAction::KeepFollowing
        );

        // Leader 0 goes silent; after the lease expires node 1 starts a view change.
        let later = TrustedInstant::from_millis(200);
        match nodes[1].check_view(later) {
            ViewAction::StartViewChange {
                new_view,
                new_leader,
            } => {
                assert_eq!(new_view, 1);
                assert_eq!(new_leader, NodeId(1));
            }
            other => panic!("expected view change, got {other:?}"),
        }
        for node in nodes.iter_mut() {
            node.install_view(1, later);
        }
        assert_eq!(nodes[1].role(), NodeRole::Coordinator);
        assert_eq!(nodes[0].role(), NodeRole::Follower);
        assert_eq!(nodes[1].auth().view(), 1);
        // Messages shielded in the old view are rejected after the change.
        // (shield in new view works fine)
        let msg = nodes[1]
            .shield_msg(NodeId(2), 1, b"post-view-change")
            .unwrap();
        assert!(nodes[2].verify_msg(&msg).is_accept());
    }

    #[test]
    fn client_table_is_reachable_through_the_node() {
        let mut nodes = attested_cluster(false);
        nodes[0].clients_mut().begin(9, 1);
        assert_eq!(nodes[0].clients_mut().latest_request(9), Some(1));
    }
}
