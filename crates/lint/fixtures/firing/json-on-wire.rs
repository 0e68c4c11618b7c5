// expect-finding: json-on-wire
//! Puts a protocol message on the replication plane as JSON text: every
//! payload byte becomes three or four ASCII characters, and the cost model
//! charges transport, MAC and AEAD on all of them.
pub fn encode(index: u64, value: &[u8]) -> Vec<u8> {
    serde_json::to_vec(&(index, value)).unwrap_or_default()
}
