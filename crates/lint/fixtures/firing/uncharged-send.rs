// expect-finding: uncharged-send
//! Seals a frame on an audited send path without charging the work: the
//! virtual clock undercounts and the run's timing is no longer honest.
pub fn push_state(lane: &mut TxnLane<'_>, txn_id: u64, body: &TxnBody) -> Vec<u8> {
    lane.seal_request(txn_id, body, false)
}
