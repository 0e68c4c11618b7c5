//! The sanctioned form: the seal and its clock charge travel together.
pub fn push_state(
    lane: &mut TxnLane<'_>,
    clock: &mut Meter,
    txn_id: u64,
    body: &TxnBody,
) -> Vec<u8> {
    let wire = lane.seal_request(txn_id, body, false);
    clock.charge_seal(wire.len() as u64);
    wire
}
