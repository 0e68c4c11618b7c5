//! The sanctioned form: the shield seals the frame, then transmits.
pub(crate) fn gossip(shield: &mut ProtocolShield, ctx: &mut Ctx, peer: NodeId, frame: Vec<u8>) {
    shield.seal_and_send(ctx, peer, frame);
}
