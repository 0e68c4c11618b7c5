//! The sanctioned form: the binary codec, one family tag and
//! length-prefixed byte strings.
use recipe_core::wire::{tag, Writer};

pub(crate) fn encode(index: u64, value: &[u8]) -> Vec<u8> {
    let mut w = Writer::tagged(tag::RAFT, 1 + 8 + 4 + value.len());
    w.u64(index).bytes(value);
    w.finish()
}
