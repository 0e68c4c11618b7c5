//! The binary wire codec of the replication plane.
//!
//! Every byte buffer a replica hands to the network — shielded frames, native
//! frames, the protocol messages they carry, 2PC bodies — is written with a
//! [`Writer`] and parsed with a [`Reader`]. The format is deliberately small:
//!
//! * integers are fixed-width little-endian;
//! * a byte string is a `u32` length followed by that many bytes;
//! * fixed-size fields (MAC tags, nonces, sequence tuples) are written raw;
//! * everything that is decoded on its own starts with one **family tag**
//!   byte from [`tag`], so bytes of one family never parse as another and a
//!   receiver dispatches on the first byte instead of try-parsing.
//!
//! Input is untrusted: every [`Reader`] getter returns `None` rather than
//! panicking, lengths are checked against the bytes actually present before
//! anything is allocated, and [`Reader::finish`] rejects trailing bytes.

/// Family tags: the first byte of every standalone wire form. One registry
/// for all crates, so the values stay disjoint.
pub mod tag {
    /// [`crate::ShieldedMessage`]: one protocol message under one counter/MAC.
    pub(crate) const SINGLE: u8 = 0x01;
    /// [`crate::BatchFrame`]: N protocol messages under one counter/MAC.
    pub(crate) const BATCH: u8 = 0x02;
    /// [`crate::TxnFrame`]: one two-phase-commit message.
    pub(crate) const TXN: u8 = 0x03;
    /// Native (untransformed) single-message frame.
    pub const NATIVE_SINGLE: u8 = 0x04;
    /// Native (untransformed) batch frame.
    pub const NATIVE_BATCH: u8 = 0x05;
    /// [`crate::TxnBody`], the plaintext of a [`crate::TxnFrame`].
    pub(crate) const TXN_BODY: u8 = 0x08;
    /// [`crate::ClientRequest`].
    pub(crate) const CLIENT_REQUEST: u8 = 0x09;
    /// `recipe_protocols::RaftMsg`.
    pub const RAFT: u8 = 0x10;
    /// `recipe_protocols::ChainMsg`.
    pub const CHAIN: u8 = 0x11;
    /// `recipe_protocols::AbdMsg`.
    pub const ABD: u8 = 0x12;
    /// `recipe_protocols::AllConcurMsg`.
    pub const ALLCONCUR: u8 = 0x13;
    /// `recipe_protocols::MigrationChunk`.
    pub const MIGRATION: u8 = 0x14;
    /// `recipe_bft::pbft::PbftMsg`.
    pub const PBFT: u8 = 0x20;
    /// `recipe_bft::pbft` coalesced frame of `PbftMsg`s.
    pub const PBFT_BATCH: u8 = 0x21;
    /// `recipe_bft::DamysusMsg`.
    pub const DAMYSUS: u8 = 0x22;
}

/// Bytes a length-prefixed byte string of `len` bytes takes on the wire.
pub const fn bytes_len(len: usize) -> usize {
    4 + len
}

/// Append-only encoder over a `Vec<u8>`.
#[derive(Debug)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer with room for `capacity` bytes (for nested bodies that
    /// carry no family tag of their own).
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        Writer::reusing(Vec::new(), capacity)
    }

    /// A writer appending to `buf`, emptied first, with room for `capacity`
    /// bytes: a reused buffer that has the room already is not grown, one
    /// that has not grows once.
    pub fn reusing(mut buf: Vec<u8>, capacity: usize) -> Self {
        buf.clear();
        buf.reserve_exact(capacity);
        Writer { buf }
    }

    /// A writer appending to the bytes `buf` already holds.
    pub(crate) fn resuming(buf: Vec<u8>) -> Self {
        Writer { buf }
    }

    /// A writer that starts with the family tag `tag`; `capacity` counts the
    /// tag byte.
    pub fn tagged(tag: u8, capacity: usize) -> Self {
        let mut w = Writer::with_capacity(capacity);
        w.u8(tag);
        w
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Appends a boolean as one `0`/`1` byte.
    pub(crate) fn bool(&mut self, v: bool) -> &mut Self {
        self.u8(u8::from(v))
    }

    /// Appends a little-endian `u16`.
    pub fn u16(&mut self, v: u16) -> &mut Self {
        self.raw(&v.to_le_bytes())
    }

    /// Appends a little-endian `u32`.
    pub(crate) fn u32(&mut self, v: u32) -> &mut Self {
        self.raw(&v.to_le_bytes())
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.raw(&v.to_le_bytes())
    }

    /// Appends `bytes` with no length prefix (fixed-size fields).
    pub fn raw(&mut self, bytes: &[u8]) -> &mut Self {
        self.buf.extend_from_slice(bytes);
        self
    }

    /// Appends a `u32` length followed by `bytes`.
    ///
    /// # Panics
    /// Panics if `bytes` is 4 GiB or longer — no frame of this system comes
    /// within orders of magnitude of that, and truncating the length would
    /// silently corrupt the frame.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        self.count(bytes.len());
        self.raw(bytes)
    }

    /// Appends an element count as a `u32` (same bound as [`Writer::bytes`]).
    pub fn count(&mut self, len: usize) -> &mut Self {
        assert!(
            u32::try_from(len).is_ok(),
            "wire length {len} exceeds u32::MAX"
        );
        self.u32(len as u32)
    }

    /// Appends an optional byte string: a presence byte, then the string.
    pub fn opt_bytes(&mut self, bytes: Option<&[u8]>) -> &mut Self {
        self.bool(bytes.is_some());
        if let Some(bytes) = bytes {
            self.bytes(bytes);
        }
        self
    }

    /// The encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Borrowing decoder over untrusted bytes: the unread suffix of the input.
#[derive(Debug, Clone, Copy)]
pub struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    /// A reader over all of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { rest: bytes }
    }

    /// A reader positioned after the family tag, or `None` when `bytes` does
    /// not start with `tag`.
    pub fn tagged(bytes: &'a [u8], tag: u8) -> Option<Self> {
        let mut r = Reader::new(bytes);
        (r.u8()? == tag).then_some(r)
    }

    /// Consumes exactly `n` bytes.
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if n > self.rest.len() {
            return None;
        }
        let (head, rest) = self.rest.split_at(n);
        self.rest = rest;
        Some(head)
    }

    /// Consumes a fixed-size field.
    pub(crate) fn array<const N: usize>(&mut self) -> Option<[u8; N]> {
        self.take(N)?.try_into().ok()
    }

    /// Consumes one byte.
    pub fn u8(&mut self) -> Option<u8> {
        self.array::<1>().map(|[b]| b)
    }

    /// Consumes a boolean; any byte other than `0`/`1` is malformed.
    pub(crate) fn bool(&mut self) -> Option<bool> {
        match self.u8()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }

    /// Consumes a little-endian `u16`.
    pub fn u16(&mut self) -> Option<u16> {
        self.array().map(u16::from_le_bytes)
    }

    /// Consumes a little-endian `u32`.
    pub(crate) fn u32(&mut self) -> Option<u32> {
        self.array().map(u32::from_le_bytes)
    }

    /// Consumes a little-endian `u64`.
    pub fn u64(&mut self) -> Option<u64> {
        self.array().map(u64::from_le_bytes)
    }

    /// Consumes a `u32`-length-prefixed byte string. The length is checked
    /// against the bytes present before anything is sliced or copied.
    pub fn bytes(&mut self) -> Option<&'a [u8]> {
        let len = usize::try_from(self.u32()?).ok()?;
        self.take(len)
    }

    /// Consumes an optional byte string written by [`Writer::opt_bytes`].
    pub fn opt_bytes(&mut self) -> Option<Option<&'a [u8]>> {
        if self.bool()? {
            self.bytes().map(Some)
        } else {
            Some(None)
        }
    }

    /// Consumes a `u32` element count followed by that many items, each read
    /// by `item`. `min_item_len` is the fewest bytes one item can take on the
    /// wire (at least 1): the vector is sized from the bytes actually present,
    /// never from the claimed count alone, so a forged count cannot force a
    /// large allocation.
    pub fn seq<T>(
        &mut self,
        min_item_len: usize,
        mut item: impl FnMut(&mut Self) -> Option<T>,
    ) -> Option<Vec<T>> {
        let count = usize::try_from(self.u32()?).ok()?;
        if count > self.rest.len() / min_item_len.max(1) {
            return None;
        }
        let mut items = Vec::with_capacity(count);
        for _ in 0..count {
            items.push(item(self)?);
        }
        Some(items)
    }

    /// Succeeds only when every byte was consumed.
    pub fn finish(self) -> Option<()> {
        self.rest.is_empty().then_some(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_and_byte_strings_roundtrip() {
        let mut w = Writer::tagged(0x7E, 64);
        w.u8(9)
            .bool(true)
            .u16(0xBEEF)
            .u32(0xDEAD_BEEF)
            .u64(u64::MAX - 1)
            .raw(&[1, 2, 3])
            .bytes(b"payload")
            .opt_bytes(None)
            .opt_bytes(Some(b"x"));
        let wire = w.finish();
        assert!(Reader::tagged(&wire, 0x7F).is_none());
        let mut r = Reader::tagged(&wire, 0x7E).unwrap();
        assert_eq!(r.u8(), Some(9));
        assert_eq!(r.bool(), Some(true));
        assert_eq!(r.u16(), Some(0xBEEF));
        assert_eq!(r.u32(), Some(0xDEAD_BEEF));
        assert_eq!(r.u64(), Some(u64::MAX - 1));
        assert_eq!(r.array::<3>(), Some([1, 2, 3]));
        assert_eq!(r.bytes(), Some(&b"payload"[..]));
        assert_eq!(r.opt_bytes(), Some(None));
        assert_eq!(r.opt_bytes(), Some(Some(&b"x"[..])));
        assert_eq!(r.finish(), Some(()));
    }

    #[test]
    fn integers_are_little_endian() {
        let mut w = Writer::with_capacity(8);
        w.u32(1).u16(0x0102);
        assert_eq!(w.finish(), vec![1, 0, 0, 0, 0x02, 0x01]);
    }

    #[test]
    fn truncation_trailing_bytes_and_bad_booleans_are_rejected() {
        let mut r = Reader::new(&[1, 2, 3]);
        assert_eq!(r.u32(), None);
        // A failed read consumes nothing.
        assert_eq!(r.u16(), Some(0x0201));
        assert!(r.finish().is_none());
        assert_eq!(Reader::new(&[2]).bool(), None);
        assert!(Reader::tagged(&[], 1).is_none());
    }

    #[test]
    fn forged_lengths_never_allocate_or_overflow() {
        // A byte string claiming u32::MAX bytes with 2 present.
        let mut forged = u32::MAX.to_le_bytes().to_vec();
        forged.extend_from_slice(&[0, 0]);
        assert_eq!(Reader::new(&forged).bytes(), None);
        // A sequence claiming u32::MAX one-byte items with 2 present is
        // rejected before the vector is sized.
        assert_eq!(Reader::new(&forged).seq(1, |r| r.u8()), None);
        // An honest count decodes.
        let mut w = Writer::with_capacity(8);
        w.count(2).u8(7).u8(8);
        let wire = w.finish();
        assert_eq!(Reader::new(&wire).seq(1, |r| r.u8()), Some(vec![7, 8]));
        // A count the bytes could cover, with an item that fails midway.
        assert_eq!(Reader::new(&wire).seq(1, |r| r.u16()), None);
    }
}
