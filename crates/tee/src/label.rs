//! The names enclave secrets and trusted counters are kept under.

use std::fmt;

use crate::error::TeeError;

/// Most bytes a [`Label`] holds: the longest channel label two `u64` node
/// ids make, `cq:` + 20 digits + `->` + 20 digits.
pub(crate) const LABEL_CAPACITY: usize = 45;

/// A label an enclave keeps a channel or a cipher key under (`cq:3->5`,
/// `recipe.values`), held inline: making, copying and comparing one never
/// touches the heap, so a channel provisioned or resolved costs its slot
/// alone. A label holds up to 45 bytes, the longest channel label two `u64`
/// node ids make; longer text is refused
/// ([`TeeError::LabelTooLong`]), never cut short — two labels cut to one
/// would share a secret.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Label {
    len: u8,
    /// The text in `..len`, zeros after it, so equal labels are equal arrays.
    bytes: [u8; LABEL_CAPACITY],
}

const _: () = assert!(LABEL_CAPACITY <= u8::MAX as usize);

impl Label {
    /// `text` as a label.
    pub(crate) fn new(text: &str) -> Result<Label, TeeError> {
        Label::format(format_args!("{text}"))
    }

    /// The label `args` formats to, written in place: `Label::format(
    /// format_args!("{channel}"))` allocates nothing.
    pub fn format(args: fmt::Arguments<'_>) -> Result<Label, TeeError> {
        /// The label filled so far and the length of all the text written,
        /// which only the label's part of is kept.
        struct Fill {
            label: Label,
            len: usize,
        }
        impl fmt::Write for Fill {
            fn write_str(&mut self, text: &str) -> fmt::Result {
                let at = self.len;
                self.len += text.len();
                if let Some(room) = self.label.bytes.get_mut(at..self.len) {
                    room.copy_from_slice(text.as_bytes());
                }
                Ok(())
            }
        }
        let mut fill = Fill {
            label: Label {
                len: 0,
                bytes: [0; LABEL_CAPACITY],
            },
            len: 0,
        };
        // Like `format!`, which panics the same way: only a `Display` impl
        // that fails on its own could make this fail.
        // recipe-lint: allow(unwrap-in-lib, reason = "`Fill::write_str` never fails")
        fmt::write(&mut fill, args).expect("filling a label never fails");
        if fill.len > LABEL_CAPACITY {
            return Err(TeeError::LabelTooLong { len: fill.len });
        }
        fill.label.len = fill.len as u8;
        Ok(fill.label)
    }

    /// The label's text.
    pub fn as_str(&self) -> &str {
        let text = std::str::from_utf8(&self.bytes[..self.len as usize]);
        // recipe-lint: allow(unwrap-in-lib, reason = "`format` keeps whole strs only, so the bytes are UTF-8")
        text.expect("a label is whole strs written end to end")
    }
}

impl AsRef<str> for Label {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

impl fmt::Debug for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}
