//! The sanctioned form: unknown input is an error, not a crash.
pub(crate) fn parse_kind(kind: u8) -> Result<Kind, UnknownKind> {
    match kind {
        0 => Ok(Kind::Read),
        1 => Ok(Kind::Write),
        other => Err(UnknownKind(other)),
    }
}
