//! The sanctioned form: disjoint domains per wire format.
pub(crate) const REQ_MAC_DOMAIN: &str = "recipe.fixture_req.v1";
pub(crate) const RESP_MAC_DOMAIN: &str = "recipe.fixture_resp.v1";
