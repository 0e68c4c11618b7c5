//! Strict, path-tracking decoding over [`serde::Value`] trees.
//!
//! The vendored serde derive is deliberately lenient — unknown map keys are
//! ignored — which is the wrong default for scenario files: a typo like
//! `read_ration = 0.9` must fail loudly, not silently run the default
//! workload. This module is the strict layer the scenario loader uses
//! instead: every lookup is recorded, [`MapDecoder::deny_unknown`] rejects
//! whatever was never asked for, and every error names the full dotted path
//! of the offending key plus — for unknown keys — the set of keys that would
//! have been accepted.

use serde::Value;

/// A scenario loading/validation failure: one actionable message naming the
/// offending field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioError(pub String);

impl ScenarioError {
    /// Builds an error from any displayable message.
    pub fn msg<T: std::fmt::Display>(msg: T) -> Self {
        ScenarioError(msg.to_string())
    }
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ScenarioError {}

fn at(path: &str) -> String {
    if path.is_empty() {
        "the top level".to_string()
    } else {
        format!("`{path}`")
    }
}

/// Joins a parent path and a key into a dotted path.
pub(crate) fn join(path: &str, key: &str) -> String {
    if path.is_empty() {
        key.to_string()
    } else {
        format!("{path}.{key}")
    }
}

/// A table in the scenario tree, tracked strictly: keys must be looked up
/// exactly once, and [`MapDecoder::deny_unknown`] fails on everything else.
pub struct MapDecoder<'a> {
    path: String,
    entries: &'a [(String, Value)],
    requested: Vec<&'static str>,
}

impl<'a> MapDecoder<'a> {
    /// Wraps `value`, which must be a table; `path` is the dotted location
    /// used in error messages (empty = document root).
    pub fn new(value: &'a Value, path: &str) -> Result<Self, ScenarioError> {
        match value {
            Value::Map(entries) => Ok(MapDecoder {
                path: path.to_string(),
                entries,
                requested: Vec::new(),
            }),
            other => Err(ScenarioError(format!(
                "expected a table at {}, found {}",
                at(path),
                kind_of(other)
            ))),
        }
    }

    /// The dotted path of this table.
    pub(crate) fn path(&self) -> &str {
        &self.path
    }

    /// Raw lookup; records `key` as known so `deny_unknown` accepts it.
    pub(crate) fn get(&mut self, key: &'static str) -> Option<&'a Value> {
        self.requested.push(key);
        serde::map_get(self.entries, key)
    }

    /// Required typed field.
    pub fn req<T: Decode>(&mut self, key: &'static str) -> Result<T, ScenarioError> {
        let path = join(&self.path, key);
        match self.get(key) {
            Some(v) => T::decode(v, &path),
            None => Err(ScenarioError(format!(
                "missing required key `{path}` (in {})",
                at(&self.path)
            ))),
        }
    }

    /// Optional typed field.
    pub fn opt<T: Decode>(&mut self, key: &'static str) -> Result<Option<T>, ScenarioError> {
        let path = join(&self.path, key);
        match self.get(key) {
            Some(v) => T::decode(v, &path).map(Some),
            None => Ok(None),
        }
    }

    /// Optional typed field with a default.
    pub fn opt_or<T: Decode>(&mut self, key: &'static str, default: T) -> Result<T, ScenarioError> {
        Ok(self.opt(key)?.unwrap_or(default))
    }

    /// Optional sub-table, decoded strictly by `f`.
    pub fn table<T>(
        &mut self,
        key: &'static str,
        f: impl FnOnce(&mut MapDecoder<'a>) -> Result<T, ScenarioError>,
    ) -> Result<Option<T>, ScenarioError> {
        let path = join(&self.path, key);
        match self.get(key) {
            Some(v) => {
                let mut inner = MapDecoder::new(v, &path)?;
                let out = f(&mut inner)?;
                inner.deny_unknown()?;
                Ok(Some(out))
            }
            None => Ok(None),
        }
    }

    /// Optional array of tables, each decoded strictly by `f` (the closure
    /// also receives the element index).
    pub fn tables<T>(
        &mut self,
        key: &'static str,
        mut f: impl FnMut(usize, &mut MapDecoder<'a>) -> Result<T, ScenarioError>,
    ) -> Result<Vec<T>, ScenarioError> {
        let path = join(&self.path, key);
        let Some(v) = self.get(key) else {
            return Ok(Vec::new());
        };
        let items = v.as_array().ok_or_else(|| {
            ScenarioError(format!(
                "expected an array of tables at `{path}`, found {}",
                kind_of(v)
            ))
        })?;
        let mut out = Vec::with_capacity(items.len());
        for (i, item) in items.iter().enumerate() {
            let elem_path = format!("{path}[{i}]");
            let mut inner = MapDecoder::new(item, &elem_path)?;
            out.push(f(i, &mut inner)?);
            inner.deny_unknown()?;
        }
        Ok(out)
    }

    /// Fails if the table holds any key that was never looked up, listing
    /// the keys that are accepted here.
    pub fn deny_unknown(&self) -> Result<(), ScenarioError> {
        for (key, _) in self.entries {
            if !self.requested.iter().any(|r| r == key) {
                let mut allowed: Vec<&str> = self.requested.clone();
                allowed.sort_unstable();
                allowed.dedup();
                return Err(ScenarioError(format!(
                    "unknown key `{}` in {} (allowed keys: {})",
                    join(&self.path, key),
                    at(&self.path),
                    allowed.join(", ")
                )));
            }
        }
        Ok(())
    }
}

fn kind_of(v: &Value) -> &'static str {
    match v {
        Value::Null => "null",
        Value::Bool(_) => "a boolean",
        Value::Int(_) => "an integer",
        Value::Float(_) => "a float",
        Value::Str(_) => "a string",
        Value::Array(_) => "an array",
        Value::Map(_) => "a table",
    }
}

/// Leaf decoding with a path-qualified error.
pub trait Decode: Sized {
    /// Decodes `v`, reporting failures against the dotted `path`.
    fn decode(v: &Value, path: &str) -> Result<Self, ScenarioError>;
}

impl Decode for bool {
    fn decode(v: &Value, path: &str) -> Result<Self, ScenarioError> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Err(ScenarioError(format!(
                "`{path}`: expected a boolean, found {}",
                kind_of(other)
            ))),
        }
    }
}

impl Decode for u64 {
    fn decode(v: &Value, path: &str) -> Result<Self, ScenarioError> {
        match v {
            Value::Int(i) if *i >= 0 && *i <= u64::MAX as i128 => Ok(*i as u64),
            Value::Int(i) => Err(ScenarioError(format!(
                "`{path}`: {i} is out of range for a non-negative integer"
            ))),
            other => Err(ScenarioError(format!(
                "`{path}`: expected an integer, found {}",
                kind_of(other)
            ))),
        }
    }
}

impl Decode for usize {
    fn decode(v: &Value, path: &str) -> Result<Self, ScenarioError> {
        let n = u64::decode(v, path)?;
        usize::try_from(n)
            .map_err(|_| ScenarioError(format!("`{path}`: {n} is out of range for this platform")))
    }
}

impl Decode for f64 {
    fn decode(v: &Value, path: &str) -> Result<Self, ScenarioError> {
        match v {
            Value::Float(f) => Ok(*f),
            Value::Int(i) => Ok(*i as f64),
            other => Err(ScenarioError(format!(
                "`{path}`: expected a number, found {}",
                kind_of(other)
            ))),
        }
    }
}

impl Decode for String {
    fn decode(v: &Value, path: &str) -> Result<Self, ScenarioError> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            other => Err(ScenarioError(format!(
                "`{path}`: expected a string, found {}",
                kind_of(other)
            ))),
        }
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode(v: &Value, path: &str) -> Result<Self, ScenarioError> {
        match v {
            Value::Array(items) => items
                .iter()
                .enumerate()
                .map(|(i, item)| T::decode(item, &format!("{path}[{i}]")))
                .collect(),
            other => Err(ScenarioError(format!(
                "`{path}`: expected an array, found {}",
                kind_of(other)
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc() -> Value {
        crate::toml::parse("a = 1\nb = \"x\"\n[t]\nc = true\n").unwrap()
    }

    #[test]
    fn strict_lookup_and_unknown_rejection() {
        let v = doc();
        let mut m = MapDecoder::new(&v, "").unwrap();
        assert_eq!(m.req::<u64>("a").unwrap(), 1);
        assert_eq!(m.req::<String>("b").unwrap(), "x");
        let err = m.deny_unknown().unwrap_err();
        assert!(err.0.contains("unknown key `t`"), "{}", err.0);
        assert!(err.0.contains("allowed keys: a, b"), "{}", err.0);
    }

    #[test]
    fn missing_and_mistyped_fields_name_their_path() {
        let v = doc();
        let mut m = MapDecoder::new(&v, "").unwrap();
        let err = m.req::<u64>("zzz").unwrap_err();
        assert!(err.0.contains("missing required key `zzz`"), "{}", err.0);
        let err = m.req::<u64>("b").unwrap_err();
        assert!(err.0.contains("`b`: expected an integer"), "{}", err.0);
        let err = m.table("t", |t| t.req::<String>("c")).unwrap_err();
        assert!(err.0.contains("`t.c`: expected a string"), "{}", err.0);
    }
}
