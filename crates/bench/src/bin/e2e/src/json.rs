//! Thin JSON value over the workspace's `serde` shim. The shim's derive only
//! covers fixed structs, while the ledger is keyed by metric and workload
//! names, so ledgers are built and read as value trees.

use serde::{Deserialize, Serialize, Value};

#[derive(Debug, Clone, PartialEq)]
pub struct Json(pub Value);

impl Serialize for Json {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

impl Deserialize for Json {
    fn from_value(value: &Value) -> Result<Self, serde::Error> {
        Ok(Json(value.clone()))
    }
}

impl Json {
    pub fn null() -> Self {
        Json(Value::Null)
    }

    pub fn bool(b: bool) -> Self {
        Json(Value::Bool(b))
    }

    pub fn int(i: u64) -> Self {
        Json(Value::Int(i128::from(i)))
    }

    pub fn num(f: f64) -> Self {
        Json(Value::Float(f))
    }

    pub fn str(s: impl Into<String>) -> Self {
        Json(Value::Str(s.into()))
    }

    pub fn seq(items: Vec<Json>) -> Self {
        Json(Value::Seq(items.into_iter().map(|j| j.0).collect()))
    }

    /// An object with keys in the given order.
    pub fn obj(entries: Vec<(&str, Json)>) -> Self {
        Json(Value::Map(
            entries
                .into_iter()
                .map(|(k, v)| (k.to_string(), v.0))
                .collect(),
        ))
    }

    pub fn parse(text: &str) -> Result<Self, String> {
        serde_json::from_str::<Json>(text).map_err(|e| e.to_string())
    }

    pub fn to_compact(&self) -> String {
        serde_json::to_string(self).expect("the shim serializer is infallible")
    }

    pub fn to_pretty(&self) -> String {
        serde_json::to_string_pretty(self).expect("the shim serializer is infallible")
    }

    pub fn get(&self, key: &str) -> Option<Json> {
        self.0.get(key).cloned().map(Json)
    }

    pub fn f64(&self) -> Option<f64> {
        match &self.0 {
            Value::Float(f) => Some(*f),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    pub fn u64(&self) -> Option<u64> {
        match &self.0 {
            Value::Int(i) => u64::try_from(*i).ok(),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match &self.0 {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match &self.0 {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn items(&self) -> Vec<Json> {
        match &self.0 {
            Value::Seq(items) => items.iter().cloned().map(Json).collect(),
            _ => Vec::new(),
        }
    }

    /// Object entries in stored order (empty for non-objects).
    pub fn entries(&self) -> Vec<(String, Json)> {
        match &self.0 {
            Value::Map(entries) => entries
                .iter()
                .map(|(k, v)| (k.clone(), Json(v.clone())))
                .collect(),
            _ => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_through_text_keeping_key_order_and_u64_range() {
        let doc = Json::obj(vec![
            ("z", Json::num(1.25)),
            ("a", Json::seq(vec![Json::int(u64::MAX), Json::null()])),
            ("s", Json::str("x\"y")),
            ("b", Json::bool(true)),
        ]);
        for text in [doc.to_compact(), doc.to_pretty()] {
            let back = Json::parse(&text).unwrap();
            assert_eq!(back, doc);
            assert_eq!(back.entries()[0].0, "z");
            assert_eq!(back.get("a").unwrap().items()[0].u64(), Some(u64::MAX));
            assert_eq!(back.get("s").unwrap().as_str(), Some("x\"y"));
            assert_eq!(back.get("b").unwrap().as_bool(), Some(true));
        }
        assert!(Json::parse("{\"a\": }").is_err());
    }
}
