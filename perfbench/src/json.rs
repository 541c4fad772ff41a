//! JSON for the benchmark: the compile server's own std-only reader and
//! writer, included from the CLI crate's source, plus the accessors the
//! benchmark needs on top of it.

#[path = "../../crates/cli/src/json.rs"]
mod server;

pub use server::*;

impl Json {
    /// The number, if this is one.
    pub fn num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Number at a dotted path of object members, e.g. `"cache.hits"`.
    pub fn num_at(&self, path: &str) -> Option<f64> {
        path.split('.')
            .try_fold(self, |v, key| v.get(key))
            .and_then(Json::num)
    }
}

/// `s` as a quoted JSON string.
pub fn quote(s: &str) -> String {
    Json::Str(s.to_string()).to_line()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_server_shapes() {
        let v = parse(r#"{"id":3,"ok":true,"a":[1,-2.5e3,null],"s":"x\"\nA","o":{"p":{"q":7}}}"#)
            .unwrap();
        assert_eq!(v.get("id").and_then(Json::num), Some(3.0));
        assert_eq!(v.get("s").and_then(Json::as_str), Some("x\"\nA"));
        assert_eq!(v.num_at("o.p.q"), Some(7.0));
        assert_eq!(
            parse(&quote("a\"b\\\n")).unwrap(),
            Json::Str("a\"b\\\n".into())
        );
    }
}
