//! JSON in and out. The value type and the parser are the repository's
//! own (`obs::chrome`); this module adds the writer and a few accessors.

pub use obs::chrome::{parse_json, Json};
use repro_bench::runner::json_escape;

/// Constructors and accessors that read better than the bare enum.
pub trait JsonExt: Sized {
    fn str(s: impl Into<String>) -> Self;
    fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Self;
    fn get(&self, key: &str) -> Option<&Json>;
    fn as_f64(&self) -> Option<f64>;
    fn as_str(&self) -> Option<&str>;
    fn as_arr(&self) -> Option<&[Json]>;
    fn fields(&self) -> &[(String, Json)];
    /// Compact single-line rendering.
    fn render(&self) -> String;
    /// Rendering with one top-level field (or array element) per line,
    /// for the files people read.
    fn render_pretty(&self) -> String;
}

impl JsonExt for Json {
    fn str(s: impl Into<String>) -> Self {
        Json::Str(s.into())
    }

    fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Self {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    fn get(&self, key: &str) -> Option<&Json> {
        self.fields().iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    fn fields(&self) -> &[(String, Json)] {
        match self {
            Json::Obj(f) => f,
            _ => &[],
        }
    }

    fn render(&self) -> String {
        let mut out = String::new();
        write(self, &mut out);
        out
    }

    fn render_pretty(&self) -> String {
        let mut out = String::new();
        match self {
            Json::Obj(fields) if !fields.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in fields.iter().enumerate() {
                    out.push_str(&format!("  \"{}\": ", json_escape(k)));
                    write(v, &mut out);
                    out.push_str(if i + 1 < fields.len() { ",\n" } else { "\n" });
                }
                out.push_str("}\n");
            }
            other => {
                write(other, &mut out);
                out.push('\n');
            }
        }
        out
    }
}

fn write(value: &Json, out: &mut String) {
    match value {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        // JSON has no NaN or infinity; a measurement that produced one
        // is a bug upstream, surfaced as null rather than a bad file.
        Json::Num(n) if !n.is_finite() => out.push_str("null"),
        // Rust's shortest round-trip form: every digit that was
        // measured, never exponent notation.
        Json::Num(n) => out.push_str(&n.to_string()),
        Json::Str(s) => {
            out.push('"');
            out.push_str(&json_escape(s));
            out.push('"');
        }
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write(item, out);
            }
            out.push(']');
        }
        Json::Obj(fields) => {
            out.push('{');
            for (i, (k, v)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("\"{}\": ", json_escape(k)));
                write(v, out);
            }
            out.push('}');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_round_trips_through_the_obs_parser() {
        let doc = Json::obj([
            ("correct", Json::Bool(true)),
            ("attempted", Json::Num(19200.0)),
            ("nothing", Json::Null),
            ("nasty", Json::str("tab\t \"quoted\\path\"\nline2 \u{1} µs")),
            (
                "metrics",
                Json::obj([(
                    "op_p50_us",
                    Json::obj([
                        ("value", Json::Num(52.384_719_000_000_004)),
                        ("unit", Json::str("us")),
                    ]),
                )]),
            ),
            (
                "values",
                Json::Arr(vec![
                    Json::Num(0.000_012_5),
                    Json::Num(-3.0),
                    Json::Num(1.0e15),
                ]),
            ),
        ]);
        for text in [doc.render(), doc.render_pretty()] {
            assert_eq!(parse_json(&text), Ok(doc.clone()), "{text}");
        }
        assert_eq!(doc.get("attempted").and_then(Json::as_f64), Some(19200.0));
        assert!(doc.render().contains("\"attempted\": 19200,"));
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(Json::Arr(vec![Json::Num(f64::INFINITY)]).render(), "[null]");
    }
}
