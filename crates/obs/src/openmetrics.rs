//! OpenMetrics-style text exposition: renderer and strict parser.
//!
//! The grammar (DESIGN.md §11, §14) is a deliberately small subset of
//! the OpenMetrics text format — exactly what a Prometheus scraper
//! needs and nothing it would choke on:
//!
//! ```text
//! exposition  = [ts-line] *block eof-line
//! ts-line     = "# scrape_ts_ns " uint LF
//! block       = "# TYPE " name " " ("counter" | "gauge") LF 1*sample
//! sample      = name "_total" [labels] " " uint LF        ; counter
//!             | name [labels] " " (uint | float) LF       ; gauge
//! labels      = "{" label *("," label) "}"
//! label       = key "=" DQUOTE *escaped-char DQUOTE
//! eof-line    = "# EOF" LF
//! name        = [a-zA-Z_:][a-zA-Z0-9_:]*
//! key         = [a-zA-Z_][a-zA-Z0-9_]*
//! ```
//!
//! A block is one `# TYPE` line followed by one or more sample lines
//! of the *same* metric, distinguished by their label sets (the fleet
//! aggregator emits one sample per host under a shared `# TYPE`).
//! Inside a label value `\\`, `\"` and `\n` are the only escapes —
//! backslash, double-quote and newline are the only characters that
//! could break the line-oriented grammar, and anything else after a
//! backslash is rejected. Metric names are unique across blocks,
//! label sets are unique within a block, and nothing else may appear.
//! [`parse`] enforces all of it, so `parse(render(x)) == x`
//! round-trips exactly — including `u64` values beyond 2^53, which
//! stay integers end to end, and hostile label values. The single
//! timestamp lives in one header comment line; [`strip_timestamp`]
//! removes it for the byte-identity parity tests ("equal modulo
//! timestamps").

use std::collections::HashSet;

use crate::metrics::{ExportSemantics, Exported};

/// Exposition type of one metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotone; rendered with the `_total` sample suffix.
    Counter,
    /// Instantaneous value.
    Gauge,
}

/// A sample value: integers survive exactly, derived rates are floats.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Value {
    /// Exact unsigned integer (counters, gauges from the registry).
    Int(u64),
    /// Derived scalar (e.g. a rate), finite.
    Float(f64),
}

/// One sample in an exposition.
#[derive(Clone, Debug, PartialEq)]
pub struct OmSample {
    /// Sanitized metric name (see [`sanitize`]).
    pub name: String,
    /// Counter or gauge.
    pub kind: MetricKind,
    /// Label pairs in render order (not sorted: the renderer emits
    /// them exactly as given so `render ∘ parse` is the identity).
    pub labels: Vec<(String, String)>,
    /// Current value.
    pub value: Value,
}

impl OmSample {
    /// An unlabelled sample.
    pub fn new(name: impl Into<String>, kind: MetricKind, value: Value) -> Self {
        OmSample {
            name: name.into(),
            kind,
            labels: Vec::new(),
            value,
        }
    }

    /// Append one label pair (builder style).
    pub fn with_label(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.labels.push((key.into(), value.into()));
        self
    }
}

/// A parsed exposition document.
#[derive(Clone, Debug, PartialEq)]
pub struct Exposition {
    /// The `# scrape_ts_ns` header, when present.
    pub scrape_ts_ns: Option<u64>,
    /// Samples in document order.
    pub samples: Vec<OmSample>,
}

/// Map a dotted registry name onto the exposition name charset:
/// invalid characters become `_`, and a leading digit gains a `_`
/// prefix. Colons (used by derived `:rate` names) are kept — they are
/// legal in Prometheus names.
pub fn sanitize(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        if ok {
            out.push(c);
        } else if c.is_ascii_digit() {
            out.push('_');
            out.push(c);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Convert flattened registry scalars to exposition samples:
/// counter semantics become counters, instants become gauges.
pub fn from_exported(exported: &[Exported]) -> Vec<OmSample> {
    exported
        .iter()
        .map(|e| {
            OmSample::new(
                sanitize(&e.name),
                match e.semantics {
                    ExportSemantics::Counter => MetricKind::Counter,
                    ExportSemantics::Instant => MetricKind::Gauge,
                },
                Value::Int(e.value),
            )
        })
        .collect()
}

fn push_value(out: &mut String, v: Value) {
    match v {
        Value::Int(n) => out.push_str(&n.to_string()),
        Value::Float(f) => {
            let f = if f.is_finite() { f } else { 0.0 };
            let text = format!("{f}");
            out.push_str(&text);
            // Keep floats distinguishable from integers so the parse
            // side round-trips the Value variant exactly.
            if !text.contains(['.', 'e', 'E']) {
                out.push_str(".0");
            }
        }
    }
}

/// Escape a label value: exactly the three characters that could
/// break the line/quote structure.
fn push_escaped(out: &mut String, value: &str) {
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
}

fn push_sample_line(out: &mut String, s: &OmSample) {
    out.push_str(&s.name);
    if s.kind == MetricKind::Counter {
        out.push_str("_total");
    }
    if !s.labels.is_empty() {
        out.push('{');
        for (i, (k, v)) in s.labels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(k);
            out.push_str("=\"");
            push_escaped(out, v);
            out.push('"');
        }
        out.push('}');
    }
    out.push(' ');
    push_value(out, s.value);
    out.push('\n');
}

/// Render samples as exposition text, with an optional scrape
/// timestamp header line. Consecutive samples with the same metric
/// name share one `# TYPE` line (one block, many label sets); the
/// caller must keep same-name samples adjacent or [`parse`] will
/// reject the document as a duplicate.
pub fn render(samples: &[OmSample], scrape_ts_ns: Option<u64>) -> String {
    let mut out = String::with_capacity(64 * samples.len() + 32);
    if let Some(ts) = scrape_ts_ns {
        out.push_str("# scrape_ts_ns ");
        out.push_str(&ts.to_string());
        out.push('\n');
    }
    let mut prev_name: Option<&str> = None;
    for s in samples {
        if prev_name != Some(s.name.as_str()) {
            out.push_str("# TYPE ");
            out.push_str(&s.name);
            out.push_str(match s.kind {
                MetricKind::Counter => " counter\n",
                MetricKind::Gauge => " gauge\n",
            });
            prev_name = Some(s.name.as_str());
        }
        push_sample_line(&mut out, s);
    }
    out.push_str("# EOF\n");
    out
}

/// Remove the `# scrape_ts_ns` header line, for "equal modulo
/// timestamps" comparisons.
pub fn strip_timestamp(text: &str) -> String {
    text.lines()
        .filter(|l| !l.starts_with("# scrape_ts_ns "))
        .fold(String::with_capacity(text.len()), |mut acc, l| {
            acc.push_str(l);
            acc.push('\n');
            acc
        })
}

fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn valid_label_key(key: &str) -> bool {
    let mut chars = key.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

fn parse_value(text: &str) -> Result<Value, String> {
    if !text.is_empty() && text.bytes().all(|b| b.is_ascii_digit()) {
        return text
            .parse::<u64>()
            .map(Value::Int)
            .map_err(|e| format!("integer value '{text}': {e}"));
    }
    match text.parse::<f64>() {
        Ok(f) if f.is_finite() => Ok(Value::Float(f)),
        Ok(_) => Err(format!("non-finite value '{text}'")),
        Err(e) => Err(format!("bad value '{text}': {e}")),
    }
}

/// A sample line split into `(sample_name, labels, value_text)`.
type ParsedSampleLine<'a> = (&'a str, Vec<(String, String)>, &'a str);

/// Split one sample line into `(sample_name, labels, value_text)`.
/// Label values are unescaped here; unknown escapes, an unterminated
/// value, a malformed key, or a duplicate key are errors. The scan is
/// character-wise because label values may legally contain spaces,
/// commas and braces.
fn parse_sample_line(line: &str) -> Result<ParsedSampleLine<'_>, String> {
    let bytes = line.as_bytes();
    let Some(name_end) = bytes.iter().position(|&b| b == b'{' || b == b' ') else {
        return Err(format!("bad sample line '{line}'"));
    };
    let sample_name = &line[..name_end];
    if bytes[name_end] == b' ' {
        return Ok((sample_name, Vec::new(), &line[name_end + 1..]));
    }

    let mut labels: Vec<(String, String)> = Vec::new();
    let mut i = name_end + 1;
    loop {
        let key_start = i;
        while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
            i += 1;
        }
        let key = &line[key_start..i];
        if !valid_label_key(key) {
            return Err(format!("invalid label key '{key}' in '{line}'"));
        }
        if labels.iter().any(|(k, _)| k == key) {
            return Err(format!("duplicate label key '{key}' in '{line}'"));
        }
        if bytes.get(i) != Some(&b'=') || bytes.get(i + 1) != Some(&b'"') {
            return Err(format!("label '{key}' is not followed by =\" in '{line}'"));
        }
        i += 2;
        let mut value = String::new();
        loop {
            match bytes.get(i) {
                None => return Err(format!("unterminated label value in '{line}'")),
                Some(b'"') => {
                    i += 1;
                    break;
                }
                Some(b'\\') => {
                    match bytes.get(i + 1) {
                        Some(b'\\') => value.push('\\'),
                        Some(b'"') => value.push('"'),
                        Some(b'n') => value.push('\n'),
                        _ => return Err(format!("unknown escape in label value in '{line}'")),
                    }
                    i += 2;
                }
                Some(_) => {
                    // i is always on a char boundary: the branches above
                    // only consume whole ASCII bytes or whole chars.
                    let Some(c) = line[i..].chars().next() else {
                        return Err(format!("bad utf-8 boundary in '{line}'"));
                    };
                    value.push(c);
                    i += c.len_utf8();
                }
            }
        }
        labels.push((key.to_string(), value));
        match bytes.get(i) {
            Some(b',') => i += 1,
            Some(b'}') => {
                i += 1;
                break;
            }
            _ => return Err(format!("expected ',' or '}}' after label in '{line}'")),
        }
    }
    if bytes.get(i) != Some(&b' ') {
        return Err(format!("expected space after label set in '{line}'"));
    }
    Ok((sample_name, labels, &line[i + 1..]))
}

/// A label set normalised for duplicate detection: `{a="1",b="2"}`
/// and `{b="2",a="1"}` are the same series.
fn sorted_labels(labels: &[(String, String)]) -> Vec<(String, String)> {
    let mut v = labels.to_vec();
    v.sort();
    v
}

/// Strictly parse an exposition document. Every deviation from the
/// grammar — missing `# EOF`, a sample without its `# TYPE`, a name
/// mismatch, a counter with a float value, duplicate metric names
/// across blocks, duplicate label sets within a block, malformed or
/// unknown label escapes, trailing content — is an error naming the
/// offending line.
pub fn parse(text: &str) -> Result<Exposition, String> {
    if !text.ends_with('\n') {
        return Err("document does not end with a newline".into());
    }
    let mut lines = text.lines().enumerate().peekable();
    let mut scrape_ts_ns = None;
    if let Some((_, l)) = lines.peek() {
        if let Some(rest) = l.strip_prefix("# scrape_ts_ns ") {
            scrape_ts_ns = Some(
                rest.parse::<u64>()
                    .map_err(|e| format!("line 1: bad scrape_ts_ns '{rest}': {e}"))?,
            );
            lines.next();
        }
    }

    let mut samples: Vec<OmSample> = Vec::new();
    // Metric names declared so far, and the label sets of the current
    // block: hash sets, so both duplicate checks cost a sample one
    // lookup however large the document or its blocks grow.
    let mut names: HashSet<&str> = HashSet::new();
    let mut block_sets: HashSet<Vec<(String, String)>> = HashSet::new();
    let mut saw_eof = false;
    while let Some((i, line)) = lines.next() {
        let ln = i + 1;
        if line == "# EOF" {
            if lines.next().is_some() {
                return Err(format!("line {}: content after # EOF", ln + 1));
            }
            saw_eof = true;
            break;
        }
        let Some(type_decl) = line.strip_prefix("# TYPE ") else {
            return Err(format!(
                "line {ln}: expected '# TYPE' or '# EOF', got '{line}'"
            ));
        };
        let (name, kind) = match type_decl.rsplit_once(' ') {
            Some((n, "counter")) => (n, MetricKind::Counter),
            Some((n, "gauge")) => (n, MetricKind::Gauge),
            _ => return Err(format!("line {ln}: bad TYPE declaration '{type_decl}'")),
        };
        if !valid_name(name) {
            return Err(format!("line {ln}: invalid metric name '{name}'"));
        }
        if !names.insert(name) {
            return Err(format!("line {ln}: duplicate metric '{name}'"));
        }
        let expected = match kind {
            MetricKind::Counter => format!("{name}_total"),
            MetricKind::Gauge => name.to_string(),
        };
        // One or more sample lines, until the next '# ' comment line.
        block_sets.clear();
        while let Some((j, sample_line)) = lines.peek() {
            if sample_line.starts_with("# ") {
                break;
            }
            let sln = j + 1;
            let (sample_name, labels, value_text) =
                parse_sample_line(sample_line).map_err(|e| format!("line {sln}: {e}"))?;
            if sample_name != expected {
                return Err(format!(
                    "line {sln}: sample name '{sample_name}' does not match TYPE '{name}'"
                ));
            }
            let value = parse_value(value_text).map_err(|e| format!("line {sln}: {e}"))?;
            if kind == MetricKind::Counter && !matches!(value, Value::Int(_)) {
                return Err(format!(
                    "line {sln}: counter '{name}' has non-integer value"
                ));
            }
            if !block_sets.insert(sorted_labels(&labels)) {
                return Err(format!(
                    "line {sln}: duplicate label set for metric '{name}'"
                ));
            }
            samples.push(OmSample {
                name: name.to_string(),
                kind,
                labels,
                value,
            });
            lines.next();
        }
        if block_sets.is_empty() {
            return Err(format!("line {ln}: TYPE '{name}' has no sample line"));
        }
    }
    if !saw_eof {
        return Err("missing '# EOF' terminator".into());
    }
    Ok(Exposition {
        scrape_ts_ns,
        samples,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(name: &str, kind: MetricKind, value: Value) -> OmSample {
        OmSample::new(name, kind, value)
    }

    #[test]
    fn renders_the_documented_grammar() {
        let samples = vec![
            sample("pmcd_pdu_in", MetricKind::Counter, Value::Int(123)),
            sample("pmcd_queue_depth", MetricKind::Gauge, Value::Int(0)),
            sample("pmcd_pdu_in:rate", MetricKind::Gauge, Value::Float(61.5)),
        ];
        let text = render(&samples, Some(42));
        assert_eq!(
            text,
            "# scrape_ts_ns 42\n\
             # TYPE pmcd_pdu_in counter\n\
             pmcd_pdu_in_total 123\n\
             # TYPE pmcd_queue_depth gauge\n\
             pmcd_queue_depth 0\n\
             # TYPE pmcd_pdu_in:rate gauge\n\
             pmcd_pdu_in:rate 61.5\n\
             # EOF\n"
        );
    }

    #[test]
    fn renders_labels_and_shared_type_blocks() {
        let samples = vec![
            sample("up", MetricKind::Gauge, Value::Int(1)).with_label("host", "tellico-0000"),
            sample("up", MetricKind::Gauge, Value::Int(0)).with_label("host", "tellico-0001"),
            sample("pdu_in", MetricKind::Counter, Value::Int(9))
                .with_label("host", "tellico-0000")
                .with_label("chan", "2"),
        ];
        let text = render(&samples, None);
        assert_eq!(
            text,
            "# TYPE up gauge\n\
             up{host=\"tellico-0000\"} 1\n\
             up{host=\"tellico-0001\"} 0\n\
             # TYPE pdu_in counter\n\
             pdu_in_total{host=\"tellico-0000\",chan=\"2\"} 9\n\
             # EOF\n"
        );
        let parsed = parse(&text).unwrap();
        assert_eq!(parsed.samples, samples);
        assert_eq!(render(&parsed.samples, None), text);
    }

    #[test]
    fn escapes_hostile_label_values_and_round_trips() {
        let hostile = "a\\b\"c\nd,e}f{g h\u{00e9}";
        let samples = vec![
            sample("m", MetricKind::Gauge, Value::Int(5)).with_label("v", hostile),
            sample("m", MetricKind::Gauge, Value::Int(6)).with_label("v", "plain"),
        ];
        let text = render(&samples, Some(3));
        assert!(text.contains("v=\"a\\\\b\\\"c\\nd,e}f{g h\u{00e9}\""));
        let parsed = parse(&text).unwrap();
        assert_eq!(parsed.samples, samples);
        assert_eq!(parsed.samples[0].labels[0].1, hostile);
        // And back again: parse -> render is byte-identical.
        assert_eq!(render(&parsed.samples, parsed.scrape_ts_ns), text);
    }

    #[test]
    fn round_trips_exactly_including_big_integers_and_whole_floats() {
        let samples = vec![
            sample("big", MetricKind::Counter, Value::Int(u64::MAX)),
            sample("whole", MetricKind::Gauge, Value::Float(2.0)),
            sample("tiny", MetricKind::Gauge, Value::Float(1.25e-9)),
            sample("zero", MetricKind::Gauge, Value::Int(0)),
        ];
        let text = render(&samples, Some(7));
        let parsed = parse(&text).unwrap();
        assert_eq!(parsed.scrape_ts_ns, Some(7));
        assert_eq!(parsed.samples, samples);
        // And back again: parse -> render is byte-identical.
        assert_eq!(render(&parsed.samples, parsed.scrape_ts_ns), text);
    }

    #[test]
    fn sanitize_maps_dotted_names() {
        assert_eq!(
            sanitize("pmcd.fetch.latency_ns.p99"),
            "pmcd_fetch_latency_ns_p99"
        );
        assert_eq!(sanitize("a.count:rate"), "a_count:rate");
        assert_eq!(sanitize("9lives"), "_9lives");
        assert_eq!(sanitize(""), "_");
    }

    #[test]
    fn from_exported_maps_semantics() {
        let reg = crate::Registry::new();
        reg.counter("om.in").add(3);
        reg.gauge("om.depth").set(9);
        let samples = from_exported(&reg.export());
        assert_eq!(
            samples[0],
            sample("om_in", MetricKind::Counter, Value::Int(3))
        );
        assert_eq!(
            samples[1],
            sample("om_depth", MetricKind::Gauge, Value::Int(9))
        );
    }

    #[test]
    fn strip_timestamp_removes_only_the_header() {
        let text = render(&[sample("x", MetricKind::Gauge, Value::Int(1))], Some(99));
        let bare = render(&[sample("x", MetricKind::Gauge, Value::Int(1))], None);
        assert_eq!(strip_timestamp(&text), bare);
        assert_eq!(strip_timestamp(&bare), bare);
    }

    #[test]
    fn parser_rejects_every_malformation() {
        let reject = |doc: &str, why: &str| {
            assert!(parse(doc).is_err(), "accepted {why}: {doc:?}");
        };
        reject("# TYPE x gauge\nx 1\n", "missing # EOF");
        reject("# TYPE x gauge\nx 1\n# EOF", "missing final newline");
        reject("x 1\n# EOF\n", "sample without TYPE");
        reject("# TYPE x gauge\ny 1\n# EOF\n", "name mismatch");
        reject("# TYPE x counter\nx 1\n# EOF\n", "counter without _total");
        reject("# TYPE x counter\nx_total 1.5\n# EOF\n", "float counter");
        reject("# TYPE x counter\nx_total -1\n# EOF\n", "negative counter");
        reject("# TYPE x histogram\nx 1\n# EOF\n", "unknown type");
        reject("# TYPE 1x gauge\n1x 1\n# EOF\n", "bad name");
        reject(
            "# TYPE x gauge\nx 1\n# TYPE x gauge\nx 2\n# EOF\n",
            "duplicate",
        );
        reject("# TYPE x gauge\nx 1\n# EOF\nx 2\n", "content after EOF");
        reject("# TYPE x gauge\nx nan\n# EOF\n", "non-finite value");
        reject("# scrape_ts_ns abc\n# EOF\n", "bad timestamp");
        assert!(parse("# EOF\n").unwrap().samples.is_empty());
    }

    #[test]
    fn parser_rejects_every_label_malformation() {
        let reject = |doc: &str, why: &str| {
            assert!(parse(doc).is_err(), "accepted {why}: {doc:?}");
        };
        reject("# TYPE x gauge\nx{} 1\n# EOF\n", "empty label braces");
        reject("# TYPE x gauge\nx{k=v} 1\n# EOF\n", "unquoted value");
        reject("# TYPE x gauge\nx{k=\"v} 1\n# EOF\n", "unterminated value");
        reject("# TYPE x gauge\nx{k=\"v\"} 1 2\n# EOF\n", "junk value");
        reject("# TYPE x gauge\nx{k=\"\\t\"} 1\n# EOF\n", "unknown escape");
        reject("# TYPE x gauge\nx{k=\"v\\\"} 1\n# EOF\n", "escaped closer");
        reject("# TYPE x gauge\nx{1k=\"v\"} 1\n# EOF\n", "bad key");
        reject(
            "# TYPE x gauge\nx{k=\"a\",k=\"b\"} 1\n# EOF\n",
            "duplicate key in one sample",
        );
        reject(
            "# TYPE x gauge\nx{k=\"v\"}1\n# EOF\n",
            "missing space after label set",
        );
        reject(
            "# TYPE x gauge\nx{a=\"1\",b=\"2\"} 1\nx{b=\"2\",a=\"1\"} 2\n# EOF\n",
            "duplicate label set (reordered)",
        );
        reject(
            "# TYPE x counter\nx{k=\"v\"} 1\n# EOF\n",
            "labelled counter without _total",
        );
        // The happy path right next to the rejections: spaces, commas
        // and braces are legal inside a quoted value.
        let ok = parse("# TYPE x gauge\nx{k=\"a b,c}d\"} 1\n# EOF\n").unwrap();
        assert_eq!(ok.samples[0].labels, vec![("k".into(), "a b,c}d".into())]);
    }
}
