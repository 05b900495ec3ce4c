//! Series identity and matching: metric name + sorted labels, metric
//! globs and label matchers.
//!
//! A [`SeriesKey`] is the durable identity of one time series: a dotted
//! metric name plus a set of `(key, value)` labels held sorted so two
//! keys constructed in different label orders compare — and hash —
//! equal. A key carries its hash, computed once when it is built or
//! gains a label, so the ingest head map hashes a word per lookup
//! instead of the key's strings. Queries select series
//! with a metric *glob* (`*` matches any run of characters, the only
//! metacharacter) and a conjunction of exact label matchers, the subset
//! of a real TSDB's selector language the fleet aggregation in ROADMAP
//! item 1 needs (`mba.ch*.bytes{host="tellico-0017"}`).

use std::cmp::Ordering;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher, RandomState};
use std::sync::OnceLock;

/// The identity of one series: metric name plus sorted labels.
///
/// Equality and ordering are lexicographic over (metric, labels);
/// [`Hash`] writes only the cached word, which the std keyed hasher
/// computed over the same pair, so a key is as hard to collide on
/// purpose as a `String` in a `HashMap`.
#[derive(Clone)]
pub struct SeriesKey {
    metric: String,
    labels: Vec<(String, String)>,
    hash: u64,
}

/// The process-wide keyed hasher every [`SeriesKey`] hash comes from.
fn key_hasher() -> &'static RandomState {
    static KEYS: OnceLock<RandomState> = OnceLock::new();
    KEYS.get_or_init(RandomState::new)
}

impl SeriesKey {
    /// A key with no labels.
    pub fn new(metric: impl Into<String>) -> Self {
        SeriesKey::from_parts(metric.into(), Vec::new())
    }

    /// A key from a metric name and labels in any order, taking both by
    /// value: when a label key repeats, the later value wins, as if
    /// each pair had been added with [`SeriesKey::with_label`].
    pub fn from_parts(metric: String, mut labels: Vec<(String, String)>) -> Self {
        if !labels.is_sorted_by(|a, b| a.0 < b.0) {
            // Reversed, a stable sort puts the last of equal keys first
            // and `dedup_by` keeps the first.
            labels.reverse();
            labels.sort_by(|a, b| a.0.cmp(&b.0));
            labels.dedup_by(|later, kept| later.0 == kept.0);
        }
        let mut key = SeriesKey {
            metric,
            labels,
            hash: 0,
        };
        key.rehash();
        key
    }

    /// Add (or replace) one label, keeping the set sorted by key.
    pub fn with_label(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        let (key, value) = (key.into(), value.into());
        match self.labels.binary_search_by(|(k, _)| k.cmp(&key)) {
            Ok(i) => self.labels[i].1 = value,
            Err(i) => self.labels.insert(i, (key, value)),
        }
        self.rehash();
        self
    }

    fn rehash(&mut self) {
        let mut h = key_hasher().build_hasher();
        self.metric.hash(&mut h);
        self.labels.hash(&mut h);
        self.hash = h.finish();
    }

    /// The metric name.
    pub fn metric(&self) -> &str {
        &self.metric
    }

    /// Labels, sorted by key.
    pub fn labels(&self) -> &[(String, String)] {
        &self.labels
    }

    /// The value of label `key`, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .binary_search_by(|(k, _)| k.as_str().cmp(key))
            .ok()
            .map(|i| self.labels[i].1.as_str())
    }
}

impl PartialEq for SeriesKey {
    fn eq(&self, other: &Self) -> bool {
        self.hash == other.hash && self.metric == other.metric && self.labels == other.labels
    }
}

impl Eq for SeriesKey {}

impl Ord for SeriesKey {
    fn cmp(&self, other: &Self) -> Ordering {
        (&self.metric, &self.labels).cmp(&(&other.metric, &other.labels))
    }
}

impl PartialOrd for SeriesKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Hash for SeriesKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

impl std::fmt::Debug for SeriesKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SeriesKey")
            .field("metric", &self.metric)
            .field("labels", &self.labels)
            .finish()
    }
}

/// A [`Hasher`] that passes a [`SeriesKey`]'s cached hash through.
/// Anything else written to it is folded in FNV-1a style, so it stays a
/// working hasher (and has no panic path) whatever it is given.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = word;
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Build [`KeyHasher`]s: the hasher of maps keyed by [`SeriesKey`].
pub(crate) type KeyHashBuilder = BuildHasherDefault<KeyHasher>;

impl std::fmt::Display for SeriesKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.metric)?;
        if !self.labels.is_empty() {
            write!(f, "{{")?;
            for (i, (k, v)) in self.labels.iter().enumerate() {
                if i > 0 {
                    write!(f, ",")?;
                }
                write!(f, "{k}={v:?}")?;
            }
            write!(f, "}}")?;
        }
        Ok(())
    }
}

/// True when `name` matches `pattern`, where `*` matches any (possibly
/// empty) run of characters and every other character matches itself.
/// Iterative two-pointer matcher — linear in practice, no backtracking
/// blow-up, no allocation. It walks bytes, not chars: `*` is ASCII and
/// UTF-8 is self-synchronising, so a literal can only match on a char
/// boundary and the verdict is the one a char-wise walk would reach.
pub fn glob_match(pattern: &str, name: &str) -> bool {
    let (p, n) = (pattern.as_bytes(), name.as_bytes());
    let (mut pi, mut ni) = (0usize, 0usize);
    let mut star: Option<(usize, usize)> = None;
    while ni < n.len() {
        if pi < p.len() && p[pi] == b'*' {
            star = Some((pi, ni));
            pi += 1;
        } else if pi < p.len() && p[pi] == n[ni] {
            pi += 1;
            ni += 1;
        } else if let Some((sp, sn)) = star {
            // Backtrack: let the last `*` swallow one more byte.
            pi = sp + 1;
            ni = sn + 1;
            star = Some((sp, sn + 1));
        } else {
            return false;
        }
    }
    while pi < p.len() && p[pi] == b'*' {
        pi += 1;
    }
    pi == p.len()
}

/// A query selector: metric glob plus exact label equalities.
#[derive(Clone, Debug, Default)]
pub struct Selector {
    /// Metric glob (`*` wildcard); empty selects nothing.
    pub metric: String,
    /// Conjunction of exact `label == value` matchers.
    pub labels: Vec<(String, String)>,
}

impl Selector {
    /// Select by metric glob alone.
    pub fn metric(glob: impl Into<String>) -> Self {
        Selector {
            metric: glob.into(),
            labels: Vec::new(),
        }
    }

    /// Require `key == value` on matched series.
    pub fn with_label(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.labels.push((key.into(), value.into()));
        self
    }

    /// True when `key` satisfies the metric glob and every label
    /// matcher.
    pub fn matches(&self, key: &SeriesKey) -> bool {
        glob_match(&self.metric, key.metric())
            && self.labels.iter().all(|(k, v)| key.label(k) == Some(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_sort_and_replace() {
        let a = SeriesKey::new("m")
            .with_label("z", "1")
            .with_label("a", "2");
        let b = SeriesKey::new("m")
            .with_label("a", "2")
            .with_label("z", "1");
        assert_eq!(a, b);
        let c = a.clone().with_label("z", "9");
        assert_eq!(c.label("z"), Some("9"));
        assert_eq!(c.label("a"), Some("2"));
        assert_eq!(c.label("missing"), None);
        assert_eq!(format!("{c}"), "m{a=\"2\",z=\"9\"}");
    }

    #[test]
    fn from_parts_sorts_and_the_later_duplicate_wins() {
        let labels = |pairs: &[(&str, &str)]| {
            pairs
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect::<Vec<_>>()
        };
        let key = SeriesKey::from_parts(
            "m".into(),
            labels(&[("z", "1"), ("a", "2"), ("z", "3"), ("m", "4")]),
        );
        let built = SeriesKey::new("m")
            .with_label("z", "1")
            .with_label("a", "2")
            .with_label("z", "3")
            .with_label("m", "4");
        assert_eq!(key, built);
        assert_eq!(key.labels(), labels(&[("a", "2"), ("m", "4"), ("z", "3")]));
        let hash = |k: &SeriesKey| std::hash::BuildHasher::hash_one(&KeyHashBuilder::default(), k);
        assert_eq!(hash(&key), hash(&built));
        assert_ne!(hash(&key), hash(&SeriesKey::new("m")));
    }

    #[test]
    fn glob_semantics() {
        assert!(glob_match("mba.ch*.bytes", "mba.ch0.bytes"));
        assert!(glob_match("mba.ch*.bytes", "mba.ch12.bytes"));
        assert!(!glob_match("mba.ch*.bytes", "mba.ch0.other"));
        assert!(glob_match("*", "anything"));
        assert!(glob_match("*", ""));
        // A `*` in the name is an ordinary character to swallow.
        assert!(glob_match("*", "*x"));
        assert!(glob_match("a*b*c", "a__b__c"));
        assert!(glob_match("a*b*c", "abc"));
        assert!(!glob_match("a*b*c", "acb"));
        assert!(glob_match("exact", "exact"));
        assert!(!glob_match("exact", "exact.more"));
        assert!(!glob_match("", "x"));
        assert!(glob_match("", ""));
        // Multi-byte names: a `*` swallows whole chars, a literal
        // multi-byte char matches itself and nothing that merely shares
        // its continuation bytes (č = C4 8D, ō = C5 8D).
        assert!(glob_match("mba.*.bytes", "mba.čh0.bytes"));
        assert!(glob_match("mba.*h0.bytes", "mba.čh0.bytes"));
        assert!(glob_match("mba.č*.bytes", "mba.čh0.bytes"));
        assert!(!glob_match("mba.c*.bytes", "mba.čh0.bytes"));
        assert!(!glob_match("mba.*ōh0.bytes", "mba.čh0.bytes"));
        assert!(glob_match("*č", "čč"));
        assert!(!glob_match("č", "ō"));
    }

    #[test]
    fn selector_conjunction() {
        let key = SeriesKey::new("pmcd.fetch.count")
            .with_label("host", "tellico-0017")
            .with_label("group", "nest-1hz");
        let sel = Selector::metric("pmcd.*").with_label("host", "tellico-0017");
        assert!(sel.matches(&key));
        let wrong = Selector::metric("pmcd.*").with_label("host", "tellico-0018");
        assert!(!wrong.matches(&key));
        let missing = Selector::metric("pmcd.*").with_label("rack", "r1");
        assert!(!missing.matches(&key));
    }
}
