//! Series identity and matching: metric name + sorted labels, metric
//! globs and label matchers.
//!
//! A [`SeriesKey`] is the durable identity of one time series: a dotted
//! metric name plus a set of `(key, value)` labels held sorted so two
//! keys constructed in different label orders compare — and hash —
//! equal. Queries select series with a metric *glob* (`*` matches any
//! run of characters, the only metacharacter) and a conjunction of
//! exact label matchers, the subset of a real TSDB's selector language
//! the fleet aggregation in ROADMAP item 1 needs
//! (`mba.ch*.bytes{host="tellico-0017"}`).

/// The identity of one series: metric name plus sorted labels.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SeriesKey {
    metric: String,
    labels: Vec<(String, String)>,
}

impl SeriesKey {
    /// A key with no labels.
    pub fn new(metric: impl Into<String>) -> Self {
        SeriesKey {
            metric: metric.into(),
            labels: Vec::new(),
        }
    }

    /// Add (or replace) one label, keeping the set sorted by key.
    pub fn with_label(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        let (key, value) = (key.into(), value.into());
        match self.labels.binary_search_by(|(k, _)| k.cmp(&key)) {
            Ok(i) => self.labels[i].1 = value,
            Err(i) => self.labels.insert(i, (key, value)),
        }
        self
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
