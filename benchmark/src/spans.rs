//! The benchmark's own in-memory span recorder.
//!
//! Spans are recorded from the benchmark's files, around the calls into
//! each layer's public functions; nothing inside the crates under test
//! is touched. A span is `(name, start_ns, end_ns, parent, op_id)`:
//! `parent` is the span that was open when this one began and `op_id`
//! is shared by every span of one operation. Spans stay in memory and
//! are written to `benchmark/out/TRACE_<workload>.json` when the run
//! ends. A disabled recorder (every untraced run) costs one branch per
//! call.

use std::time::Instant;

use crate::json::{Json, JsonExt};

/// One recorded span. `end_ns == 0` while the span is still open.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub op_id: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle returned by [`Recorder::begin`]; pass it back to
/// [`Recorder::end`].
#[derive(Clone, Copy)]
pub struct Open(Option<u32>);

pub struct Recorder {
    enabled: bool,
    t0: Instant,
    spans: Vec<Span>,
    current: Option<u32>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            t0: Instant::now(),
            spans: Vec::new(),
            current: None,
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Open a span under whichever span is currently open.
    pub fn begin(&mut self, name: &'static str, op_id: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.t0.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.current,
            op_id,
        });
        self.current = Some(idx);
        Open(Some(idx))
    }

    /// Close `open` and return its duration in nanoseconds (0 when the
    /// recorder is disabled).
    pub fn end(&mut self, open: Open) -> u64 {
        let Some(idx) = open.0 else { return 0 };
        let now = self.t0.elapsed().as_nanos() as u64;
        let span = &mut self.spans[idx as usize];
        span.end_ns = now.max(span.start_ns + 1);
        self.current = span.parent;
        span.dur_ns()
    }

    /// Run `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, op_id: u64, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name, op_id);
        let out = f();
        self.end(open);
        out
    }

    /// Run `f` inside a span and also return how long it took, in
    /// seconds, measured inside the span so the recorder's own cost is
    /// not in the figure.
    pub fn timed<T>(&mut self, name: &'static str, op_id: u64, f: impl FnOnce() -> T) -> (T, f64) {
        self.span(name, op_id, || {
            let t = Instant::now();
            let out = f();
            (out, t.elapsed().as_secs_f64())
        })
    }

    /// The trace document: every span plus its self time.
    pub fn to_json(&self, workload: &str) -> Json {
        let selfs = self_times(&self.spans);
        let spans = self
            .spans
            .iter()
            .zip(selfs)
            .map(|(s, self_ns)| {
                Json::obj([
                    ("name", Json::str(s.name)),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("op_id", Json::Num(s.op_id as f64)),
                    ("self_ns", Json::Num(self_ns as f64)),
                ])
            })
            .collect();
        Json::obj([
            ("schema", Json::str("stackbench-trace-v1")),
            ("workload", Json::str(workload)),
            ("spans", Json::Arr(spans)),
        ])
    }
}

/// A span's self time is its duration minus the part of its interval
/// that its direct children cover. Children are clipped to the parent's
/// interval and overlapping children are counted once (the union of
/// their intervals), so self time is never negative.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if hi > lo {
                children[p as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.dur_ns().saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op_id: 7,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("papi.read", 0, 100, None),
            span("wire.fetch", 10, 90, Some(0)),
            span("codec", 20, 30, Some(1)),
            span("codec", 70, 80, Some(1)),
        ];
        // read: 100 - 80; fetch: 80 - 20; codecs are leaves.
        assert_eq!(self_times(&spans), vec![20, 60, 10, 10]);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_clipped() {
        let spans = vec![
            span("parent", 100, 200, None),
            span("a", 90, 150, Some(0)),  // starts before the parent
            span("b", 140, 180, Some(0)), // overlaps a
            span("c", 190, 260, Some(0)), // ends after the parent
        ];
        // Covered: [100,180) and [190,200) = 90 of 100.
        assert_eq!(self_times(&spans)[0], 10);
    }

    #[test]
    fn recorder_nests_and_a_disabled_one_records_nothing() {
        let mut rec = Recorder::new(true);
        let outer = rec.begin("outer", 1);
        rec.span("inner", 1, || std::hint::black_box(3 + 4));
        rec.end(outer);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].parent, None);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let selfs = self_times(spans);
        assert_eq!(selfs[0] + selfs[1], spans[0].dur_ns());

        let mut off = Recorder::new(false);
        let o = off.begin("outer", 1);
        assert_eq!(off.end(o), 0);
        assert!(off.spans().is_empty());
    }
}
