//! The fleet diagnostics plane: bounded per-pass trace capture and the
//! `/debug/*` HTTP surface (DESIGN.md §16).
//!
//! [`DebugPlane`] keeps a ring of the last K [`PassRecord`]s — each a
//! pass summary, its stitched [`FanoutTrace`] and the raw span events
//! behind it — and renders four endpoints off that bounded state:
//!
//! * `/debug/trace` — Chrome-trace JSON of the retained passes, one
//!   `pid` lane per host (child-id → host mapping from the stitch);
//! * `/debug/flame` — folded stacks over the same events;
//! * `/debug/passes` — one deterministic summary line per pass with
//!   straggler attribution and skew;
//! * `/debug/series?sel=<selector>&window=<ns>[&derive=rate|delta|ewma]
//!   [&tau=<ns>]` — range queries answered straight out of the fleet
//!   [`Store`] through the existing [`Selector`] + `obs::derive`
//!   machinery.
//!
//! Every render is a pure function of ring + store state, so repeated
//! renders under a simulated clock are byte-identical, and memory is
//! bounded by `K × events-per-pass` regardless of fleet uptime.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::Arc;

use obs::stitch::{self, FanoutTrace};
use obs::sync::{Mutex, Rank};
use obs::trace::SpanEvent;
use pcp_wire::scrape::HttpResponse;
use store::{Derivation, Selector, SeriesData, Store};

/// Passes the aggregator's plane retains (the K in "last K passes").
pub const DEFAULT_DEBUG_PASSES: usize = 8;

/// Cap on retained span events per pass — a runaway pass (e.g. one that
/// raced a huge unrelated drain) cannot grow a record without bound.
pub const MAX_EVENTS_PER_PASS: usize = 4096;

/// Everything the plane keeps about one scrape pass.
#[derive(Clone, Debug)]
pub struct PassRecord {
    /// Pass-level trace id.
    pub pass_id: u64,
    /// Timestamp the pass was stamped with.
    pub t_ns: u64,
    /// Hosts scraped successfully.
    pub scraped: usize,
    /// Hosts that failed the pass.
    pub stale: usize,
    /// Series in the merged document.
    pub merged_series: usize,
    /// Samples ingested into the fleet store.
    pub samples_ingested: u64,
    /// The stitched fan-out tree (absent when the pass span was lost
    /// to ring eviction).
    pub trace: Option<FanoutTrace>,
    /// The span events behind the stitch, capped at
    /// [`MAX_EVENTS_PER_PASS`].
    pub events: Vec<SpanEvent>,
}

/// Bounded diagnostics state + the `/debug/*` route table.
pub struct DebugPlane {
    capacity: usize,
    /// Renders copy what they need out under the lock and never touch
    /// the store while holding it.
    ring: Mutex<VecDeque<PassRecord>>,
    store: Arc<Store>,
}

impl DebugPlane {
    /// A plane retaining the last `capacity` passes, answering
    /// `/debug/series` from `store`.
    pub fn new(capacity: usize, store: Arc<Store>) -> Self {
        DebugPlane {
            capacity,
            ring: Mutex::new(
                Rank::FLEET_DEBUG_RING,
                VecDeque::with_capacity(capacity.min(64)),
            ),
            store,
        }
    }

    /// The K in "last K passes".
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Passes currently retained.
    pub fn len(&self) -> usize {
        self.ring.lock().len()
    }

    /// True when no pass has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Record one pass, evicting the oldest beyond the capacity.
    pub fn record_pass(&self, mut record: PassRecord) {
        record.events.truncate(MAX_EVENTS_PER_PASS);
        let mut ring = self.ring.lock();
        ring.push_back(record);
        while ring.len() > self.capacity {
            ring.pop_front();
        }
    }

    /// Route one `/debug/*` request; `None` for unknown paths (the
    /// listener turns that into a 404).
    pub fn handle(&self, path: &str, query: &str) -> Option<HttpResponse> {
        match path {
            "/debug/trace" => Some(HttpResponse::ok("application/json", self.render_trace())),
            "/debug/flame" => Some(HttpResponse::text(200, "OK", self.render_flame())),
            "/debug/passes" => Some(HttpResponse::text(200, "OK", self.render_passes())),
            "/debug/series" => Some(self.render_series(query)),
            _ => None,
        }
    }

    /// Chrome-trace JSON over every retained pass. Host events (matched
    /// by child trace id) land in pid `host_index + 2`; aggregator
    /// events keep pid 1, so the viewer shows one lane per host.
    pub fn render_trace(&self) -> String {
        let (events, lane_of) = self.collect_events();
        obs::chrome::chrome_trace_json_with_pids(&events, &|e: &SpanEvent| {
            stitch::child_id(e)
                .and_then(|c| lane_of.get(&c).copied())
                .unwrap_or(1)
        })
    }

    /// Folded stacks (`flamegraph.pl` input) over every retained pass.
    pub fn render_flame(&self) -> String {
        let (events, _) = self.collect_events();
        obs::flame::folded_stacks(&events)
    }

    /// One summary line per retained pass, oldest first, plus the
    /// stitched per-host decomposition of each. Deterministic: no
    /// clocks, no thread ids, no hash-order iteration.
    pub fn render_passes(&self) -> String {
        let ring = self.ring.lock();
        let mut out = String::with_capacity(256 * ring.len().max(1));
        out.push_str("# fleet passes (last ");
        out.push_str(&ring.len().to_string());
        out.push_str(" of up to ");
        out.push_str(&self.capacity.to_string());
        out.push_str(")\n");
        for r in ring.iter() {
            out.push_str(&format!(
                "pass {} t_ns {} scraped {} stale {} series {} ingested {}",
                r.pass_id, r.t_ns, r.scraped, r.stale, r.merged_series, r.samples_ingested
            ));
            match &r.trace {
                Some(t) => match t.straggler_share() {
                    Some(h) => out.push_str(&format!(
                        " wall {} ns straggler host {:04} chain {} ns skew {}/1000\n",
                        t.total(),
                        h.host_index,
                        h.chain.total(),
                        t.skew_ratio_permille()
                    )),
                    None => out.push_str(&format!(" wall {} ns straggler none\n", t.total())),
                },
                None => out.push_str(" untraced\n"),
            }
            if let Some(t) = &r.trace {
                for line in t.summary().lines() {
                    out.push_str("  ");
                    out.push_str(line);
                    out.push('\n');
                }
            }
        }
        out
    }

    /// Answer `/debug/series`: parse the query string, run the range
    /// query against the fleet store ending at the newest recorded
    /// pass, and render via [`render_series_data`] (which a test can
    /// call on its own in-process query to demand bit-for-bit
    /// equality).
    pub fn render_series(&self, query: &str) -> HttpResponse {
        let params = match parse_query(query) {
            Ok(p) => p,
            Err(e) => return HttpResponse::text(400, "Bad Request", format!("{e}\n")),
        };
        let Some(sel_str) = params.get("sel") else {
            return HttpResponse::text(400, "Bad Request", "missing sel parameter\n".into());
        };
        let selector = match parse_selector(sel_str) {
            Ok(s) => s,
            Err(e) => return HttpResponse::text(400, "Bad Request", format!("bad sel: {e}\n")),
        };
        let window_ns = match params.get("window").map(|w| w.parse::<u64>()) {
            Some(Ok(w)) => w,
            Some(Err(_)) => {
                return HttpResponse::text(400, "Bad Request", "bad window (want ns)\n".into())
            }
            None => u64::MAX,
        };
        let tau_ns = match params.get("tau").map(|t| t.parse::<u64>()) {
            Some(Ok(t)) => Some(t),
            Some(Err(_)) => {
                return HttpResponse::text(400, "Bad Request", "bad tau (want ns)\n".into())
            }
            None => None,
        };
        let derive = match params.get("derive").map(String::as_str) {
            None => None,
            Some("rate") => Some(Derivation::Rate),
            Some("delta") => Some(Derivation::Delta),
            // Default EWMA decay: the query window (clamped to ≥1 ns).
            Some("ewma") => Some(Derivation::Ewma {
                tau_ns: tau_ns.unwrap_or(window_ns).max(1),
            }),
            Some(other) => {
                return HttpResponse::text(
                    400,
                    "Bad Request",
                    format!("unknown derive {other:?} (want rate|delta|ewma)\n"),
                )
            }
        };
        // The window ends at the newest recorded pass: under a
        // simulated clock the same ring state answers identically
        // forever.
        let t_to = {
            let ring = self.ring.lock();
            ring.back().map_or(u64::MAX, |r| r.t_ns)
        };
        let t_from = t_to.saturating_sub(window_ns);
        match self.store.query(&selector, t_from, t_to) {
            Ok(data) => HttpResponse::text(200, "OK", render_series_data(&data, derive)),
            Err(e) => HttpResponse::text(500, "Internal Server Error", format!("query: {e}\n")),
        }
    }

    /// All retained events, pass order, with the child-id → pid lane
    /// map from the stitched traces.
    fn collect_events(&self) -> (Vec<SpanEvent>, HashMap<u64, u64>) {
        let ring = self.ring.lock();
        let mut events = Vec::new();
        let mut lane_of = HashMap::new();
        for r in ring.iter() {
            if let Some(t) = &r.trace {
                for h in &t.hosts {
                    lane_of.insert(h.trace_id, h.host_index + 2);
                }
            }
            events.extend(r.events.iter().copied());
        }
        (events, lane_of)
    }
}

/// Render query results as deterministic text: one `series` header per
/// matched key (store order — sorted by key), its samples, and the
/// derivation verdict when one was requested. Exposed so tests can
/// demand bit-for-bit equality between `/debug/series` and an
/// in-process [`Store::query`].
pub fn render_series_data(data: &[SeriesData], derive: Option<Derivation>) -> String {
    let mut out = String::new();
    out.push_str("# series ");
    out.push_str(&data.len().to_string());
    out.push('\n');
    for d in data {
        out.push_str("series ");
        out.push_str(&d.key.to_string());
        out.push('\n');
        for s in &d.samples {
            out.push_str(&format!("  {} {}\n", s.t_ns, s.value));
        }
        if let Some(dv) = derive {
            let name = match dv {
                Derivation::Rate => "rate",
                Derivation::Delta => "delta",
                Derivation::Ewma { .. } => "ewma",
            };
            match d.derive(dv) {
                Some(v) => out.push_str(&format!("  {name} {v}\n")),
                None => out.push_str(&format!("  {name} none\n")),
            }
        }
    }
    out
}

/// Parse `k=v&k2=v2` with minimal percent-decoding (`%XX` and `+`).
fn parse_query(query: &str) -> Result<HashMap<String, String>, String> {
    let mut out = HashMap::new();
    for pair in query.split('&').filter(|p| !p.is_empty()) {
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        out.insert(percent_decode(k)?, percent_decode(v)?);
    }
    Ok(out)
}

fn percent_decode(s: &str) -> Result<String, String> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hex = bytes
                    .get(i + 1..i + 3)
                    .and_then(|h| std::str::from_utf8(h).ok())
                    .and_then(|h| u8::from_str_radix(h, 16).ok())
                    .ok_or_else(|| format!("bad percent escape in {s:?}"))?;
                out.push(hex);
                i += 3;
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8(out).map_err(|_| format!("non-utf8 escape in {s:?}"))
}

/// Parse a selector: `name` or `name{k="v",k2="v2"}`, where `name` may
/// hold `*` globs. The grammar matches what [`store::SeriesKey`]'s
/// `Display` prints, so a key can be round-tripped into a selector.
pub fn parse_selector(s: &str) -> Result<Selector, String> {
    let s = s.trim();
    let (name, rest) = match s.split_once('{') {
        None => {
            if s.is_empty() {
                return Err("empty selector".into());
            }
            return Ok(Selector::metric(s));
        }
        Some((name, rest)) => (name.trim(), rest),
    };
    if name.is_empty() {
        return Err("empty metric name".into());
    }
    let Some(body) = rest.strip_suffix('}') else {
        return Err("unterminated label block".into());
    };
    let mut sel = Selector::metric(name);
    for matcher in body.split(',').filter(|m| !m.trim().is_empty()) {
        let Some((k, v)) = matcher.split_once('=') else {
            return Err(format!("label matcher {matcher:?} has no '='"));
        };
        let k = k.trim();
        let v = v.trim();
        let v = v
            .strip_prefix('"')
            .and_then(|v| v.strip_suffix('"'))
            .unwrap_or(v);
        if k.is_empty() {
            return Err(format!("empty label key in {matcher:?}"));
        }
        sel = sel.with_label(k, v);
    }
    Ok(sel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::trace::Kind;
    use store::{SeriesKey, StoreConfig};

    fn span(label: &'static str, tid: u64, start_ns: u64, dur_ns: u64, arg: u64) -> SpanEvent {
        SpanEvent {
            label,
            tid,
            start_ns,
            dur_ns,
            arg,
            kind: Kind::Span,
        }
    }

    /// A synthetic recorded pass with two hosts.
    fn record(pass_id: u64, t_ns: u64) -> PassRecord {
        let child = |i| stitch::fanout_child_id(pass_id, i);
        let base = t_ns;
        let events = vec![
            span(stitch::PASS_SPAN, 1, base, 10_000, pass_id),
            span(stitch::PASS_FANOUT_SPAN, 1, base, 7_000, 0),
            span(stitch::HOST_SCRAPE_SPAN, 2, base + 100, 4_000, child(0)),
            span(stitch::SERVER_SCRAPE_SPAN, 10, base + 500, 1_000, child(0)),
            span(stitch::HOST_SCRAPE_SPAN, 3, base + 200, 6_500, child(1)),
            span(stitch::PASS_MERGE_SPAN, 1, base + 7_100, 2_000, 0),
            span(stitch::PASS_INGEST_SPAN, 1, base + 9_200, 700, 0),
        ];
        recorded(pass_id, t_ns, events)
    }

    /// A recorded two-host pass over `events`, stitched.
    fn recorded(pass_id: u64, t_ns: u64, events: Vec<SpanEvent>) -> PassRecord {
        let trace = FanoutTrace::stitch(&events, pass_id, 2);
        PassRecord {
            pass_id,
            t_ns,
            scraped: 2,
            stale: 0,
            merged_series: 5,
            samples_ingested: 5,
            trace,
            events,
        }
    }

    fn plane(capacity: usize) -> DebugPlane {
        DebugPlane::new(capacity, Arc::new(Store::new(StoreConfig::default())))
    }

    #[test]
    fn ring_is_bounded_to_k_passes() {
        let p = plane(3);
        for i in 1..=10u64 {
            p.record_pass(record(i, i * 1_000_000));
        }
        assert_eq!(p.len(), 3);
        let passes = p.render_passes();
        assert!(passes.contains("pass 8 ") && passes.contains("pass 10 "));
        assert!(!passes.contains("pass 7 "), "old passes evicted:\n{passes}");
    }

    #[test]
    fn renders_are_byte_identical_across_repeats() {
        let p = plane(4);
        for i in 1..=4u64 {
            p.record_pass(record(i, i * 1_000_000));
        }
        assert_eq!(p.render_trace(), p.render_trace());
        assert_eq!(p.render_flame(), p.render_flame());
        assert_eq!(p.render_passes(), p.render_passes());
        let q = "sel=*&window=1000000000";
        assert_eq!(p.render_series(q), p.render_series(q));
    }

    #[test]
    fn trace_render_gives_each_host_its_own_pid_lane() {
        let p = plane(2);
        p.record_pass(record(7, 1_000));
        let parsed = obs::chrome::parse_chrome_trace(&p.render_trace()).expect("valid chrome doc");
        let child = |i| stitch::fanout_child_id(7, i);
        for ev in &parsed {
            let expect = match ev.arg {
                Some(a) if a == child(0) => 2,
                Some(a) if a == child(1) => 3,
                _ => 1,
            };
            assert_eq!(ev.pid, expect, "event {} arg {:?}", ev.name, ev.arg);
        }
        // Both host lanes and the aggregator lane are present.
        let pids: std::collections::BTreeSet<u64> = parsed.iter().map(|e| e.pid).collect();
        assert_eq!(pids.into_iter().collect::<Vec<_>>(), vec![1, 2, 3]);
    }

    /// A drained ring holding more than pass 2: pass 1's leftovers, the
    /// host servers' own codec spans, unrelated spans, and codec spans
    /// whose payload-size `arg` happens to equal one of pass 2's child
    /// ids. Only the four child-id labels match by arg, so the server
    /// thread's colliding decode is dropped, and the worker's colliding
    /// decode — inside a host scrape, so kept — stays on the
    /// aggregator's lane instead of a host's.
    #[test]
    fn pass_membership_matches_child_ids_only_on_the_labels_that_carry_them() {
        let (old, pass_id, base) = (1, 2, 1_000_000);
        let child = |i| stitch::fanout_child_id(pass_id, i);
        let decode = "wire.pdu.decode";
        let mut fail = span(stitch::HOST_FAIL_INSTANT, 3, base + 4_900, 0, child(1));
        fail.kind = Kind::Instant;
        let keep = vec![
            span(stitch::PASS_SPAN, 1, base, 10_000, pass_id),
            span(stitch::PASS_FANOUT_SPAN, 1, base, 7_000, 0),
            span(stitch::HOST_SCRAPE_SPAN, 2, base + 100, 4_000, child(0)),
            span("wire.pdu.encode", 2, base + 200, 50, 12),
            span(stitch::CLIENT_SCRAPE_SPAN, 2, base + 300, 3_000, child(0)),
            span(stitch::SERVER_SCRAPE_SPAN, 10, base + 500, 1_000, child(0)),
            span(decode, 2, base + 3_500, 100, child(1)),
            span(stitch::HOST_SCRAPE_SPAN, 3, base + 200, 6_500, child(1)),
            span(stitch::CLIENT_CONNECT_SPAN, 3, base + 300, 800, 0),
            fail,
            span(stitch::PASS_MERGE_SPAN, 1, base + 7_100, 2_000, 0),
            span(stitch::PASS_INGEST_SPAN, 1, base + 9_200, 700, 0),
        ];
        let old_child = stitch::fanout_child_id(old, 0);
        let drop = vec![
            // Pass 1's leftovers.
            span(stitch::PASS_SPAN, 1, 0, 10_000, old),
            span(stitch::PASS_FANOUT_SPAN, 1, 0, 7_000, 0),
            span(stitch::HOST_SCRAPE_SPAN, 2, 100, 4_000, old_child),
            span("wire.pdu.encode", 2, 200, 50, 12),
            span(stitch::SERVER_SCRAPE_SPAN, 10, 500, 1_000, old_child),
            // The host server's request decode and reply encode.
            span(decode, 10, base + 400, 40, 8),
            span("wire.pdu.encode", 10, base + 1_550, 60, 4_000),
            // The colliding decode: its payload size is child 0's id.
            span(decode, 10, base + 1_700, 90, child(0)),
            // Unrelated work, inside the pass window and out of it.
            span("memsim.run_single", 1, base + 9_950, 20, 7),
            span("pmcd.fetch", 5, base + 50, 500, 0),
        ];
        let mut drained: Vec<SpanEvent> = keep.iter().chain(&drop).copied().collect();
        drained.reverse();
        let (kept, trace) = stitch::stitch_pass(drained, pass_id, 2);
        let mut want = keep.clone();
        want.sort_unstable_by_key(|e| (e.start_ns, e.tid, e.label));
        assert_eq!(kept, want);
        assert_eq!(trace.map(|t| t.hosts.len()), Some(2));

        let p = plane(2);
        p.record_pass(recorded(pass_id, base, kept));
        let parsed = obs::chrome::parse_chrome_trace(&p.render_trace()).expect("valid chrome doc");
        assert_eq!(parsed.len(), keep.len());
        for ev in &parsed {
            let lane = match ev.arg {
                _ if ev.name == decode => 1,
                Some(a) if a == child(0) => 2,
                Some(a) if a == child(1) => 3,
                _ => 1,
            };
            assert_eq!(ev.pid, lane, "event {} arg {:?}", ev.name, ev.arg);
        }
    }

    #[test]
    fn passes_table_names_the_straggler() {
        let p = plane(2);
        p.record_pass(record(9, 5_000));
        let out = p.render_passes();
        assert!(out.contains("straggler host 0001"), "table:\n{out}");
        assert!(out.contains("chain 6700 ns"), "host 1 chain:\n{out}");
    }

    #[test]
    fn series_endpoint_matches_in_process_query_bit_for_bit() {
        let store = Arc::new(Store::new(StoreConfig::default()));
        let key = SeriesKey::new("fleet.test.counter").with_label("host", "tellico-0001");
        for t in 1..=5u64 {
            store
                .ingest(
                    &key,
                    obs::metrics::ExportSemantics::Counter,
                    t * 1_000,
                    t * 10,
                )
                .expect("ingest");
        }
        let plane = DebugPlane::new(2, Arc::clone(&store));
        plane.record_pass(PassRecord {
            pass_id: 1,
            t_ns: 5_000,
            scraped: 0,
            stale: 0,
            merged_series: 0,
            samples_ingested: 0,
            trace: None,
            events: Vec::new(),
        });

        let sel = parse_selector("fleet.test.*{host=\"tellico-0001\"}").expect("selector");
        let reference = render_series_data(
            &store.query(&sel, 0, 5_000).expect("query"),
            Some(Derivation::Rate),
        );
        let got = plane.render_series(
            "sel=fleet.test.*%7Bhost%3D%22tellico-0001%22%7D&window=5000&derive=rate",
        );
        assert_eq!(got.status, 200, "body: {}", got.body);
        assert_eq!(got.body, reference, "endpoint must equal direct query");
        assert!(got.body.contains("series fleet.test.counter"));
        assert!(got.body.contains("  1000 10\n"));
    }

    #[test]
    fn series_endpoint_rejects_malformed_queries() {
        let p = plane(1);
        assert_eq!(p.render_series("window=5").status, 400, "missing sel");
        assert_eq!(p.render_series("sel=a&window=x").status, 400);
        assert_eq!(p.render_series("sel=a&derive=bogus").status, 400);
        assert_eq!(p.render_series("sel=a%ZZ").status, 400, "bad escape");
        assert_eq!(p.render_series("sel=a{b=1").status, 400, "unterminated");
    }

    #[test]
    fn selector_grammar_round_trips_series_keys() {
        let key = SeriesKey::new("m.x")
            .with_label("a", "1")
            .with_label("b", "two");
        let sel = parse_selector(&key.to_string()).expect("parse Display form");
        assert!(sel.matches(&key));
        assert!(parse_selector("").is_err());
        assert!(parse_selector("{a=\"1\"}").is_err());
        assert!(parse_selector("m{a}").is_err());
    }

    #[test]
    fn handle_routes_and_404s() {
        let p = plane(1);
        assert!(p.handle("/debug/trace", "").is_some());
        assert!(p.handle("/debug/flame", "").is_some());
        assert!(p.handle("/debug/passes", "").is_some());
        assert!(p.handle("/debug/series", "sel=*").is_some());
        assert!(p.handle("/debug/unknown", "").is_none());
        assert!(p.handle("/metrics", "").is_none());
    }
}
