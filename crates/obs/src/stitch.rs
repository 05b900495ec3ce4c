//! Cross-process trace stitching and conserved time decomposition.
//!
//! A `WireClient` stamps every fetch PDU with a process-unique trace id
//! (see [`crate::trace::next_trace_id`]); the server echoes that id as
//! the argument of its handling span. Draining both sides' rings yields
//! one merged event list in which the client span
//! ([`CLIENT_FETCH_SPAN`], arg = trace id) and the server span
//! ([`SERVER_FETCH_SPAN`], same arg) are causally linked, and
//! [`critical_path`] decomposes the measured round-trip mechanically:
//!
//! ```text
//! rtt = server.fetch + server.dispatch + codec.client + codec.server + wire
//! ```
//!
//! Every decomposition here — a fetch's RTT, a host's scrape chain, a
//! fleet pass's wall time — is one [`Split`]: a measured total whose
//! named parts are charged in order against what the earlier parts
//! left, the last part taking the remainder. The shares therefore sum
//! to the total *exactly*: attribution can be wrong in a pathological
//! trace, but time is never invented or lost.

use std::collections::HashSet;
use std::fmt;

use crate::trace::{Kind, SpanEvent};

/// A measured total and its named parts, which sum to it exactly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Split {
    total: u64,
    parts: Vec<(&'static str, u64)>,
}

impl Split {
    /// Charge `wants[i]` to `names[i]` in order, each clamped to what
    /// the earlier parts left of `total`; the last name, which has no
    /// want, takes the remainder. This is the one budget clamp every
    /// decomposition in this module uses.
    pub fn charge(total: u64, names: &[&'static str], wants: &[u64]) -> Split {
        debug_assert_eq!(
            names.len(),
            wants.len() + 1,
            "the last part is the remainder"
        );
        let mut left = total;
        let parts = names
            .iter()
            .zip(wants.iter().copied().chain(std::iter::once(u64::MAX)))
            .map(|(&name, want)| {
                let got = want.min(left);
                left -= got;
                (name, got)
            })
            .collect();
        Split { total, parts }
    }

    /// The measured total the parts were charged against.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// `(name, nanoseconds)` in charge order.
    pub fn parts(&self) -> &[(&'static str, u64)] {
        &self.parts
    }

    /// Nanoseconds charged to `name` (0 for an unknown name).
    pub fn get(&self, name: &str) -> u64 {
        self.parts
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, v)| *v)
    }
}

/// `name v + name v + …` in charge order.
impl fmt::Display for Split {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, (name, v)) in self.parts.iter().enumerate() {
            if i > 0 {
                f.write_str(" + ")?;
            }
            write!(f, "{name} {v}")?;
        }
        Ok(())
    }
}

/// Label of the client-side span wrapping one wire fetch round trip;
/// its `arg` is the trace id carried in the fetch PDU.
pub const CLIENT_FETCH_SPAN: &str = "wire.client.fetch";

/// Label of the server-side span wrapping the handling of one traced
/// fetch; its `arg` echoes the trace id from the PDU.
pub const SERVER_FETCH_SPAN: &str = "wire.server.fetch";

/// Label of the span wrapping the actual per-request metric reads
/// inside the server (same label as the in-process daemon's fetch
/// span, matched by containment rather than by arg).
const FETCH_INNER_SPAN: &str = "pmcd.fetch";

/// Labels of the PDU codec spans (matched by thread + time
/// containment; their args carry payload sizes, not trace ids).
const CODEC_SPANS: [&str; 2] = ["wire.pdu.encode", "wire.pdu.decode"];

/// Component names of the decomposition, in attribution order.
pub const COMPONENTS: [&str; 5] = [
    "server.fetch",
    "server.dispatch",
    "codec.client",
    "codec.server",
    "wire",
];

/// One fetch round trip, decomposed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CriticalPath {
    /// Trace id linking the client and server spans (0 for an averaged
    /// path from [`mean_critical_path`]).
    pub trace_id: u64,
    /// The client-measured round trip, split over [`COMPONENTS`].
    pub rtt: Split,
}

/// True when `inner` lies wholly inside `outer`'s time window (threads
/// are the caller's business).
fn contains(outer: &SpanEvent, inner: &SpanEvent) -> bool {
    inner.start_ns >= outer.start_ns
        && inner.start_ns.saturating_add(inner.dur_ns)
            <= outer.start_ns.saturating_add(outer.dur_ns)
}

/// True when `inner` was recorded on `outer`'s thread, inside its window.
fn nested(outer: &SpanEvent, inner: &SpanEvent) -> bool {
    inner.tid == outer.tid && contains(outer, inner)
}

fn span_with_arg<'a>(events: &'a [SpanEvent], label: &str, arg: u64) -> Option<&'a SpanEvent> {
    events
        .iter()
        .find(|e| e.kind == Kind::Span && e.label == label && e.arg == arg)
}

/// Sum the durations of codec spans on thread `tid` that fall inside
/// `window`'s time range.
fn codec_ns(events: &[SpanEvent], tid: u64, window: &SpanEvent) -> u64 {
    events
        .iter()
        .filter(|e| {
            e.kind == Kind::Span
                && e.tid == tid
                && CODEC_SPANS.contains(&e.label)
                && contains(window, e)
        })
        .map(|e| e.dur_ns)
        .sum()
}

/// All trace ids with a client fetch span, in first-appearance order.
pub fn trace_ids(events: &[SpanEvent]) -> Vec<u64> {
    let mut ids = Vec::new();
    for e in events {
        if e.kind == Kind::Span && e.label == CLIENT_FETCH_SPAN && !ids.contains(&e.arg) {
            ids.push(e.arg);
        }
    }
    ids
}

/// Decompose the round trip of `trace_id` over a merged event list.
/// Returns `None` unless both the client and the server span for the
/// id are present (a one-sided trace cannot be stitched).
pub fn critical_path(events: &[SpanEvent], trace_id: u64) -> Option<CriticalPath> {
    let client = span_with_arg(events, CLIENT_FETCH_SPAN, trace_id)?;
    let server = span_with_arg(events, SERVER_FETCH_SPAN, trace_id)?;

    let fetch_inner = events
        .iter()
        .filter(|e| e.kind == Kind::Span && e.label == FETCH_INNER_SPAN && nested(server, e))
        .map(|e| e.dur_ns)
        .sum::<u64>()
        .min(server.dur_ns);
    let codec_client = codec_ns(events, client.tid, client);
    // Server-side request decode and reply encode run on the server
    // thread before/after its handling span, inside the client window.
    let codec_server =
        codec_ns(events, server.tid, client).saturating_sub(codec_ns(events, server.tid, server));

    // Whatever the server and both codecs leave of the RTT is wire +
    // scheduling time.
    Some(CriticalPath {
        trace_id,
        rtt: Split::charge(
            client.dur_ns,
            &COMPONENTS,
            &[
                fetch_inner,
                server.dur_ns - fetch_inner,
                codec_client,
                codec_server,
            ],
        ),
    })
}

/// Mean decomposition across every stitchable trace id in the event
/// list (`trace_id` 0 in the result). `None` when nothing stitches.
pub fn mean_critical_path(events: &[SpanEvent]) -> Option<CriticalPath> {
    let paths: Vec<CriticalPath> = trace_ids(events)
        .into_iter()
        .filter_map(|id| critical_path(events, id))
        .collect();
    if paths.is_empty() {
        return None;
    }
    let n = paths.len() as u64;
    let mean = |part: &dyn Fn(&Split) -> u64| paths.iter().map(|p| part(&p.rtt)).sum::<u64>() / n;
    // Integer division may drop up to `n-1` nanoseconds per component;
    // charging the means against the mean RTT hands that remainder to
    // the wire share, so the mean path still sums to its RTT.
    let wants: Vec<u64> = COMPONENTS[..COMPONENTS.len() - 1]
        .iter()
        .map(|name| mean(&|s| s.get(name)))
        .collect();
    Some(CriticalPath {
        trace_id: 0,
        rtt: Split::charge(mean(&Split::total), &COMPONENTS, &wants),
    })
}

// ---------------------------------------------------------------------------
// Fan-out (fleet scrape pass) stitching
// ---------------------------------------------------------------------------

/// Label of the aggregator span wrapping one whole scrape pass; its
/// `arg` is the pass-level trace id minted by the aggregator.
pub const PASS_SPAN: &str = "fleet.pass";

/// Aggregator phase span: fan-out over the worker pool until the last
/// host scrape joins. Same thread as [`PASS_SPAN`], matched by
/// containment.
pub const PASS_FANOUT_SPAN: &str = "fleet.pass.fanout";

/// Aggregator phase span: merge + render of the federated document.
pub const PASS_MERGE_SPAN: &str = "fleet.pass.merge";

/// Aggregator phase span: store ingest of the merged samples.
pub const PASS_INGEST_SPAN: &str = "fleet.pass.ingest";

/// Per-host span on the scraping worker, wrapping one host's connect +
/// scrape + parse; its `arg` is the child id from [`fanout_child_id`].
pub const HOST_SCRAPE_SPAN: &str = "fleet.host.scrape";

/// Instant event recorded when a host scrape fails; `arg` is the child
/// id, so the failure is attributable to exactly one host slot.
pub const HOST_FAIL_INSTANT: &str = "fleet.host.fail";

/// Client-side span wrapping the Exposition round trip of one traced
/// scrape (protocol v3); its `arg` is the child id riding the PDU.
pub const CLIENT_SCRAPE_SPAN: &str = "wire.client.scrape";

/// Server-side span wrapping the exposition render of one traced
/// scrape; its `arg` echoes the child id from the PDU.
pub const SERVER_SCRAPE_SPAN: &str = "wire.server.scrape";

/// Client-side span wrapping one `WireClient` connect, CREDS handshake
/// included (matched like the codec spans, by thread + containment).
pub const CLIENT_CONNECT_SPAN: &str = "wire.client.connect";

/// The aggregator phase spans, in [`PASS_PHASES`] order.
const PHASE_SPANS: [&str; 3] = [PASS_FANOUT_SPAN, PASS_MERGE_SPAN, PASS_INGEST_SPAN];

/// Component names of one host chain's decomposition, in attribution
/// order. `queue` is time spent waiting for a fan-out worker,
/// `server.render` is the host PMCD's exposition render (matched by
/// arg, so it survives cross-host clock skew), `codec` is client-side
/// PDU encode/decode outside a connect, `connect` is opening a session
/// (0 on a pass that reuses one), and `wire` absorbs the remainder
/// (syscalls, scheduling).
pub const FANOUT_COMPONENTS: [&str; 5] = ["queue", "server.render", "codec", "connect", "wire"];

/// Phase names of the pass-level decomposition, in attribution order;
/// `other` absorbs classification, counter folding and publish time.
pub const PASS_PHASES: [&str; 4] = ["fanout", "merge", "ingest", "other"];

/// Child trace id for host slot `host_index` of pass `pass_id`. The low
/// 17 bits hold `host_index + 1` (so a child id is never 0 and never
/// collides with its own pass id); fleets beyond 65536 hosts alias
/// slots, which degrades attribution but never stitching safety.
pub fn fanout_child_id(pass_id: u64, host_index: u64) -> u64 {
    pass_id.wrapping_shl(17) | ((host_index & 0xFFFF) + 1)
}

/// The fan-out child id `e` carries. Only four labels carry one; any
/// other label's `arg` means something else (a codec span's is its
/// payload size), so an equal number there places nothing in a slot.
pub fn child_id(e: &SpanEvent) -> Option<u64> {
    let carries = [
        HOST_SCRAPE_SPAN,
        HOST_FAIL_INSTANT,
        CLIENT_SCRAPE_SPAN,
        SERVER_SCRAPE_SPAN,
    ];
    carries.contains(&e.label).then_some(e.arg)
}

/// Select pass `pass_id`'s events out of a drained ring and stitch them
/// into its [`FanoutTrace`]. An event belongs to the pass when it is
///
/// - the pass span itself ([`PASS_SPAN`] with arg `pass_id`);
/// - an event whose [`child_id`] is one of the pass's `n_hosts` slots;
/// - a phase span on the pass thread, inside the pass window;
/// - a codec or connect span a worker recorded inside one of the
///   pass's host scrapes (matched by thread + time, as the stitch
///   charges them).
///
/// Everything else — a previous pass's leftovers, the host servers' own
/// codec work, unrelated spans from whatever shares the process — is
/// dropped. The kept events come back sorted by start, thread, label.
pub fn stitch_pass(
    drained: Vec<SpanEvent>,
    pass_id: u64,
    n_hosts: usize,
) -> (Vec<SpanEvent>, Option<FanoutTrace>) {
    let children: HashSet<u64> = (0..n_hosts as u64)
        .map(|i| fanout_child_id(pass_id, i))
        .collect();
    let ours = |e: &SpanEvent| child_id(e).is_some_and(|c| children.contains(&c));
    let pass = span_with_arg(&drained, PASS_SPAN, pass_id).copied();
    let scrapes: Vec<SpanEvent> = drained
        .iter()
        .filter(|e| e.label == HOST_SCRAPE_SPAN && ours(e))
        .copied()
        .collect();
    let mut events: Vec<SpanEvent> = drained
        .into_iter()
        .filter(|e| {
            (e.label == PASS_SPAN && e.arg == pass_id)
                || ours(e)
                || (PHASE_SPANS.contains(&e.label) && pass.is_some_and(|p| nested(&p, e)))
                || ((CODEC_SPANS.contains(&e.label) || e.label == CLIENT_CONNECT_SPAN)
                    && scrapes.iter().any(|h| nested(h, e)))
        })
        .collect();
    events.sort_unstable_by_key(|e| (e.start_ns, e.tid, e.label));
    let trace = FanoutTrace::stitch(&events, pass_id, n_hosts);
    (events, trace)
}

/// One host's share of a scrape pass.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HostShare {
    /// Slot index in the aggregator's target list.
    pub host_index: u64,
    /// Child trace id ([`fanout_child_id`]) carried on the wire.
    pub trace_id: u64,
    /// False when a [`HOST_FAIL_INSTANT`] names this slot.
    pub ok: bool,
    /// Queue wait + scrape duration — this host's contribution to the
    /// fan-out critical path, on the aggregator's clock — split over
    /// [`FANOUT_COMPONENTS`].
    pub chain: Split,
}

/// One scrape pass stitched into a tree: the aggregator's pass span at
/// the root, its phase spans below, and one decomposed chain per host.
/// The pass wall and every host chain are each a [`Split`], so both
/// conserve exactly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FanoutTrace {
    /// Pass-level trace id (the `arg` of [`PASS_SPAN`]).
    pub pass_id: u64,
    /// The measured pass wall time (the duration of [`PASS_SPAN`]),
    /// split over [`PASS_PHASES`].
    pub wall: Split,
    /// Per-host chains, in host-slot order (slots with no span at all —
    /// e.g. a pass raced with ring eviction — are simply absent).
    pub hosts: Vec<HostShare>,
}

impl FanoutTrace {
    /// Stitch pass `pass_id` over a merged event list from the
    /// aggregator's and workers' rings. Returns `None` when the pass
    /// span itself is missing.
    pub fn stitch(events: &[SpanEvent], pass_id: u64, n_hosts: usize) -> Option<FanoutTrace> {
        let pass = span_with_arg(events, PASS_SPAN, pass_id)?;
        let phase_spans = PHASE_SPANS.map(|label| {
            events
                .iter()
                .find(|e| e.kind == Kind::Span && e.label == label && nested(pass, e))
        });
        let fanout = phase_spans[0];

        let mut hosts = Vec::new();
        for i in 0..n_hosts as u64 {
            let child = fanout_child_id(pass_id, i);
            let Some(host) = span_with_arg(events, HOST_SCRAPE_SPAN, child) else {
                continue;
            };
            let failed = events
                .iter()
                .any(|e| e.kind == Kind::Instant && e.label == HOST_FAIL_INSTANT && e.arg == child);
            // Queue wait is measured aggregator-side (fan-out start to
            // worker pickup), so it is skew-free; the scrape itself is
            // decomposed against the worker-measured span duration.
            let queue = fanout.map_or(0, |f| host.start_ns.saturating_sub(f.start_ns));
            // A connect's duration, and the handshake codec inside it,
            // which is part of the connect rather than of `codec`.
            let (connect, handshake_codec) = events
                .iter()
                .filter(|e| {
                    e.kind == Kind::Span && e.label == CLIENT_CONNECT_SPAN && nested(host, e)
                })
                .fold((0, 0), |(dur, codec), c| {
                    (dur + c.dur_ns, codec + codec_ns(events, host.tid, c))
                });
            let server = span_with_arg(events, SERVER_SCRAPE_SPAN, child).map_or(0, |s| s.dur_ns);
            let codec = codec_ns(events, host.tid, host).saturating_sub(handshake_codec);
            hosts.push(HostShare {
                host_index: i,
                trace_id: child,
                ok: !failed,
                // Queue is charged first and always fits, so the rest
                // is charged against the scrape span alone.
                chain: Split::charge(
                    queue + host.dur_ns,
                    &FANOUT_COMPONENTS,
                    &[queue, server, codec, connect],
                ),
            });
        }

        Some(FanoutTrace {
            pass_id,
            wall: Split::charge(
                pass.dur_ns,
                &PASS_PHASES,
                &phase_spans.map(|e| e.map_or(0, |e| e.dur_ns)),
            ),
            hosts,
        })
    }

    /// Nanoseconds attributed to phase `name` (0 for unknown phases).
    pub fn phase(&self, name: &str) -> u64 {
        self.wall.get(name)
    }

    /// The measured pass wall time, which the phases sum to.
    pub fn total(&self) -> u64 {
        self.wall.total()
    }

    /// The straggler — the first host attaining the maximum chain —
    /// when the pass had any hosts.
    pub fn straggler_share(&self) -> Option<&HostShare> {
        // `max_by_key` keeps the last maximum; reversed, that is the first.
        self.hosts.iter().rev().max_by_key(|h| h.chain.total())
    }

    /// The straggler's chain time (0 for a hostless pass).
    pub fn straggler_ns(&self) -> u64 {
        self.straggler_share().map_or(0, |h| h.chain.total())
    }

    /// Straggler skew as permille of the mean host chain:
    /// `max_chain * 1000 / mean_chain`, computed as
    /// `max * 1000 * n / sum` to stay in integers. 1000 means a
    /// perfectly balanced fan-out; 0 means no (or all-zero) chains.
    pub fn skew_ratio_permille(&self) -> u64 {
        let sum: u64 = self.hosts.iter().map(|h| h.chain.total()).sum();
        if sum == 0 {
            return 0;
        }
        let n = self.hosts.len() as u64;
        self.straggler_ns().saturating_mul(1000).saturating_mul(n) / sum
    }

    /// Canonical plain-text rendering. Deliberately free of thread ids
    /// and clocks, so the same logical pass renders byte-identically
    /// regardless of how many workers executed the fan-out.
    pub fn summary(&self) -> String {
        let mut out = format!(
            "pass {}: wall {} ns = {}\n",
            self.pass_id,
            self.wall.total(),
            self.wall
        );
        for h in &self.hosts {
            out.push_str(&format!(
                "  host {:04}{}: chain {} ns = {}\n",
                h.host_index,
                if h.ok { "" } else { " FAILED" },
                h.chain.total(),
                h.chain,
            ));
        }
        match self.straggler_share() {
            Some(h) => out.push_str(&format!(
                "straggler: host {:04}, chain {} ns, skew {}/1000\n",
                h.host_index,
                h.chain.total(),
                self.skew_ratio_permille()
            )),
            None => out.push_str("straggler: none\n"),
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The parts of `split`, summed here rather than read back from it.
    fn parts(split: &Split) -> u64 {
        split.parts().iter().map(|(_, v)| v).sum()
    }

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

    /// A realistic single round trip: client encodes, server decodes,
    /// handles (with an inner fetch), encodes the reply, client decodes.
    fn round_trip(trace_id: u64, base: u64) -> Vec<SpanEvent> {
        vec![
            span(CLIENT_FETCH_SPAN, 1, base, 1000, trace_id),
            span("wire.pdu.encode", 1, base + 10, 50, 0), // client request encode
            span("wire.pdu.decode", 2, base + 100, 40, 36), // server request decode
            span(SERVER_FETCH_SPAN, 2, base + 150, 400, trace_id),
            span(FETCH_INNER_SPAN, 2, base + 200, 300, 16),
            span("wire.pdu.encode", 2, base + 560, 60, 0), // server reply encode
            span("wire.pdu.decode", 1, base + 900, 30, 128), // client reply decode
        ]
    }

    /// Each part is clamped to what the earlier ones left, and the last
    /// takes the remainder, whatever the wants add up to.
    #[test]
    fn split_charges_in_order_and_the_last_part_takes_the_rest() {
        let s = Split::charge(100, &["a", "b", "rest"], &[70, 50]);
        assert_eq!(s.parts(), &[("a", 70), ("b", 30), ("rest", 0)]);
        assert_eq!((s.get("b"), s.get("nope")), (30, 0));
        assert_eq!(s.to_string(), "a 70 + b 30 + rest 0");
    }

    #[test]
    fn shares_sum_to_rtt_exactly() {
        let events = round_trip(7, 100_000);
        let path = critical_path(&events, 7).unwrap();
        assert_eq!(path.rtt.total(), 1000);
        assert_eq!(parts(&path.rtt), path.rtt.total());
        assert_eq!(path.rtt.get("server.fetch"), 300);
        assert_eq!(path.rtt.get("server.dispatch"), 100);
        assert_eq!(path.rtt.get("codec.client"), 80);
        assert_eq!(path.rtt.get("codec.server"), 100);
        assert_eq!(path.rtt.get("wire"), 420);
    }

    #[test]
    fn one_sided_traces_do_not_stitch() {
        let mut events = round_trip(7, 0);
        events.retain(|e| e.label != SERVER_FETCH_SPAN);
        assert!(critical_path(&events, 7).is_none());
        assert!(critical_path(&round_trip(7, 0), 8).is_none());
    }

    #[test]
    fn pathological_spans_never_exceed_the_budget() {
        // A server span longer than the client span (bogus, but the
        // decomposition must still conserve time).
        let events = vec![
            span(CLIENT_FETCH_SPAN, 1, 1000, 500, 3),
            span(SERVER_FETCH_SPAN, 2, 1000, 5_000, 3),
            span(FETCH_INNER_SPAN, 2, 1100, 4_000, 1),
        ];
        let path = critical_path(&events, 3).unwrap();
        assert_eq!(parts(&path.rtt), 500);
        assert_eq!(path.rtt.get("wire"), 0);
    }

    /// Shift every server-side (tid 2) event by a constant clock skew,
    /// as two hosts with unsynchronised clocks would record them.
    fn skew_server(events: &mut [SpanEvent], ahead_ns: i64) {
        for e in events.iter_mut() {
            if e.tid == 2 {
                e.start_ns = if ahead_ns >= 0 {
                    e.start_ns.saturating_add(ahead_ns as u64)
                } else {
                    e.start_ns.saturating_sub(ahead_ns.unsigned_abs())
                };
            }
        }
    }

    /// Cross-host skew (ROADMAP 5c seed): the stitcher matches spans by
    /// trace id, not by wall-clock overlap, so a server clock running an
    /// hour ahead or behind must not break the decomposition — the
    /// budget clamp still makes the components sum to the client RTT
    /// exactly, and the pieces that survive skew (those measured
    /// entirely on one clock) keep their attribution.
    #[test]
    fn cross_host_clock_skew_still_decomposes_rtt_exactly() {
        const HOUR_NS: i64 = 3_600_000_000_000;
        for skew in [HOUR_NS, -HOUR_NS, 12_345, -1] {
            let mut events = round_trip(9, 10_000_000_000_000);
            skew_server(&mut events, skew);
            let path = critical_path(&events, 9).unwrap();
            assert_eq!(path.rtt.total(), 1000, "skew {skew}");
            assert_eq!(parts(&path.rtt), path.rtt.total(), "skew {skew}");
            // Durations are per-clock, so single-host components keep
            // their shares under any constant skew.
            assert_eq!(path.rtt.get("server.fetch"), 300, "skew {skew}");
            assert_eq!(path.rtt.get("server.dispatch"), 100, "skew {skew}");
            assert_eq!(path.rtt.get("codec.client"), 80, "skew {skew}");
        }
        // Zero skew is the calibrated baseline the loop must agree with.
        let path = critical_path(&round_trip(9, 10_000_000_000_000), 9).unwrap();
        assert_eq!(path.rtt.get("codec.server"), 100);
    }

    /// With a skewed server clock the cross-clock containment test for
    /// server codec spans can misattribute — but never invent time: the
    /// lost share lands in "wire" and conservation holds for every id
    /// in a merged multi-trip list.
    #[test]
    fn skewed_merged_traces_conserve_time_per_trip() {
        const SKEWS: [i64; 3] = [0, 250_000_000, -250_000_000];
        let mut events = Vec::new();
        for (i, skew) in SKEWS.iter().enumerate() {
            let mut trip = round_trip(i as u64 + 1, 1_000_000_000 * (i as u64 + 1));
            skew_server(&mut trip, *skew);
            events.extend(trip);
        }
        for id in trace_ids(&events) {
            let path = critical_path(&events, id).unwrap();
            assert_eq!(parts(&path.rtt), path.rtt.total(), "trace {id}");
        }
        let mean = mean_critical_path(&events).unwrap();
        assert_eq!(parts(&mean.rtt), mean.rtt.total());
    }

    #[test]
    fn mean_path_averages_and_conserves() {
        let mut events = round_trip(1, 0);
        events.extend(round_trip(2, 1_000_000));
        assert_eq!(trace_ids(&events), vec![1, 2]);
        let mean = mean_critical_path(&events).unwrap();
        assert_eq!(mean.rtt.total(), 1000);
        assert_eq!(parts(&mean.rtt), mean.rtt.total());
        assert_eq!(mean.rtt.get("server.fetch"), 300);
        assert!(mean_critical_path(&[]).is_none());
    }

    // --- fan-out stitching ---------------------------------------------

    /// A synthetic 3-host pass: pass span on tid 1, hosts on worker
    /// tids, server render spans on per-host tids (different clocks in
    /// the skew tests).
    fn fanout_pass(pass_id: u64, base: u64) -> Vec<SpanEvent> {
        let child = |i| fanout_child_id(pass_id, i);
        vec![
            span(PASS_SPAN, 1, base, 10_000, pass_id),
            span(PASS_FANOUT_SPAN, 1, base, 6_000, 0),
            // host 0: starts immediately (queue 0), 4000 ns scrape
            span(HOST_SCRAPE_SPAN, 2, base, 4_000, child(0)),
            span(SERVER_SCRAPE_SPAN, 10, base + 50_000, 1_500, child(0)),
            span("wire.pdu.encode", 2, base + 10, 100, 0),
            span("wire.pdu.decode", 2, base + 3_800, 150, 0),
            // host 1: queued 1000 ns behind host 0 on tid 3
            span(HOST_SCRAPE_SPAN, 3, base + 1_000, 5_000, child(1)),
            span(SERVER_SCRAPE_SPAN, 11, base + 90_000, 2_000, child(1)),
            // host 2: failed scrape, short span, fail instant
            span(HOST_SCRAPE_SPAN, 2, base + 4_200, 300, child(2)),
            SpanEvent {
                label: HOST_FAIL_INSTANT,
                tid: 2,
                start_ns: base + 4_500,
                dur_ns: 0,
                arg: child(2),
                kind: Kind::Instant,
            },
            span(PASS_MERGE_SPAN, 1, base + 6_100, 2_500, 0),
            span(PASS_INGEST_SPAN, 1, base + 8_700, 900, 0),
        ]
    }

    #[test]
    fn fanout_phases_sum_to_wall_exactly() {
        let t = FanoutTrace::stitch(&fanout_pass(5, 1_000), 5, 3).unwrap();
        assert_eq!(t.wall.total(), 10_000);
        assert_eq!(parts(&t.wall), t.wall.total());
        assert_eq!(t.phase("fanout"), 6_000);
        assert_eq!(t.phase("merge"), 2_500);
        assert_eq!(t.phase("ingest"), 900);
        assert_eq!(t.phase("other"), 600);
    }

    #[test]
    fn host_components_sum_to_chain_exactly() {
        let t = FanoutTrace::stitch(&fanout_pass(5, 1_000), 5, 3).unwrap();
        assert_eq!(t.hosts.len(), 3);
        for h in &t.hosts {
            let sum: u64 = parts(&h.chain);
            assert_eq!(sum, h.chain.total(), "host {}", h.host_index);
        }
        let h0 = &t.hosts[0];
        assert_eq!(h0.chain.total(), 4_000);
        assert_eq!(h0.chain.get("queue"), 0);
        assert_eq!(h0.chain.get("server.render"), 1_500);
        assert_eq!(h0.chain.get("codec"), 250);
        assert_eq!(h0.chain.get("wire"), 2_250);
        let h1 = &t.hosts[1];
        assert_eq!(h1.chain.get("queue"), 1_000);
        assert_eq!(h1.chain.total(), 6_000);
    }

    /// A connect span is charged whole to `connect`, the handshake's
    /// codec spans inside it included, and never a second time to
    /// `codec`; a host that opened no session has `connect` 0.
    #[test]
    fn connect_carries_its_handshake_codec_exactly_once() {
        let base = 1_000;
        let mut events = fanout_pass(5, base);
        // Host 1 (tid 3, [base + 1 000, base + 6 000)) opens a session.
        events.push(span(CLIENT_CONNECT_SPAN, 3, base + 1_100, 800, 0));
        events.push(span("wire.pdu.encode", 3, base + 1_200, 60, 0));
        events.push(span("wire.pdu.decode", 3, base + 2_000, 40, 0));
        let t = FanoutTrace::stitch(&events, 5, 3).unwrap();
        let h1 = &t.hosts[1];
        assert_eq!(h1.chain.get("connect"), 800);
        assert_eq!(h1.chain.get("codec"), 40);
        assert_eq!(h1.chain.get("server.render"), 2_000);
        assert_eq!(h1.chain.get("wire"), 5_000 - 2_000 - 40 - 800);
        let sum: u64 = parts(&h1.chain);
        assert_eq!(sum, h1.chain.total());
        assert_eq!(t.hosts[0].chain.get("connect"), 0);
    }

    #[test]
    fn straggler_and_failure_attribution() {
        let t = FanoutTrace::stitch(&fanout_pass(5, 1_000), 5, 3).unwrap();
        assert_eq!(t.straggler_share().map(|h| h.host_index), Some(1));
        assert_eq!(t.straggler_ns(), 6_000);
        assert!(t.hosts[0].ok && t.hosts[1].ok);
        assert!(!t.hosts[2].ok, "fail instant must mark exactly host 2");
        // mean chain = (4000 + 6000 + 4500) / 3; skew = 6000*3000/14500
        assert_eq!(t.skew_ratio_permille(), 6_000 * 3_000 / 14_500);
    }

    /// Per-host server clocks skewed by ±1h: render spans are matched
    /// by child id and charged by their own duration, so the
    /// decomposition and conservation are unchanged.
    #[test]
    fn fanout_survives_hostile_per_host_clock_skew() {
        const HOUR_NS: u64 = 3_600_000_000_000;
        let base = 10_000_000_000_000;
        let reference = FanoutTrace::stitch(&fanout_pass(7, base), 7, 3).unwrap();
        let mut events = fanout_pass(7, base);
        for e in events.iter_mut() {
            match e.tid {
                10 => e.start_ns += HOUR_NS,
                11 => e.start_ns -= HOUR_NS,
                _ => {}
            }
        }
        let skewed = FanoutTrace::stitch(&events, 7, 3).unwrap();
        assert_eq!(skewed, reference);
        assert_eq!(skewed.summary(), reference.summary());
    }

    #[test]
    fn fanout_trace_is_worker_count_independent() {
        // Reassigning host spans to different worker tids (as a wider
        // pool would) must not change the stitched trace's summary.
        let a = FanoutTrace::stitch(&fanout_pass(9, 0), 9, 3).unwrap();
        let mut events = fanout_pass(9, 0);
        for e in events.iter_mut() {
            if e.tid == 2 || e.tid == 3 {
                e.tid += 100; // same 1:1 mapping, new pool
            }
        }
        let b = FanoutTrace::stitch(&events, 9, 3).unwrap();
        assert_eq!(a.summary(), b.summary());
    }

    #[test]
    fn missing_pieces_degrade_but_conserve() {
        // No phase spans, no server spans: everything lands in the
        // pass's `other` share and the hosts' `wire` share.
        let mut events = fanout_pass(3, 500);
        events.retain(|e| {
            e.label != PASS_FANOUT_SPAN
                && e.label != PASS_MERGE_SPAN
                && e.label != PASS_INGEST_SPAN
                && e.label != SERVER_SCRAPE_SPAN
        });
        let t = FanoutTrace::stitch(&events, 3, 3).unwrap();
        assert_eq!(parts(&t.wall), t.wall.total());
        assert_eq!(t.phase("other"), t.wall.total());
        for h in &t.hosts {
            assert_eq!(h.chain.get("queue"), 0, "no fanout span -> no queue");
            let sum: u64 = parts(&h.chain);
            assert_eq!(sum, h.chain.total());
        }
        // An absent pass span cannot be stitched at all.
        assert!(FanoutTrace::stitch(&events, 4, 3).is_none());
    }

    #[test]
    fn child_ids_are_nonzero_and_slot_unique() {
        let ids: Vec<u64> = (0..64).map(|i| fanout_child_id(42, i)).collect();
        for (i, id) in ids.iter().enumerate() {
            assert_ne!(*id, 0);
            assert_ne!(*id, 42);
            assert_eq!(ids.iter().filter(|x| *x == id).count(), 1, "slot {i}");
        }
    }
}
