//! Property-based tests for fan-out trace stitching: for arbitrary
//! fleets (1..=64 hosts), arbitrary per-host server clock skew (up to
//! ±1 hour) and arbitrary fan-out widths (1..=8 workers), the stitched
//! [`obs::stitch::FanoutTrace`] conserves time exactly and renders
//! byte-identically regardless of how work was spread over workers.

use proptest::prelude::*;

use obs::stitch::{
    fanout_child_id, FanoutTrace, HOST_SCRAPE_SPAN, PASS_FANOUT_SPAN, PASS_INGEST_SPAN,
    PASS_MERGE_SPAN, PASS_SPAN, SERVER_SCRAPE_SPAN,
};
use obs::trace::{Kind, SpanEvent};

const HOUR_NS: u64 = 3_600_000_000_000;

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

/// One synthetic host scrape: aggregator-side queue delay and scrape
/// duration, the host's server render duration, and the signed skew of
/// the host's clock relative to the aggregator.
#[derive(Clone, Debug)]
struct HostPlan {
    queue_ns: u64,
    scrape_ns: u64,
    server_ns: u64,
    skew_ns: i64,
}

/// Build the merged event list one pass would drain, with host spans
/// assigned to `width` worker threads round-robin. Width only moves
/// spans between threads — it must never change the stitched result.
fn pass_events(pass_id: u64, hosts: &[HostPlan], width: u64) -> Vec<SpanEvent> {
    let base = 1_000_000u64;
    let mut events = Vec::new();
    let mut fanout_end = base;
    for (i, h) in hosts.iter().enumerate() {
        let child = fanout_child_id(pass_id, i as u64);
        let start = base + h.queue_ns;
        events.push(span(
            HOST_SCRAPE_SPAN,
            2 + (i as u64 % width),
            start,
            h.scrape_ns,
            child,
        ));
        // The host's own render span sits on the host's clock: shift it
        // by the skew (saturating at 0 — a clock can't go negative).
        let server_start = start.saturating_add_signed(h.skew_ns);
        events.push(span(
            SERVER_SCRAPE_SPAN,
            1_000 + i as u64,
            server_start,
            h.server_ns,
            child,
        ));
        fanout_end = fanout_end.max(start + h.scrape_ns);
    }
    let fanout_ns = fanout_end - base;
    let merge_ns = 40_000u64;
    let ingest_ns = 15_000u64;
    let other_ns = 5_000u64;
    events.push(span(PASS_FANOUT_SPAN, 1, base, fanout_ns, 0));
    events.push(span(PASS_MERGE_SPAN, 1, base + fanout_ns, merge_ns, 0));
    events.push(span(
        PASS_INGEST_SPAN,
        1,
        base + fanout_ns + merge_ns,
        ingest_ns,
        0,
    ));
    events.push(span(
        PASS_SPAN,
        1,
        base,
        fanout_ns + merge_ns + ingest_ns + other_ns,
        pass_id,
    ));
    events
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Conservation is exact for any fleet shape, any per-host clock
    /// skew up to ±1 hour, and any fan-out width: phase shares sum to
    /// the pass wall time, per-host components sum to the host chain,
    /// and the canonical rendering is byte-identical across widths.
    #[test]
    fn stitch_conserves_time_and_ignores_worker_layout(
        pass_id in 1u64..1 << 40,
        hosts in prop::collection::vec(
            (
                0u64..2_000_000,              // queue delay
                1u64..50_000_000,             // scrape duration
                0u64..100_000_000,            // server render (may exceed the scrape)
                -(HOUR_NS as i64)..HOUR_NS as i64, // host clock skew
            ),
            1..=64,
        ),
        widths in prop::collection::vec(1u64..=8, 2),
    ) {
        let hosts: Vec<HostPlan> = hosts
            .into_iter()
            .map(|(queue_ns, scrape_ns, server_ns, skew_ns)| HostPlan {
                queue_ns,
                scrape_ns,
                server_ns,
                skew_ns,
            })
            .collect();

        let mut summaries = Vec::new();
        for &width in &widths {
            let events = pass_events(pass_id, &hosts, width);
            let trace = FanoutTrace::stitch(&events, pass_id, hosts.len())
                .expect("pass span present");

            // Exact conservation at the pass level...
            let phases: u64 = trace.wall.parts().iter().map(|(_, v)| v).sum();
            prop_assert_eq!(phases, trace.wall.total());
            // ...and per host: components sum to the chain, and the
            // chain itself is the aggregator-side queue + scrape time,
            // untouched by the host's (possibly wild) clock skew.
            prop_assert_eq!(trace.hosts.len(), hosts.len());
            for (h, plan) in trace.hosts.iter().zip(&hosts) {
                let parts: u64 = h.chain.parts().iter().map(|(_, v)| v).sum();
                prop_assert_eq!(parts, h.chain.total());
                prop_assert_eq!(h.chain.total(), plan.queue_ns + plan.scrape_ns);
                prop_assert!(h.ok);
            }

            // The straggler is an argmax over chains.
            let best = trace.straggler_share().expect("nonempty fleet");
            prop_assert!(trace.hosts.iter().all(|h| h.chain.total() <= best.chain.total()));
            prop_assert!(trace.skew_ratio_permille() >= 1000);

            summaries.push(trace.summary());
        }
        // Fan-out width moved spans across worker threads; the stitched
        // rendering must not notice.
        prop_assert_eq!(&summaries[0], &summaries[1]);
    }

    /// A torn trace (some hosts' spans lost to ring eviction) still
    /// conserves: absent hosts are simply missing, present hosts keep
    /// exact component sums, and phases still sum to the wall.
    #[test]
    fn stitch_survives_missing_host_spans(
        pass_id in 1u64..1 << 40,
        hosts in prop::collection::vec(
            (0u64..1_000_000, 1u64..10_000_000, 0u64..10_000_000, any::<bool>()),
            1..=16,
        ),
    ) {
        let plans: Vec<HostPlan> = hosts
            .iter()
            .map(|&(queue_ns, scrape_ns, server_ns, _)| HostPlan {
                queue_ns,
                scrape_ns,
                server_ns,
                skew_ns: 0,
            })
            .collect();
        let events: Vec<SpanEvent> = pass_events(pass_id, &plans, 4)
            .into_iter()
            .filter(|e| {
                if e.label != HOST_SCRAPE_SPAN {
                    return true;
                }
                // Drop the i-th host span when its keep flag is false.
                plans
                    .iter()
                    .enumerate()
                    .find(|(i, _)| fanout_child_id(pass_id, *i as u64) == e.arg)
                    .is_none_or(|(i, _)| hosts[i].3)
            })
            .collect();
        let trace = FanoutTrace::stitch(&events, pass_id, plans.len()).expect("pass span");
        let phases: u64 = trace.wall.parts().iter().map(|(_, v)| v).sum();
        prop_assert_eq!(phases, trace.wall.total());
        let kept = hosts.iter().filter(|h| h.3).count();
        prop_assert_eq!(trace.hosts.len(), kept);
        for h in &trace.hosts {
            let parts: u64 = h.chain.parts().iter().map(|(_, v)| v).sum();
            prop_assert_eq!(parts, h.chain.total());
        }
        prop_assert_eq!(trace.straggler_share().is_some(), kept > 0);
    }
}
