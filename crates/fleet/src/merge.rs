//! Deterministic relabel-and-merge of per-host expositions.
//!
//! The merged document is defined as a pure function of the indexed
//! host results, never of scrape completion order: the fan-out writes
//! into index-addressed slots and [`merge`] folds the slots in
//! ascending host index, relabelling each sample in place as it goes —
//! one sequential pass over scrapes it owns, with no threads and no
//! copy of a sample. [`merge_reference`] and [`merge_parallel`] are
//! that fold over a borrowed slice, kept for callers that hold one.
//!
//! Merge rules (DESIGN.md §14):
//!
//! * Metric (block) order is first appearance, scanning hosts in
//!   ascending index and each host's samples in document order.
//! * Within a block, samples appear in ascending host index, each
//!   host's in document order.
//! * Every sample gains a leading `host="tellico-XXXX"` label; an
//!   incoming `host` label is dropped first (and counted) so the
//!   federation identity always wins.
//! * A host disagreeing with the first-seen kind of a metric has that
//!   sample dropped (and counted) — a kind conflict inside one block
//!   would render an unparseable document.

use std::collections::HashMap;

use obs::openmetrics::{MetricKind, OmSample};

/// One host's parsed exposition, ready to merge.
#[derive(Clone, Debug, PartialEq)]
pub struct HostScrape {
    /// Value of the `host` label stamped onto every sample.
    pub host: String,
    /// Samples in document order (timestamp header already stripped).
    pub samples: Vec<OmSample>,
}

/// The merged fleet document plus merge bookkeeping.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MergeOutcome {
    /// Merged samples, grouped by metric; render-ready (same-name
    /// samples adjacent, so the strict parser accepts the output).
    pub samples: Vec<OmSample>,
    /// Samples dropped because their kind contradicted the first-seen
    /// kind of their metric.
    pub kind_conflicts: u64,
    /// Incoming `host` labels overridden by the federation identity.
    pub relabel_overrides: u64,
}

/// Stamp `host` onto one sample in place; returns how many incoming
/// `host` labels it removed.
fn relabel_one(s: &mut OmSample, host: &str) -> u64 {
    let before = s.labels.len();
    s.labels.retain(|(k, _)| k != "host");
    let overridden = (before - s.labels.len()) as u64;
    s.labels.insert(0, ("host".to_string(), host.to_string()));
    overridden
}

/// Stamp `host` onto every sample: any incoming `host` label is
/// removed (counted in the second return) and the federation's own is
/// prepended.
pub fn relabel(mut samples: Vec<OmSample>, host: &str) -> (Vec<OmSample>, u64) {
    let overridden = samples.iter_mut().map(|s| relabel_one(s, host)).sum();
    (samples, overridden)
}

/// Fold per-host slots (ascending index) into one grouped sample list,
/// relabelling every sample in place. Pure and sequential: all
/// determinism lives here. A `None` slot (a stale host) contributes
/// nothing.
pub fn merge(scrapes: Vec<Option<HostScrape>>) -> MergeOutcome {
    let mut blocks: Vec<(MetricKind, Vec<OmSample>)> = Vec::new();
    let mut by_name: HashMap<String, usize> = HashMap::new();
    let mut kind_conflicts = 0u64;
    let mut relabel_overrides = 0u64;
    for scrape in scrapes.into_iter().flatten() {
        for mut s in scrape.samples {
            relabel_overrides += relabel_one(&mut s, &scrape.host);
            match by_name.get(&s.name) {
                Some(&i) if blocks[i].0 != s.kind => kind_conflicts += 1,
                Some(&i) => blocks[i].1.push(s),
                None => {
                    by_name.insert(s.name.clone(), blocks.len());
                    blocks.push((s.kind, vec![s]));
                }
            }
        }
    }
    MergeOutcome {
        samples: blocks.into_iter().flat_map(|(_, v)| v).collect(),
        kind_conflicts,
        relabel_overrides,
    }
}

/// [`merge`] over a borrowed slice: the reference definition of the
/// merged document, byte for byte under [`obs::openmetrics::render`].
pub fn merge_reference(scrapes: &[Option<HostScrape>]) -> MergeOutcome {
    merge(scrapes.to_vec())
}

/// The same fold as [`merge_reference`]; `workers` is ignored, since
/// the merge is one sequential pass.
pub fn merge_parallel(scrapes: &[Option<HostScrape>], _workers: usize) -> MergeOutcome {
    merge(scrapes.to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::openmetrics::{render, MetricKind, Value};

    fn scrape(host: &str, samples: Vec<OmSample>) -> Option<HostScrape> {
        Some(HostScrape {
            host: host.to_string(),
            samples,
        })
    }

    #[test]
    fn merge_groups_by_metric_in_first_appearance_order() {
        let scrapes = vec![
            scrape(
                "tellico-0000",
                vec![
                    OmSample::new("up", MetricKind::Gauge, Value::Int(1)),
                    OmSample::new("pdu", MetricKind::Counter, Value::Int(5)),
                ],
            ),
            scrape(
                "tellico-0001",
                vec![
                    OmSample::new("pdu", MetricKind::Counter, Value::Int(9)),
                    OmSample::new("up", MetricKind::Gauge, Value::Int(1)),
                ],
            ),
        ];
        let merged = merge_reference(&scrapes);
        let names: Vec<&str> = merged.samples.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["up", "up", "pdu", "pdu"]);
        assert_eq!(merged.samples[0].labels[0].1, "tellico-0000");
        assert_eq!(merged.samples[1].labels[0].1, "tellico-0001");
        // The grouped output renders to a document the strict parser
        // accepts, with one TYPE line per metric.
        let text = render(&merged.samples, None);
        assert_eq!(text.matches("# TYPE ").count(), 2);
        obs::openmetrics::parse(&text).expect("merged doc parses");
    }

    #[test]
    fn incoming_host_labels_lose_to_the_federation_identity() {
        let scrapes = vec![scrape(
            "tellico-0002",
            vec![OmSample::new("up", MetricKind::Gauge, Value::Int(1))
                .with_label("host", "liar")
                .with_label("z", "keep")],
        )];
        let merged = merge_reference(&scrapes);
        assert_eq!(merged.relabel_overrides, 1);
        assert_eq!(
            merged.samples[0].labels,
            vec![
                ("host".to_string(), "tellico-0002".to_string()),
                ("z".to_string(), "keep".to_string()),
            ]
        );
    }

    #[test]
    fn kind_conflicts_drop_the_later_sample() {
        let scrapes = vec![
            scrape(
                "a",
                vec![OmSample::new("m", MetricKind::Counter, Value::Int(1))],
            ),
            scrape(
                "b",
                vec![OmSample::new("m", MetricKind::Gauge, Value::Int(2))],
            ),
        ];
        let merged = merge_reference(&scrapes);
        assert_eq!(merged.kind_conflicts, 1);
        assert_eq!(merged.samples.len(), 1);
        assert_eq!(merged.samples[0].kind, MetricKind::Counter);
    }

    #[test]
    fn dead_slots_are_skipped() {
        let scrapes = vec![
            None,
            scrape(
                "b",
                vec![OmSample::new("m", MetricKind::Gauge, Value::Int(2))],
            ),
            None,
        ];
        let merged = merge_parallel(&scrapes, 4);
        assert_eq!(merged, merge_reference(&scrapes));
        assert_eq!(merged.samples.len(), 1);
    }
}
