//! Query results and windowed derivations over stored series.
//!
//! [`SeriesData`] is what a [`Store::query`](crate::Store::query)
//! returns: one decompressed, strictly time-ordered sample run per
//! matched series. Windowed derivations do not reimplement any math —
//! the rate/delta/ewma functions of [`obs::derive`] run on
//! [`SeriesData::samples`] in place, so a rate computed over archived
//! history and a rate computed by the live [`obs::Monitor`] can never
//! disagree on semantics (counter deltas saturate at restarts in both,
//! by construction).

use obs::metrics::ExportSemantics;
use obs::series::Sample;

use crate::index::SeriesKey;

/// One matched series with its samples inside the query window.
#[derive(Clone, Debug, PartialEq)]
pub struct SeriesData {
    /// The series identity.
    pub key: SeriesKey,
    /// Counter or instant semantics (as recorded at first ingest).
    pub semantics: ExportSemantics,
    /// Samples inside the window, oldest first, strictly increasing in
    /// time.
    pub samples: Vec<Sample>,
}

/// A windowed derivation to evaluate over each matched series.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Derivation {
    /// Window rate in value/second ([`obs::derive::rate`]).
    Rate,
    /// Window delta ([`obs::derive::delta`]; saturating for counters).
    Delta,
    /// Time-aware EWMA with decay `tau_ns` ([`obs::derive::ewma`]).
    Ewma {
        /// Decay constant in nanoseconds.
        tau_ns: u64,
    },
}

impl SeriesData {
    /// Evaluate one derivation over the window (`None` when the window
    /// is too small, matching the live-monitor behaviour).
    pub fn derive(&self, d: Derivation) -> Option<f64> {
        let (semantics, samples) = (self.semantics, self.samples.as_slice());
        match d {
            Derivation::Rate => obs::derive::rate(semantics, samples),
            Derivation::Delta => obs::derive::delta(semantics, samples).map(|d| d as f64),
            Derivation::Ewma { tau_ns } => obs::derive::ewma(samples, tau_ns),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(semantics: ExportSemantics, points: &[(u64, u64)]) -> SeriesData {
        SeriesData {
            key: SeriesKey::new("q.test"),
            semantics,
            samples: points
                .iter()
                .map(|(t_ns, value)| Sample {
                    t_ns: *t_ns,
                    value: *value,
                })
                .collect(),
        }
    }

    #[test]
    fn derivations_match_obs_derive() {
        let d = data(
            ExportSemantics::Counter,
            &[(1_000_000_000, 100), (3_000_000_000, 700)],
        );
        assert_eq!(d.derive(Derivation::Delta), Some(600.0));
        let r = d.derive(Derivation::Rate).unwrap();
        assert!((r - 300.0).abs() < 1e-9, "{r}");
        assert!(d.derive(Derivation::Ewma { tau_ns: 1 }).is_some());
    }

    #[test]
    fn counter_reset_saturates_like_the_live_monitor() {
        let d = data(ExportSemantics::Counter, &[(1_000, 500), (2_000, 20)]);
        assert_eq!(d.derive(Derivation::Delta), Some(0.0));
        assert_eq!(d.derive(Derivation::Rate), Some(0.0));
    }

    #[test]
    fn short_windows_yield_none() {
        let d = data(ExportSemantics::Counter, &[(1_000, 5)]);
        assert_eq!(d.derive(Derivation::Rate), None);
        assert_eq!(d.derive(Derivation::Delta), None);
    }
}
