//! The statistics rule, in one place (README.md "Statistics rule").
//!
//! * a latency is the median over all ops of the run;
//! * a throughput is the median of the rates of equal-work batches —
//!   one interference burst lands in a few batches and leaves the
//!   median alone, where `total work / total time` would absorb it;
//! * a tail is the highest percentile that still has at least
//!   [`MIN_BEYOND`] samples beyond it, with the sample count stated;
//! * counts are exact and never pass through here.

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count). 0 for an
/// empty slice: a layer nobody called has no latency.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `q` in `[0, 1]` of `values`.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// How many of `n` samples lie strictly beyond the nearest-rank
/// percentile `q`.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).min(n)
}

/// Whether percentile `q` of `n` samples satisfies the tail rule.
pub fn tail_qualifies(n: usize, q: f64) -> bool {
    samples_beyond(n, q) >= MIN_BEYOND
}

/// Percentile `q` where the tail rule allows it; with too few samples
/// for that, the slowest one (every sample is then in plain sight).
pub fn tail_or_max(values: &[f64], q: f64) -> f64 {
    percentile(
        values,
        if tail_qualifies(values.len(), q) {
            q
        } else {
            1.0
        },
    )
}

/// One equal-work batch: `work` units done in `seconds`.
#[derive(Clone, Copy, Debug)]
pub struct Batch {
    pub work: f64,
    pub seconds: f64,
}

/// Throughput as the median of the per-batch rates.
pub fn median_batch_rate(batches: &[Batch]) -> f64 {
    let rates: Vec<f64> = batches
        .iter()
        .filter(|b| b.seconds > 0.0)
        .map(|b| b.work / b.seconds)
        .collect();
    median(&rates)
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes
/// them (the "exclusive" method), so `--repeat` judges spread exactly
/// the way the acceptance procedure does. Needs two or more values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let pos = (k + 1) * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        *slot = v[j - 1] + (v[j] - v[j - 1]) * delta;
    }
    Some(out)
}

/// Interquartile distance as a share of the median: the spread figure
/// the acceptance procedure bounds.
pub fn iqr_share(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 200 samples: p95 leaves exactly 10 beyond, p99 only 2.
        assert_eq!(samples_beyond(200, 0.95), 10);
        assert!(tail_qualifies(200, 0.95));
        assert!(!tail_qualifies(199, 0.95));
        assert!(!tail_qualifies(200, 0.99));
        // 100 samples carry p90, 1000 carry p99, 10 000 carry p99.9.
        assert!(tail_qualifies(100, 0.90) && !tail_qualifies(99, 0.90));
        assert!(tail_qualifies(1000, 0.99) && !tail_qualifies(999, 0.99));
        assert!(tail_qualifies(10_000, 0.999));
        assert_eq!(percentile(&ramp(200), 0.95), 190.0);
        assert_eq!(tail_or_max(&ramp(200), 0.95), 190.0);
        // 17 experiments cannot carry a p95: the slowest is reported.
        assert_eq!(tail_or_max(&ramp(17), 0.95), 17.0);
    }

    #[test]
    fn batch_median_ignores_an_interference_burst() {
        let mut batches: Vec<Batch> = (0..20)
            .map(|_| Batch {
                work: 1000.0,
                seconds: 0.1,
            })
            .collect();
        // Two batches hit by a multi-second stall.
        batches[3].seconds = 2.5;
        batches[11].seconds = 3.0;
        assert_eq!(median_batch_rate(&batches), 10_000.0);
        let total_rate = 20_000.0 / batches.iter().map(|b| b.seconds).sum::<f64>();
        assert!(total_rate < 3_000.0, "the mean rate absorbed the burst");
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(
            quartiles(&[16.0, 1.0, 4.0, 2.0, 8.0]),
            Some([1.5, 4.0, 12.0])
        );
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(iqr_share(&ramp(10)), Some(1.0));
    }
}
