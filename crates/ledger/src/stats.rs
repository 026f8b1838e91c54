//! Order statistics for timing samples.
//!
//! Every timing the ledger reports is a median plus one tail value. The
//! tail percentile is chosen from the sample count so that ten samples lie
//! beyond it (p99 needs 1,000 samples, p80 needs 50), never above p99, and
//! it is taken in each tenth of the window and reported as the median of
//! the ten: a noisy neighbour's two-second burst then moves two tenths and
//! not the metric.

/// Consecutive parts of the window the tail is taken in. One sample of
/// each part lies beyond the part's tail value, ten in all.
pub const TAIL_CHUNKS: usize = 10;

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("timing samples are never NaN"));
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The tail of a sample set: which percentile was reported, and its value.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Tail {
    /// Percentile in `[50, 100]`; 100 means "the slowest sample".
    pub percentile: f64,
    /// The sample at that percentile.
    pub value: f64,
}

/// The tail of `values`, which are in the order they were measured.
///
/// The samples are cut into [`TAIL_CHUNKS`] consecutive parts of equal
/// length; in each part the value with exactly one slower sample beyond it
/// is taken (p99 of the part, nearest rank, where that is lower: a serve
/// workload's thousands of samples would otherwise reach into their
/// outliers); the median of the parts' values is reported, with the
/// percentile those values stand at. Over the whole window that is the
/// highest percentile with ten samples beyond it, as the choosing-metrics
/// guide asks, but a burst that slows a quarter of the window's ops — and
/// so every one of a plain p75's neighbours — leaves it where it was.
///
/// Under 30 samples a part holds fewer than three, its second-slowest is
/// no tail, and the slowest sample of the window is reported instead
/// (percentile 100) so the metric exists on every workload.
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn tail(values: &[f64]) -> Tail {
    assert!(!values.is_empty(), "tail of no samples");
    let n = values.len();
    if n < 3 * TAIL_CHUNKS {
        return Tail {
            percentile: 100.0,
            value: values.iter().copied().fold(f64::MIN, f64::max),
        };
    }
    let (mut tails, mut percentiles) = (Vec::new(), Vec::new());
    for chunk in 0..TAIL_CHUNKS {
        let mut part = values[chunk * n / TAIL_CHUNKS..(chunk + 1) * n / TAIL_CHUNKS].to_vec();
        part.sort_by(|a, b| a.partial_cmp(b).expect("timing samples are never NaN"));
        let m = part.len();
        let index = (m - 2).min((m * 99).div_ceil(100) - 1);
        tails.push(part[index]);
        percentiles.push(100.0 * (index + 1) as f64 / m as f64);
    }
    Tail {
        percentile: median(&percentiles),
        value: median(&tails),
    }
}

/// Distance between the first and third quartile as a share of the median
/// — the run-to-run spread the benchmark contract bounds. Quartiles follow
/// Python's `statistics.quantiles(values, n=4)` (the exclusive method), so
/// `ledger compare` and the driver agree on the number.
///
/// # Panics
///
/// Panics with fewer than two samples.
pub fn iqr_share(values: &[f64]) -> f64 {
    assert!(values.len() >= 2, "spread needs at least two samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("metric values are never NaN"));
    let n = sorted.len();
    let quantile = |k: usize| -> f64 {
        // Exclusive method: position k(n+1)/4 on a 1-based axis. Only the
        // interval index is clamped, so the ends extrapolate as Python's do.
        let pos = (k * (n + 1)) as f64 / 4.0;
        let lo = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - lo as f64;
        sorted[lo - 1] + frac * (sorted[lo] - sorted[lo - 1])
    };
    (quantile(3) - quantile(1)) / median(&sorted)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn tail_leaves_one_sample_beyond_in_each_tenth() {
        // 1,000 samples 1..=1000 in order: each hundred reports its 99th
        // value (p99, one beyond); the median of 99, 199, ..., 999.
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&thousand);
        assert_eq!((t.value, t.percentile), (549.0, 99.0));

        // The same thousand values shuffled over the window: every tenth
        // sees the whole range, and the tail is near the global p99.
        let mixed: Vec<f64> = (0..1000).map(|i| f64::from(i * 611 % 1000 + 1)).collect();
        let t = tail(&mixed);
        assert!((960.0..=1000.0).contains(&t.value), "{t:?}");

        // 60 samples: tenths of six, the fifth of each (p83.3) — the
        // percentile with ten samples beyond it over the whole window.
        let sixty: Vec<f64> = (0..60).map(|i| f64::from(i * 37 % 60 + 1)).collect();
        let t = tail(&sixty);
        assert!((t.percentile - 100.0 * 5.0 / 6.0).abs() < 1e-9);
        assert!((40.0..=58.0).contains(&t.value), "{t:?}");

        // 30 samples in order: threes, the middle of each (2, 5, ..., 29).
        let thirty: Vec<f64> = (1..=30).map(f64::from).collect();
        let t = tail(&thirty);
        assert_eq!(t.value, 15.5);
        assert!((t.percentile - 200.0 / 3.0).abs() < 1e-9);

        // 100,000 samples: capped at p99 of each tenth, not p99.99.
        let many: Vec<f64> = (0..100_000)
            .map(|i| f64::from(i * 7919 % 100_000))
            .collect();
        let t = tail(&many);
        assert_eq!(t.percentile, 99.0);
        assert!((98_500.0..=99_500.0).contains(&t.value), "{t:?}");
    }

    #[test]
    fn tail_ignores_a_burst() {
        // 200 ops of 1.0 s (a little jitter), 40 of them in a row slowed by
        // half: a fifth of the window. A plain p95 lands inside the burst.
        let mut samples: Vec<f64> = (0..200).map(|i| 1.0 + f64::from(i % 7) * 1e-3).collect();
        for s in &mut samples[90..130] {
            *s *= 1.5;
        }
        let t = tail(&samples);
        assert!(t.value < 1.01, "{t:?}");
    }

    #[test]
    fn tail_under_thirty_samples_is_the_slowest() {
        let t = tail(&[0.3, 0.1, 0.2]);
        assert_eq!(t.percentile, 100.0);
        assert_eq!(t.value, 0.3);
        let some: Vec<f64> = (1..=29).map(f64::from).collect();
        assert_eq!(tail(&some).value, 29.0);
    }

    #[test]
    fn iqr_share_matches_python_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&ten) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the
        // ends extrapolate, as Python's do.
        assert!((iqr_share(&[1.0, 2.0]) - 1.0).abs() < 1e-12);
    }
}
