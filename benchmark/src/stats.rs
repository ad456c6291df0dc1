//! Order statistics over raw samples: exact percentiles for one run's
//! latencies, and the median and quartiles that summarize a set of runs.

/// Percentiles tried for a tail figure, highest first.
const TAIL_QUANTILES: [f64; 3] = [0.999, 0.99, 0.9];

/// A percentile is only reported when at least this many samples lie
/// beyond it; with fewer, the "tail" is a handful of outliers.
pub const MIN_BEYOND: usize = 10;

/// The 1-based nearest rank of quantile `q` in `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// The exact nearest-rank percentile of already sorted samples: the
/// smallest sample with at least a `q` share of samples at or below it.
///
/// # Panics
/// If `sorted` is empty.
#[must_use]
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), q) - 1]
}

/// How many of `n` samples lie beyond the nearest-rank `q` percentile.
#[must_use]
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

/// The highest of p99.9, p99 and p90 with at least [`MIN_BEYOND`]
/// samples beyond it, as `(q, value)`; `None` when even p90 has fewer.
#[must_use]
pub fn tail(sorted: &[f64]) -> Option<(f64, f64)> {
    TAIL_QUANTILES
        .iter()
        .find(|&&q| beyond(sorted.len(), q) >= MIN_BEYOND)
        .map(|&q| (q, percentile(sorted, q)))
}

/// Sort a sample vector in place (NaN-free by construction: every
/// sample is a measured duration or count).
pub fn sort(values: &mut [f64]) {
    values.sort_by(f64::total_cmp);
}

/// The median, averaging the two middle values of an even count.
///
/// # Panics
/// If `values` is empty.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    sort(&mut v);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The three quartile cut points exactly as Python's
/// `statistics.quantiles(values, n=4)` computes them (its default
/// "exclusive" method), so spreads computed here match the ones Python
/// computes from the same numbers.
///
/// # Panics
/// If fewer than two values are given.
#[must_use]
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut data = values.to_vec();
    sort(&mut data);
    let ld = data.len();
    let m = ld + 1;
    let n = 4;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..n) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64;
    }
    out
}

/// Interquartile range as a share of the median — the run-to-run spread
/// a metric's bound is checked against.
#[must_use]
pub fn relative_spread(values: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(values);
    let med = median(values);
    if med == 0.0 {
        if q3 == q1 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (q3 - q1) / med.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_are_exact_samples() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 0.999), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // 99 samples: p90 has 9 beyond it, so no tail at all.
        let v: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(beyond(99, 0.9), 9);
        assert_eq!(tail(&v), None);
        // 100 samples: p90 has exactly 10 beyond, p99 only 1.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), Some((0.9, 90.0)));
        // 1000 samples: p99 has 10 beyond, p99.9 only 1.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), Some((0.99, 990.0)));
        // 10000 samples: p99.9 qualifies.
        let v: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail(&v), Some((0.999, 9990.0)));
        assert_eq!(beyond(0, 0.5), 0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15, 30, 45]
        assert_eq!(
            quartiles(&[50.0, 10.0, 40.0, 20.0, 30.0]),
            [15.0, 30.0, 45.0]
        );
    }

    #[test]
    fn median_and_spread() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((relative_spread(&v) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(relative_spread(&[0.0, 0.0, 0.0]), 0.0);
    }
}
