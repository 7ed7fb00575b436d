//! Order statistics over benchmark samples.

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile, computed exactly like Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method), so the
/// spreads this benchmark prints are the ones its driver computes. With
/// fewer than two samples both quartiles are the single value.
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let ld = v.len();
    assert!(ld > 0, "quartiles of no samples");
    if ld < 2 {
        return (v[0], v[0]);
    }
    let cut = |i: usize| {
        let j = (i * (ld + 1) / 4).clamp(1, ld - 1);
        let delta = (i * (ld + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// The highest of the usual reporting percentiles that still has at
/// least ten of `n` samples beyond it; `None` below twenty samples, where
/// even the median does not.
pub fn highest_percentile(n: usize) -> Option<f64> {
    // (percentile, one sample in this many lies beyond it)
    [
        (0.9999, 10_000),
        (0.999, 1_000),
        (0.99, 100),
        (0.9, 10),
        (0.5, 2),
    ]
    .into_iter()
    .find(|&(_, one_in)| n / one_in >= 10)
    .map(|(p, _)| p)
}

/// Nearest-rank percentile `p` in `[0, 1]` of an ascending `sorted` slice.
///
/// # Panics
///
/// Panics if `sorted` is empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Ascending copy of `values` (total order, so a stray NaN cannot panic).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median, quartiles and count of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median of the samples.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Number of samples.
    pub n: usize,
}

impl Summary {
    /// Summarises `values`.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty.
    pub fn of(values: &[f64]) -> Self {
        let (q1, q3) = quartiles(values);
        Self {
            median: median(values),
            q1,
            q3,
            n: values.len(),
        }
    }

    /// Inter-quartile distance as a share of the median (the driver's
    /// spread measure).
    pub fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median.abs()
    }
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
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 12.0));
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[1.0, 3.0]), (0.5, 3.5));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0));
    }

    #[test]
    fn highest_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(highest_percentile(19), None);
        assert_eq!(highest_percentile(20), Some(0.5));
        assert_eq!(highest_percentile(99), Some(0.5));
        assert_eq!(highest_percentile(100), Some(0.9));
        assert_eq!(highest_percentile(999), Some(0.9));
        assert_eq!(highest_percentile(1_000), Some(0.99));
        assert_eq!(highest_percentile(40_000), Some(0.999));
        assert_eq!(highest_percentile(100_000), Some(0.9999));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
    }

    #[test]
    fn summary_spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.median, s.q1, s.q3, s.n), (5.5, 2.75, 8.25, 10));
        assert_eq!(s.spread(), 1.0);
    }
}
