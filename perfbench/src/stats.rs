//! Summary statistics.

/// Median of a sample (mean of the two middle values for even counts).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// A nearest-rank percentile together with the sample count it rests on.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Percentile {
    /// The sample at that rank.
    pub value: f64,
    /// Samples in the whole set.
    pub n: usize,
    /// Samples ranked strictly above the reported one.
    pub beyond: usize,
}

/// The nearest-rank `p`-th percentile: the smallest sample with at least
/// `p`% of the set at or below it.
pub fn percentile(xs: &[f64], p: f64) -> Percentile {
    assert!(!xs.is_empty(), "percentile of an empty sample");
    assert!((0.0..=100.0).contains(&p), "percentile out of range");
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    let idx = rank.min(n) - 1;
    Percentile {
        value: s[idx],
        n,
        beyond: n - 1 - idx,
    }
}

/// Geometric mean of strictly positive samples.
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "geomean of an empty sample");
    assert!(
        xs.iter().all(|&x| x > 0.0),
        "geomean needs positive samples"
    );
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn percentile_reports_rank_and_samples_beyond() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p99 = percentile(&xs, 99.0);
        assert_eq!(p99.value, 990.0);
        assert_eq!(p99.n, 1000);
        assert_eq!(p99.beyond, 10);
        let p50 = percentile(&xs, 50.0);
        assert_eq!((p50.value, p50.beyond), (500.0, 500));
        let p90 = percentile(&[5.0, 1.0, 3.0], 90.0);
        assert_eq!((p90.value, p90.beyond), (5.0, 0));
        assert_eq!(percentile(&[7.0], 0.0).value, 7.0);
    }

    #[test]
    fn geomean_matches_closed_form() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert!((geomean(&[2.0, 8.0, 4.0]) - 4.0).abs() < 1e-9);
    }
}
