//! Order statistics for timing samples.

/// Sort a copy of `samples` ascending (NaN-free input assumed: every
/// sample here is a measured duration or a ratio of two).
fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    v
}

/// The `p`-quantile (0 ≤ p ≤ 1) by linear interpolation between the two
/// nearest ranks. Panics on an empty slice: a workload that produced no
/// sample is a benchmark bug, not a value to report.
pub fn quantile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    let v = sorted(samples);
    let pos = p.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// First quartile, median and third quartile with the method Python's
/// `statistics.quantiles(values, n=4)` uses (exclusive: rank `p·(n+1)`),
/// so the spreads printed here match the ones the driver computes.
pub fn quartiles(samples: &[f64]) -> [f64; 3] {
    assert!(samples.len() >= 2, "quartiles need two samples");
    let v = sorted(samples);
    let n = v.len();
    [1usize, 2, 3].map(|i| {
        let rank = i * (n + 1);
        let j = (rank / 4).clamp(1, n - 1);
        // computed after the clamp, as Python does: the ends extrapolate
        let delta = rank as f64 - (4 * j) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    })
}

/// Interquartile distance as a share of the median; 0 for one sample.
pub fn spread(samples: &[f64]) -> f64 {
    if samples.len() < 2 {
        return 0.0;
    }
    let [q1, q2, q3] = quartiles(samples);
    (q3 - q1) / q2.abs()
}

/// The percentiles a tail may be reported at, in per-mille, lowest first.
const TAIL_LADDER: [usize; 4] = [500, 750, 900, 990];

/// The highest percentile of the ladder that still has at least ten
/// samples beyond it. With fixed iteration counts this picks the same
/// percentile on every commit, so tails stay comparable.
pub fn tail_percentile(n: usize) -> f64 {
    let permille = TAIL_LADDER
        .iter()
        .copied()
        .rev()
        .find(|p| n * (1000 - p) / 1000 >= 10)
        .unwrap_or(TAIL_LADDER[0]);
    permille as f64 / 1000.0
}

/// The tail value: `samples` at [`tail_percentile`] of their count.
pub fn tail(samples: &[f64]) -> f64 {
    quantile(samples, tail_percentile(samples.len()))
}

/// The lower decile: what a timing reads when nothing else competes for
/// the host. On the shared two-thread host this benchmark is accepted on,
/// a neighbour on the sibling hardware thread slows a run by up to 1.45×
/// for seconds at a time, so medians move by ±15 % between runs while the
/// quiet level stays put.
pub fn quiet(samples: &[f64]) -> f64 {
    quantile(samples, 0.10)
}

/// Geometric mean of positive ratios.
pub fn geomean(ratios: &[f64]) -> f64 {
    assert!(!ratios.is_empty(), "geomean of no ratios");
    (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quantile_interpolates_between_ranks() {
        let v: Vec<f64> = (0..=10).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.9), 9.0);
        assert_eq!(quantile(&v, 0.25), 2.5);
        assert_eq!(quantile(&v, 0.0), 0.0);
        assert_eq!(quantile(&v, 1.0), 10.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15, 30, 45]
        assert_eq!(
            quartiles(&[50.0, 10.0, 40.0, 20.0, 30.0]),
            [15.0, 30.0, 45.0]
        );
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(5), 0.50);
        assert_eq!(tail_percentile(20), 0.50);
        assert_eq!(tail_percentile(39), 0.50);
        assert_eq!(tail_percentile(40), 0.75);
        assert_eq!(tail_percentile(99), 0.75);
        assert_eq!(tail_percentile(100), 0.90);
        assert_eq!(tail_percentile(999), 0.90);
        assert_eq!(tail_percentile(1000), 0.99);
        assert_eq!(tail_percentile(20_000), 0.99);
    }

    #[test]
    fn tail_reads_the_chosen_percentile() {
        let v: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(tail(&v), 90.0);
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[1.5]) - 1.5).abs() < 1e-12);
    }
}
