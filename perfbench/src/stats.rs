//! The benchmark's arithmetic: latency percentiles, run-to-run quartiles,
//! and ratios with an explicit base.

/// Nearest-rank percentile of `values` (`p` in `0..=100`): the smallest
/// sample with at least `p`% of the samples at or below it. Returns `None`
/// for an empty sample.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[nearest_rank(sorted.len(), p) - 1])
}

/// The 1-based nearest rank of percentile `p` in a sample of `n >= 1`.
fn nearest_rank(n: usize, p: f64) -> usize {
    let rank = (p.clamp(0.0, 100.0) / 100.0 * n as f64).ceil() as usize;
    rank.clamp(1, n)
}

/// Number of samples strictly above the nearest-rank percentile `p`: how
/// many observations the tail figure rests on.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - nearest_rank(n, p)
    }
}

/// Lower quartile, median and upper quartile, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so repeat-mode spreads match what an external checker computes from the
/// same runs. A single value is its own quartiles; an empty sample has none.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let len = sorted.len();
    match len {
        0 => return None,
        1 => return Some([sorted[0]; 3]),
        _ => {}
    }
    let m = len + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0;
    }
    Some(out)
}

/// Inter-quartile distance as a share of the median: the run-to-run spread
/// the benchmark's bounds are compared against.
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let [q1, median, q3] = quartiles(values)?;
    ratio(q3 - q1, median)
}

/// `part / base`, or `None` when the base is zero — every ratio the
/// benchmark prints names its base, and an empty base has no ratio.
pub fn ratio(part: f64, base: f64) -> Option<f64> {
    (base != 0.0).then(|| part / base)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&values, 50.0), Some(5.0));
        assert_eq!(percentile(&values, 90.0), Some(9.0));
        assert_eq!(percentile(&values, 99.0), Some(10.0));
        assert_eq!(percentile(&values, 0.0), Some(1.0));
        assert_eq!(percentile(&values, 100.0), Some(10.0));
        assert_eq!(percentile(&[], 50.0), None);
        // Order of the input does not matter.
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), Some(2.0));
    }

    #[test]
    fn tail_sample_counts() {
        assert_eq!(samples_beyond(1000, 90.0), 100);
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(samples_beyond(10, 50.0), 5);
        assert_eq!(samples_beyond(0, 90.0), 0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([4, 1, 3, 2], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0]), Some([1.25, 2.5, 3.75]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[7.0]), Some([7.0; 3]));
        assert_eq!(quartiles(&[]), None);
    }

    #[test]
    fn spread_is_a_share_of_the_median() {
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(relative_spread(&values), Some((8.25 - 2.75) / 5.5));
        assert_eq!(relative_spread(&[0.0, 0.0, 0.0]), None);
    }

    #[test]
    fn ratios_refuse_an_empty_base() {
        assert_eq!(ratio(3.0, 4.0), Some(0.75));
        assert_eq!(ratio(3.0, 0.0), None);
    }
}
