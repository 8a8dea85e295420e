//! Order statistics for the reports: median, quartiles, percentiles.
//!
//! The quartile rule is the one Python's `statistics.quantiles(v, n=4)`
//! uses (the "exclusive" method), so `ilpbench agree` computes the same
//! spread the acceptance driver does.

/// Median of `values` (mean of the two middle values for even counts).
/// Returns 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile by the exclusive method. Needs two values;
/// with fewer, both quartiles collapse onto what there is.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    if m < 2 {
        let only = v.first().copied().unwrap_or(0.0);
        return (only, only);
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile range as a share of the median — the run-to-run (or
/// repetition-to-repetition) spread every bound is compared against.
pub fn spread_frac(values: &[f64]) -> f64 {
    let med = median(values);
    if med == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / med.abs()
}

/// The 5th percentile (nearest rank) — what a run reports for every
/// timing it takes many equal-work samples of.
///
/// The recording machine is a guest on a shared host: a calibration
/// loop's cost per iteration has a steady floor, but its median sits
/// 1.1× to 1.8× above that floor depending on the minute, with nothing
/// in the guest to show for it (no steal, the other vCPU idle). A median
/// over a run then measures how much of the run the host's other tenants
/// covered. The low tail of many short samples is the speed of the
/// machine when it is left alone, which is what a change to the code
/// moves; over ten runs the 5th percentile spread least of the minimum,
/// 2nd, 5th, 10th, 25th and 50th percentiles (see the README).
pub fn fast(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (0.05 * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Nearest-rank percentile of an unsorted sample: the smallest value
/// with at least `p` percent of the sample at or below it.
pub fn percentile(values: &[u64], p: f64) -> u64 {
    if values.is_empty() {
        return 0;
    }
    let mut v = values.to_vec();
    v.sort_unstable();
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11], n=4) == [3, 6, 9]
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(quartiles(&v), (3.0, 9.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[20.0, 10.0]), (7.5, 22.5));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(spread_frac(&v), 1.0);
        assert_eq!(spread_frac(&[5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn fast_is_the_fifth_percentile_and_ignores_a_slow_majority() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(fast(&v), 5.0);
        // 70 % of the slices ran in the slow state: the estimate does not move.
        for x in v.iter_mut().skip(30) {
            *x *= 1.5;
        }
        assert_eq!(fast(&v), 5.0);
        assert_eq!(
            fast(&[9.0, 3.0, 7.0]),
            3.0,
            "small samples fall back to the minimum"
        );
        assert_eq!(fast(&[]), 0.0);
    }

    #[test]
    fn p99_of_a_known_sample_leaves_one_percent_beyond() {
        let v: Vec<u64> = (1..=20_000).rev().collect();
        assert_eq!(percentile(&v, 99.0), 19_800);
        assert_eq!(percentile(&v, 50.0), 10_000);
        assert_eq!(v.iter().filter(|&&x| x > 19_800).count(), 200);
        let small: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&small, 99.0), 99);
        assert_eq!(percentile(&small, 100.0), 100);
        assert_eq!(percentile(&[7], 50.0), 7);
    }
}
