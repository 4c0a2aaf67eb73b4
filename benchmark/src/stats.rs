//! Summary statistics with honest sample-count rules.
//!
//! A percentile is reported only when at least [`MIN_BEYOND`] samples
//! lie beyond it, so a p90 needs 100 samples and a median 20. Callers
//! that have fewer samples get `None` and must say so rather than
//! print a number the data cannot support.

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Smallest sample count for which percentile `q` (0 < q < 1) is
/// reportable: `n * (1 - q) >= MIN_BEYOND`.
pub fn min_samples(q: f64) -> usize {
    assert!(q > 0.0 && q < 1.0, "percentile {q} out of (0, 1)");
    // The epsilon absorbs rounding in 1 - q (10 / 0.1 is 100.000...01).
    (MIN_BEYOND as f64 / (1.0 - q) - 1e-9).ceil() as usize
}

/// Percentile `q` of `xs`, or `None` when fewer than [`min_samples`]
/// samples exist.
///
/// The estimate is Harrell–Davis: a weighted mean of the order
/// statistics, weighted by how likely each rank is to hold the
/// percentile (a Beta distribution over ranks, here in its normal
/// approximation, centred on rank `q (n - 1)` with variance
/// `q (1 - q) / (n + 2)` of the range). A single order statistic jumps
/// when the samples near the percentile are sparse — the simulated
/// runs differ in size by orders of magnitude — or sit on a few values,
/// as the thread executor's 20 ms completion tick makes them; this
/// estimate moves smoothly instead. An infinite sample (a failed
/// operation) near the percentile makes it infinite.
pub fn percentile(xs: &[f64], q: f64) -> Option<f64> {
    if xs.len() < min_samples(q) {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len() as f64;
    let centre = q * (n - 1.0);
    let sd = (q * (1.0 - q) / (n + 2.0)).sqrt() * n;
    let (mut sum, mut weight) = (0.0, 0.0);
    for (i, x) in v.iter().enumerate() {
        let z = (i as f64 - centre) / sd;
        if z.abs() <= 6.0 {
            let w = (-0.5 * z * z).exp();
            sum += w * x;
            weight += w;
        }
    }
    Some(sum / weight)
}

/// Median of a handful of repeated whole measurements (the set-up
/// time is measured a few times per run). Not subject to the
/// [`MIN_BEYOND`] rule: it summarises repetitions, not a distribution.
pub fn median_of_repeats(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    })
}

/// Arithmetic mean, or `None` for no samples.
pub fn mean(xs: &[f64]) -> Option<f64> {
    (!xs.is_empty()).then(|| xs.iter().sum::<f64>() / xs.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_floor_follows_the_ten_beyond_rule() {
        assert_eq!(min_samples(0.5), 20);
        assert_eq!(min_samples(0.9), 100);
        assert_eq!(min_samples(0.99), 1000);
    }

    #[test]
    fn percentile_refuses_thin_data() {
        let xs: Vec<f64> = (0..99).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.9), None);
        assert_eq!(percentile(&xs[..19], 0.5), None);
        assert!(percentile(&xs[..20], 0.5).is_some());
    }

    #[test]
    fn percentile_centres_on_the_order_statistic_rank() {
        // 0..=100 in any input order: p50 is 50 and p90 is 90.
        let mut xs: Vec<f64> = (0..=100).map(f64::from).collect();
        xs.reverse();
        let p50 = percentile(&xs, 0.5).unwrap();
        let p90 = percentile(&xs, 0.9).unwrap();
        assert!((p50 - 50.0).abs() < 1e-9, "{p50}");
        assert!((p90 - 90.0).abs() < 0.05, "{p90}");
    }

    #[test]
    fn percentile_moves_smoothly_across_a_gap() {
        // Two clusters split near the median: a single order statistic
        // would jump from 10 to 20 when one sample changes sides.
        let split = |low: usize| -> Vec<f64> {
            let mut v = vec![10.0; low];
            v.resize(100, 20.0);
            v
        };
        let a = percentile(&split(51), 0.5).unwrap();
        let b = percentile(&split(49), 0.5).unwrap();
        assert!(a < b && b - a < 2.0, "{a} {b}");
        assert!(percentile(&split(90), 0.5).unwrap() < 10.01);
    }

    #[test]
    fn a_failed_operation_near_the_percentile_is_not_hidden() {
        let mut xs: Vec<f64> = (0..100).map(f64::from).collect();
        xs[99] = f64::INFINITY;
        assert_eq!(percentile(&xs, 0.9), Some(f64::INFINITY));
    }

    #[test]
    fn median_of_repeats_handles_odd_and_even_counts() {
        assert_eq!(median_of_repeats(&[]), None);
        assert_eq!(median_of_repeats(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median_of_repeats(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn mean_of_nothing_is_none() {
        assert_eq!(mean(&[]), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
    }
}
