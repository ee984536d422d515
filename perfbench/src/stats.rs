//! Order statistics for the benchmark's timings.

/// Median of `values` (mean of the two middle values for even counts).
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    })
}

/// The `p`-th percentile (0 < p < 100, nearest rank) of `values`, refused
/// (`None`) unless at least ten samples lie beyond it: a p99 needs 1,000
/// samples, a p50 needs 20. A tail percentile read off fewer samples is a
/// single outlier, not a measurement.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p < 100.0, "percentile out of range: {p}");
    let n = values.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    if rank == 0 || n - rank < 10 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn percentile_refuses_fewer_than_ten_samples_beyond() {
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        // Exactly ten samples lie beyond the p99 of 1,000.
        assert_eq!(percentile(&values, 99.0), Some(990.0));
        // 999 samples leave nine beyond: refused.
        assert_eq!(percentile(&values[..999], 99.0), None);
        // A median needs 20 samples.
        assert_eq!(percentile(&values[..20], 50.0), Some(10.0));
        assert_eq!(percentile(&values[..19], 50.0), None);
        assert_eq!(percentile(&[], 50.0), None);
    }
}
