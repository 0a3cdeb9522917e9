//! Order statistics for the report: medians, quantiles, and percentiles
//! that refuse to be computed from too few samples.

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The `q`-quantile (0..=1) of an already sorted slice, interpolating
/// linearly between neighbours.
fn quantile_sorted(v: &[f64], q: f64) -> f64 {
    assert!(!v.is_empty(), "quantile of an empty sample");
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    quantile_sorted(&sorted(values), 0.5)
}

/// The `q`-quantile (0..=1) of `values`.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    quantile_sorted(&sorted(values), q)
}

/// The `p`-th percentile (0..100) of `values`, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it — a p99 of 500 samples rests on
/// five of them and is noise, not a measurement.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let beyond = (values.len() as f64 * (1.0 - p / 100.0)).floor() as usize;
    if values.is_empty() || beyond < MIN_BEYOND {
        return None;
    }
    Some(quantile(values, p / 100.0))
}

/// `percentile`, reported as 0 when the sample cannot support it (the
/// sample count is reported beside every percentile, so a reader can
/// tell the difference).
pub fn percentile_or_zero(values: &[f64], p: f64) -> f64 {
    percentile(values, p).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.25), 2.5);
        assert_eq!(quantile(&[5.0], 0.9), 5.0);
    }

    #[test]
    fn percentile_refuses_fewer_than_ten_samples_beyond_it() {
        let v: Vec<f64> = (0..999).map(f64::from).collect();
        // 999 samples: 9.99 beyond p99 — refused.
        assert_eq!(percentile(&v, 99.0), None);
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        // 1000 samples: exactly ten beyond p99 — allowed.
        assert!(percentile(&v, 99.0).is_some());
        assert!(percentile(&v, 99.9).is_none());
        assert!(percentile(&v, 90.0).is_some());
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile_or_zero(&v, 99.9), 0.0);
    }
}
