//! Order statistics over per-round readings.

/// The median (mean of the two middle values for an even count); 0 for an
/// empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The geometric mean of positive values; 0 if any value is not positive
/// or the slice is empty.
pub fn gmean(values: &[f64]) -> f64 {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0 || !v.is_finite()) {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Minimum number of samples a reported tail percentile must have beyond it.
pub const TAIL_BEYOND: usize = 10;

/// The highest percentile that still has [`TAIL_BEYOND`] samples above it:
/// the value with exactly ten larger samples, and its percentile. With ten
/// or fewer samples it is the maximum, at percentile 100.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n <= TAIL_BEYOND {
        return (v.last().copied().unwrap_or(0.0), 100.0);
    }
    let at = n - 1 - TAIL_BEYOND;
    (v[at], 100.0 * (at + 1) as f64 / n as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_gmean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!((gmean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(gmean(&[1.0, 0.0]), 0.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let (value, pct) = tail(&v);
        assert_eq!(value, 90.0);
        assert_eq!(v.iter().filter(|&&x| x > value).count(), TAIL_BEYOND);
        assert_eq!(pct, 90.0);
        assert_eq!(tail(&[1.0, 5.0]), (5.0, 100.0));
    }
}
