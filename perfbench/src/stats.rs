//! Order statistics for reported timings.
//!
//! A percentile is only reported when at least [`MIN_BEYOND`] samples lie
//! beyond it: a "p90" over 20 samples is really the second-largest sample
//! and moves with a single outlier.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (0 < p < 100) of `samples`, refused unless
/// at least [`MIN_BEYOND`] samples rank above it.
pub fn percentile(samples: &[f64], p: f64) -> Result<f64, String> {
    if !(p > 0.0 && p < 100.0) {
        return Err(format!("percentile {p} is outside (0, 100)"));
    }
    let n = samples.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    let beyond = n.saturating_sub(rank.max(1));
    if n == 0 || beyond < MIN_BEYOND {
        return Err(format!(
            "p{p} over {n} samples leaves {beyond} beyond it; need {MIN_BEYOND}"
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank - 1])
}

/// Median of a small set of repeated measurements (e.g. set-up runs);
/// the mean of the middle pair for even counts.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of nothing");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_fewer_than_ten_samples_beyond() {
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        // p50 of 20 leaves exactly 10 beyond: allowed.
        assert_eq!(percentile(&twenty, 50.0), Ok(10.0));
        // p75 of 20 leaves 5 beyond: refused.
        assert!(percentile(&twenty, 75.0).is_err());
        let forty: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(percentile(&forty, 75.0), Ok(30.0));
        assert!(percentile(&forty, 90.0).is_err());
        let hundred: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&hundred, 90.0), Ok(90.0));
        assert!(percentile(&[], 50.0).is_err());
        assert!(percentile(&[1.0], 50.0).is_err());
    }

    #[test]
    fn median_of_odd_and_even_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
