//! Order statistics and means over latency samples.

/// Median of `samples` (mean of the two middle values for an even count).
/// Sorts in place. `NaN` for an empty slice, so a class that never
/// completed an operation cannot pass for a measured one.
pub fn median(samples: &mut [f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    samples.sort_by(f64::total_cmp);
    let mid = samples.len() / 2;
    if samples.len() % 2 == 1 {
        samples[mid]
    } else {
        (samples[mid - 1] + samples[mid]) / 2.0
    }
}

/// Median seconds of `reps` calls of `f`: the probes' timer.
pub fn median_seconds(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = std::time::Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .collect();
    median(&mut samples)
}

/// Nearest-rank percentile (`q` in `(0, 1]`) of already sorted samples:
/// the smallest sample with at least `q` of the samples at or below it.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Geometric mean; `NaN` for an empty slice or any non-positive value.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() || values.iter().any(|v| v.is_nan() || *v <= 0.0) {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_known_samples() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&mut [7.0]), 7.0);
        assert!(median(&mut []).is_nan());
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), 5.0);
        assert_eq!(percentile(&s, 0.9), 9.0);
        assert_eq!(percentile(&s, 0.91), 10.0);
        assert_eq!(percentile(&s, 1.0), 10.0);
        assert_eq!(percentile(&[42.0], 0.9), 42.0);
        assert!(percentile(&[], 0.9).is_nan());
    }

    #[test]
    fn geomean_of_known_values() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!(geomean(&[1.0, 0.0]).is_nan());
        assert!(geomean(&[]).is_nan());
    }
}
