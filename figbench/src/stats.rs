//! The benchmark's metric arithmetic.

/// A percentile of `samples` with its sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The interpolated value (0 with no samples).
    pub value: f64,
    /// How many samples it was taken over.
    pub samples: usize,
}

/// The `q`-quantile (0..=1) of `samples`, interpolating linearly between
/// the two nearest ranks.
pub fn percentile(samples: &[f64], q: f64) -> Percentile {
    let mut sorted: Vec<f64> = samples.iter().copied().filter(|v| v.is_finite()).collect();
    sorted.sort_by(f64::total_cmp);
    let value = match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let rank = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    };
    Percentile {
        value,
        samples: sorted.len(),
    }
}

/// The median of `samples` (0 with none).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5).value
}

/// Element-wise median of aligned sample vectors: sample `i` of every
/// pass measures the same point, so this is each point's median
/// repetition. Truncates to the shortest vector.
pub fn pointwise_median(passes: &[Vec<f64>]) -> Vec<f64> {
    let n = passes.iter().map(Vec::len).min().unwrap_or(0);
    (0..n)
        .map(|i| median(&passes.iter().map(|p| p[i]).collect::<Vec<f64>>()))
        .collect()
}

/// The share of the engine's worker time spent simulating: the summed
/// host time of the freshly simulated points over `workers` workers for
/// the pass's wall time.
pub fn busy_frac(point_host_s: &[f64], wall_s: f64, workers: usize) -> f64 {
    if wall_s <= 0.0 || workers == 0 {
        return 0.0;
    }
    point_host_s.iter().sum::<f64>() / (wall_s * workers as f64)
}

/// `(treated / reference - 1)` in percent: the overhead of the treated
/// time over the reference time.
pub fn overhead_pct(treated: f64, reference: f64) -> f64 {
    if reference <= 0.0 {
        return 0.0;
    }
    (treated / reference - 1.0) * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_and_count() {
        let samples: Vec<f64> = (1..=101).map(f64::from).collect();
        let p50 = percentile(&samples, 0.5);
        assert_eq!(
            p50,
            Percentile {
                value: 51.0,
                samples: 101
            }
        );
        assert_eq!(percentile(&samples, 0.95).value, 96.0);
        assert_eq!(percentile(&[1.0, 2.0], 0.5).value, 1.5);
        assert_eq!(percentile(&[7.0], 0.95).value, 7.0);
        assert_eq!(
            percentile(&[], 0.5),
            Percentile {
                value: 0.0,
                samples: 0
            }
        );
    }

    #[test]
    fn percentiles_ignore_order_and_non_finite_samples() {
        let p = percentile(&[3.0, f64::NAN, 1.0, 2.0, f64::INFINITY], 0.5);
        assert_eq!(
            p,
            Percentile {
                value: 2.0,
                samples: 3
            }
        );
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
    }

    #[test]
    fn pointwise_median_takes_each_points_median_repetition() {
        let passes = vec![
            vec![3.0, 1.0, 5.0],
            vec![2.0, 4.0, 6.0, 9.0],
            vec![1.0, 1.0, 1.0],
        ];
        assert_eq!(pointwise_median(&passes), vec![2.0, 1.0, 5.0]);
        assert!(pointwise_median(&[]).is_empty());
    }

    #[test]
    fn busy_frac_divides_point_time_by_worker_time() {
        // Two workers, a 2 s pass, 3 s of simulation: 75% busy.
        assert_eq!(busy_frac(&[1.0, 1.5, 0.5], 2.0, 2), 0.75);
        assert_eq!(busy_frac(&[1.0], 0.0, 2), 0.0);
        assert_eq!(busy_frac(&[], 1.0, 2), 0.0);
    }

    #[test]
    fn overhead_is_relative_to_the_reference() {
        assert!((overhead_pct(1.1, 1.0) - 10.0).abs() < 1e-9);
        assert_eq!(overhead_pct(1.0, 0.0), 0.0);
    }
}
