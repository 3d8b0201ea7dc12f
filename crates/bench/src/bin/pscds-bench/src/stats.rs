//! Order statistics over timing samples.

/// The `p`-quantile (`0 ≤ p ≤ 1`) of `samples`, linearly interpolated
/// between the two nearest ranks (rank `p·(n−1)` of the sorted samples).
/// `None` for an empty slice.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64))
}

/// The median of `samples` (`None` when empty).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 0.5)
}

/// How many of `n` samples lie beyond the `p`-quantile: the samples in
/// the top `1 − p` share, `n − ⌈p·n⌉`.
pub fn beyond(n: usize, p: f64) -> usize {
    n - ((p * n as f64).ceil() as usize).min(n)
}

/// Whether a tail percentile is reportable on `n` samples: at least ten
/// samples must lie beyond it.
pub fn tail_ok(n: usize, p: f64) -> bool {
    beyond(n, p) >= 10
}

/// Samples of a run that repeats whole cycles of `cycle` operations, one
/// sample per operation in order: each cycle position's smallest sample.
pub fn best_per_position(samples: &[f64], cycle: usize) -> Vec<f64> {
    let mut best = vec![f64::INFINITY; cycle.min(samples.len())];
    for (i, &s) in samples.iter().enumerate() {
        best[i % cycle] = best[i % cycle].min(s);
    }
    best
}

/// The smallest per-cycle total of such samples (0 without a whole cycle).
pub fn best_cycle_total(samples: &[f64], cycle: usize) -> f64 {
    samples
        .chunks_exact(cycle.max(1))
        .map(|c| c.iter().sum::<f64>())
        .min_by(f64::total_cmp)
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_and_quartiles_interpolate_between_ranks() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&v), Some(3.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 1.0), Some(5.0));
        assert_eq!(percentile(&v, 0.25), Some(2.0));
        assert_eq!(percentile(&v, 0.75), Some(4.0));
        assert_eq!(percentile(&v, 0.9), Some(4.6));
        let even: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median(&even), Some(5.5));
        assert_eq!(percentile(&even, 0.25), Some(3.25));
        assert_eq!(percentile(&even, 0.75), Some(7.75));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_percentiles_need_ten_samples_beyond() {
        assert_eq!(beyond(100, 0.9), 10);
        assert!(tail_ok(100, 0.9));
        assert!(!tail_ok(99, 0.9));
        assert!(!tail_ok(999, 0.99));
        assert!(tail_ok(1000, 0.99));
        assert_eq!(beyond(0, 0.5), 0);
        assert_eq!(beyond(10, 1.0), 0);
    }

    #[test]
    fn cycles_keep_each_positions_best_and_the_best_total() {
        // Three cycles of three operations; the second cycle is slowed.
        let v = [1.0, 5.0, 2.0, 3.0, 9.0, 4.0, 1.5, 4.0, 2.5];
        assert_eq!(best_per_position(&v, 3), vec![1.0, 4.0, 2.0]);
        assert_eq!(best_cycle_total(&v, 3), 8.0);
        assert_eq!(best_cycle_total(&v[..2], 3), 0.0);
        assert_eq!(best_per_position(&v[..2], 3), vec![1.0, 5.0]);
    }
}
