//! Order statistics for the reported figures.

/// Samples a percentile must have strictly beyond it before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of `sorted` (ascending): the value at 1-based
/// rank `ceil(q · n)`. `None` for an empty sample or `q` outside `(0, 1]`.
pub fn nearest_rank(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() || !(q > 0.0 && q <= 1.0) {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The nearest-rank percentile, but only when at least [`MIN_BEYOND`]
/// samples lie beyond its rank; otherwise the sample is too small to
/// support it and the caller must not report it.
pub fn supported_percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    if sorted.len().saturating_sub(rank) < MIN_BEYOND {
        return None;
    }
    nearest_rank(sorted, q)
}

/// The supported percentile `q` of each run of `window` consecutive
/// samples (in arrival order); a trailing partial run is dropped, and so
/// is a run too short to support `q`.
pub fn window_percentiles(samples: &[f64], q: f64, window: usize) -> Vec<f64> {
    samples
        .chunks_exact(window.max(1))
        .filter_map(|c| supported_percentile(&sorted(c.to_vec()), q))
        .collect()
}

/// A tail percentile that one stall cannot move: the median of the
/// [`window_percentiles`] over chunks of `chunk`. `None` when no chunk
/// supports the percentile.
pub fn chunked_percentile(samples: &[f64], q: f64, chunk: usize) -> Option<f64> {
    median(&window_percentiles(samples, q, chunk))
}

/// The best quartile of per-window figures that are better lower: their
/// nearest-rank 25th percentile. A shared host only ever slows a window
/// down, so the quartile nearest the program's own speed moves least from
/// run to run, as long as the host left at least a quarter of the windows
/// alone.
pub fn best_quartile(windows: &[f64]) -> Option<f64> {
    nearest_rank(&sorted(windows.to_vec()), 0.25)
}

/// Sorts a sample in place (total order: failed requests recorded as
/// `+inf` sort last) and returns it for chaining.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// The nearest-rank median (`None` for an empty sample).
pub fn median(values: &[f64]) -> Option<f64> {
    nearest_rank(&sorted(values.to_vec()), 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_ceiling_rank() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&xs, 0.5), Some(5.0));
        assert_eq!(nearest_rank(&xs, 0.51), Some(6.0));
        assert_eq!(nearest_rank(&xs, 0.9), Some(9.0));
        assert_eq!(nearest_rank(&xs, 1.0), Some(10.0));
        assert_eq!(nearest_rank(&xs, 0.01), Some(1.0));
        assert_eq!(nearest_rank(&[], 0.5), None);
        assert_eq!(nearest_rank(&xs, 0.0), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        // p99 of 1000 samples sits at rank 990: exactly 10 beyond.
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(supported_percentile(&xs, 0.99), Some(990.0));
        // 999 samples: rank 990, only 9 beyond.
        assert_eq!(supported_percentile(&xs[..999], 0.99), None);
        // The median of 21 samples has 10 beyond it; of 20, 10 too; of 19, 9.
        assert_eq!(supported_percentile(&xs[..21], 0.5), Some(11.0));
        assert_eq!(supported_percentile(&xs[..20], 0.5), Some(10.0));
        assert_eq!(supported_percentile(&xs[..19], 0.5), None);
    }

    #[test]
    fn a_chunked_tail_ignores_one_stalled_chunk() {
        // Three chunks of 1000 with p99 = 990; one of them also stalled.
        let mut xs: Vec<f64> = (0..3).flat_map(|_| (1..=1000).map(f64::from)).collect();
        xs[1000..1100].iter_mut().for_each(|x| *x = 1e6);
        assert_eq!(supported_percentile(&sorted(xs.clone()), 0.99), Some(1e6));
        assert_eq!(chunked_percentile(&xs, 0.99, 1000), Some(990.0));
        // Too few samples for one chunk: nothing to report.
        assert_eq!(chunked_percentile(&xs[..999], 0.99, 1000), None);
    }

    #[test]
    fn the_best_quartile_ignores_slowed_windows() {
        // Twelve windows at the program's speed, four slowed by the host.
        let mut latency = vec![100.0; 12];
        latency.extend([250.0, 300.0, 180.0, 400.0]);
        assert_eq!(best_quartile(&latency), Some(100.0));
        // The 25th percentile of 1..=8 is rank 2.
        let xs: Vec<f64> = (1..=8).map(f64::from).collect();
        assert_eq!(best_quartile(&xs), Some(2.0));
        assert_eq!(best_quartile(&[]), None);
    }

    #[test]
    fn window_percentiles_cut_samples_in_arrival_order() {
        // Windows of 21 (the median has 10 samples beyond it); the trailing
        // 8 samples are dropped.
        let xs: Vec<f64> = (0..50).map(f64::from).collect();
        assert_eq!(window_percentiles(&xs, 0.5, 21), vec![10.0, 31.0]);
        // Windows of 19 cannot support the median; none is reported.
        assert!(window_percentiles(&xs, 0.5, 19).is_empty());
        assert!(window_percentiles(&xs[..20], 0.5, 21).is_empty());
    }

    #[test]
    fn failures_recorded_as_infinite_sort_last() {
        let xs = sorted(vec![f64::INFINITY, 2.0, 1.0]);
        assert_eq!(xs, vec![1.0, 2.0, f64::INFINITY]);
        assert_eq!(nearest_rank(&xs, 1.0), Some(f64::INFINITY));
    }
}
