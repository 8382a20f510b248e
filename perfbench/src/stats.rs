//! Order statistics and span arithmetic shared by every phase.

/// The percentiles a tail may be reported at, lowest first.
const TAIL_LADDER: [usize; 5] = [50, 75, 90, 95, 99];

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every phase records at least one sample.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// The `p`-th percentile of `values` by linear interpolation between
/// closest ranks (the `numpy` default), so `percentile(v, 50.0)` is the
/// median.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let low = rank.floor() as usize;
    let high = rank.ceil() as usize;
    sorted[low] + (sorted[high] - sorted[low]) * (rank - low as f64)
}

/// The highest percentile of [`TAIL_LADDER`] with at least ten of
/// `samples` beyond it, or `None` when even the median has fewer.
///
/// A tail percentile estimated from fewer than ten samples above it is
/// mostly noise, so a run reports the tail this rule allows and no
/// higher.  The benchmark sizes its job series so that the rule yields
/// exactly the percentile named in each metric.
pub fn tail_percentile(samples: usize) -> Option<f64> {
    // Integer arithmetic: `samples * (1 - p/100) >= 10` without rounding.
    TAIL_LADDER.iter().rev().find(|&&p| samples * (100 - p) >= 1000).map(|&p| p as f64)
}

/// A closed-open time interval in nanoseconds.
pub type Interval = (u64, u64);

/// Self time of a span over `parent`: its length minus the part of it that
/// the `children` intervals cover.
///
/// Children are clipped to the parent and overlapping children are
/// counted once, so the result is never negative and concurrent children
/// (spans of parallel workers) are not double-subtracted.
pub fn self_time(parent: Interval, children: &[Interval]) -> u64 {
    let mut clipped: Vec<Interval> = children
        .iter()
        .map(|&(start, end)| (start.max(parent.0), end.min(parent.1)))
        .filter(|(start, end)| start < end)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0u64;
    let mut reach = parent.0;
    for (start, end) in clipped {
        let start = start.max(reach);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    (parent.1 - parent.0) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(39), Some(50.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(99), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(1_000_000), Some(99.0));
    }

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let values = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&values), 2.5);
        assert_eq!(percentile(&values, 0.0), 1.0);
        assert_eq!(percentile(&values, 100.0), 4.0);
        assert_eq!(median(&[7.0]), 7.0);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert!((percentile(&hundred, 90.0) - 90.1).abs() < 1e-9);
    }

    #[test]
    fn self_time_subtracts_the_union_of_clipped_children() {
        // No children: the whole span is self time.
        assert_eq!(self_time((10, 110), &[]), 100);
        // Disjoint children are subtracted in full.
        assert_eq!(self_time((0, 100), &[(10, 20), (50, 80)]), 60);
        // Overlapping children (parallel workers) count once.
        assert_eq!(self_time((0, 100), &[(10, 60), (40, 70)]), 40);
        // Children sticking out of the parent are clipped to it.
        assert_eq!(self_time((0, 100), &[(90, 150), (0, 5)]), 85);
        // A child outside the parent does not count at all.
        assert_eq!(self_time((0, 100), &[(100, 200)]), 100);
        // Fully covered parent.
        assert_eq!(self_time((0, 100), &[(0, 100), (20, 30)]), 0);
    }
}
