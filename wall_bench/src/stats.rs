//! Order statistics over the benchmark's own repeated measurements, and the
//! commit-gap extraction from the driver's throughput timeline.

use recipe_shard::TimelineBucket;

/// Min / median / max of `n` repeated host-clock measurements. The median is
/// the value that is reported and gated; min and max carry the noise.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub min: f64,
    pub median: f64,
    pub max: f64,
    pub n: usize,
}

/// Median of `values` (mean of the two middle values when the count is even).
///
/// # Panics
/// Panics on an empty slice or a NaN: both are bugs in the benchmark.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no measurements");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("measurements are never NaN"));
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Summarises repeated measurements.
pub fn summarize(values: &[f64]) -> Summary {
    Summary {
        min: values.iter().copied().fold(f64::INFINITY, f64::min),
        median: median(values),
        max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        n: values.len(),
    }
}

/// Relative difference of `b` against `a` (`0.0` when both are zero).
pub fn rel_diff(a: f64, b: f64) -> f64 {
    if a == b {
        0.0
    } else {
        (b - a) / a.abs().max(f64::MIN_POSITIVE)
    }
}

/// Longest time without a commit, in nanoseconds, as the timeline resolves
/// it: the longest run of buckets with no commit, counted from the start of
/// the run (bucket 0) to the last bucket, times the bucket width. `0` when
/// every bucket saw a commit. The run ends with a commit, so a trailing empty
/// run cannot occur; a leading one (time to the first commit) counts.
pub fn longest_commit_gap_ns(timeline: &[TimelineBucket]) -> u64 {
    let Some(first) = timeline.first() else {
        return 0;
    };
    let width = first.end_ns;
    let mut longest = 0u64;
    let mut current = 0u64;
    for bucket in timeline {
        if bucket.committed == 0 {
            current += 1;
            longest = longest.max(current);
        } else {
            current = 0;
        }
    }
    longest * width
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bucket(i: u64, committed: u64) -> TimelineBucket {
        TimelineBucket {
            end_ns: (i + 1) * 1_000_000,
            committed,
            aborted: 0,
            migrations: 0,
        }
    }

    #[test]
    fn median_of_odd_even_and_single() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn summary_carries_min_median_max_and_count() {
        let s = summarize(&[9.0, 2.0, 4.0, 7.0, 5.0]);
        assert_eq!((s.min, s.median, s.max, s.n), (2.0, 5.0, 9.0, 5));
    }

    #[test]
    fn rel_diff_is_signed_and_zero_safe() {
        assert_eq!(rel_diff(100.0, 110.0), 0.1);
        assert_eq!(rel_diff(100.0, 90.0), -0.1);
        assert_eq!(rel_diff(0.0, 0.0), 0.0);
        assert!(rel_diff(0.0, 1.0) > 1e300);
    }

    #[test]
    fn commit_gap_is_the_longest_empty_run() {
        assert_eq!(longest_commit_gap_ns(&[]), 0);
        let busy: Vec<_> = (0..5).map(|i| bucket(i, 10)).collect();
        assert_eq!(longest_commit_gap_ns(&busy), 0);
        // Buckets 2..=4 empty (a 3 ms outage), then 6 empty (1 ms).
        let commits = [4, 4, 0, 0, 0, 9, 0, 1];
        let timeline: Vec<_> = commits
            .iter()
            .enumerate()
            .map(|(i, &c)| bucket(i as u64, c))
            .collect();
        assert_eq!(longest_commit_gap_ns(&timeline), 3_000_000);
        // A leading gap (time to the first commit) counts too.
        let late = [bucket(0, 0), bucket(1, 0), bucket(2, 5)];
        assert_eq!(longest_commit_gap_ns(&late), 2_000_000);
    }
}
