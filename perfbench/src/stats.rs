//! The benchmark's summary rules, kept apart so they can be tested on
//! fixed inputs.

/// Median of `values` (mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every caller measures at least once.
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Mean of `values` after dropping the `share` lowest and the `share`
/// highest (rounded down, so a short sample keeps every value).
///
/// Call times on a shared host are often bimodal: the host's memory is
/// fast for a while, then slow. The median of such a sample jumps from one
/// mode to the other as their mix shifts; a trimmed mean moves in step with
/// the mix, and still ignores a few stray calls.
///
/// # Panics
///
/// Panics on an empty slice, or a `share` outside `[0, 0.5)`.
pub fn trimmed_mean(values: &mut [f64], share: f64) -> f64 {
    assert!(!values.is_empty(), "mean of no samples");
    assert!((0.0..0.5).contains(&share), "trim share {share}");
    values.sort_by(f64::total_cmp);
    let cut = (values.len() as f64 * share) as usize;
    let kept = &values[cut..values.len() - cut];
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// Percentiles the benchmark may report as a tail, highest first, in
/// tenths of a percent (integers, so the rule below is exact).
const TAIL_PERMILLE: [u64; 4] = [999, 990, 950, 900];

/// The highest percentile of [`TAIL_PERMILLE`] that has at least ten of
/// `samples` beyond it, or `None` when even the 90th has fewer.
pub fn tail_percentile(samples: u64) -> Option<f64> {
    TAIL_PERMILLE
        .into_iter()
        .find(|&p| samples.saturating_mul(1_000 - p) >= 10 * 1_000)
        .map(|p| p as f64 / 10.0)
}

/// The nearest-rank value at percentile `p` of `values`.
pub fn percentile(values: &mut [f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    values.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

/// One rung of an offered-rate ladder, as measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rung {
    /// Offered requests per 1 000 ticks.
    pub rate_per_ktick: f64,
    pub commit_p99: u64,
    pub stalled: u64,
    pub inflight: u64,
}

/// The highest rung whose commit p99 meets `p99_limit` with no stalled and
/// no in-flight request, i.e. with no growing backlog.
pub fn max_rate(rungs: &[Rung], p99_limit: u64) -> Option<f64> {
    rungs
        .iter()
        .filter(|r| r.commit_p99 <= p99_limit && r.stalled == 0 && r.inflight == 0)
        .map(|r| r.rate_per_ktick)
        .max_by(f64::total_cmp)
}

/// Share of attempts that failed; `0` when nothing was attempted.
pub fn failed_ratio(failed: u64, attempted: u64) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rung(rate: f64, p99: u64, stalled: u64, inflight: u64) -> Rung {
        Rung {
            rate_per_ktick: rate,
            commit_p99: p99,
            stalled,
            inflight,
        }
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&mut [7.0]), 7.0);
    }

    #[test]
    fn trimmed_mean_drops_both_tails() {
        let mut v: Vec<f64> = (1..=10).map(f64::from).collect();
        v.push(1_000.0);
        v.insert(0, -1_000.0);
        // 12 values, 10 % cut = 1 from each end: the mean of 1..=10.
        assert_eq!(trimmed_mean(&mut v, 0.1), 5.5);
        assert_eq!(trimmed_mean(&mut [4.0, 2.0], 0.1), 3.0, "too short to trim");
        assert_eq!(trimmed_mean(&mut [1.0, 2.0, 9.0], 0.0), 4.0);
        // A bimodal sample: the trimmed mean follows the mix of modes.
        let mut mostly_fast = [1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0];
        assert_eq!(trimmed_mean(&mut mostly_fast, 0.1), 1.375);
    }

    #[test]
    fn ladder_takes_the_highest_rung_within_the_limit() {
        let rungs = [
            rung(20.0, 200, 0, 0),
            rung(28.0, 367, 0, 0),
            rung(32.0, 900, 0, 0),
            rung(40.0, 3_455, 12, 0),
        ];
        assert_eq!(max_rate(&rungs, 1_000), Some(32.0));
        assert_eq!(max_rate(&rungs, 400), Some(28.0));
        assert_eq!(max_rate(&rungs, 100), None, "no rung meets the limit");
    }

    #[test]
    fn ladder_refuses_a_backlog_even_under_the_limit() {
        let rungs = [
            rung(20.0, 200, 0, 0),
            rung(24.0, 300, 1, 0),
            rung(28.0, 300, 0, 5),
        ];
        assert_eq!(max_rate(&rungs, 1_000), Some(20.0));
        // Order of the ladder does not matter.
        let reversed: Vec<Rung> = rungs.iter().rev().copied().collect();
        assert_eq!(max_rate(&reversed, 1_000), Some(20.0));
        assert_eq!(max_rate(&[], 1_000), None);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(99), None);
        assert_eq!(tail_percentile(0), None);
    }

    #[test]
    fn nearest_rank_percentile() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 99.0), 99.0);
        assert_eq!(percentile(&mut v, 50.0), 50.0);
        assert_eq!(percentile(&mut [5.0], 99.9), 5.0);
    }

    #[test]
    fn failed_ratio_counts_against_attempts() {
        assert_eq!(failed_ratio(0, 10), 0.0);
        assert_eq!(failed_ratio(3, 12), 0.25);
        assert_eq!(failed_ratio(0, 0), 0.0);
        assert_eq!(failed_ratio(5, 5), 1.0);
    }
}
