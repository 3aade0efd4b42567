//! Exact order statistics over raw samples.
//!
//! Every percentile the benchmark reports is computed here by sorting
//! the raw per-record samples (nearest-rank definition), never read off
//! the serving runtime's power-of-two histograms, whose quantiles can
//! be off by up to 2×.

/// The percentiles the benchmark may quote for a tail, highest first.
const TAIL_LADDER: [f64; 6] = [99.99, 99.9, 99.0, 95.0, 90.0, 50.0];

/// Samples that must lie strictly beyond a percentile's rank before
/// that percentile is quoted as measured.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank `p`-th percentile (`0 < p <= 100`) of an
/// ascending-sorted sample: the smallest value with at least `p` % of
/// the sample at or below it. `NaN` for an empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of the `p`-th percentile in a sample of `n`.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Whether at least [`MIN_BEYOND`] samples of `n` lie beyond the
/// `p`-th percentile's rank.
pub fn supported(n: usize, p: f64) -> bool {
    n > 0 && n - rank(n, p) >= MIN_BEYOND
}

/// The highest percentile of [`TAIL_LADDER`] that a sample of `n`
/// supports, or `None` when even the median has too few samples
/// beyond it.
pub fn highest_supported(n: usize) -> Option<f64> {
    TAIL_LADDER.into_iter().find(|&p| supported(n, p))
}

/// Median, p99 and the supported tail of one sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// 99th percentile (see [`Summary::p99_supported`]).
    pub p99: f64,
    /// The highest supported percentile and its value.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Sorts `samples` in place and summarises them.
    pub fn of(samples: &mut [f64]) -> Self {
        samples.sort_by(f64::total_cmp);
        let n = samples.len();
        Self {
            n,
            p50: percentile(samples, 50.0),
            p99: percentile(samples, 99.0),
            tail: highest_supported(n).map(|p| (p, percentile(samples, p))),
        }
    }

    /// Whether the p99 has at least [`MIN_BEYOND`] samples beyond it.
    pub fn p99_supported(&self) -> bool {
        supported(self.n, 99.0)
    }

    /// One human-readable line: `p50 … p99 … (n, highest supported)`.
    pub fn describe(&self, unit: &str) -> String {
        let tail = match self.tail {
            Some((p, v)) => format!("highest supported p{p} = {v:.4} {unit}"),
            None => "no percentile supported".to_string(),
        };
        format!(
            "p50 {:.4} {unit} · p99 {:.4} {unit}{} · n {} · {tail}",
            self.p50,
            self.p99,
            if self.p99_supported() {
                ""
            } else {
                " (unsupported)"
            },
            self.n
        )
    }
}

/// Splits `(time, value)` samples into `windows` equal sub-windows of
/// `[from, to)`; samples outside it are left out.
fn bucket(samples: &[(u64, f64)], from: u64, to: u64, windows: u64) -> Vec<Vec<f64>> {
    let width = (to.saturating_sub(from) / windows.max(1)).max(1);
    let mut per_window: Vec<Vec<f64>> = vec![Vec::new(); windows as usize];
    for &(t, v) in samples {
        if t >= from && t < to {
            if let Some(w) = per_window.get_mut(((t - from) / width) as usize) {
                w.push(v);
            }
        }
    }
    per_window
}

/// Which of `windows` equal sub-windows of `[from, to)` an open-loop
/// generator kept up in: the exact p99 of the lags of the records due
/// in the window is at most `max_lag`. `lags` holds `(due time, lag)`;
/// a window nothing was due in is not kept.
pub fn on_time_windows(
    lags: &[(u64, f64)],
    from: u64,
    to: u64,
    windows: u64,
    max_lag: f64,
) -> Vec<bool> {
    bucket(lags, from, to, windows)
        .into_iter()
        .map(|mut w| {
            w.sort_by(f64::total_cmp);
            !w.is_empty() && percentile(&w, 99.0) <= max_lag
        })
        .collect()
}

/// The quiet quartile over the kept sub-windows of `[from, to)` of each
/// sub-window's exact `p`-th percentile, for `(time, value)` samples:
/// the 25th percentile (nearest rank) of the per-window values.
/// `keep[w]` selects window `w`; when `keep` selects no window that
/// holds samples, every window counts. Interference
/// from a shared host only adds latency, and it comes in bursts, so it
/// raises the windows it hits and leaves the quiet quartile; a slower
/// program raises every window.
pub fn windowed_percentile(
    samples: &[(u64, f64)],
    from: u64,
    to: u64,
    windows: u64,
    p: f64,
    keep: &[bool],
) -> f64 {
    let per_window: Vec<f64> = bucket(samples, from, to, windows)
        .into_iter()
        .map(|mut w| {
            w.sort_by(f64::total_cmp);
            percentile(&w, p)
        })
        .collect();
    let kept = |i: usize| keep.get(i).copied().unwrap_or(false);
    let any_kept = (0..per_window.len()).any(|i| kept(i) && !per_window[i].is_nan());
    let mut values: Vec<f64> = per_window
        .iter()
        .enumerate()
        .filter(|&(i, v)| !v.is_nan() && (kept(i) || !any_kept))
        .map(|(_, &v)| v)
        .collect();
    values.sort_by(f64::total_cmp);
    percentile(&values, 25.0)
}

/// The quiet quartile of cost per item between consecutive marks of
/// `(cumulative cost, cumulative items)`: the 25th percentile (nearest
/// rank) of `Δcost / Δitems` over the intervals that completed an item.
/// A burst of interference makes the intervals it hits costlier; a
/// costlier program raises every interval.
pub fn quiet_cost_per_item(marks: &[(f64, u64)]) -> f64 {
    let mut per: Vec<f64> = marks
        .windows(2)
        .filter(|m| m[1].1 > m[0].1)
        .map(|m| (m[1].0 - m[0].0) / (m[1].1 - m[0].1) as f64)
        .collect();
    per.sort_by(f64::total_cmp);
    percentile(&per, 25.0)
}

/// Arithmetic mean (`NaN` when empty).
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Median of a small unsorted sample (`NaN` when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Brute-force definition: the smallest sample value `v` such that
    /// at least `p` % of the sample is `<= v`.
    fn brute(sample: &[f64], p: f64) -> f64 {
        let n = sample.len() as f64;
        let mut candidates = sample.to_vec();
        candidates.sort_by(f64::total_cmp);
        candidates
            .into_iter()
            .find(|&v| sample.iter().filter(|&&x| x <= v).count() as f64 >= p / 100.0 * n - 1e-9)
            .expect("non-empty sample")
    }

    #[test]
    fn percentile_matches_brute_force() {
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for n in 1..=300 {
            // Few distinct values so ties are exercised too.
            let sample: Vec<f64> = (0..n).map(|_| (next() % 50) as f64).collect();
            let mut sorted = sample.clone();
            sorted.sort_by(f64::total_cmp);
            for p in [1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 100.0] {
                assert_eq!(percentile(&sorted, p), brute(&sample, p), "n {n} p {p}");
            }
        }
    }

    #[test]
    fn tail_support_needs_ten_samples_beyond() {
        assert_eq!(highest_supported(5), None);
        assert_eq!(highest_supported(20), Some(50.0));
        assert!(!supported(999, 99.0));
        assert!(supported(1000, 99.0));
        assert_eq!(highest_supported(1000), Some(99.0));
        assert_eq!(highest_supported(100_000), Some(99.99));
        let mut v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = Summary::of(&mut v);
        assert_eq!((s.p50, s.p99), (500.0, 990.0));
        assert!(s.p99_supported());
    }

    #[test]
    fn windowed_percentile_ignores_bad_windows() {
        // Eight windows of 1..=100; windows 2, 5 and 6 also hold a 10×
        // outlier burst, the second window is uniformly twice as slow.
        let mut samples: Vec<(u64, f64)> = (0..8u64)
            .flat_map(|w| {
                let scale = if w == 1 { 2.0 } else { 1.0 };
                (1..=100).map(move |v| (w * 10 + 5, scale * f64::from(v)))
            })
            .collect();
        for w in [2u64, 5, 6] {
            samples.extend((0..50).map(|_| (w * 10 + 5, 1000.0)));
        }
        assert_eq!(windowed_percentile(&samples, 0, 80, 8, 99.0, &[]), 99.0);
        assert_eq!(windowed_percentile(&samples, 0, 80, 8, 50.0, &[]), 50.0);
        // A program twice as slow everywhere doubles it.
        let slower: Vec<(u64, f64)> = samples.iter().map(|&(t, v)| (t, 2.0 * v)).collect();
        assert_eq!(windowed_percentile(&slower, 0, 80, 8, 99.0, &[]), 198.0);
        // Keeping only the slow windows reports them: the burst window's
        // median is 75, the doubled window's 100.
        let keep = [false, true, true, false, false, false, false, false];
        assert_eq!(windowed_percentile(&samples, 0, 80, 8, 50.0, &keep), 75.0);
        // Keeping no window falls back to all of them.
        assert_eq!(
            windowed_percentile(&samples, 0, 80, 8, 99.0, &[false; 8]),
            99.0
        );
        assert!(windowed_percentile(&[], 0, 40, 4, 99.0, &[]).is_nan());
    }

    #[test]
    fn on_time_windows_drop_late_generator_windows() {
        // Window 1's generator ran 3 units late for 5 of 100 records.
        let mut lags: Vec<(u64, f64)> = (0..3u64)
            .flat_map(|w| (0..100).map(move |_| (w * 10 + 5, 0.1)))
            .collect();
        for l in lags.iter_mut().filter(|l| l.0 == 15).take(5) {
            l.1 = 3.0;
        }
        assert_eq!(
            on_time_windows(&lags, 0, 40, 4, 1.0),
            [true, false, true, false]
        );
    }

    #[test]
    fn quiet_cost_ignores_costly_intervals() {
        // Eight intervals of 10 items; two cost 3× as much.
        let mut marks = vec![(0.0, 0u64)];
        for i in 1..=8u64 {
            let step = if i == 3 || i == 6 { 30.0 } else { 10.0 };
            let last = marks[marks.len() - 1];
            marks.push((last.0 + step, last.1 + 10));
        }
        assert_eq!(quiet_cost_per_item(&marks), 1.0);
        assert!(quiet_cost_per_item(&marks[..1]).is_nan());
    }

    #[test]
    fn empty_sample_is_nan() {
        assert!(percentile(&[], 50.0).is_nan());
        assert!(mean(&[]).is_nan());
    }
}
