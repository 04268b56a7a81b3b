//! Order statistics over raw samples, window cutting, and the
//! cumulative-to-delta conversion of the stats plane's stage histograms.

/// The `q`-quantile (0 ≤ q ≤ 1) of `sorted` as an exact order statistic
/// (nearest rank, no interpolation): the smallest sample with at least
/// `q` of the samples at or below it. `None` when empty.
fn quantile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Sorts `values` in place and returns their `q`-quantile.
pub fn quantile(values: &mut [f64], q: f64) -> Option<f64> {
    values.sort_unstable_by(f64::total_cmp);
    quantile_sorted(values, q)
}

/// The median as the mean of the two middle order statistics (the
/// convention of Python's `statistics.median`, which the acceptance
/// driver uses).
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    match v.len() {
        0 => None,
        n if n % 2 == 1 => Some(v[n / 2]),
        n => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First and third quartile as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) gives them.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let at = |k: usize| {
        // Position k(n+1)/4, 1-based, linearly interpolated; like
        // Python, only the index is clamped.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1) % 4) as f64 / 4.0;
        v[j - 1] * (1.0 - delta) + v[j] * delta
    };
    Some((at(1), at(3)))
}

/// One completed operation: when it completed (nanoseconds since the
/// run's epoch) and how long it took (microseconds).
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub done_ns: u64,
    pub latency_us: f64,
}

/// Cuts the samples completed in `[start_ns, start_ns + windows ×
/// window_ns)` into `windows` equal windows of latencies.
pub fn cut_windows(
    samples: &[Sample],
    start_ns: u64,
    window_ns: u64,
    windows: usize,
) -> Vec<Vec<f64>> {
    let mut out = vec![Vec::new(); windows];
    for s in samples {
        if s.done_ns < start_ns {
            continue;
        }
        let w = ((s.done_ns - start_ns) / window_ns) as usize;
        if w < windows {
            out[w].push(s.latency_us);
        }
    }
    out
}

/// What one sample stream shows over the measured windows.
#[derive(Clone, Debug, Default)]
pub struct Summary {
    /// Completions inside the measured interval.
    pub completed: u64,
    /// Completions per second in each window.
    pub window_rates: Vec<f64>,
    /// p95 latency (µs) of each window with ten samples beyond it.
    pub window_p95_us: Vec<f64>,
    /// Median of `window_rates`.
    pub rate: f64,
    /// p50 latency (µs) over the whole measured interval.
    pub p50_us: Option<f64>,
    /// Median of `window_p95_us` when at least half the windows
    /// qualified, else the p95 of the whole measured interval.
    pub p95_us: Option<f64>,
    /// The same for p99.
    pub p99_us: Option<f64>,
}

/// A p99 is reported only with this many samples behind it (ten beyond
/// the percentile).
pub const MIN_P99_SAMPLES: usize = 1000;

/// The `q`-quantile of every window holding ten samples beyond it, and
/// their median — or, with fewer than half the windows qualifying, the
/// quantile of the whole interval (`all`).
fn window_tail(windows: &[Vec<f64>], all: &mut [f64], q: f64) -> (Vec<f64>, Option<f64>) {
    let enough = (10.0 / (1.0 - q)).round() as usize;
    let per_window: Vec<f64> = windows
        .iter()
        .filter(|w| w.len() >= enough)
        .filter_map(|w| quantile(&mut w.clone(), q))
        .collect();
    let tail = if per_window.len() * 2 >= windows.len().max(1) {
        median(&per_window)
    } else {
        quantile(all, q)
    };
    (per_window, tail)
}

pub fn summarize(windows: &[Vec<f64>], window_ns: u64) -> Summary {
    let secs = window_ns as f64 / 1e9;
    let window_rates: Vec<f64> = windows.iter().map(|w| w.len() as f64 / secs).collect();
    let mut all: Vec<f64> = windows.iter().flatten().copied().collect();
    let (window_p95_us, p95_us) = window_tail(windows, &mut all, 0.95);
    let (_, p99_us) = window_tail(windows, &mut all, 0.99);
    Summary {
        completed: all.len() as u64,
        rate: median(&window_rates).unwrap_or(0.0),
        p50_us: quantile(&mut all, 0.50),
        p95_us,
        p99_us,
        window_rates,
        window_p95_us,
    }
}

/// Windows whose rate fell below half the median rate — a wedge shows
/// here instead of hiding in a mean.
pub fn stall_windows(rates: &[f64]) -> usize {
    let Some(m) = median(rates) else { return 0 };
    rates.iter().filter(|r| **r < 0.5 * m).count()
}

/// The stats plane's stage histograms are cumulative since submit
/// (seal, propose, p2send, decide, deliver, execute, reply). Converts a
/// list of cumulative p50s into per-stage deltas; a stage that reads
/// below its predecessor (sampled on different commands) clamps to 0.
pub fn cumulative_to_deltas(cumulative: &[f64]) -> Vec<f64> {
    let mut prev = 0.0;
    cumulative
        .iter()
        .map(|c| {
            let d = (c - prev).max(0.0);
            prev = prev.max(*c);
            d
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_exact_order_statistics() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).rev().collect();
        assert_eq!(quantile(&mut v, 0.50), Some(50.0));
        assert_eq!(quantile(&mut v, 0.99), Some(99.0));
        assert_eq!(quantile(&mut v, 1.0), Some(100.0));
        assert_eq!(quantile(&mut v, 0.0), Some(1.0));
        assert_eq!(quantile(&mut [7.0], 0.99), Some(7.0));
        assert_eq!(quantile(&mut [], 0.5), None);
        // Two samples an octave bucket would merge stay distinct.
        let mut close = vec![2752.4, 2752.6, 2752.5];
        assert_eq!(quantile(&mut close, 0.5), Some(2752.5));
    }

    #[test]
    fn median_and_quartiles_match_python_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some((1.5, 4.5)));
    }

    #[test]
    fn windows_take_the_median_rate_and_median_tails() {
        let sample = |done_ms: u64, latency_us: f64| Sample {
            done_ns: done_ms * 1_000_000,
            latency_us,
        };
        // Warm-up sample, three 100 ms windows with 2, 4 and 3
        // completions, one sample past the end.
        let samples = [
            sample(50, 9.0),
            sample(100, 1.0),
            sample(150, 2.0),
            sample(200, 3.0),
            sample(210, 4.0),
            sample(220, 5.0),
            sample(299, 6.0),
            sample(300, 7.0),
            sample(350, 8.0),
            sample(399, 9.0),
            sample(400, 100.0),
        ];
        let windows = cut_windows(&samples, 100_000_000, 100_000_000, 3);
        assert_eq!(
            windows.iter().map(Vec::len).collect::<Vec<_>>(),
            vec![2, 4, 3]
        );
        let s = summarize(&windows, 100_000_000);
        assert_eq!(s.completed, 9);
        assert_eq!(s.window_rates, vec![20.0, 40.0, 30.0]);
        assert_eq!(s.rate, 30.0);
        assert_eq!(s.p50_us, Some(5.0));
        assert!(
            s.window_p95_us.is_empty(),
            "windows under 200 samples have no p95"
        );
        assert_eq!(s.p99_us, Some(9.0), "so the whole interval's p99 stands in");
        let big = vec![(1..=2000).map(f64::from).collect::<Vec<_>>(); 3];
        let big = summarize(&big, 100_000_000);
        assert_eq!(big.p99_us, Some(1980.0));
        assert_eq!(big.p95_us, Some(1900.0));
        assert_eq!(big.window_p95_us, vec![1900.0; 3]);
        assert_eq!(stall_windows(&[10.0, 10.0, 4.0, 11.0]), 1);
    }

    #[test]
    fn cumulative_stages_become_deltas() {
        assert_eq!(
            cumulative_to_deltas(&[2000.0, 2100.0, 2150.0, 2600.0, 2600.0, 2650.0]),
            vec![2000.0, 100.0, 50.0, 450.0, 0.0, 50.0]
        );
        // A stage sampled below its predecessor clamps instead of going
        // negative, and does not drag later stages down with it.
        assert_eq!(
            cumulative_to_deltas(&[100.0, 90.0, 150.0]),
            vec![100.0, 0.0, 50.0]
        );
    }
}
