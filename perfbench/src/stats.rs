//! The benchmark's own statistics.
//!
//! Two different questions use two different tools:
//!
//! * **Within a run**, latency samples are summarised by nearest-rank
//!   percentiles. A percentile is only reported when at least
//!   [`MIN_BEYOND`] samples lie beyond it, so a p99 needs at least 1000
//!   samples and a p50 at least 20; anything less is not a p99.
//! * **Across runs**, each run contributes one value per metric, and the
//!   spread of those values is judged by the median and the quartiles,
//!   computed exactly as Python's `statistics.quantiles(values, n=4)`
//!   (the "exclusive" method) computes them.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `q` (in `0..=1`) of an ascending-sorted sample,
/// or `None` when fewer than [`MIN_BEYOND`] samples lie beyond its rank.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Summary of one latency sample (milliseconds or any other unit).
#[derive(Debug, Clone, Default)]
pub struct Summary {
    /// Samples summarised.
    pub n: usize,
    /// Median, when reportable.
    pub p50: Option<f64>,
    /// 90th percentile, when reportable.
    pub p90: Option<f64>,
    /// 99th percentile, when reportable.
    pub p99: Option<f64>,
    /// Arithmetic mean (0 for an empty sample).
    pub mean: f64,
    /// Largest sample (0 for an empty sample).
    pub max: f64,
}

impl Summary {
    /// Summarise an unsorted sample.
    pub fn of(values: &[f64]) -> Summary {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        Summary {
            n,
            p50: percentile(&sorted, 0.50),
            p90: percentile(&sorted, 0.90),
            p99: percentile(&sorted, 0.99),
            mean: if n == 0 { 0.0 } else { sorted.iter().sum::<f64>() / n as f64 },
            max: sorted.last().copied().unwrap_or(0.0),
        }
    }

    /// One-line rendering for the report.
    pub fn render(&self, unit: &str) -> String {
        let show = |v: Option<f64>| v.map_or("n/a".to_string(), |v| format!("{v:.4}"));
        format!(
            "n={} p50={} p90={} p99={} mean={:.4} max={:.4} {unit}",
            self.n,
            show(self.p50),
            show(self.p90),
            show(self.p99),
            self.mean,
            self.max
        )
    }
}

/// Medians across the whole `width`-second windows of `[0, end)` of each
/// window's p50, p90 and samples per second. A noisy neighbour that stalls
/// the machine for a second moves one window, not the run's figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Windowed {
    /// Whole windows in `[0, end)`.
    pub windows: usize,
    /// Median of the windows' medians.
    pub p50: Option<f64>,
    /// Median of the windows' 90th percentiles.
    pub p90: Option<f64>,
    /// Median of the windows' samples per second.
    pub rate: Option<f64>,
}

/// One window's figures: samples per second, p50 and p90 (when the
/// window's sample supports them).
pub type Window = (f64, Option<f64>, Option<f64>);

impl Windowed {
    /// Group `(time_s, value)` samples by window and summarise each.
    pub fn windows(samples: &[(f64, f64)], width: f64, end: f64) -> Vec<Window> {
        let windows = if width > 0.0 { (end / width).floor().max(0.0) as usize } else { 0 };
        let mut buckets = vec![Vec::new(); windows];
        for &(t, v) in samples {
            let w = (t / width).floor();
            if w >= 0.0 && (w as usize) < windows {
                buckets[w as usize].push(v);
            }
        }
        buckets
            .into_iter()
            .map(|mut b| {
                b.sort_by(f64::total_cmp);
                (b.len() as f64 / width, percentile(&b, 0.50), percentile(&b, 0.90))
            })
            .collect()
    }

    /// Medians across per-window figures (possibly pooled from several
    /// runs of the same work).
    pub fn over(windows: &[Window]) -> Windowed {
        let rates: Vec<f64> = windows.iter().map(|w| w.0).collect();
        let p50s: Vec<f64> = windows.iter().filter_map(|w| w.1).collect();
        let p90s: Vec<f64> = windows.iter().filter_map(|w| w.2).collect();
        Windowed { windows: windows.len(), p50: median(&p50s), p90: median(&p90s), rate: median(&rates) }
    }
}

/// Median of per-run values (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// First, second and third quartile of per-run values, as
/// `statistics.quantiles(values, n=4)` computes them. Needs two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    // Integer math as in CPython; `delta` goes negative when `j` is
    // clamped up, extrapolating below the smallest value for tiny samples.
    let (n, m) = (4i64, ld as i64 + 1);
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..n) {
        let j = (i * m / n).clamp(1, ld as i64 - 1);
        let delta = (i * m - j * n) as f64;
        let j = j as usize;
        *slot = (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64;
    }
    Some(out)
}

/// Distance between the first and third quartile as a share of the median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let [q1, _, q3] = quartiles(values)?;
    let med = median(values)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|v| v as f64).collect()
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1000 samples: rank 990, ten beyond.
        assert_eq!(percentile(&ramp(1000), 0.99), Some(990.0));
        // 999 samples: rank 990, only nine beyond.
        assert_eq!(percentile(&ramp(999), 0.99), None);
        assert_eq!(percentile(&ramp(2000), 0.99), Some(1980.0));
    }

    #[test]
    fn median_needs_twenty_samples() {
        assert_eq!(percentile(&ramp(20), 0.5), Some(10.0));
        assert_eq!(percentile(&ramp(19), 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn summary_sorts_and_reports_only_what_the_sample_supports() {
        let mut values = ramp(50);
        values.reverse();
        let s = Summary::of(&values);
        assert_eq!(s.n, 50);
        assert_eq!(s.p50, Some(25.0));
        assert_eq!(s.p99, None);
        assert_eq!(s.max, 50.0);
        assert!((s.mean - 25.5).abs() < 1e-12);
        assert!(s.render("ms").contains("p99=n/a"));
    }

    #[test]
    fn windowed_medians_ignore_one_bad_window() {
        // Three whole windows of 200 samples; the middle one is 10x slower.
        let mut samples = Vec::new();
        for w in 0..3 {
            for i in 0..200 {
                let v = if w == 1 { 10.0 } else { 1.0 + i as f64 / 1000.0 };
                samples.push((w as f64 + i as f64 / 200.0, v));
            }
        }
        // A partial fourth window is left out.
        samples.push((3.5, 99.0));
        let s = Windowed::over(&Windowed::windows(&samples, 1.0, 3.9));
        assert_eq!(s.windows, 3);
        assert_eq!(s.rate, Some(200.0));
        assert!((s.p50.unwrap() - 1.099).abs() < 1e-12, "{:?}", s.p50);
        assert!((s.p90.unwrap() - 1.179).abs() < 1e-12, "{:?}", s.p90);
        // Too few samples per window for a p90: no p90, and no p50 either.
        let sparse = Windowed::over(&Windowed::windows(&[(0.5, 1.0), (1.5, 2.0)], 1.0, 2.0));
        assert_eq!((sparse.p50, sparse.p90, sparse.rate), (None, None, Some(1.0)));
        assert!(Windowed::windows(&samples, 1.0, 0.5).is_empty());
    }

    #[test]
    fn median_over_runs() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([1..5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&ramp(5)), Some([1.5, 3.0, 4.5]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let s = spread(&ramp(10)).unwrap();
        assert!((s - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[5.0; 10]), Some(0.0));
    }
}
