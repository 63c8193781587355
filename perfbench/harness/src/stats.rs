//! Percentiles, medians and the result line.

/// Nearest-rank percentile of `sorted` (ascending), `p` in `[0, 1]`.
pub fn percentile(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64
}

/// Samples per window of [`windowed_percentile`]: enough that a
/// window's p99 has 10 samples beyond it.
pub const WINDOW: usize = 1000;

/// Where among its windows (or jobs) an end-to-end timing is read: the
/// tenth fastest in a hundred. Other guests on the host slow some
/// stretches of a run and not others, by a share that changes from run
/// to run; the fast windows are the ones they left alone. A change to the
/// program moves every window, these too. Over six 30-second `lookup`
/// runs the tenth-percentile window's resolve p50 ranged over 1.6%, the
/// median window's over 5%.
pub const QUIET_QUANTILE: f64 = 0.10;

/// A latency percentile that bursts of host interference cannot swing:
/// `samples`, in the order they were taken, are cut into windows of
/// [`WINDOW`] samples, and the result is the quantile `over` (nearest
/// rank) of the windows' percentiles `p`. With fewer than one full window
/// it is the plain percentile of every sample.
pub fn windowed_percentile(samples: &[u64], p: f64, over: f64) -> f64 {
    let per_window: Vec<f64> = samples
        .chunks_exact(WINDOW)
        .map(|w| {
            let mut w = w.to_vec();
            w.sort_unstable();
            percentile(&w, p)
        })
        .collect();
    if per_window.is_empty() {
        let mut all = samples.to_vec();
        all.sort_unstable();
        percentile(&all, p)
    } else {
        quantile(&per_window, over)
    }
}

/// Nearest-rank quantile `q` (in `[0, 1]`) of unsorted floats.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((v.len() as f64 * q).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Median of unsorted floats (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Named metrics in insertion order, rendered as the result's `metrics`
/// object.
#[derive(Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.entries.push((name.to_string(), value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }

    pub fn into_entries(self) -> Vec<(String, f64, &'static str)> {
        self.entries
    }

    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .entries
            .iter()
            .map(|(n, v, u)| {
                format!(
                    "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                    json_num(*v)
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// A float as JSON (Rust's shortest round-trip form, always with a
/// fraction or exponent so integers stay typed as numbers).
fn json_num(v: f64) -> String {
    let s = format!("{v:?}");
    if s.contains('.') || s.contains('e') || s.contains("inf") || s.contains("NaN") {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
    }

    #[test]
    fn windows_ignore_one_bad_window() {
        let mut v: Vec<u64> = (0..3 * WINDOW as u64).map(|i| i % 100).collect();
        // One window of huge values moves the pooled p99 but not the
        // median of the three windows' p99s, nor the fastest window's.
        for x in &mut v[..WINDOW] {
            *x = 1_000_000;
        }
        assert_eq!(windowed_percentile(&v, 0.99, 0.5), 98.0);
        assert_eq!(windowed_percentile(&v, 0.99, QUIET_QUANTILE), 98.0);
        assert_eq!(windowed_percentile(&[5, 1, 3], 0.5, 0.5), 3.0);
    }

    #[test]
    fn quantiles() {
        let v: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        assert_eq!(quantile(&v, QUIET_QUANTILE), 2.0);
        assert_eq!(quantile(&v, 0.5), 10.0);
        assert_eq!(quantile(&v, 1.0), 20.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
