//! Order statistics over raw samples.

/// The `q`-quantile (0 ≤ q ≤ 1) of `v`, interpolating linearly between
/// order statistics. Zero for an empty sample.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Median of `v` (zero when empty).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Largest value of `v` (zero when empty).
pub fn max(v: &[f64]) -> f64 {
    v.iter().copied().fold(0.0, f64::max)
}

/// The `q`-quantile of second-valued samples, in milliseconds.
pub fn ms(v: &[f64], q: f64) -> f64 {
    quantile(v, q) * 1e3
}

/// Width of the windows a run's samples are grouped into, seconds.
pub const WINDOW_S: f64 = 1.0;
/// Fewest samples a window needs to count.
const MIN_WINDOW_SAMPLES: usize = 10;
/// Fewest full windows for a windowed statistic; shorter runs fall back
/// to the statistic over all samples.
const MIN_WINDOWS: usize = 3;

/// Samples stamped with when they completed, seconds into the run.
///
/// The shared host this benchmark was built on alternates between a
/// contended state, whose speed repeats from run to run, and uncontended
/// stretches of varying length, and it stalls in bursts. A run's
/// statistics are therefore taken per [`WINDOW_S`] window and summarised
/// by the value three windows in four meet: the upper quartile across
/// windows for a latency, the lower quartile for a rate. A burst moves the
/// windows it falls in, and a lucky stretch does not set the result.
#[derive(Debug, Default, Clone)]
pub struct Series {
    points: Vec<(f64, f64)>,
}

impl Series {
    /// Records `value`, completed `at` seconds into the run.
    pub fn push(&mut self, at: f64, value: f64) {
        self.points.push((at, value));
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether there is no sample.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// All values, in completion order.
    pub fn values(&self) -> Vec<f64> {
        self.points.iter().map(|p| p.1).collect()
    }

    /// The values of each full window (the window the run ended in is
    /// partial and left out).
    fn windows(&self, width: f64) -> Vec<Vec<f64>> {
        let Some(last) = self.points.iter().map(|p| p.0).reduce(f64::max) else {
            return Vec::new();
        };
        let full = (last / width).floor() as usize;
        let mut w = vec![Vec::new(); full];
        for &(at, v) in &self.points {
            if let Some(slot) = w.get_mut((at / width).floor() as usize) {
                slot.push(v);
            }
        }
        w
    }

    /// The `across`-quantile over full windows of `f` of each window's
    /// values; `f` of all values when the run has too few full windows.
    fn robust_by(&self, across: f64, f: impl Fn(&[f64]) -> f64) -> f64 {
        let per_window: Vec<f64> = self
            .windows(WINDOW_S)
            .iter()
            .filter(|w| w.len() >= MIN_WINDOW_SAMPLES)
            .map(|w| f(w))
            .collect();
        if per_window.len() >= MIN_WINDOWS {
            quantile(&per_window, across)
        } else {
            f(&self.values())
        }
    }

    /// Windowed `q`-quantile of the values, in milliseconds (values are
    /// seconds): the one three windows in four stay within.
    pub fn ms(&self, q: f64) -> f64 {
        self.robust_by(0.75, |w| quantile(w, q)) * 1e3
    }

    /// [`Self::ms`] summarised by the median over windows instead. Open-loop
    /// latency includes queueing, which contention amplifies by a different
    /// amount in every run, so the contended windows do not repeat.
    pub fn median_ms(&self, q: f64) -> f64 {
        self.robust_by(0.5, |w| quantile(w, q)) * 1e3
    }

    /// Windowed completions per second of running time, where each value
    /// is the running time one completion took: the rate three windows in
    /// four reach. Within a window the slowest and fastest tenth are
    /// trimmed, so a stall in a window does not decide its rate.
    pub fn per_busy_second(&self) -> f64 {
        self.robust_by(0.25, |w| {
            let mut s = w.to_vec();
            s.sort_by(f64::total_cmp);
            let cut = s.len() / 10;
            let kept = &s[cut..s.len() - cut];
            kept.len() as f64 / kept.iter().sum::<f64>().max(1e-12)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windowed_statistics_ignore_a_burst() {
        let mut s = Series::default();
        for i in 0..1000 {
            let at = i as f64 * 0.01;
            // A 10x stall over most of the second window.
            let v = if (1.1..1.9).contains(&at) { 0.01 } else { 0.001 };
            s.push(at, v);
        }
        assert!((s.ms(0.9) - 1.0).abs() < 1e-9, "{}", s.ms(0.9));
        assert!((s.per_busy_second() - 1000.0).abs() < 1e-6);
        let mut bursty = Series::default();
        for i in 0..100 {
            bursty.push(0.5, if i == 0 { 1.0 } else { 0.001 });
        }
        assert!((bursty.per_busy_second() - 1000.0).abs() < 1e-6, "one stall is trimmed");
        let mut short = Series::default();
        short.push(0.1, 0.002);
        short.push(0.2, 0.004);
        assert!((short.ms(0.5) - 3.0).abs() < 1e-9, "few windows: plain quantile");
    }

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(max(&v), 4.0);
    }
}
