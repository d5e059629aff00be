//! Measurement primitives used by the profiling runtime and bench harnesses.
//!
//! Three kinds of instruments cover everything the paper reports:
//!
//! - [`Histogram`] — full-sample distribution with exact quantiles, used for
//!   request latencies.
//! - [`TimeSeries`] — `(time, value)` pairs, used for per-server CPU%, actor
//!   counts, and server counts over time (Figs. 5, 7-11).
//! - [`BucketedSeries`] — aggregates raw observations into fixed windows
//!   (e.g., mean latency per second), matching how the paper plots latency.

use crate::time::{SimDuration, SimTime};

/// An exact-quantile histogram that retains every sample.
///
/// Simulation runs produce at most a few million samples per instrument, so
/// retaining them all is affordable and gives exact quantiles. Samples are
/// sorted lazily on the first quantile query after an insert.
///
/// # Examples
///
/// ```
/// use plasma_sim::metrics::Histogram;
///
/// let mut h = Histogram::new();
/// for v in [1.0, 2.0, 3.0, 4.0] {
///     h.record(v);
/// }
/// assert_eq!(h.len(), 4);
/// assert_eq!(h.mean(), 2.5);
/// assert_eq!(h.quantile(0.5), 2.0);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Histogram {
    samples: Vec<f64>,
    sorted: bool,
    sum: f64,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            samples: Vec::new(),
            sorted: true,
            sum: 0.0,
        }
    }

    /// Records one observation. Non-finite values are ignored.
    pub fn record(&mut self, value: f64) {
        if !value.is_finite() {
            return;
        }
        self.samples.push(value);
        self.sum += value;
        self.sorted = false;
    }

    /// Returns the number of recorded samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Returns `true` if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Returns the arithmetic mean, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.sum / self.samples.len() as f64
        }
    }

    /// Returns the minimum sample, or 0 when empty.
    pub fn min(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Returns the maximum sample, or 0 when empty.
    pub fn max(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Returns the `q`-quantile (`q` clamped to `[0, 1]`), or 0 when empty.
    ///
    /// Uses the nearest-rank method on the sorted sample set.
    pub fn quantile(&mut self, q: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        if !self.sorted {
            self.samples
                .sort_unstable_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
            self.sorted = true;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.samples.len() as f64).ceil() as usize).clamp(1, self.samples.len());
        self.samples[rank - 1]
    }

    /// Returns the median.
    pub fn median(&mut self) -> f64 {
        self.quantile(0.5)
    }

    /// Returns the standard deviation, or 0 when fewer than two samples.
    pub fn std_dev(&self) -> f64 {
        let n = self.samples.len();
        if n < 2 {
            return 0.0;
        }
        let mean = self.mean();
        let var = self
            .samples
            .iter()
            .map(|x| (x - mean) * (x - mean))
            .sum::<f64>()
            / (n - 1) as f64;
        var.sqrt()
    }
}

/// A `(time, value)` series, the backing store for every paper figure.
#[derive(Clone, Debug, Default)]
pub struct TimeSeries {
    points: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        TimeSeries { points: Vec::new() }
    }

    /// Appends an observation. Timestamps should be non-decreasing; callers
    /// that violate this only affect their own plots.
    pub fn push(&mut self, at: SimTime, value: f64) {
        self.points.push((at, value));
    }

    /// Returns the raw points.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// Returns the number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Returns `true` if the series is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Returns the last value, if any.
    pub fn last(&self) -> Option<f64> {
        self.points.last().map(|&(_, v)| v)
    }

    /// Returns the mean of values observed in `[from, to)`.
    pub fn mean_in(&self, from: SimTime, to: SimTime) -> Option<f64> {
        let mut sum = 0.0;
        let mut n = 0usize;
        for &(t, v) in &self.points {
            if t >= from && t < to {
                sum += v;
                n += 1;
            }
        }
        (n > 0).then(|| sum / n as f64)
    }

    /// Returns the mean over the whole series.
    pub fn mean(&self) -> Option<f64> {
        self.mean_in(SimTime::ZERO, SimTime::MAX)
    }

    /// Returns the maximum value over the whole series.
    pub fn max(&self) -> Option<f64> {
        self.points
            .iter()
            .map(|&(_, v)| v)
            .fold(None, |acc: Option<f64>, v| {
                Some(acc.map_or(v, |a| a.max(v)))
            })
    }
}

/// Aggregates raw observations into fixed-width time windows.
///
/// The paper's latency plots (Figs. 5, 9, 10a, 11a) report the mean latency
/// per wall-clock bucket; this type reproduces that aggregation.
///
/// # Examples
///
/// ```
/// use plasma_sim::metrics::BucketedSeries;
/// use plasma_sim::{SimDuration, SimTime};
///
/// let mut s = BucketedSeries::new(SimDuration::from_secs(1));
/// s.record(SimTime::from_millis(100), 10.0);
/// s.record(SimTime::from_millis(900), 20.0);
/// s.record(SimTime::from_millis(1_500), 40.0);
/// let buckets = s.buckets();
/// assert_eq!(buckets.len(), 2);
/// assert_eq!(buckets[0], (SimTime::ZERO, 15.0));
/// assert_eq!(buckets[1], (SimTime::from_secs(1), 40.0));
/// ```
#[derive(Clone, Debug)]
pub struct BucketedSeries {
    width: SimDuration,
    /// Per-bucket `(sum, count)` indexed by bucket number.
    acc: Vec<(f64, u64)>,
}

impl BucketedSeries {
    /// Creates a series with the given bucket width.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn new(width: SimDuration) -> Self {
        assert!(!width.is_zero(), "bucket width must be positive");
        BucketedSeries {
            width,
            acc: Vec::new(),
        }
    }

    /// Records one observation at the given time.
    pub fn record(&mut self, at: SimTime, value: f64) {
        if !value.is_finite() {
            return;
        }
        let idx = (at.as_micros() / self.width.as_micros()) as usize;
        if idx >= self.acc.len() {
            self.acc.resize(idx + 1, (0.0, 0));
        }
        let (sum, n) = &mut self.acc[idx];
        *sum += value;
        *n += 1;
    }

    /// Returns `(bucket_start, mean)` for every non-empty bucket.
    pub fn buckets(&self) -> Vec<(SimTime, f64)> {
        self.acc
            .iter()
            .enumerate()
            .filter(|(_, (_, n))| *n > 0)
            .map(|(i, (sum, n))| {
                (
                    SimTime::from_micros(i as u64 * self.width.as_micros()),
                    sum / *n as f64,
                )
            })
            .collect()
    }

    /// Returns the total number of observations.
    pub fn count(&self) -> u64 {
        self.acc.iter().map(|(_, n)| n).sum()
    }

    /// Returns the mean across all observations (not across buckets).
    pub fn overall_mean(&self) -> Option<f64> {
        let count = self.count();
        (count > 0).then(|| self.acc.iter().map(|(s, _)| s).sum::<f64>() / count as f64)
    }
}

/// Deterministic five-number summary of a sample set.
///
/// The evaluation harness folds whole series (decision latencies, iteration
/// times, per-server CPU) into scalar metrics with this type; every field is
/// a pure function of the input samples, so same-seed runs summarize to
/// bit-identical values.
///
/// # Examples
///
/// ```
/// use plasma_sim::metrics::Summary;
///
/// let s = Summary::of(&[4.0, 1.0, 3.0, 2.0]);
/// assert_eq!(s.count, 4);
/// assert_eq!(s.mean, 2.5);
/// assert_eq!(s.min, 1.0);
/// assert_eq!(s.max, 4.0);
/// assert_eq!(s.p50, 2.0);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Summary {
    /// Number of finite samples summarized.
    pub count: u64,
    /// Arithmetic mean (0 when empty).
    pub mean: f64,
    /// Smallest sample (0 when empty).
    pub min: f64,
    /// Largest sample (0 when empty).
    pub max: f64,
    /// Median by the nearest-rank method (0 when empty).
    pub p50: f64,
    /// 95th percentile by the nearest-rank method (0 when empty).
    pub p95: f64,
}

impl Summary {
    /// Summarizes `samples`, ignoring non-finite values.
    pub fn of(samples: &[f64]) -> Self {
        let mut h = Histogram::new();
        for &v in samples {
            h.record(v);
        }
        Self::of_histogram(&mut h)
    }

    /// Summarizes an already-populated histogram.
    pub fn of_histogram(h: &mut Histogram) -> Self {
        Summary {
            count: h.len() as u64,
            mean: h.mean(),
            min: h.min(),
            max: h.max(),
            p50: h.quantile(0.5),
            p95: h.quantile(0.95),
        }
    }

    /// Coefficient of variation (`std-dev`-free spread proxy):
    /// `(max - min) / mean`, 0 when empty or when the mean is ~0.
    ///
    /// Used for end-state balance scores, where "how far apart are the
    /// busiest and idlest servers relative to typical load" is the question
    /// the paper's band rules answer.
    pub fn relative_spread(&self) -> f64 {
        if self.count == 0 || self.mean.abs() < 1e-9 {
            0.0
        } else {
            (self.max - self.min) / self.mean
        }
    }
}

/// Tracks cumulative busy time to derive utilization over a window.
///
/// Servers accumulate "busy lane-seconds"; at the end of each profiling
/// window, utilization is `busy / (window × capacity)`.
#[derive(Clone, Debug, Default)]
pub struct BusyMeter {
    /// Busy time accumulated in the current window, in lane-microseconds.
    busy_us: u64,
    window_start: SimTime,
}

impl BusyMeter {
    /// Creates a meter with the window starting at time zero.
    pub fn new() -> Self {
        BusyMeter::default()
    }

    /// Adds busy time (one lane busy for `d`).
    pub fn add_busy(&mut self, d: SimDuration) {
        self.busy_us += d.as_micros();
    }

    /// Closes the window at `now` and returns utilization in `[0, 1]` given
    /// `capacity` parallel lanes, then starts a new window.
    ///
    /// Returns 0 for an empty window.
    pub fn roll(&mut self, now: SimTime, capacity: u32) -> f64 {
        let elapsed = now.saturating_since(self.window_start).as_micros();
        let util = if elapsed == 0 || capacity == 0 {
            0.0
        } else {
            (self.busy_us as f64 / (elapsed as f64 * capacity as f64)).min(1.0)
        };
        self.busy_us = 0;
        self.window_start = now;
        util
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_stats() {
        let mut h = Histogram::new();
        for v in [4.0, 1.0, 3.0, 2.0, 5.0] {
            h.record(v);
        }
        assert_eq!(h.len(), 5);
        assert_eq!(h.mean(), 3.0);
        assert_eq!(h.min(), 1.0);
        assert_eq!(h.max(), 5.0);
        assert_eq!(h.median(), 3.0);
        assert_eq!(h.quantile(0.0), 1.0);
        assert_eq!(h.quantile(1.0), 5.0);
        assert!((h.std_dev() - 1.5811).abs() < 1e-3);
    }

    #[test]
    fn histogram_ignores_non_finite() {
        let mut h = Histogram::new();
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        assert!(h.is_empty());
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.5), 0.0);
    }

    #[test]
    fn histogram_quantile_after_more_records() {
        let mut h = Histogram::new();
        h.record(10.0);
        assert_eq!(h.quantile(0.5), 10.0);
        h.record(0.0);
        // Re-sorts lazily after the new sample.
        assert_eq!(h.quantile(0.0), 0.0);
    }

    #[test]
    fn time_series_window_mean() {
        let mut s = TimeSeries::new();
        s.push(SimTime::from_secs(1), 10.0);
        s.push(SimTime::from_secs(2), 20.0);
        s.push(SimTime::from_secs(3), 60.0);
        assert_eq!(
            s.mean_in(SimTime::from_secs(1), SimTime::from_secs(3)),
            Some(15.0)
        );
        assert_eq!(s.mean(), Some(30.0));
        assert_eq!(s.max(), Some(60.0));
        assert_eq!(s.last(), Some(60.0));
    }

    #[test]
    fn bucketed_series_aggregates() {
        let mut s = BucketedSeries::new(SimDuration::from_secs(2));
        s.record(SimTime::from_secs(0), 2.0);
        s.record(SimTime::from_secs(1), 4.0);
        s.record(SimTime::from_secs(5), 8.0);
        let b = s.buckets();
        assert_eq!(b.len(), 2);
        assert_eq!(b[0].1, 3.0);
        assert_eq!(b[1].0, SimTime::from_secs(4));
        assert_eq!(s.count(), 3);
        assert!((s.overall_mean().unwrap() - 14.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn summary_is_deterministic_and_exact() {
        let s = Summary::of(&[5.0, 1.0, 2.0, 4.0, 3.0]);
        assert_eq!(s.count, 5);
        assert_eq!(s.mean, 3.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.p50, 3.0);
        assert_eq!(s.p95, 5.0);
        assert_eq!(s, Summary::of(&[5.0, 1.0, 2.0, 4.0, 3.0]));
        assert!((s.relative_spread() - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn summary_handles_empty_and_non_finite() {
        let s = Summary::of(&[f64::NAN, f64::INFINITY]);
        assert_eq!(s.count, 0);
        assert_eq!(s.mean, 0.0);
        assert_eq!(s.relative_spread(), 0.0);
    }

    #[test]
    fn busy_meter_utilization() {
        let mut m = BusyMeter::new();
        m.add_busy(SimDuration::from_millis(500));
        // 0.5s busy over a 1s window with 1 lane → 50%.
        let u = m.roll(SimTime::from_secs(1), 1);
        assert!((u - 0.5).abs() < 1e-9);
        // Second window: 1s busy on 2 lanes over 1s → 50%.
        m.add_busy(SimDuration::from_secs(1));
        let u = m.roll(SimTime::from_secs(2), 2);
        assert!((u - 0.5).abs() < 1e-9);
    }

    #[test]
    fn busy_meter_caps_at_one() {
        let mut m = BusyMeter::new();
        m.add_busy(SimDuration::from_secs(10));
        assert_eq!(m.roll(SimTime::from_secs(1), 1), 1.0);
    }

    #[test]
    fn busy_meter_empty_window() {
        let mut m = BusyMeter::new();
        assert_eq!(m.roll(SimTime::ZERO, 4), 0.0);
    }
}
