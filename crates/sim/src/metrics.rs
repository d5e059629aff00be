//! Measurement primitives used by the profiling runtime and bench harnesses.
//!
//! Two kinds of instruments cover everything the paper reports:
//!
//! - [`TimeSeries`] — `(time, value)` pairs, used for per-server CPU%, actor
//!   counts, and server counts over time (Figs. 5, 7-11).
//! - [`BucketedSeries`] — aggregates raw observations into fixed windows
//!   (e.g., mean latency per second), matching how the paper plots latency.

use crate::time::{SimDuration, SimTime};

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
    fn time_series_keeps_points_in_order() {
        let mut s = TimeSeries::new();
        s.push(SimTime::from_secs(1), 10.0);
        s.push(SimTime::from_secs(2), 20.0);
        s.push(SimTime::from_secs(3), 60.0);
        assert_eq!(s.len(), 3);
        assert_eq!(s.points()[1], (SimTime::from_secs(2), 20.0));
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
