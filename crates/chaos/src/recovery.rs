//! Recovery policy and chaos accounting.

use plasma_sim::SimDuration;

/// How the runtime detects failures and repairs the damage.
///
/// Detection is heartbeat-based, as in the paper's GEM protocol: the
/// failure detector fires every `heartbeat_period`; a crashed server is
/// declared dead once `heartbeat_timeout` has elapsed since its crash (the
/// missed-heartbeat budget). Recovery then respawns the orphaned actors via
/// the directory — their state is lost and accounted — and aborted
/// migrations retry with exponential backoff.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RecoveryPolicy {
    /// Failure-detector period.
    pub heartbeat_period: SimDuration,
    /// Silence after which a crashed server is declared dead.
    pub heartbeat_timeout: SimDuration,
    /// How many times an aborted migration retries before giving up.
    pub migration_retry_limit: u32,
    /// Backoff before the first retry; doubles per attempt.
    pub migration_retry_backoff: SimDuration,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            heartbeat_period: SimDuration::from_secs(5),
            heartbeat_timeout: SimDuration::from_secs(10),
            migration_retry_limit: 3,
            migration_retry_backoff: SimDuration::from_secs(2),
        }
    }
}

impl RecoveryPolicy {
    /// Backoff before retry number `attempt` (1-based), doubling each time.
    pub fn backoff_for(&self, attempt: u32) -> SimDuration {
        let factor = 1u64 << attempt.saturating_sub(1).min(16);
        SimDuration::from_micros(
            self.migration_retry_backoff
                .as_micros()
                .saturating_mul(factor),
        )
    }
}

/// Counters incremented by every fault and recovery step.
///
/// Read through `Runtime::chaos_stats`; the chaos evaluation scenarios
/// fold them into their recovery metrics.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ChaosStats {
    /// Faults taken from the plan and injected.
    pub faults_injected: u64,
    /// Servers crash-stopped.
    pub servers_crashed: u64,
    /// Crashed servers that came back via restart.
    pub servers_restarted: u64,
    /// Actors resident on a server when it crashed.
    pub actors_lost: u64,
    /// Orphaned actors respawned (elsewhere or in place).
    pub actors_recovered: u64,
    /// Actor state bytes lost to crashes.
    pub state_bytes_lost: u64,
    /// Messages dropped because their target sat on a crashed server
    /// (queued mailbox entries plus later arrivals).
    pub messages_lost_crash: u64,
    /// Messages dropped on severed links.
    pub messages_lost_partition: u64,
    /// Messages dropped by probabilistic link degradation.
    pub messages_dropped_link: u64,
    /// Migrations aborted (injected, or collateral of a crash).
    pub migrations_aborted: u64,
    /// Migration retry attempts issued.
    pub migration_retries: u64,
    /// Forced early profiling-window closes injected (snapshot skew).
    pub snapshot_skews: u64,
    /// Servers declared dead by the failure detector.
    pub detections: u64,
    /// Sum of crash-to-detection latencies, seconds.
    pub detect_latency_sum_s: f64,
    /// Worst crash-to-detection latency, seconds.
    pub detect_latency_max_s: f64,
    /// Sum of per-server unavailability windows (crash to recovery of its
    /// actors), seconds.
    pub unavailability_sum_s: f64,
    /// Worst per-server unavailability window, seconds.
    pub unavailability_max_s: f64,
    /// Instant of the first server crash, seconds (when one happened).
    pub first_crash_at_s: Option<f64>,
}

impl ChaosStats {
    /// Mean crash-to-detection latency in seconds (0 when none).
    pub fn detect_latency_mean_s(&self) -> f64 {
        if self.detections == 0 {
            0.0
        } else {
            self.detect_latency_sum_s / self.detections as f64
        }
    }

    /// Records one detection latency.
    pub fn record_detection(&mut self, latency_s: f64) {
        self.detections += 1;
        self.detect_latency_sum_s += latency_s;
        if latency_s > self.detect_latency_max_s {
            self.detect_latency_max_s = latency_s;
        }
    }

    /// Records one server's unavailability window.
    pub fn record_unavailability(&mut self, window_s: f64) {
        self.unavailability_sum_s += window_s;
        if window_s > self.unavailability_max_s {
            self.unavailability_max_s = window_s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let p = RecoveryPolicy::default();
        assert!(p.heartbeat_timeout >= p.heartbeat_period);
        assert!(p.migration_retry_limit > 0);
    }

    #[test]
    fn backoff_doubles_per_attempt() {
        let p = RecoveryPolicy::default();
        assert_eq!(p.backoff_for(1), SimDuration::from_secs(2));
        assert_eq!(p.backoff_for(2), SimDuration::from_secs(4));
        assert_eq!(p.backoff_for(3), SimDuration::from_secs(8));
    }

    #[test]
    fn stats_aggregate_detection_and_unavailability() {
        let mut s = ChaosStats::default();
        s.record_detection(2.0);
        s.record_detection(6.0);
        assert_eq!(s.detections, 2);
        assert!((s.detect_latency_mean_s() - 4.0).abs() < 1e-12);
        assert_eq!(s.detect_latency_max_s, 6.0);
        s.record_unavailability(3.0);
        s.record_unavailability(1.0);
        assert_eq!(s.unavailability_max_s, 3.0);
        assert!((s.unavailability_sum_s - 4.0).abs() < 1e-12);
    }
}
