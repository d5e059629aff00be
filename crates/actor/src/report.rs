//! Measurement record of one simulation run.
//!
//! Every experiment harness reads its figure data from here: end-to-end
//! latency (the run's mean and its bucketed series), per-server CPU and
//! actor count series, migration events, message locality counters, and
//! free-form application series (e.g., PageRank iteration times).

use std::collections::BTreeMap;

use plasma_cluster::ServerId;
use plasma_sim::metrics::{BucketedSeries, TimeSeries};
use plasma_sim::{SimDuration, SimTime};

use crate::ids::ActorId;

/// One completed actor migration.
#[derive(Clone, Copy, Debug)]
pub struct MigrationRecord {
    /// When the actor resumed on the destination.
    pub at: SimTime,
    /// The migrated actor.
    pub actor: ActorId,
    /// Source server.
    pub src: ServerId,
    /// Destination server.
    pub dst: ServerId,
    /// How long the transfer took.
    pub transfer_time: SimDuration,
}

/// One elasticity decision the managers actually carried out.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecisionKind {
    /// A server was requested (scale-out).
    Grow {
        /// The requested server.
        server: ServerId,
    },
    /// A server was decommissioned (scale-in).
    Shrink {
        /// The decommissioned server.
        server: ServerId,
    },
    /// An actor migration was accepted.
    Migrate {
        /// The migrating actor.
        actor: ActorId,
        /// Source server.
        src: ServerId,
        /// Destination server.
        dst: ServerId,
    },
}

/// One entry of the run's ordered decision sequence.
///
/// The timestamp is informational: the canonical line a decision contributes
/// to [`RunReport::decision_digest`] deliberately excludes it, so the digest
/// compares *what was decided, in what order* — the thing the simulator
/// promises to predict about a live run — while wall-clock and virtual
/// timings stay free to differ.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DecisionRecord {
    /// When the decision was made (virtual time).
    pub at: SimTime,
    /// What was decided.
    pub kind: DecisionKind,
}

impl DecisionRecord {
    /// The canonical digest line, timestamp excluded.
    pub fn line(&self) -> String {
        match self.kind {
            DecisionKind::Grow { server } => format!("grow s{}", server.0),
            DecisionKind::Shrink { server } => format!("shrink s{}", server.0),
            DecisionKind::Migrate { actor, src, dst } => {
                format!("migrate a{} s{}->s{}", actor.0, src.0, dst.0)
            }
        }
    }
}

/// Aggregated measurements of one run.
#[derive(Debug)]
pub struct RunReport {
    /// Sum of every end-to-end reply latency (milliseconds), added in
    /// reply order; [`RunReport::mean_latency_ms`] divides it by `replies`.
    pub latency_sum_ms: f64,
    /// Mean latency per time bucket (milliseconds) — the paper's latency plots.
    pub latency_series: BucketedSeries,
    /// Per-server CPU utilization over time (Figs. 7b, 8b).
    pub server_cpu: BTreeMap<ServerId, TimeSeries>,
    /// Per-server resident actor count over time (Figs. 7c, 8c).
    pub server_actors: BTreeMap<ServerId, TimeSeries>,
    /// Completed migrations in order.
    pub migrations: Vec<MigrationRecord>,
    /// Elasticity decisions (grow/shrink/migrate) in decision order.
    pub decisions: Vec<DecisionRecord>,
    /// Messages delivered between actors on the same server.
    pub local_messages: u64,
    /// Messages delivered across servers.
    pub remote_messages: u64,
    /// Messages addressed to unknown actors (should stay 0 in our apps).
    pub dropped_messages: u64,
    /// Replies issued without a client correlation (app bug indicator).
    pub orphan_replies: u64,
    /// Client requests issued.
    pub requests: u64,
    /// Client replies delivered.
    pub replies: u64,
    /// Free-form application series keyed by name.
    pub custom: BTreeMap<String, TimeSeries>,
    /// Free-form scalar results keyed by name.
    pub scalars: BTreeMap<String, f64>,
}

impl RunReport {
    /// Creates an empty report with the given latency bucket width.
    pub fn new(latency_bucket: SimDuration) -> Self {
        RunReport {
            latency_sum_ms: 0.0,
            latency_series: BucketedSeries::new(latency_bucket),
            server_cpu: BTreeMap::new(),
            server_actors: BTreeMap::new(),
            migrations: Vec::new(),
            decisions: Vec::new(),
            local_messages: 0,
            remote_messages: 0,
            dropped_messages: 0,
            orphan_replies: 0,
            requests: 0,
            replies: 0,
            custom: BTreeMap::new(),
            scalars: BTreeMap::new(),
        }
    }

    /// Returns the mean end-to-end latency in milliseconds, or 0 before
    /// the first reply.
    pub fn mean_latency_ms(&self) -> f64 {
        if self.replies == 0 {
            0.0
        } else {
            self.latency_sum_ms / self.replies as f64
        }
    }

    /// Returns the named custom series, if recorded.
    pub fn series(&self, name: &str) -> Option<&TimeSeries> {
        self.custom.get(name)
    }

    /// Returns the named scalar, if recorded.
    pub fn scalar(&self, name: &str) -> Option<f64> {
        self.scalars.get(name).copied()
    }

    /// The canonical decision lines, in decision order (timestamps
    /// excluded — see [`DecisionRecord`]).
    pub fn decision_lines(&self) -> Vec<String> {
        self.decisions.iter().map(DecisionRecord::line).collect()
    }

    /// FNV-1a 64 digest of the decision sequence.
    ///
    /// Two runs with the same digest made the same elasticity decisions in
    /// the same order; this is what the sim/live parity tests compare.
    pub fn decision_digest(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut hash = OFFSET;
        for record in &self.decisions {
            for byte in record.line().bytes().chain(std::iter::once(b'\n')) {
                hash ^= byte as u64;
                hash = hash.wrapping_mul(PRIME);
            }
        }
        hash
    }

    /// Returns the fraction of inter-actor messages that stayed local.
    pub fn locality(&self) -> f64 {
        let total = self.local_messages + self.remote_messages;
        if total == 0 {
            return 0.0;
        }
        self.local_messages as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_report_is_sane() {
        let r = RunReport::new(SimDuration::from_secs(1));
        assert_eq!(r.mean_latency_ms(), 0.0);
        assert_eq!(r.locality(), 0.0);
        assert!(r.series("x").is_none());
        assert!(r.scalar("x").is_none());
    }

    #[test]
    fn decision_digest_is_order_sensitive_and_time_insensitive() {
        let grow = |at| DecisionRecord {
            at,
            kind: DecisionKind::Grow {
                server: ServerId(3),
            },
        };
        let migrate = |at| DecisionRecord {
            at,
            kind: DecisionKind::Migrate {
                actor: ActorId(42),
                src: ServerId(0),
                dst: ServerId(2),
            },
        };
        let mut a = RunReport::new(SimDuration::from_secs(1));
        a.decisions = vec![grow(SimTime::from_secs(1)), migrate(SimTime::from_secs(2))];
        let mut b = RunReport::new(SimDuration::from_secs(1));
        // Same decisions at different times: identical digest.
        b.decisions = vec![grow(SimTime::from_secs(5)), migrate(SimTime::from_secs(9))];
        assert_eq!(a.decision_digest(), b.decision_digest());
        assert_eq!(a.decision_lines(), vec!["grow s3", "migrate a42 s0->s2"]);
        // Reordered decisions: different digest.
        b.decisions.reverse();
        assert_ne!(a.decision_digest(), b.decision_digest());
        // Empty sequence digests the FNV offset basis.
        assert_eq!(
            RunReport::new(SimDuration::from_secs(1)).decision_digest(),
            0xcbf2_9ce4_8422_2325
        );
    }

    #[test]
    fn locality_fraction() {
        let mut r = RunReport::new(SimDuration::from_secs(1));
        r.local_messages = 3;
        r.remote_messages = 1;
        assert!((r.locality() - 0.75).abs() < 1e-12);
    }
}
