//! Shared building blocks for the application suite.

use plasma::prelude::*;

/// Workload scale preset for the evaluation harness.
///
/// Every §5 scenario exposes `Config::preset(scale)` so the same code path
/// serves both the full paper-shaped run and a reduced CI smoke run; only
/// the sizing constants differ, never the logic.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EvalScale {
    /// CI-sized: small actor counts and short runs, finishes in seconds.
    Smoke,
    /// Paper-shaped defaults (§5 parameters, possibly trimmed run length).
    Full,
    /// Beyond-paper stress sizing (≥128 servers / ≥50k actors for the
    /// eval-engine scenario); exercised on demand, not in CI's hot path.
    Xl,
}

impl EvalScale {
    /// Parses `"smoke"` / `"full"` / `"xl"` (case-insensitive).
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "smoke" => Some(EvalScale::Smoke),
            "full" => Some(EvalScale::Full),
            "xl" => Some(EvalScale::Xl),
            _ => None,
        }
    }

    /// The canonical lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            EvalScale::Smoke => "smoke",
            EvalScale::Full => "full",
            EvalScale::Xl => "xl",
        }
    }
}

/// Scenario-independent elasticity measurements of one finished run.
///
/// Collected from the run report and cluster just before a scenario tears
/// its runtime down; the evaluation harness serializes these per scenario.
/// All values derive from simulated time and deterministic counters, so
/// same-seed runs produce bit-identical stats.
#[derive(Clone, Copy, Debug, Default)]
pub struct ElasticityEval {
    /// Simulated length of the run in seconds.
    pub run_secs: f64,
    /// Client requests issued.
    pub requests: u64,
    /// Client replies delivered.
    pub replies: u64,
    /// Replies per simulated second.
    pub throughput_rps: f64,
    /// Inter-actor messages delivered (local + remote).
    pub delivered_messages: u64,
    /// Inter-actor messages per simulated second.
    pub message_throughput_per_s: f64,
    /// Fraction of inter-actor messages that stayed on-server.
    pub locality: f64,
    /// Actor migrations that completed.
    pub migrations_completed: u64,
    /// EMR migrations admitted by the QUERY/QREPLY handshake.
    pub emr_admitted: u64,
    /// EMR actions rejected (admission control or runtime guards).
    pub emr_rejected: u64,
    /// EMR elasticity rounds ticked.
    pub emr_ticks: u64,
    /// Cluster scale-out events.
    pub scale_outs: u64,
    /// Cluster scale-in events.
    pub scale_ins: u64,
    /// Simulated time of the last completed migration, seconds (0 when the
    /// run never migrated). With hotspots present from the start of every
    /// scenario, this is the time-to-rebalance after hotspot onset.
    pub time_to_rebalance_s: f64,
    /// End-state balance score in `[0, 1]`: 1 minus the relative CPU spread
    /// across running servers at the end of the run, floored at 0. An idle
    /// or perfectly even cluster scores 1.
    pub balance_score: f64,
    /// Elasticity decisions (grow/shrink/migrate) the runtime recorded.
    pub decisions_total: u64,
    /// FNV-1a digest of the decision sequence, order-sensitive but
    /// timestamp-free: sim and live runs of the same seed must agree.
    pub decision_digest: u64,
    /// EMR rounds whose apply phase saw a newer profiling generation than
    /// the one it planned against.
    pub snapshot_skew_rounds: u64,
    /// Decision rounds whose evaluation frame was rebuilt from scratch.
    pub frame_rebuilds: u64,
    /// Decision rounds whose retained evaluation frame was patched in place
    /// from snapshot deltas.
    pub frame_patches: u64,
    /// Wire frames the coordinator wrote (live and net; 0 under sim).
    pub backend_frames_sent: u64,
    /// Wire frames the coordinator read back (live and net).
    pub backend_frames_received: u64,
    /// Wire bytes the coordinator wrote (live and net).
    pub backend_wire_bytes_sent: u64,
    /// Wire bytes the coordinator read back (live and net).
    pub backend_wire_bytes_received: u64,
    /// Most frames ever outstanding between carrier barriers (live and
    /// net).
    pub backend_max_inflight: u64,
    /// GEM control queries sent over the carrier (one per GEM per round).
    pub control_queries: u64,
    /// QREPLY candidate batches carried back (one per carrier partition
    /// holding in-scope servers: 1 under sim, one per worker group under
    /// live and net).
    pub control_replies: u64,
    /// Wire bytes of REPORT/QUERY/QREPLY control frames (live and net).
    pub control_wire_bytes: u64,
}

/// `n` events over `secs` seconds as a rate (0 over an empty span).
fn per_sec(n: u64, secs: f64) -> f64 {
    if secs > 0.0 {
        n as f64 / secs
    } else {
        0.0
    }
}

impl ElasticityEval {
    /// Rates the traffic over the first `secs` seconds instead of the whole
    /// simulated run: `run_secs`, `throughput_rps` and
    /// `message_throughput_per_s` all use `secs`. For closed workloads that
    /// finish well before their `run_until` cap.
    pub(crate) fn rate_over(&mut self, secs: f64) {
        self.run_secs = secs;
        self.throughput_rps = per_sec(self.replies, secs);
        self.message_throughput_per_s = per_sec(self.delivered_messages, secs);
    }

    /// Collects the stats from a finished runtime.
    pub fn collect(rt: &Runtime) -> Self {
        let report = rt.report();
        let backend = rt.backend_stats();
        let run_secs = rt.now().as_secs_f64();
        let per_sec = |n: u64| per_sec(n, run_secs);
        let delivered = report.local_messages + report.remote_messages;
        // End-state CPU across servers still running: last sample of each
        // running server's utilization series.
        let running = rt.cluster().running_ids();
        let final_cpu: Vec<f64> = running
            .iter()
            .filter_map(|sid| report.server_cpu.get(sid).and_then(|ts| ts.last()))
            .filter(|v| v.is_finite())
            .collect();
        let cpu_mean = final_cpu.iter().fold(0.0, |sum, v| sum + v) / final_cpu.len() as f64;
        let balance_score = if final_cpu.is_empty() || cpu_mean < 0.02 {
            // An idle (or unprofiled) cluster is trivially balanced.
            1.0
        } else {
            let min = final_cpu.iter().copied().fold(f64::INFINITY, f64::min);
            let max = final_cpu.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            (1.0 - (max - min) / cpu_mean).max(0.0)
        };
        ElasticityEval {
            run_secs,
            requests: report.requests,
            replies: report.replies,
            throughput_rps: per_sec(report.replies),
            delivered_messages: delivered,
            message_throughput_per_s: per_sec(delivered),
            locality: report.locality(),
            migrations_completed: report.migrations.len() as u64,
            emr_admitted: report.scalar("emr.admitted").unwrap_or(0.0) as u64,
            emr_rejected: report.scalar("emr.rejected").unwrap_or(0.0) as u64,
            emr_ticks: report.scalar("emr.ticks").unwrap_or(0.0) as u64,
            scale_outs: report.scalar("emr.scale_outs").unwrap_or(0.0) as u64,
            scale_ins: report.scalar("emr.scale_ins").unwrap_or(0.0) as u64,
            time_to_rebalance_s: report
                .migrations
                .last()
                .map(|m| m.at.as_secs_f64())
                .unwrap_or(0.0),
            balance_score,
            decisions_total: report.decisions.len() as u64,
            decision_digest: report.decision_digest(),
            snapshot_skew_rounds: report.scalar("emr.snapshot_skew_rounds").unwrap_or(0.0) as u64,
            frame_rebuilds: report.scalar("emr.frame_rebuilds").unwrap_or(0.0) as u64,
            frame_patches: report.scalar("emr.frame_patches").unwrap_or(0.0) as u64,
            backend_frames_sent: backend.frames_sent,
            backend_frames_received: backend.frames_received,
            backend_wire_bytes_sent: backend.wire_bytes_sent,
            backend_wire_bytes_received: backend.wire_bytes_received,
            backend_max_inflight: backend.max_inflight_frames,
            control_queries: backend.control_queries,
            control_replies: backend.control_replies,
            control_wire_bytes: backend.control_wire_bytes,
        }
    }
}

/// Recovery measurements of one finished chaos run.
///
/// Collected from [`Runtime::chaos_stats`] and the report's migrations.
/// All values derive from simulated time and deterministic counters, so
/// same-seed runs produce bit-identical stats. Collecting from a
/// fault-free run yields all zeros.
#[derive(Clone, Copy, Debug, Default)]
pub struct ChaosEval {
    /// Faults injected from the plan.
    pub faults_injected: u64,
    /// Servers crash-stopped.
    pub servers_crashed: u64,
    /// Crashed servers that rebooted.
    pub servers_restarted: u64,
    /// Actors that lost their hosting server.
    pub actors_lost: u64,
    /// Orphaned actors respawned elsewhere (or in place on restart).
    pub actors_recovered: u64,
    /// Actor state bytes lost to crashes.
    pub state_bytes_lost: u64,
    /// Messages lost to crashes, partitions, and degraded links combined.
    pub messages_lost: u64,
    /// Migrations aborted mid-transfer.
    pub migrations_aborted: u64,
    /// Migration retry attempts issued by the recovery policy.
    pub migration_retries: u64,
    /// Server deaths detected by the heartbeat sweep.
    pub detections: u64,
    /// Mean crash-to-detection latency, seconds.
    pub time_to_detect_s_mean: f64,
    /// Worst crash-to-detection latency, seconds.
    pub time_to_detect_s_max: f64,
    /// Summed per-recovery unavailability window, seconds.
    pub unavailability_s_sum: f64,
    /// Longest single unavailability window, seconds.
    pub unavailability_s_max: f64,
    /// Simulated time of the first server crash, seconds (0 if none).
    pub first_crash_at_s: f64,
    /// Time from the first crash to the last migration completing at or
    /// after it, seconds — how long the cluster kept re-balancing after
    /// the fault (0 when nothing crashed or nothing moved afterwards).
    pub time_to_rebalance_after_crash_s: f64,
}

impl ChaosEval {
    /// Collects the stats from a finished runtime.
    pub fn collect(rt: &Runtime) -> Self {
        let s = rt.chaos_stats();
        let first_crash_at_s = s.first_crash_at_s.unwrap_or(0.0);
        let rebalance = if s.servers_crashed > 0 {
            rt.report()
                .migrations
                .iter()
                .map(|m| m.at.as_secs_f64() - first_crash_at_s)
                .filter(|&dt| dt >= 0.0)
                .fold(0.0, f64::max)
        } else {
            0.0
        };
        ChaosEval {
            faults_injected: s.faults_injected,
            servers_crashed: s.servers_crashed,
            servers_restarted: s.servers_restarted,
            actors_lost: s.actors_lost,
            actors_recovered: s.actors_recovered,
            state_bytes_lost: s.state_bytes_lost,
            messages_lost: s.messages_lost_crash
                + s.messages_lost_partition
                + s.messages_dropped_link,
            migrations_aborted: s.migrations_aborted,
            migration_retries: s.migration_retries,
            detections: s.detections,
            time_to_detect_s_mean: s.detect_latency_mean_s(),
            time_to_detect_s_max: s.detect_latency_max_s,
            unavailability_s_sum: s.unavailability_sum_s,
            unavailability_s_max: s.unavailability_max_s,
            first_crash_at_s,
            time_to_rebalance_after_crash_s: rebalance,
        }
    }
}

/// A generic CPU-burning actor: `work` units per request, then a reply.
pub struct WorkActor {
    /// CPU work per request, in work units.
    pub work: f64,
    /// Reply payload size in bytes.
    pub reply_bytes: u64,
}

impl ActorLogic for WorkActor {
    fn on_message(&mut self, ctx: &mut ActorCtx<'_>, _msg: &mut Message) {
        ctx.work(self.work);
        ctx.reply(self.reply_bytes);
    }
}

/// An open-loop client: one request to `target` every `period`, forever.
pub struct Pulse {
    /// Request destination.
    pub target: ActorId,
    /// Invoked function name.
    pub fname: &'static str,
    /// Request payload size.
    pub bytes: u64,
    /// Inter-request period.
    pub period: SimDuration,
}

impl ClientLogic for Pulse {
    fn on_start(&mut self, ctx: &mut ClientCtx<'_>) {
        ctx.set_timer(SimDuration::ZERO, 0);
    }

    fn on_reply(
        &mut self,
        _ctx: &mut ClientCtx<'_>,
        _request: u64,
        _latency: SimDuration,
        _payload: Option<Payload>,
    ) {
    }

    fn on_timer(&mut self, ctx: &mut ClientCtx<'_>, _token: u64) {
        ctx.request(self.target, self.fname, self.bytes);
        ctx.set_timer(self.period, 0);
    }
}

/// A closed-loop client: next request fires when the reply lands (after an
/// optional think time), up to `max_requests`.
pub struct ClosedLoop {
    /// Request destination.
    pub target: ActorId,
    /// Invoked function name.
    pub fname: &'static str,
    /// Request payload size.
    pub bytes: u64,
    /// Pause between reply and next request.
    pub think: SimDuration,
    /// Total requests to issue (`u64::MAX` for unbounded).
    pub max_requests: u64,
    /// Requests issued so far.
    pub sent: u64,
}

impl ClosedLoop {
    /// Creates an unbounded closed-loop client with zero think time.
    pub fn saturating(target: ActorId, fname: &'static str, bytes: u64) -> Self {
        ClosedLoop {
            target,
            fname,
            bytes,
            think: SimDuration::ZERO,
            max_requests: u64::MAX,
            sent: 0,
        }
    }
}

impl ClientLogic for ClosedLoop {
    fn on_start(&mut self, ctx: &mut ClientCtx<'_>) {
        if self.max_requests > 0 {
            self.sent += 1;
            ctx.request(self.target, self.fname, self.bytes);
        }
    }

    fn on_reply(
        &mut self,
        ctx: &mut ClientCtx<'_>,
        _request: u64,
        _latency: SimDuration,
        _payload: Option<Payload>,
    ) {
        if self.sent < self.max_requests {
            if self.think.is_zero() {
                self.sent += 1;
                ctx.request(self.target, self.fname, self.bytes);
            } else {
                ctx.set_timer(self.think, 1);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut ClientCtx<'_>, token: u64) {
        if token == 1 && self.sent < self.max_requests {
            self.sent += 1;
            ctx.request(self.target, self.fname, self.bytes);
        }
    }
}

/// Splits `total` items as evenly as possible over `k` buckets
/// (first `total % k` buckets get one extra).
pub fn spread(total: usize, k: usize) -> Vec<usize> {
    let base = total / k;
    let extra = total % k;
    (0..k).map(|i| base + usize::from(i < extra)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_is_fair_and_total() {
        assert_eq!(spread(10, 4), vec![3, 3, 2, 2]);
        assert_eq!(spread(8, 4), vec![2, 2, 2, 2]);
        assert_eq!(spread(3, 5), vec![1, 1, 1, 0, 0]);
        assert_eq!(spread(10, 4).iter().sum::<usize>(), 10);
    }

    #[test]
    fn closed_loop_respects_max() {
        let mut rt = Runtime::new(RuntimeConfig {
            seed: 1,
            ..RuntimeConfig::default()
        });
        let s = rt.add_server(InstanceType::m1_small());
        let worker = rt.spawn_actor(
            "W",
            Box::new(WorkActor {
                work: 0.001,
                reply_bytes: 8,
            }),
            64,
            s,
        );
        rt.add_client(Box::new(ClosedLoop {
            target: worker,
            fname: "run",
            bytes: 32,
            think: SimDuration::from_millis(5),
            max_requests: 7,
            sent: 0,
        }));
        rt.run_until(SimTime::from_secs(10));
        assert_eq!(rt.report().requests, 7);
        assert_eq!(rt.report().replies, 7);
    }

    #[test]
    fn pulse_is_open_loop() {
        let mut rt = Runtime::new(RuntimeConfig {
            seed: 1,
            ..RuntimeConfig::default()
        });
        let s = rt.add_server(InstanceType::m1_small());
        let worker = rt.spawn_actor(
            "W",
            Box::new(WorkActor {
                work: 0.5, // Heavily backlogged on purpose.
                reply_bytes: 8,
            }),
            64,
            s,
        );
        rt.add_client(Box::new(Pulse {
            target: worker,
            fname: "run",
            bytes: 32,
            period: SimDuration::from_millis(100),
        }));
        rt.run_until(SimTime::from_secs(10));
        // Open loop keeps sending even though replies lag far behind.
        assert!(rt.report().requests >= 99);
        assert!(rt.report().replies < 25);
    }
}
