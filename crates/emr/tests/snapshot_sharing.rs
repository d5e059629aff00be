//! Pins the "one snapshot build per profiling window" invariant.
//!
//! Before the shared-frame refactor every GEM scope (and the apply phase)
//! called `rt.snapshot()` independently; with `num_gems = 4` a single round
//! could have rebuilt per-consumer views four times over. The runtime now
//! stamps each [`plasma_actor::stats::ProfileSnapshot`] with a generation
//! counter, so the build count is observable and must track profiling
//! windows — never planning consumers.

use plasma_actor::logic::{ActorCtx, ClientCtx};
use plasma_actor::message::Payload;
use plasma_actor::{ActorId, ActorLogic, ClientLogic, Message, Runtime, RuntimeConfig};
use plasma_cluster::InstanceType;
use plasma_emr::{EmrConfig, PlasmaEmr};
use plasma_epl::{compile, ActorSchema};
use plasma_sim::{SimDuration, SimTime};

struct Worker {
    work: f64,
}

impl ActorLogic for Worker {
    fn on_message(&mut self, ctx: &mut ActorCtx<'_>, _msg: &mut Message) {
        ctx.work(self.work);
        ctx.reply(32);
    }
}

struct Pulse {
    target: ActorId,
    period: SimDuration,
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
        ctx.request(self.target, "run", 64);
        ctx.set_timer(self.period, 0);
    }
}

/// Runs a small unbalanced cluster for `secs` seconds under a balance policy
/// with `num_gems` GEM scopes and returns the finished runtime.
fn run_cluster(num_gems: usize, secs: u64) -> Runtime {
    let mut schema = ActorSchema::new();
    schema.actor_type("Worker").func("run");
    let compiled = compile(
        "server.cpu.perc > 80 or server.cpu.perc < 60 => balance({Worker}, cpu);",
        &schema,
    )
    .expect("policy compiles");
    let emr = PlasmaEmr::new(
        compiled,
        EmrConfig {
            num_gems,
            ..EmrConfig::default()
        },
    );
    let mut rt = Runtime::new(RuntimeConfig {
        seed: 9,
        ..RuntimeConfig::default()
    });
    rt.set_controller(Box::new(emr));
    let s0 = rt.add_server(InstanceType::m1_small());
    for _ in 0..3 {
        rt.add_server(InstanceType::m1_small());
    }
    for _ in 0..6 {
        let w = rt.spawn_actor("Worker", Box::new(Worker { work: 0.03 }), 1 << 10, s0);
        rt.add_client(Box::new(Pulse {
            target: w,
            period: SimDuration::from_millis(100),
        }));
    }
    rt.run_until(SimTime::from_secs(secs));
    rt
}

#[test]
fn snapshot_builds_track_profile_windows_not_consumers() {
    let secs = 120;
    let rt = run_cluster(4, secs);
    // One build per elapsed profiling window (1s default), regardless of how
    // many GEM/LEM consumers read it each round. `run_until` stops *at* the
    // deadline, so the window event scheduled exactly there may or may not
    // have fired yet.
    let builds = rt.snapshot_builds();
    assert!(
        builds >= secs - 1 && builds <= secs,
        "expected ~{secs} snapshot builds (one per window), got {builds}"
    );
}

#[test]
fn snapshot_build_count_is_independent_of_gem_count() {
    let solo = run_cluster(1, 90);
    let fleet = run_cluster(4, 90);
    assert_eq!(
        solo.snapshot_builds(),
        fleet.snapshot_builds(),
        "extra GEM consumers must reuse the window's snapshot, not rebuild it"
    );
}

#[test]
fn every_boundary_round_skews_one_generation() {
    let rt = run_cluster(4, 120);
    let report = rt.report();
    let skews = report
        .scalar("emr.snapshot_skew_rounds")
        .expect("emr.snapshot_skew_rounds scalar exported");
    let rounds = report
        .scalar("emr.rounds_applied")
        .expect("emr.rounds_applied scalar exported");
    // Under the default cadence the 1s profiling window divides the 60s
    // elasticity period, and the tick (scheduled once at startup) wins the
    // FIFO tie at the shared boundary: every round plans against the old
    // generation and applies after the boundary rolls a new one.
    assert!(rounds >= 1.0, "at least one applied round: {rounds}");
    assert_eq!(skews, rounds, "every boundary round skews one generation");
}
