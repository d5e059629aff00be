//! Regression test for plan/apply snapshot-generation skew.
//!
//! An EMR round plans against the profiling snapshot visible at the tick
//! and applies one control round-trip later. If a profiling window closes
//! in between, the apply phase reads a *newer* generation than the plan —
//! `emr.snapshot_skew_rounds` counts exactly those rounds. The chaos
//! engine's `skew_snapshot` fault forces such a window close on demand, so
//! the skew path is testable without relying on cadence accidents.
//!
//! The cadence here is chosen so no skew occurs naturally: a 7-second
//! profiling window never lands on the 60-second elasticity boundary
//! (under the default 1 s window, the tick wins the FIFO tie at every
//! shared boundary and *every* applied round skews — see the plasma-emr
//! snapshot-sharing test).

use plasma::prelude::*;
use plasma_sim::SimTime;

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
        _r: u64,
        _l: SimDuration,
        _p: Option<Payload>,
    ) {
    }
    fn on_timer(&mut self, ctx: &mut ClientCtx<'_>, _t: u64) {
        ctx.request(self.target, "run", 64);
        ctx.set_timer(self.period, 0);
    }
}

/// An unbalanced 4-server cluster under a balance policy, profiled on a
/// 7-second window so windows never coincide with elasticity ticks.
/// Returns `(rounds_applied, snapshot_skew_rounds, chaos snapshot_skews)`.
fn run(faults: Option<FaultPlan>) -> (f64, Option<f64>, u64) {
    let mut schema = ActorSchema::new();
    schema.actor_type("Worker").func("run");
    let mut builder = Plasma::builder()
        .runtime_config(RuntimeConfig {
            seed: 7,
            profile_window: SimDuration::from_secs(7),
            ..RuntimeConfig::default()
        })
        .policy(
            "server.cpu.perc > 80 or server.cpu.perc < 60 => balance({Worker}, cpu);",
            &schema,
        );
    if let Some(plan) = faults {
        builder = builder.faults(plan, RecoveryPolicy::default());
    }
    let mut app = builder.build().expect("policy compiles");
    let rt = app.runtime_mut();
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
    rt.run_until(SimTime::from_secs(130));
    let report = rt.report();
    (
        report.scalar("emr.rounds_applied").unwrap_or(0.0),
        report.scalar("emr.snapshot_skew_rounds"),
        rt.chaos_stats().snapshot_skews,
    )
}

#[test]
fn no_skew_when_windows_avoid_the_tick() {
    let (rounds, skews, _) = run(None);
    assert!(
        rounds >= 1.0,
        "the 60 s and 120 s ticks must apply: {rounds}"
    );
    assert_eq!(
        skews,
        Some(0.0),
        "a 7 s window never closes inside a plan/apply gap on its own"
    );
}

#[test]
fn injected_window_close_between_plan_and_apply_skews_the_round() {
    // The 60 s tick plans at t=60 s and applies one LEM->GEM->LEM control
    // round-trip later (2 x 500 us under the default network). Forcing a
    // window close at t=60 s + 500 us lands squarely in that gap.
    let plan = FaultPlan::new().skew_snapshot(SimTime::from_micros(60_000_500));
    let (rounds, skews, chaos_skews) = run(Some(plan));
    assert_eq!(
        chaos_skews, 1,
        "the chaos engine must record the forced window close"
    );
    let skews = skews.expect("skew scalar exported");
    assert!(
        skews >= 1.0,
        "the round spanning the forced close must observe a newer generation"
    );
    // The fault only perturbs profiling-generation bookkeeping, never the
    // decision inputs themselves; the run still applies its rounds.
    assert!(rounds >= 1.0);
}
