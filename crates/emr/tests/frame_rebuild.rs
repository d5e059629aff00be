//! Regression tests for the retained-frame fallback paths: when
//! `EvalFrame::advance` cannot patch (scope changed, or the runtime's
//! bounded delta history no longer reaches the frame's generation) it must
//! refuse — leaving the frame untouched — and a from-scratch rebuild must
//! produce a frame equivalent to one built fresh at that instant.

use plasma_actor::logic::{ActorCtx, ClientCtx};
use plasma_actor::message::Payload;
use plasma_actor::{ActorId, ActorLogic, ClientLogic, Message, Runtime, RuntimeConfig};
use plasma_cluster::InstanceType;
use plasma_emr::view::{EvalCtx, EvalFrame};
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

/// Two servers, four busy workers; enough traffic that every profiling
/// window has actors in it.
fn busy_world(cfg: RuntimeConfig) -> Runtime {
    let mut rt = Runtime::new(cfg);
    let s0 = rt.add_server(InstanceType::m1_small());
    let s1 = rt.add_server(InstanceType::m1_small());
    for i in 0..4 {
        let home = if i % 2 == 0 { s0 } else { s1 };
        let a = rt.spawn_actor("Worker", Box::new(Worker { work: 0.02 }), 1 << 10, home);
        rt.add_client(Box::new(Pulse {
            target: a,
            period: SimDuration::from_millis(100),
        }));
    }
    rt
}

/// The frame-visible state: generation, per-server metadata, and the full
/// in-scope actor enumeration in snapshot order.
fn observe(frame: &EvalFrame, rt: &Runtime) -> (u64, Vec<String>, Vec<(u64, u32, f64)>) {
    let servers: Vec<String> = frame.servers().iter().map(|m| format!("{m:?}")).collect();
    let ctx = EvalCtx::scoped(frame, &rt.cluster().running_ids());
    let actors = ctx
        .actors()
        .iter()
        .map(|a| (a.actor.0, a.server.0, a.cpu_share))
        .collect();
    (frame.generation(), servers, actors)
}

#[test]
fn scope_change_refuses_advance_and_rebuild_sees_new_server_zeroed() {
    let mut rt = busy_world(RuntimeConfig {
        seed: 11,
        ..RuntimeConfig::default()
    });
    rt.run_until(SimTime::from_secs(5));
    let mut frame = EvalFrame::new(&rt);
    assert_eq!(frame.servers().len(), 2);
    let before = observe(&frame, &rt);

    // The running set grows: advance must refuse and leave the frame as-is.
    let s2 = rt.add_server(InstanceType::m1_small());
    assert!(!frame.advance(&rt), "scope change must force a rebuild");
    assert_eq!(observe(&frame, &rt).0, before.0, "refused advance mutated");

    // The rebuild covers the newcomer. It joined after the last window
    // closed, so its metadata is zeroed (a pure function of the snapshot,
    // not of live residency) while the old servers' rows carry over.
    let rebuilt = EvalFrame::new(&rt);
    assert_eq!(rebuilt.generation(), frame.generation());
    assert_eq!(rebuilt.servers().len(), 3);
    let meta = rebuilt.server(s2).expect("new server in scope");
    assert_eq!(meta.cpu, 0.0);
    assert_eq!(meta.actor_count, 0);
    let after = observe(&rebuilt, &rt);
    assert_eq!(after.2, before.2, "existing actors unchanged by the grow");
}

#[test]
fn generation_gap_refuses_advance_and_rebuild_matches_fresh() {
    // 1s windows and 1s rounds floor the runtime's delta history at 8
    // generations; sitting out 15 windows guarantees the frame's
    // generation has fallen off the back.
    let mut rt = busy_world(RuntimeConfig {
        seed: 12,
        profile_window: SimDuration::from_secs(1),
        elasticity_period: SimDuration::from_secs(1),
        ..RuntimeConfig::default()
    });
    rt.run_until(SimTime::from_secs(5));
    let mut frame = EvalFrame::new(&rt);
    let stale = frame.generation();

    rt.run_until(SimTime::from_secs(20));
    assert!(
        rt.snapshot().generation > stale + 8,
        "history outran the cap"
    );
    assert!(!frame.advance(&rt), "generation gap must force a rebuild");
    assert_eq!(frame.generation(), stale, "refused advance mutated");

    let rebuilt = EvalFrame::new(&rt);
    assert_eq!(rebuilt.generation(), rt.snapshot().generation);
    assert_eq!(
        observe(&rebuilt, &rt).2.len(),
        4,
        "all four workers visible after rebuild"
    );
}

#[test]
fn advance_within_delta_window_matches_fresh_build() {
    // Control: a short sit-out stays within the delta history, advance
    // succeeds, and the patched frame is observationally identical to one
    // built from scratch at the same instant.
    let mut rt = busy_world(RuntimeConfig {
        seed: 13,
        profile_window: SimDuration::from_secs(1),
        elasticity_period: SimDuration::from_secs(1),
        ..RuntimeConfig::default()
    });
    rt.run_until(SimTime::from_secs(5));
    let mut frame = EvalFrame::new(&rt);

    rt.run_until(SimTime::from_secs(7));
    assert!(frame.advance(&rt), "2 generations are within the cap");
    let fresh = EvalFrame::new(&rt);
    assert_eq!(observe(&frame, &rt), observe(&fresh, &rt));
}
