//! Regression tests for advancing a retained frame and for its fallback
//! path. When `EvalFrame::advance` cannot patch (the server scope changed)
//! it must refuse — leaving the frame untouched — and a from-scratch
//! rebuild must produce a frame equivalent to one built fresh at that
//! instant. When it can, however many windows behind the frame is, the
//! patched frame must equal a fresh build.

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
fn frame_many_windows_behind_advances_and_matches_fresh() {
    let mut rt = busy_world(RuntimeConfig {
        seed: 12,
        profile_window: SimDuration::from_secs(1),
        elasticity_period: SimDuration::from_secs(1),
        min_residency: SimDuration::ZERO,
        ..RuntimeConfig::default()
    });
    rt.run_until(SimTime::from_secs(5));
    let mut frame = EvalFrame::new(&rt);
    let stale = frame.generation();

    // The frame sits out 15 windows of churn: an actor spawned and removed
    // again, one migrated away and back, one migrated for good and a
    // reference edit all fall inside the span it advances over.
    let &[s0, s1] = &rt.cluster().running_ids()[..] else {
        panic!("two servers run");
    };
    let workers = rt.all_actors();
    let brief = rt.spawn_actor("Worker", Box::new(Worker { work: 0.02 }), 1 << 10, s0);
    rt.migrate(workers[0], s1).expect("movable");
    rt.actor_add_ref(workers[1], "peers", workers[2]);
    rt.run_until(SimTime::from_secs(9));
    let mid = rt.snapshot_shared();
    assert!(mid.actor(brief).is_some(), "the spawn reached a snapshot");
    assert_eq!(mid.actor(workers[0]).unwrap().server, s1, "moved away");
    rt.remove_actor(brief);
    rt.migrate(workers[0], s0).expect("movable back");
    rt.migrate(workers[3], s0).expect("movable");
    rt.run_until(SimTime::from_secs(20));
    assert_eq!(rt.snapshot().generation, stale + 15);

    assert!(frame.advance(&rt), "a frame far behind advances");
    assert_eq!(frame.generation(), rt.snapshot().generation);
    let fresh = EvalFrame::new(&rt);
    assert_eq!(observe(&frame, &rt), observe(&fresh, &rt));
}

#[test]
fn advance_two_windows_behind_matches_fresh_build() {
    // Control: a short sit-out advances, and the patched frame is
    // observationally identical to one built from scratch at the same
    // instant.
    let mut rt = busy_world(RuntimeConfig {
        seed: 13,
        profile_window: SimDuration::from_secs(1),
        elasticity_period: SimDuration::from_secs(1),
        ..RuntimeConfig::default()
    });
    rt.run_until(SimTime::from_secs(5));
    let mut frame = EvalFrame::new(&rt);

    rt.run_until(SimTime::from_secs(7));
    assert!(frame.advance(&rt), "two windows behind advances");
    let fresh = EvalFrame::new(&rt);
    assert_eq!(observe(&frame, &rt), observe(&fresh, &rt));
}
