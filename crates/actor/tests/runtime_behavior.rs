//! End-to-end behavioral tests of the actor runtime.

use std::sync::{Arc, Mutex};

use plasma_actor::logic::{ActorCtx, ClientCtx};
use plasma_actor::message::Payload;
use plasma_actor::runtime::{Runtime, RuntimeConfig};
use plasma_actor::stats::{ProfileSnapshot, SnapshotDelta};
use plasma_actor::{ActorId, ActorLogic, ClientId, ClientLogic, ElasticityController, Message};
use plasma_cluster::{InstanceType, ServerId};
use plasma_sim::{SimDuration, SimTime};

/// An actor that burns fixed CPU work and replies to the client.
struct Echo {
    work: f64,
}

impl ActorLogic for Echo {
    fn on_message(&mut self, ctx: &mut ActorCtx<'_>, _msg: &mut Message) {
        ctx.work(self.work);
        ctx.reply(64);
    }
}

/// An actor that forwards every request to a peer.
struct Forwarder {
    peer: ActorId,
}

impl ActorLogic for Forwarder {
    fn on_message(&mut self, ctx: &mut ActorCtx<'_>, _msg: &mut Message) {
        ctx.work(0.0005);
        ctx.send(self.peer, "handle", 128);
    }
}

/// A closed-loop client: issues the next request when the reply arrives.
struct ClosedLoop {
    target: ActorId,
    sent: u32,
    max: u32,
}

impl ClientLogic for ClosedLoop {
    fn on_start(&mut self, ctx: &mut ClientCtx<'_>) {
        self.sent += 1;
        ctx.request(self.target, "handle", 256);
    }

    fn on_reply(
        &mut self,
        ctx: &mut ClientCtx<'_>,
        _request: u64,
        _latency: SimDuration,
        _payload: Option<Payload>,
    ) {
        if self.sent < self.max {
            self.sent += 1;
            ctx.request(self.target, "handle", 256);
        }
    }
}

/// A closed-loop client that adds each reply's latency, and its own id,
/// to a tally shared with other clients.
struct Tally {
    target: ActorId,
    left: u32,
    tally: Arc<Mutex<(f64, u64, Vec<ClientId>)>>,
}

impl ClientLogic for Tally {
    fn on_start(&mut self, ctx: &mut ClientCtx<'_>) {
        ctx.request(self.target, "handle", 256);
    }

    fn on_reply(
        &mut self,
        ctx: &mut ClientCtx<'_>,
        _request: u64,
        latency: SimDuration,
        _payload: Option<Payload>,
    ) {
        let mut tally = self.tally.lock().unwrap();
        tally.0 += latency.as_millis_f64();
        tally.1 += 1;
        tally.2.push(ctx.me());
        drop(tally);
        self.left -= 1;
        if self.left > 0 {
            ctx.request(self.target, "handle", 256);
        }
    }
}

fn small_config() -> RuntimeConfig {
    RuntimeConfig {
        seed: 7,
        ..RuntimeConfig::default()
    }
}

#[test]
fn closed_loop_latency_includes_network_and_service() {
    let mut rt = Runtime::new(small_config());
    let s = rt.add_server(InstanceType::m1_small());
    let echo = rt.spawn_actor("Echo", Box::new(Echo { work: 0.010 }), 1024, s);
    rt.add_client(Box::new(ClosedLoop {
        target: echo,
        sent: 0,
        max: 100,
    }));
    rt.run_until(SimTime::from_secs(30));
    let report = rt.report();
    assert_eq!(report.requests, 100);
    assert_eq!(report.replies, 100);
    // Latency = 2 x ~5ms client hops + 10ms service (+ profiling tax).
    let mean = report.mean_latency_ms();
    assert!(mean > 19.0 && mean < 23.0, "mean latency {mean}");
}

#[test]
fn mean_latency_sums_replies_in_delivery_order() {
    let tally = Arc::new(Mutex::new((0.0, 0, Vec::new())));
    let mut rt = Runtime::new(small_config());
    let s0 = rt.add_server(InstanceType::m1_small());
    let s1 = rt.add_server(InstanceType::m1_small());
    for (work, server) in [(0.003, s0), (0.007, s1), (0.005, s0)] {
        let echo = rt.spawn_actor("Echo", Box::new(Echo { work }), 1024, server);
        rt.add_client(Box::new(Tally {
            target: echo,
            left: 40,
            tally: Arc::clone(&tally),
        }));
    }
    rt.run_until(SimTime::from_secs(30));
    let (sum, count, order) = &*tally.lock().unwrap();
    assert_eq!(*count, 120);
    let switches = order.windows(2).filter(|w| w[0] != w[1]).count();
    assert!(
        switches > 60,
        "replies interleave across clients: {switches}"
    );
    let report = rt.report();
    assert_eq!(report.replies, *count);
    assert_eq!(
        report.mean_latency_ms().to_bits(),
        (sum / *count as f64).to_bits()
    );
}

#[test]
fn epr_tax_slows_service_slightly() {
    let run = |epr: bool| {
        let mut cfg = small_config();
        cfg.epr_enabled = epr;
        let mut rt = Runtime::new(cfg);
        let s = rt.add_server(InstanceType::m1_small());
        let echo = rt.spawn_actor("Echo", Box::new(Echo { work: 0.010 }), 1024, s);
        rt.add_client(Box::new(ClosedLoop {
            target: echo,
            sent: 0,
            max: 200,
        }));
        rt.run_until(SimTime::from_secs(60));
        rt.report().mean_latency_ms()
    };
    let with_epr = run(true);
    let without = run(false);
    assert!(with_epr > without, "profiling must cost something");
    let overhead = with_epr / without;
    assert!(
        overhead < 1.03,
        "overhead ratio {overhead} exceeds Table 3 band"
    );
}

#[test]
fn forwarding_chain_reaches_reply() {
    let mut rt = Runtime::new(small_config());
    let s0 = rt.add_server(InstanceType::m1_small());
    let s1 = rt.add_server(InstanceType::m1_small());
    let echo = rt.spawn_actor("Echo", Box::new(Echo { work: 0.001 }), 1024, s1);
    let fwd = rt.spawn_actor("Forwarder", Box::new(Forwarder { peer: echo }), 1024, s0);
    rt.add_client(Box::new(ClosedLoop {
        target: fwd,
        sent: 0,
        max: 50,
    }));
    rt.run_until(SimTime::from_secs(30));
    let report = rt.report();
    assert_eq!(report.replies, 50);
    // 50 client requests enter remotely, 50 Forwarder->Echo hops cross
    // servers; replies to clients are not inter-actor messages.
    assert_eq!(report.remote_messages, 50 + 50);
    assert_eq!(report.local_messages, 0);
}

#[test]
fn colocated_chain_is_local_and_faster() {
    let run = |colocated: bool| {
        let mut rt = Runtime::new(small_config());
        let s0 = rt.add_server(InstanceType::m1_medium());
        let s1 = if colocated {
            s0
        } else {
            rt.add_server(InstanceType::m1_medium())
        };
        let echo = rt.spawn_actor("Echo", Box::new(Echo { work: 0.001 }), 1024, s1);
        let fwd = rt.spawn_actor("Forwarder", Box::new(Forwarder { peer: echo }), 1024, s0);
        rt.add_client(Box::new(ClosedLoop {
            target: fwd,
            sent: 0,
            max: 50,
        }));
        rt.run_until(SimTime::from_secs(30));
        let locality = rt.report().locality();
        (rt.report().mean_latency_ms(), locality)
    };
    let (lat_co, loc_co) = run(true);
    let (lat_remote, loc_remote) = run(false);
    assert!(loc_co > 0.0 && loc_remote == 0.0);
    assert!(
        lat_co < lat_remote,
        "colocated {lat_co} vs remote {lat_remote}"
    );
}

#[test]
fn migration_moves_actor_and_preserves_service() {
    let mut cfg = small_config();
    cfg.min_residency = SimDuration::ZERO;
    let mut rt = Runtime::new(cfg);
    let s0 = rt.add_server(InstanceType::m1_small());
    let s1 = rt.add_server(InstanceType::m1_small());
    let echo = rt.spawn_actor("Echo", Box::new(Echo { work: 0.002 }), 1 << 20, s0);
    rt.add_client(Box::new(ClosedLoop {
        target: echo,
        sent: 0,
        max: 500,
    }));
    rt.run_until(SimTime::from_secs(5));
    assert_eq!(rt.actor_server(echo), s0);
    rt.migrate(echo, s1).expect("migratable");
    rt.run_until(SimTime::from_secs(40));
    assert_eq!(rt.actor_server(echo), s1);
    let report = rt.report();
    assert_eq!(report.migrations.len(), 1);
    assert_eq!(report.migrations[0].src, s0);
    assert_eq!(report.migrations[0].dst, s1);
    assert!(report.migrations[0].transfer_time > SimDuration::ZERO);
    assert_eq!(report.replies, 500, "no request lost across migration");
    assert_eq!(rt.actor_count_on(s0), 0);
    assert_eq!(rt.actor_count_on(s1), 1);
}

#[test]
fn residency_and_pin_block_migration() {
    use plasma_actor::entry::MigrationBlocked;
    let mut rt = Runtime::new(small_config()); // min_residency = 60s default
    let s0 = rt.add_server(InstanceType::m1_small());
    let s1 = rt.add_server(InstanceType::m1_small());
    let echo = rt.spawn_actor("Echo", Box::new(Echo { work: 0.002 }), 1024, s0);
    assert_eq!(rt.migrate(echo, s1), Err(MigrationBlocked::Residency));
    rt.run_until(SimTime::from_secs(61));
    rt.set_pinned(echo, true);
    assert_eq!(rt.migrate(echo, s1), Err(MigrationBlocked::Pinned));
    rt.set_pinned(echo, false);
    assert_eq!(rt.migrate(echo, s0), Err(MigrationBlocked::SameServer));
    assert_eq!(rt.migrate(echo, s1), Ok(()));
    assert_eq!(rt.migrate(echo, s1), Err(MigrationBlocked::InFlight));
}

#[test]
fn profiling_snapshot_reports_usage_and_calls() {
    let mut rt = Runtime::new(small_config());
    let s = rt.add_server(InstanceType::m1_small());
    let echo = rt.spawn_actor("Echo", Box::new(Echo { work: 0.004 }), 2048, s);
    rt.add_client(Box::new(ClosedLoop {
        target: echo,
        sent: 0,
        max: u32::MAX,
    }));
    rt.run_until(SimTime::from_secs(10));
    let snap = rt.snapshot();
    assert_eq!(snap.len(), 1);
    let a = snap.actor(echo).unwrap();
    assert_eq!(a.server, s);
    assert!(a.cpu_share > 0.0, "actor consumed CPU");
    assert!(a.counters.total_received() > 0);
    let srv = snap.server(s).unwrap();
    assert!(srv.usage.cpu() > 0.0);
    assert_eq!(srv.actor_count, 1);
}

/// Snapshot rows share each actor's refs map with the runtime entry; a
/// reference edit after the window roll must copy the map, never reach
/// into the snapshot a consumer still holds.
#[test]
fn snapshot_refs_are_copy_on_write() {
    let mut rt = Runtime::new(small_config());
    let s = rt.add_server(InstanceType::m1_small());
    let mut spawn = || rt.spawn_actor("Echo", Box::new(Echo { work: 0.001 }), 64, s);
    let (owner, a, b, c, quiet) = (spawn(), spawn(), spawn(), spawn(), spawn());
    rt.actor_add_ref(owner, "children", a);
    rt.actor_add_ref(owner, "children", b);
    let window = rt.config().profile_window;
    rt.run_until(SimTime::ZERO + window);
    let held = rt.snapshot_shared();
    assert_eq!(held.generation, 1);
    assert_eq!(held.actor(owner).unwrap().refs["children"], vec![a, b]);
    assert!(held.actor(quiet).unwrap().refs.is_empty());

    rt.actor_add_ref(owner, "children", c);
    rt.actor_remove_ref(owner, "children", a);
    rt.actor_add_ref(quiet, "peers", owner);
    assert_eq!(rt.actor_refs(owner, "children"), vec![b, c]);
    assert_eq!(rt.actor_refs(quiet, "peers"), vec![owner]);
    assert_eq!(held.actor(owner).unwrap().refs["children"], vec![a, b]);
    assert!(held.actor(quiet).unwrap().refs.is_empty());

    // The next window's rows carry the edits; the held rows still do not.
    rt.run_until(SimTime::ZERO + window * 2);
    let next = rt.snapshot_shared();
    assert_eq!(next.generation, 2);
    assert_eq!(next.actor(owner).unwrap().refs["children"], vec![b, c]);
    assert_eq!(next.actor(quiet).unwrap().refs["peers"], vec![owner]);
    assert_eq!(held.actor(owner).unwrap().refs["children"], vec![a, b]);

    // Removing the last reference empties the list in place; the rows
    // taken before the edit keep theirs.
    rt.actor_remove_ref(quiet, "peers", owner);
    assert!(rt.actor_refs(quiet, "peers").is_empty());
    assert_eq!(next.actor(quiet).unwrap().refs["peers"], vec![owner]);
}

/// [`SnapshotDelta::between`], checked against the full row walk.
fn diff(from: &ProfileSnapshot, to: &ProfileSnapshot) -> SnapshotDelta {
    let delta = SnapshotDelta::between(from, to);
    assert_eq!(
        delta,
        SnapshotDelta::walk_rows(from, to),
        "page vs row walk"
    );
    delta
}

#[test]
fn delta_lists_actors_whose_refs_changed() {
    let mut rt = Runtime::new(small_config());
    let s = rt.add_server(InstanceType::m1_small());
    let mut spawn = || rt.spawn_actor("Echo", Box::new(Echo { work: 0.001 }), 64, s);
    let (owner, a, b, steady) = (spawn(), spawn(), spawn(), spawn());
    rt.actor_add_ref(owner, "children", a);
    rt.actor_add_ref(steady, "children", a);
    let window = rt.config().profile_window;
    rt.run_until(SimTime::ZERO + window);
    let first = rt.snapshot_shared();

    // A new target copies the owner's map. Re-adding a present target and
    // removing an absent one leave the steady actor's map shared, and the
    // ref-less actors keep holding no map at all.
    rt.actor_add_ref(owner, "children", b);
    rt.actor_add_ref(steady, "children", a);
    rt.actor_remove_ref(steady, "children", b);
    rt.actor_remove_ref(a, "children", b);
    rt.run_until(SimTime::ZERO + window * 2);
    let second = rt.snapshot_shared();
    let delta = diff(&first, &second);
    assert_eq!(delta.refs_changed, vec![owner]);
    assert!(delta.touched_actors().is_empty(), "maps feed no index");

    // A window without edits lists nothing; the two-window span from the
    // first snapshot still carries the owner's change.
    rt.run_until(SimTime::ZERO + window * 3);
    let third = rt.snapshot_shared();
    assert!(diff(&second, &third).is_empty());
    assert_eq!(diff(&first, &third).refs_changed, vec![owner]);
}

#[test]
fn server_boot_delay_applies() {
    struct Watcher;
    impl ElasticityController for Watcher {
        fn on_server_ready(&mut self, rt: &mut Runtime, server: ServerId) {
            rt.record_custom("ready", server.0 as f64);
        }
    }
    let mut rt = Runtime::new(small_config());
    rt.set_controller(Box::new(Watcher));
    let _s0 = rt.add_server(InstanceType::m1_small());
    let s1 = rt.request_server(InstanceType::m1_small()).unwrap();
    assert!(!rt.cluster().server(s1).is_running());
    rt.run_until(SimTime::from_secs(100));
    assert!(rt.cluster().server(s1).is_running());
    let series = rt.report().series("ready").unwrap();
    assert_eq!(series.len(), 1);
    let (at, v) = series.points()[0];
    assert_eq!(v, s1.0 as f64);
    assert_eq!(at, SimTime::ZERO + InstanceType::m1_small().boot_delay);
}

#[test]
fn controller_tick_fires_each_period() {
    struct TickCounter;
    impl ElasticityController for TickCounter {
        fn on_elasticity_tick(&mut self, rt: &mut Runtime) {
            rt.record_custom("tick", 1.0);
        }
    }
    let mut cfg = small_config();
    cfg.elasticity_period = SimDuration::from_secs(10);
    let mut rt = Runtime::new(cfg);
    rt.set_controller(Box::new(TickCounter));
    let _ = rt.add_server(InstanceType::m1_small());
    rt.run_until(SimTime::from_secs(35));
    assert_eq!(rt.report().series("tick").unwrap().len(), 3);
}

#[test]
fn spawned_actor_placement_consults_controller() {
    struct PlaceOnSecond;
    impl ElasticityController for PlaceOnSecond {
        fn place_new_actor(
            &mut self,
            rt: &Runtime,
            _type_id: plasma_actor::ActorTypeId,
            _creator: Option<ServerId>,
        ) -> Option<ServerId> {
            rt.cluster().running_ids().get(1).copied()
        }
    }
    struct Spawner;
    impl ActorLogic for Spawner {
        fn on_message(&mut self, ctx: &mut ActorCtx<'_>, _msg: &mut Message) {
            let child = ctx.spawn("Child", Box::new(Echo { work: 0.001 }), 64);
            ctx.add_ref("children", child);
            ctx.reply(8);
        }
    }
    let mut rt = Runtime::new(small_config());
    rt.set_controller(Box::new(PlaceOnSecond));
    let s0 = rt.add_server(InstanceType::m1_small());
    let s1 = rt.add_server(InstanceType::m1_small());
    let spawner = rt.spawn_actor("Spawner", Box::new(Spawner), 64, s0);
    rt.add_client(Box::new(ClosedLoop {
        target: spawner,
        sent: 0,
        max: 1,
    }));
    rt.run_until(SimTime::from_secs(5));
    let children = rt.actor_refs(spawner, "children");
    assert_eq!(children.len(), 1);
    assert_eq!(rt.actor_server(children[0]), s1);
    assert_eq!(rt.actor_count_on(s1), 1);
}

#[test]
fn stop_ends_run_early() {
    struct Stopper;
    impl ActorLogic for Stopper {
        fn on_message(&mut self, ctx: &mut ActorCtx<'_>, _msg: &mut Message) {
            ctx.stop_simulation();
        }
    }
    let mut rt = Runtime::new(small_config());
    let s = rt.add_server(InstanceType::m1_small());
    let stopper = rt.spawn_actor("Stopper", Box::new(Stopper), 64, s);
    rt.add_client(Box::new(ClosedLoop {
        target: stopper,
        sent: 0,
        max: 10,
    }));
    rt.run_until(SimTime::from_secs(1000));
    assert!(rt.is_stopped());
    assert!(rt.now() < SimTime::from_secs(1));
}

#[test]
fn decommission_requires_empty_server() {
    let mut cfg = small_config();
    cfg.min_residency = SimDuration::ZERO;
    let mut rt = Runtime::new(cfg);
    let s0 = rt.add_server(InstanceType::m1_small());
    let s1 = rt.add_server(InstanceType::m1_small());
    let echo = rt.spawn_actor("Echo", Box::new(Echo { work: 0.001 }), 1024, s1);
    assert_eq!(
        rt.decommission_server(s1),
        Err(plasma_actor::DecommissionError::HasActors),
        "occupied"
    );
    rt.migrate(echo, s0).unwrap();
    assert_eq!(
        rt.decommission_server(s1),
        Err(plasma_actor::DecommissionError::HasActors),
        "outbound migration from s1: actor still registered on s1"
    );
    rt.run_until(SimTime::from_secs(2));
    assert_eq!(rt.actor_server(echo), s0);
    assert_eq!(rt.decommission_server(s1), Ok(()));
    assert!(!rt.cluster().server(s1).is_running());
    assert_eq!(
        rt.decommission_server(s1),
        Err(plasma_actor::DecommissionError::NotRunning)
    );
}

#[test]
fn determinism_same_seed_same_report() {
    let run = |seed: u64| {
        let mut cfg = small_config();
        cfg.seed = seed;
        let mut rt = Runtime::new(cfg);
        let s0 = rt.add_server(InstanceType::m1_small());
        let s1 = rt.add_server(InstanceType::m1_small());
        let echo = rt.spawn_actor("Echo", Box::new(Echo { work: 0.003 }), 1024, s1);
        let fwd = rt.spawn_actor("Forwarder", Box::new(Forwarder { peer: echo }), 512, s0);
        rt.add_client(Box::new(ClosedLoop {
            target: fwd,
            sent: 0,
            max: 200,
        }));
        rt.run_until(SimTime::from_secs(20));
        (
            rt.report().mean_latency_ms(),
            rt.report().remote_messages,
            rt.report().replies,
        )
    };
    assert_eq!(run(11), run(11));
    let (a, _, _) = run(11);
    let (b, _, _) = run(12);
    // Different seeds shift nothing here (deterministic workload), so they
    // should actually agree too; the seed only matters once apps draw RNG.
    assert_eq!(a, b);
}

#[test]
fn orphan_reply_is_counted_not_fatal() {
    struct BadReplier;
    impl ActorLogic for BadReplier {
        fn on_message(&mut self, ctx: &mut ActorCtx<'_>, _msg: &mut Message) {
            ctx.reply(1); // Fine: client correlation present on request.
        }
    }
    struct SelfStarter {
        peer: ActorId,
    }
    impl ActorLogic for SelfStarter {
        fn on_message(&mut self, ctx: &mut ActorCtx<'_>, _msg: &mut Message) {
            // Detached send drops the correlation; peer's reply is orphan.
            ctx.send_detached(self.peer, "go", 8);
        }
    }
    let mut rt = Runtime::new(small_config());
    let s = rt.add_server(InstanceType::m1_small());
    let bad = rt.spawn_actor("Bad", Box::new(BadReplier), 64, s);
    let starter = rt.spawn_actor("Starter", Box::new(SelfStarter { peer: bad }), 64, s);
    rt.add_client(Box::new(ClosedLoop {
        target: starter,
        sent: 0,
        max: 1,
    }));
    rt.run_until(SimTime::from_secs(5));
    assert_eq!(rt.report().orphan_replies, 1);
    assert_eq!(rt.report().replies, 0);
}
