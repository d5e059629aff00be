//! End-to-end chaos tests: every fault kind of the plan vocabulary runs
//! through the public `Plasma` builder, and recovery leaves no actor
//! permanently unhosted.

use std::sync::{Arc, Mutex};

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

/// A relay that forwards each request to a fixed peer before replying, so
/// cross-server actor traffic exists for partitions and link faults to hit.
struct Relay {
    peer: ActorId,
}

impl ActorLogic for Relay {
    fn on_message(&mut self, ctx: &mut ActorCtx<'_>, _msg: &mut Message) {
        ctx.work(0.0005);
        ctx.send_detached(self.peer, "run", 64);
        ctx.reply(16);
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

#[test]
fn crash_and_respawn_leaves_no_actor_unhosted() {
    let mut app = Plasma::builder()
        .seed(11)
        .faults(
            FaultPlan::new().crash_server(SimTime::from_secs(10), ServerId(1), None),
            RecoveryPolicy::default(),
        )
        .build()
        .unwrap();
    let rt = app.runtime_mut();
    let servers: Vec<ServerId> = (0..3)
        .map(|_| rt.add_server(InstanceType::m1_small()))
        .collect();
    let actors: Vec<ActorId> = (0..6)
        .map(|i| {
            rt.spawn_actor(
                "Worker",
                Box::new(Worker { work: 0.001 }),
                64 << 10,
                servers[i % servers.len()],
            )
        })
        .collect();
    for &a in &actors {
        rt.add_client(Box::new(Pulse {
            target: a,
            period: SimDuration::from_millis(200),
        }));
    }
    app.run_until(SimTime::from_secs(60));
    let rt = app.runtime();
    let stats = rt.chaos_stats();
    assert_eq!(stats.servers_crashed, 1);
    assert_eq!(stats.detections, 1, "heartbeat sweep fired");
    assert_eq!(stats.actors_lost, 2);
    assert_eq!(stats.actors_recovered, 2);
    let running = rt.cluster().running_ids();
    assert!(!running.contains(&ServerId(1)), "crashed server stays down");
    for &a in &actors {
        assert!(rt.actor_alive(a), "actor {a:?} survived via respawn");
        assert!(
            running.contains(&rt.actor_server(a)),
            "actor {a:?} must end on a running server"
        );
    }
    // Crash-to-declaration is the configured heartbeat timeout (sweep
    // granularity rounds it up to the next period boundary).
    let detect = stats.detect_latency_max_s;
    assert!((10.0..=15.0).contains(&detect), "detect latency {detect}");
}

/// Records when each message arrives.
struct Sink {
    seen: Arc<Mutex<Vec<SimTime>>>,
}

impl ActorLogic for Sink {
    fn on_message(&mut self, ctx: &mut ActorCtx<'_>, _msg: &mut Message) {
        self.seen.lock().unwrap().push(ctx.now());
    }
}

#[test]
fn crash_mid_service_drops_its_send_and_reply() {
    let mut app = Plasma::builder()
        .seed(18)
        .faults(
            FaultPlan::new().crash_server(SimTime::from_secs(1), ServerId(1), None),
            RecoveryPolicy::default(),
        )
        .build()
        .unwrap();
    let seen = Arc::new(Mutex::new(Vec::new()));
    let rt = app.runtime_mut();
    let s0 = rt.add_server(InstanceType::m1_small());
    // The relay's 0.0005-unit service takes 5 s on s1, so the request at
    // 0 s is in service when s1 crashes at 1 s; the one at 29 s reaches
    // the actor respawned on s0 at 15 s.
    let s1 = rt.add_server(InstanceType {
        speed: 1e-4,
        ..InstanceType::m1_small()
    });
    let sink = rt.spawn_actor("Sink", Box::new(Sink { seen: seen.clone() }), 1 << 10, s0);
    let relay = rt.spawn_actor("Relay", Box::new(Relay { peer: sink }), 1 << 10, s1);
    rt.add_client(Box::new(Pulse {
        target: relay,
        period: SimDuration::from_secs(29),
    }));
    app.run_until(SimTime::from_secs(40));
    let rt = app.runtime();
    let stats = rt.chaos_stats();
    assert_eq!((stats.servers_crashed, stats.actors_recovered), (1, 1));
    assert_eq!(rt.actor_server(relay), s0, "respawned on the survivor");
    // The cut service's send and reply died with s1; the respawned
    // actor's service flushed both.
    let report = rt.report();
    assert_eq!((report.requests, report.replies), (2, 1));
    let seen = seen.lock().unwrap();
    assert_eq!(seen.len(), 1, "the sink hears from the second service only");
    assert!(seen[0] > SimTime::from_secs(29), "sent at {:?}", seen[0]);
}

#[test]
fn restart_before_detection_recovers_in_place() {
    let mut app = Plasma::builder()
        .seed(12)
        .faults(
            FaultPlan::new().crash_server(
                SimTime::from_secs(10),
                ServerId(1),
                Some(SimDuration::from_secs(3)),
            ),
            RecoveryPolicy::default(),
        )
        .build()
        .unwrap();
    let rt = app.runtime_mut();
    let s0 = rt.add_server(InstanceType::m1_small());
    let s1 = rt.add_server(InstanceType::m1_small());
    let a0 = rt.spawn_actor("Worker", Box::new(Worker { work: 0.001 }), 64 << 10, s0);
    let a1 = rt.spawn_actor("Worker", Box::new(Worker { work: 0.001 }), 64 << 10, s1);
    for &a in &[a0, a1] {
        rt.add_client(Box::new(Pulse {
            target: a,
            period: SimDuration::from_millis(200),
        }));
    }
    app.run_until(SimTime::from_secs(120));
    let rt = app.runtime();
    let stats = rt.chaos_stats();
    assert_eq!(stats.servers_restarted, 1);
    assert_eq!(stats.detections, 0, "reboot beat the failure detector");
    assert_eq!(stats.actors_recovered, 1);
    assert!(rt.cluster().running_ids().contains(&s1), "server rebooted");
    assert!(rt.actor_alive(a1));
    assert_eq!(rt.actor_server(a1), s1, "in-place recovery keeps placement");
}

#[test]
fn partition_severs_traffic_until_heal() {
    let mut app = Plasma::builder()
        .seed(13)
        .faults(
            FaultPlan::new().partition(
                SimTime::from_secs(5),
                [ServerId(1)],
                Some(SimDuration::from_secs(10)),
            ),
            RecoveryPolicy::default(),
        )
        .build()
        .unwrap();
    let rt = app.runtime_mut();
    let s0 = rt.add_server(InstanceType::m1_small());
    let s1 = rt.add_server(InstanceType::m1_small());
    let far = rt.spawn_actor("Worker", Box::new(Worker { work: 0.0005 }), 64 << 10, s1);
    let relay = rt.spawn_actor("Relay", Box::new(Relay { peer: far }), 64 << 10, s0);
    rt.add_client(Box::new(Pulse {
        target: relay,
        period: SimDuration::from_millis(100),
    }));
    app.run_until(SimTime::from_secs(30));
    let rt = app.runtime();
    let lost = rt.chaos_stats().messages_lost_partition;
    assert!(lost > 0, "cross-partition messages were dropped");
    // Roughly 10 s of a 100 ms pulse crosses the cut; everything outside
    // the window flows, so losses stay well below the total sent.
    assert!(lost < 150, "partition healed: lost only {lost}");
    assert!(rt.report().replies > 100, "relay kept replying locally");
}

#[test]
fn aborted_migration_retries_until_it_lands() {
    let mut app = Plasma::builder()
        .runtime_config(RuntimeConfig {
            seed: 14,
            min_residency: SimDuration::ZERO,
            ..RuntimeConfig::default()
        })
        .faults(
            FaultPlan::new().abort_migrations(SimTime::ZERO, SimDuration::from_secs(120), 1),
            RecoveryPolicy::default(),
        )
        .build()
        .unwrap();
    let rt = app.runtime_mut();
    let s0 = rt.add_server(InstanceType::m1_small());
    let s1 = rt.add_server(InstanceType::m1_small());
    let big = rt.spawn_actor("Worker", Box::new(Worker { work: 0.001 }), 64 << 20, s0);
    rt.migrate(big, s1).unwrap();
    app.run_until(SimTime::from_secs(120));
    let rt = app.runtime();
    assert_eq!(rt.chaos_stats().migrations_aborted, 1);
    assert_eq!(rt.chaos_stats().migration_retries, 1);
    assert!(rt.actor_alive(big));
    assert_eq!(
        rt.actor_server(big),
        s1,
        "the retry completed the move after the budgeted abort"
    );
}

#[test]
fn provisioner_stall_rejects_requests_for_its_duration() {
    let mut app = Plasma::builder()
        .seed(15)
        .faults(
            FaultPlan::new().stall_provisioner(SimTime::ZERO, SimDuration::from_secs(10)),
            RecoveryPolicy::default(),
        )
        .build()
        .unwrap();
    let rt = app.runtime_mut();
    rt.add_server(InstanceType::m1_small());
    app.run_until(SimTime::from_secs(5));
    assert!(
        app.runtime_mut()
            .request_server(InstanceType::m1_small())
            .is_none(),
        "provisioning fails mid-stall"
    );
    app.run_until(SimTime::from_secs(15));
    assert!(
        app.runtime_mut()
            .request_server(InstanceType::m1_small())
            .is_some(),
        "provisioning resumes after the stall"
    );
}

#[test]
fn link_degradation_inflates_latency_and_drops() {
    let run = |faults: FaultPlan| {
        let mut app = Plasma::builder()
            .seed(16)
            .faults(faults, RecoveryPolicy::default())
            .build()
            .unwrap();
        let rt = app.runtime_mut();
        let s0 = rt.add_server(InstanceType::m1_small());
        let s1 = rt.add_server(InstanceType::m1_small());
        let far = rt.spawn_actor("Worker", Box::new(Worker { work: 0.0005 }), 64 << 10, s1);
        let relay = rt.spawn_actor("Relay", Box::new(Relay { peer: far }), 64 << 10, s0);
        rt.add_client(Box::new(Pulse {
            target: relay,
            period: SimDuration::from_millis(100),
        }));
        app.run_until(SimTime::from_secs(30));
        (
            app.runtime().chaos_stats().messages_dropped_link,
            app.report().remote_messages,
        )
    };
    // A plan whose only entry lies beyond the horizon arms the chaos
    // runtime but injects nothing, so it must drop nothing.
    let (clean_drops, clean_remote) =
        run(FaultPlan::new()
            .stall_provisioner(SimTime::from_secs(3_600), SimDuration::from_secs(1)));
    let degraded = FaultPlan::new().degrade_links(
        SimTime::from_secs(5),
        LinkDegradation {
            extra_latency: SimDuration::from_millis(5),
            bandwidth_factor: 0.25,
            drop_per_mille: 100,
        },
        Some(SimDuration::from_secs(15)),
    );
    let (dropped, degraded_remote) = run(degraded);
    assert_eq!(clean_drops, 0);
    assert!(dropped > 0, "10% drop over 15 s must lose messages");
    assert!(
        degraded_remote < clean_remote,
        "dropped messages never arrive: {degraded_remote} vs {clean_remote}"
    );
}

#[test]
fn gem_crash_leaves_policy_running_on_survivor() {
    let mut schema = ActorSchema::new();
    schema.actor_type("Worker").func("run");
    let mut app = Plasma::builder()
        .seed(17)
        .emr_config(EmrConfig {
            num_gems: 2,
            ..EmrConfig::default()
        })
        .policy(
            "server.cpu.perc > 80 or server.cpu.perc < 60 => balance({Worker}, cpu);",
            &schema,
        )
        .faults(
            FaultPlan::new().crash_gem(SimTime::from_secs(20), 1),
            RecoveryPolicy::default(),
        )
        .build()
        .unwrap();
    let rt = app.runtime_mut();
    let s0 = rt.add_server(InstanceType::m1_small());
    let _s1 = rt.add_server(InstanceType::m1_small());
    for _ in 0..4 {
        let w = rt.spawn_actor("Worker", Box::new(Worker { work: 0.02 }), 1 << 16, s0);
        rt.add_client(Box::new(Pulse {
            target: w,
            period: SimDuration::from_millis(100),
        }));
    }
    app.run_until(SimTime::from_secs(120));
    let rt = app.runtime();
    assert_eq!(rt.chaos_stats().faults_injected, 1);
    assert!(
        rt.report().replies > 500,
        "data plane unaffected by the GEM loss"
    );
    // The surviving GEM keeps executing the balance rule.
    assert!(
        !rt.report().migrations.is_empty(),
        "the survivor still rebalances the hot server"
    );
}
