//! End-to-end tests: EPL policy -> EMR -> actor runtime effects.

use plasma_actor::logic::{ActorCtx, ClientCtx};
use plasma_actor::message::Payload;
use plasma_actor::{ActorId, ActorLogic, ClientLogic, Message, Runtime, RuntimeConfig};
use plasma_cluster::topology::ClusterLimits;
use plasma_cluster::{InstanceType, ServerId};
use plasma_emr::{EmrConfig, PlasmaEmr};
use plasma_epl::{compile, ActorSchema};
use plasma_sim::{SimDuration, SimTime};

/// An actor that burns fixed CPU per request and replies.
struct Worker {
    work: f64,
}

impl ActorLogic for Worker {
    fn on_message(&mut self, ctx: &mut ActorCtx<'_>, _msg: &mut Message) {
        ctx.work(self.work);
        ctx.reply(32);
    }
}

/// An open-loop client: one request to `target` every `period`.
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

fn worker_schema() -> ActorSchema {
    let mut schema = ActorSchema::new();
    schema.actor_type("Worker").func("run");
    schema
}

fn emr_for(policy: &str, schema: &ActorSchema, cfg: EmrConfig) -> PlasmaEmr {
    let compiled = compile(policy, schema).expect("policy compiles");
    PlasmaEmr::new(compiled, cfg)
}

fn cpu_of(rt: &Runtime, sid: ServerId) -> f64 {
    rt.snapshot()
        .server(sid)
        .map(|s| s.usage.cpu())
        .unwrap_or(0.0)
}

#[test]
fn balance_rule_spreads_cpu_load() {
    let mut rt = Runtime::new(RuntimeConfig {
        seed: 1,
        ..RuntimeConfig::default()
    });
    let emr = emr_for(
        "server.cpu.perc > 80 or server.cpu.perc < 60 => balance({Worker}, cpu);",
        &worker_schema(),
        EmrConfig::default(),
    );
    rt.set_controller(Box::new(emr));
    let s0 = rt.add_server(InstanceType::m1_small());
    let s1 = rt.add_server(InstanceType::m1_small());
    // Four workers, all on s0, each demanding ~35% of an m1.small vCPU.
    for i in 0..4 {
        let w = rt.spawn_actor("Worker", Box::new(Worker { work: 0.035 }), 64 << 10, s0);
        rt.add_client(Box::new(Pulse {
            target: w,
            period: SimDuration::from_millis(100),
        }));
        let _ = i;
    }
    rt.run_until(SimTime::from_secs(200));
    // After a couple of elasticity periods the load must be split 2/2.
    assert_eq!(rt.actor_count_on(s0), 2, "workers on s0");
    assert_eq!(rt.actor_count_on(s1), 2, "workers on s1");
    assert!(!rt.report().migrations.is_empty());
    let (u0, u1) = (cpu_of(&rt, s0), cpu_of(&rt, s1));
    assert!(u0 < 0.85 && u1 < 0.85, "usages {u0} {u1}");
    assert!((u0 - u1).abs() < 0.2, "balanced usages {u0} {u1}");
}

#[test]
fn colocate_rule_moves_player_to_pinned_session() {
    struct Session;
    impl ActorLogic for Session {
        fn on_message(&mut self, ctx: &mut ActorCtx<'_>, _msg: &mut Message) {
            ctx.work(0.001);
            ctx.reply(16);
        }
    }
    let mut schema = ActorSchema::new();
    schema.actor_type("Session").prop("players").func("route");
    schema.actor_type("Player").func("update");
    let emr = emr_for(
        "Player(p) in ref(Session(s).players) => pin(s); colocate(p, s);",
        &schema,
        EmrConfig::default(),
    );
    let mut rt = Runtime::new(RuntimeConfig {
        seed: 2,
        ..RuntimeConfig::default()
    });
    rt.set_controller(Box::new(emr));
    let s0 = rt.add_server(InstanceType::m1_small());
    let s1 = rt.add_server(InstanceType::m1_small());
    let session = rt.spawn_actor("Session", Box::new(Session), 1 << 10, s0);
    let player = rt.spawn_actor("Player", Box::new(Worker { work: 0.001 }), 1 << 10, s1);
    rt.actor_add_ref(session, "players", player);
    // Keep a little traffic flowing so snapshots exist.
    rt.add_client(Box::new(Pulse {
        target: player,
        period: SimDuration::from_millis(200),
    }));
    rt.run_until(SimTime::from_secs(130));
    assert_eq!(rt.actor_server(player), s0, "player joined its session");
    assert!(rt.is_pinned(session), "session pinned by rule");
    assert!(!rt.is_pinned(player));
}

#[test]
fn reserve_and_colocate_move_folder_with_files() {
    struct Folder {
        files: Vec<ActorId>,
    }
    impl ActorLogic for Folder {
        fn on_message(&mut self, ctx: &mut ActorCtx<'_>, _msg: &mut Message) {
            ctx.work(0.012);
            for f in self.files.clone() {
                ctx.send(f, "read", 128);
            }
        }
    }
    struct File;
    impl ActorLogic for File {
        fn on_message(&mut self, ctx: &mut ActorCtx<'_>, _msg: &mut Message) {
            ctx.work(0.004);
            ctx.reply(64);
        }
    }
    let mut schema = ActorSchema::new();
    schema.actor_type("Folder").prop("files").func("open");
    schema.actor_type("File").func("read");
    let emr = emr_for(
        "server.cpu.perc > 80 and client.call(Folder(fo).open).perc > 40 \
         and File(fi) in ref(fo.files) => reserve(fo, cpu); colocate(fo, fi);",
        &schema,
        EmrConfig::default(),
    );
    let mut rt = Runtime::new(RuntimeConfig {
        seed: 3,
        ..RuntimeConfig::default()
    });
    rt.set_controller(Box::new(emr));
    let s0 = rt.add_server(InstanceType::m1_small());
    let s1 = rt.add_server(InstanceType::m1_small());
    // Two folders with two files each, all on s0; folder 0 is hot (3 of 4
    // clients target it -> 75% > 40%), saturating s0.
    let mut folders = Vec::new();
    for _ in 0..2 {
        let files: Vec<ActorId> = (0..2)
            .map(|_| rt.spawn_actor("File", Box::new(File), 32 << 10, s0))
            .collect();
        let folder = rt.spawn_actor(
            "Folder",
            Box::new(Folder {
                files: files.clone(),
            }),
            64 << 10,
            s0,
        );
        for f in files {
            rt.actor_add_ref(folder, "files", f);
        }
        folders.push(folder);
    }
    for i in 0..4 {
        let target = if i < 3 { folders[0] } else { folders[1] };
        rt.add_client(Box::new(PulseNamed {
            target,
            period: SimDuration::from_millis(40),
            fname: "open",
        }));
    }
    rt.run_until(SimTime::from_secs(200));
    let hot = folders[0];
    let hot_server = rt.actor_server(hot);
    assert_eq!(hot_server, s1, "hot folder reserved onto the idle server");
    for f in rt.actor_refs(hot, "files") {
        assert_eq!(rt.actor_server(f), hot_server, "files follow their folder");
    }
    // The cold folder stays home.
    assert_eq!(rt.actor_server(folders[1]), s0);
}

/// A pulse client with a configurable function name.
struct PulseNamed {
    target: ActorId,
    period: SimDuration,
    fname: &'static str,
}

impl ClientLogic for PulseNamed {
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
        ctx.request(self.target, self.fname, 64);
        ctx.set_timer(self.period, 0);
    }
}

#[test]
fn pinned_actors_survive_balance() {
    let mut schema = ActorSchema::new();
    schema.actor_type("Worker").func("run");
    let emr = emr_for(
        "true => pin(Worker);\n\
         server.cpu.perc > 80 or server.cpu.perc < 60 => balance({Worker}, cpu);",
        &schema,
        EmrConfig::default(),
    );
    let mut rt = Runtime::new(RuntimeConfig {
        seed: 4,
        ..RuntimeConfig::default()
    });
    rt.set_controller(Box::new(emr));
    let s0 = rt.add_server(InstanceType::m1_small());
    let _s1 = rt.add_server(InstanceType::m1_small());
    for _ in 0..4 {
        let w = rt.spawn_actor("Worker", Box::new(Worker { work: 0.035 }), 1 << 10, s0);
        rt.add_client(Box::new(Pulse {
            target: w,
            period: SimDuration::from_millis(100),
        }));
    }
    rt.run_until(SimTime::from_secs(200));
    // Everything pinned: despite overload, nothing may move.
    assert_eq!(rt.actor_count_on(s0), 4);
    assert!(rt.report().migrations.is_empty());
}

#[test]
fn auto_scale_out_until_within_bounds() {
    let emr = emr_for(
        "server.cpu.perc > 80 or server.cpu.perc < 50 => balance({Worker}, cpu);",
        &worker_schema(),
        EmrConfig {
            auto_scale: true,
            scale_instance: InstanceType::m1_small(),
            ..EmrConfig::default()
        },
    );
    let mut rt = Runtime::new(RuntimeConfig {
        seed: 5,
        limits: ClusterLimits {
            max_servers: 6,
            min_servers: 1,
        },
        elasticity_period: SimDuration::from_secs(30),
        min_residency: SimDuration::from_secs(30),
        ..RuntimeConfig::default()
    });
    rt.set_controller(Box::new(emr));
    let s0 = rt.add_server(InstanceType::m1_small());
    // Six workers each wanting ~30%: one server is hopeless (180%).
    for _ in 0..6 {
        let w = rt.spawn_actor("Worker", Box::new(Worker { work: 0.03 }), 1 << 10, s0);
        rt.add_client(Box::new(Pulse {
            target: w,
            period: SimDuration::from_millis(100),
        }));
    }
    rt.run_until(SimTime::from_secs(600));
    let servers = rt.cluster().running_count();
    assert!(servers >= 3, "scaled out to {servers} servers");
    for sid in rt.cluster().running_ids() {
        let u = cpu_of(&rt, sid);
        assert!(u < 0.9, "server {sid:?} still hot: {u}");
    }
}

#[test]
fn auto_scale_in_reclaims_idle_servers() {
    let emr = emr_for(
        "server.cpu.perc > 80 or server.cpu.perc < 60 => balance({Worker}, cpu);",
        &worker_schema(),
        EmrConfig {
            auto_scale: true,
            scale_instance: InstanceType::m1_small(),
            scale_in_step: 1,
            ..EmrConfig::default()
        },
    );
    let mut rt = Runtime::new(RuntimeConfig {
        seed: 6,
        elasticity_period: SimDuration::from_secs(30),
        min_residency: SimDuration::from_secs(30),
        ..RuntimeConfig::default()
    });
    rt.set_controller(Box::new(emr));
    // Four servers, trivial load.
    for _ in 0..4 {
        rt.add_server(InstanceType::m1_small());
    }
    let s0 = rt.cluster().running_ids()[0];
    let w = rt.spawn_actor("Worker", Box::new(Worker { work: 0.002 }), 1 << 10, s0);
    rt.add_client(Box::new(Pulse {
        target: w,
        period: SimDuration::from_millis(500),
    }));
    rt.run_until(SimTime::from_secs(400));
    assert!(
        rt.cluster().running_count() <= 2,
        "idle servers reclaimed, now {}",
        rt.cluster().running_count()
    );
}

#[test]
fn gem_failure_does_not_stop_balancing() {
    let compiled = compile(
        "server.cpu.perc > 80 or server.cpu.perc < 60 => balance({Worker}, cpu);",
        &worker_schema(),
    )
    .unwrap();
    let mut emr = PlasmaEmr::new(
        compiled,
        EmrConfig {
            num_gems: 2,
            ..EmrConfig::default()
        },
    );
    emr.fail_gem(0);
    assert_eq!(emr.alive_gems(), 1);
    let mut rt = Runtime::new(RuntimeConfig {
        seed: 7,
        ..RuntimeConfig::default()
    });
    rt.set_controller(Box::new(emr));
    let s0 = rt.add_server(InstanceType::m1_small());
    let s1 = rt.add_server(InstanceType::m1_small());
    for _ in 0..4 {
        let w = rt.spawn_actor("Worker", Box::new(Worker { work: 0.035 }), 1 << 10, s0);
        rt.add_client(Box::new(Pulse {
            target: w,
            period: SimDuration::from_millis(100),
        }));
    }
    rt.run_until(SimTime::from_secs(200));
    assert!(rt.actor_count_on(s1) >= 1, "surviving GEM still migrates");
}

#[test]
fn rule_guided_placement_puts_child_on_creator_server() {
    struct Spawner;
    impl ActorLogic for Spawner {
        fn on_message(&mut self, ctx: &mut ActorCtx<'_>, _msg: &mut Message) {
            let child = ctx.spawn("Player", Box::new(Worker { work: 0.001 }), 256);
            ctx.add_ref("players", child);
            ctx.reply(8);
        }
    }
    let mut schema = ActorSchema::new();
    schema.actor_type("Session").prop("players").func("join");
    schema.actor_type("Player").func("update");
    let run = |policy: &str| {
        let emr = emr_for(policy, &schema, EmrConfig::default());
        let mut rt = Runtime::new(RuntimeConfig {
            seed: 8,
            ..RuntimeConfig::default()
        });
        rt.set_controller(Box::new(emr));
        let s0 = rt.add_server(InstanceType::m1_small());
        for _ in 0..3 {
            rt.add_server(InstanceType::m1_small());
        }
        let session = rt.spawn_actor("Session", Box::new(Spawner), 1 << 10, s0);
        for _ in 0..8 {
            rt.inject(session, "join", 16, None);
        }
        rt.run_until(SimTime::from_secs(5));
        let players = rt.actor_refs(session, "players");
        assert_eq!(players.len(), 8);
        let on_creator = players
            .iter()
            .filter(|&&p| rt.actor_server(p) == s0)
            .count();
        on_creator
    };
    // With the colocate rule every player starts beside its session.
    let guided = run("Player(p) in ref(Session(s).players) => pin(s); colocate(p, s);");
    assert_eq!(guided, 8);
    // Without any rule mentioning Player, placement is spread round-robin.
    let unguided = run("server.cpu.perc > 80 => balance({Session}, cpu);");
    assert!(
        unguided < 8,
        "unguided placement spread players: {unguided}"
    );
}

#[test]
fn gem_waits_for_k_reports() {
    // With K larger than the per-GEM server count, no GEM ever plans, so
    // the overloaded server is never relieved.
    let compiled = compile(
        "server.cpu.perc > 80 or server.cpu.perc < 60 => balance({Worker}, cpu);",
        &worker_schema(),
    )
    .unwrap();
    let emr = PlasmaEmr::new(
        compiled,
        EmrConfig {
            k_reports: 10,
            ..EmrConfig::default()
        },
    );
    let mut rt = Runtime::new(RuntimeConfig {
        seed: 42,
        ..RuntimeConfig::default()
    });
    rt.set_controller(Box::new(emr));
    let s0 = rt.add_server(InstanceType::m1_small());
    let _s1 = rt.add_server(InstanceType::m1_small());
    for _ in 0..4 {
        let w = rt.spawn_actor("Worker", Box::new(Worker { work: 0.035 }), 1 << 16, s0);
        rt.add_client(Box::new(Pulse {
            target: w,
            period: SimDuration::from_millis(100),
        }));
    }
    rt.run_until(SimTime::from_secs(200));
    assert!(
        rt.report().migrations.is_empty(),
        "below the K-report threshold the GEM must not act"
    );
}

#[test]
fn quiet_estore_world_plans_few_lem_pairs() {
    // The paper's three E-Store rules (§3.3) over idle partitions: every
    // root's children sit beside it except one displaced child in every
    // sixteenth root, which the colocate rule brings home.
    let mut schema = ActorSchema::new();
    schema.actor_type("Partition").prop("children").func("read");
    let policy =
        "server.cpu.perc > 80 and client.call(Partition(p1).read).perc > 30 => reserve(p1, cpu);\n\
                  Partition(p2) in ref(Partition(p1).children) => colocate(p1, p2);\n\
                  server.cpu.perc < 50 => balance({Partition}, cpu);";
    let mut rt = Runtime::new(RuntimeConfig {
        seed: 3,
        elasticity_period: SimDuration::from_secs(5),
        min_residency: SimDuration::from_secs(5),
        ..RuntimeConfig::default()
    });
    rt.set_controller(Box::new(emr_for(policy, &schema, EmrConfig::default())));
    let servers: Vec<ServerId> = (0..4)
        .map(|_| rt.add_server(InstanceType::m1_small()))
        .collect();
    let (roots, children) = (64, 4);
    let mut displaced = Vec::new();
    for r in 0..roots {
        let home = servers[r % servers.len()];
        let root = rt.spawn_actor("Partition", Box::new(Worker { work: 0.001 }), 4 << 10, home);
        for c in 0..children {
            let away = r % 16 == 0 && c == 0;
            let at = if away {
                servers[(r + 1) % servers.len()]
            } else {
                home
            };
            let child = rt.spawn_actor("Partition", Box::new(Worker { work: 0.001 }), 1 << 10, at);
            rt.actor_add_ref(root, "children", child);
            if away {
                displaced.push((root, child));
            }
        }
    }
    rt.run_until(SimTime::from_secs(60));
    for &(root, child) in &displaced {
        assert_eq!(rt.actor_server(child), rt.actor_server(root));
    }
    let scalar = |name: &str| rt.report().scalar(name).expect(name);
    let ticks = scalar("emr.ticks");
    let envs = (roots * children) as f64;
    assert!(ticks >= 10.0, "{ticks} rounds");
    // Only the first round solves the colocate rule; every later one
    // reuses its environments and plans only the pairs that can move.
    assert_eq!(scalar("emr.lem_env_reuses"), ticks - 1.0);
    let pairs = scalar("emr.lem_pairs_planned");
    assert!(pairs >= displaced.len() as f64, "{pairs} pairs planned");
    assert!(
        pairs * 50.0 < envs * ticks,
        "{pairs} pairs planned over {ticks} rounds of {envs} environments"
    );
}
