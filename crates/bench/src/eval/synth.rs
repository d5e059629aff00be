//! Synthetic evaluation worlds for the `eval-engine` scenario and the
//! `frame_maintenance` bench.
//!
//! Builds a large profiling snapshot directly through
//! `EvalFrame::from_parts` — no simulation — so the scenario's env and row
//! counts measure *only* the rule evaluator, and the bench only frame
//! maintenance. Everything derives from a fixed seed via splitmix64, so the
//! world (and therefore every env and row count) is identical across runs
//! and machines.

use std::collections::BTreeMap;

use plasma_actor::logic::{ActorCtx, ClientCtx};
use plasma_actor::message::Payload;
use plasma_actor::stats::{ActorCounters, ActorWindowStats, CallKey, CallStat, ProfileSnapshot};
use plasma_actor::{
    ActorId, ActorLogic, ActorTypeId, CallerKind, ClientLogic, FnId, Message, Runtime,
    RuntimeConfig,
};
use plasma_cluster::{InstanceType, ServerId};
use plasma_emr::view::ServerMeta;
use plasma_emr::{EmrConfig, PlasmaEmr};
use plasma_epl::{compile, ActorSchema};
use plasma_sim::{SimDuration, SimTime};

/// The actor types of the synthetic schema.
pub const TYPES: [&str; 3] = ["T0", "T1", "T2"];

/// The rule shapes the paper's applications actually use: a server-guarded
/// call join (metadata/estore), an actor CPU threshold (balance triggers),
/// a reference join (sessions), and an actor-to-actor call pair (media).
pub const RULES: [(&str, &str); 4] = [
    (
        "guarded_call_join",
        "server.cpu.perc > 80 and client.call(T0(a).f0).perc > 40 => reserve(a, cpu);",
    ),
    (
        "actor_cpu_threshold",
        "T0(a).cpu.perc > 95 => reserve(a, cpu);",
    ),
    (
        "ref_membership_join",
        "T1(b) in ref(T0(a).r0) => colocate(a, b);",
    ),
    (
        "actor_call_pair",
        "T0(a).call(T1(b).f1).count > 400 => colocate(a, b);",
    ),
];

/// Deterministic splitmix64.
pub struct Mix(pub u64);

impl Mix {
    /// Advances and returns the next raw value.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// The schema matching [`RULES`]: three types, each with property `r0` and
/// functions `f0`/`f1`.
pub fn schema() -> ActorSchema {
    let mut s = ActorSchema::new();
    for t in TYPES {
        s.actor_type(t).prop("r0").func("f0").func("f1");
    }
    s
}

/// Name tables consistent with the type/fn ids used by [`synth_world`].
pub fn name_tables() -> (BTreeMap<String, ActorTypeId>, BTreeMap<String, FnId>) {
    let types = TYPES
        .iter()
        .enumerate()
        .map(|(i, t)| (t.to_string(), ActorTypeId(i as u32)))
        .collect();
    let fns = [("f0", 0u32), ("f1", 1)]
        .into_iter()
        .map(|(f, i)| (f.to_string(), FnId(i)))
        .collect();
    (types, fns)
}

/// Builds a synthetic snapshot: `n_actors` actors round-robined over
/// `n_servers` servers, with client calls on `f0`, actor-to-actor calls on
/// `f1`, and three `r0` references each.
pub fn synth_world(n_servers: u32, n_actors: u64, seed: u64) -> (ProfileSnapshot, Vec<ServerMeta>) {
    let mut mix = Mix(seed);
    let servers: Vec<ServerMeta> = (0..n_servers)
        .map(|i| ServerMeta {
            id: ServerId(i),
            total_speed: 1.0,
            vcpus: 4,
            mem_bytes: 8 << 30,
            net_bps: 1e9,
            // Up to 120%: overloaded servers must exist for the guarded
            // rule shapes to fire.
            cpu: mix.below(120) as f64 / 100.0,
            mem: mix.below(100) as f64 / 100.0,
            net: mix.below(100) as f64 / 100.0,
            actor_count: (n_actors / n_servers as u64) as usize,
        })
        .collect();
    let actors: Vec<ActorWindowStats> = (0..n_actors)
        .map(|i| {
            let mut calls = BTreeMap::new();
            // Skewed client traffic: roughly one hotspot per hundred actors
            // draws an order of magnitude more calls, so per-server call
            // shares (`client.call(..).perc`) actually spread out.
            let client_count = if mix.below(100) == 0 {
                20_000 + mix.below(20_000)
            } else {
                mix.below(2000)
            };
            calls.insert(
                CallKey {
                    caller_kind: CallerKind::Client,
                    caller: None,
                    fname: FnId(0),
                },
                CallStat {
                    count: client_count,
                    bytes: mix.below(1 << 16),
                },
            );
            calls.insert(
                CallKey {
                    caller_kind: CallerKind::Actor(ActorTypeId((i % 3) as u32)),
                    caller: Some(ActorId(mix.below(n_actors))),
                    fname: FnId(1),
                },
                CallStat {
                    count: mix.below(500),
                    bytes: mix.below(1 << 14),
                },
            );
            let mut refs = BTreeMap::new();
            refs.insert(
                "r0".to_string(),
                (0..3).map(|_| ActorId(mix.below(n_actors))).collect(),
            );
            ActorWindowStats {
                actor: ActorId(i),
                type_id: ActorTypeId((i % 3) as u32),
                server: ServerId((i % n_servers as u64) as u32),
                state_size: 1 << 16,
                pinned: false,
                cpu_share: mix.below(100) as f64 / 100.0,
                counters: ActorCounters {
                    cpu_busy: SimDuration::ZERO,
                    calls,
                    bytes_sent: 0,
                },
                refs: refs.into(),
            }
        })
        .collect();
    let snap = ProfileSnapshot::from_rows(
        1,
        SimTime::from_secs(60),
        SimDuration::from_secs(1),
        actors,
        Vec::new(),
    );
    (snap, servers)
}

/// Produces the successor of `base` after one steady-state window with
/// `frac` churn: roughly `frac * len` actors are touched — a quarter
/// replaced (one death plus one fresh spawn), a quarter migrated, and the
/// rest re-profiled with a new `cpu_share`. Everything derives from
/// `seed`, and the generation advances by one. The successor starts as a
/// copy of `base` that shares its pages, and every edit copies only its
/// own page, as a runtime roll rebuilds only the pages that changed, so
/// `SnapshotDelta::between(base, &churned)` is exactly the delta a runtime
/// would emit for this window.
pub fn churn_world(base: &ProfileSnapshot, frac: f64, seed: u64) -> ProfileSnapshot {
    let mut mix = Mix(seed);
    let mut next = base.clone();
    next.generation = base.generation + 1;
    next.at = base.at + base.window;
    // Live ids in id order: a draw picks the i-th of them.
    let mut ids: Vec<ActorId> = base.actors().map(|a| a.actor).collect();
    let n_servers = base.actors().map(|a| a.server.0).max().unwrap_or(0) + 1;
    let touches = ((ids.len() as f64 * frac).ceil() as u64).max(1);
    let mut next_id = ids.last().map_or(0, |a| a.0 + 1);
    for _ in 0..touches {
        match mix.below(4) {
            0 if !ids.is_empty() => {
                // Replacement: one actor dies, a fresh one spawns.
                let gone = mix.below(ids.len() as u64) as usize;
                next.remove(ids.remove(gone));
                let mut calls = BTreeMap::new();
                calls.insert(
                    CallKey {
                        caller_kind: CallerKind::Client,
                        caller: None,
                        fname: FnId(0),
                    },
                    CallStat {
                        count: mix.below(2000),
                        bytes: mix.below(1 << 16),
                    },
                );
                next.insert(ActorWindowStats {
                    actor: ActorId(next_id),
                    type_id: ActorTypeId((next_id % 3) as u32),
                    server: ServerId(mix.below(n_servers as u64) as u32),
                    state_size: 1 << 16,
                    pinned: false,
                    cpu_share: mix.below(100) as f64 / 100.0,
                    counters: ActorCounters {
                        cpu_busy: SimDuration::ZERO,
                        calls,
                        bytes_sent: 0,
                    },
                    refs: Default::default(),
                });
                ids.push(ActorId(next_id));
                next_id += 1;
            }
            1 if !ids.is_empty() => {
                let i = mix.below(ids.len() as u64) as usize;
                let server = ServerId(mix.below(n_servers as u64) as u32);
                next.actor_mut(ids[i]).expect("live id").server = server;
            }
            _ if !ids.is_empty() => {
                let i = mix.below(ids.len() as u64) as usize;
                let cpu_share = mix.below(100) as f64 / 100.0;
                next.actor_mut(ids[i]).expect("live id").cpu_share = cpu_share;
            }
            _ => {}
        }
    }
    next
}

/// Runs a small live cluster under a balance policy with `num_gems` GEM
/// scopes for `secs` simulated seconds and returns `(snapshot_builds,
/// emr.ticks, emr.frame_rebuilds, emr.frame_patches)` — the deterministic
/// counters pinning the shared-snapshot and incremental-frame behavior.
pub fn sharing_probe(num_gems: usize, secs: u64, seed: u64) -> (u64, f64, f64, f64) {
    struct Worker;
    impl ActorLogic for Worker {
        fn on_message(&mut self, ctx: &mut ActorCtx<'_>, _msg: &mut Message) {
            ctx.work(0.03);
            ctx.reply(32);
        }
    }
    struct Pulse {
        target: ActorId,
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
            ctx.set_timer(SimDuration::from_millis(100), 0);
        }
    }
    let mut s = ActorSchema::new();
    s.actor_type("Worker").func("run");
    let compiled = compile(
        "server.cpu.perc > 80 or server.cpu.perc < 60 => balance({Worker}, cpu);",
        &s,
    )
    .expect("probe policy compiles");
    let emr = PlasmaEmr::new(
        compiled,
        EmrConfig {
            num_gems,
            ..EmrConfig::default()
        },
    );
    let mut rt = Runtime::new(RuntimeConfig {
        seed,
        ..RuntimeConfig::default()
    });
    rt.set_controller(Box::new(emr));
    let s0 = rt.add_server(InstanceType::m1_small());
    for _ in 0..3 {
        rt.add_server(InstanceType::m1_small());
    }
    for _ in 0..6 {
        let w = rt.spawn_actor("Worker", Box::new(Worker), 1 << 10, s0);
        rt.add_client(Box::new(Pulse { target: w }));
    }
    rt.run_until(SimTime::from_secs(secs));
    let report = rt.report();
    (
        rt.snapshot_builds(),
        report.scalar("emr.ticks").unwrap_or(0.0),
        report.scalar("emr.frame_rebuilds").unwrap_or(0.0),
        report.scalar("emr.frame_patches").unwrap_or(0.0),
    )
}
