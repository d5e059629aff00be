//! The Halo 4 Presence Service (§3.3, §5.7, Fig. 11).
//!
//! Game consoles send periodic heartbeats: a random `Router` receives each
//! heartbeat, (optionally) decrypts it, and forwards it to the player's
//! `Session` actor, which forwards it to the `Player` actor. Players belong
//! to exactly one session, so colocating each player with its session
//! eliminates the session-to-player remote hop.
//!
//! Two experiments:
//!
//! - **Interaction rule** (Fig. 11a/b): the §3.3 rule
//!   `Player(p) in ref(Session(s).players) => pin(s); colocate(p, s);`
//!   versus the frequency-based *default rule* that places new players
//!   randomly and colocates them only after observing traffic.
//! - **Resource rule** (Fig. 11c): decryption makes routers CPU-hungry;
//!   `balance({Router}, cpu)` spreads them as clients join, evaluated with
//!   1, 2 and 4 GEMs.

use plasma::prelude::*;
use plasma_sim::metrics::BucketedSeries;
use plasma_sim::SimTime;

use crate::common::{ChaosEval, ElasticityEval, EvalScale};

/// Schema for the Halo policies.
pub fn schema() -> ActorSchema {
    let mut schema = ActorSchema::new();
    schema.actor_type("Router").func("heartbeat");
    schema
        .actor_type("Session")
        .prop("players")
        .func("join")
        .func("heartbeat");
    schema.actor_type("Player").func("heartbeat");
    schema
}

/// The §3.3 interaction rule.
pub fn interaction_policy() -> &'static str {
    "Player(p) in ref(Session(s).players) => pin(s); colocate(p, s);"
}

/// The Table-1 resource rule for CPU-hungry routers, plus the interaction
/// rule (§5.7 runs both kinds together).
pub fn resource_policy() -> &'static str {
    "server.cpu.perc > 80 or server.cpu.perc < 60 => balance({Router}, cpu);\n\
     Player(p) in ref(Session(s).players) => pin(s); colocate(p, s);"
}

/// Elasticity management under test for Fig. 11a/b.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    /// The interaction rule (`inter-rule`).
    InterRule,
    /// The frequency-based default rule (`def-rule`).
    DefRule,
}

/// Heartbeat routing payload.
struct Heartbeat {
    session: ActorId,
    player: ActorId,
}

/// Reply payload carrying the ids a joining client needs.
struct Joined {
    player: ActorId,
}

struct Router {
    decrypt_work: f64,
}

impl ActorLogic for Router {
    fn on_message(&mut self, ctx: &mut ActorCtx<'_>, msg: &mut Message) {
        ctx.work(self.decrypt_work);
        if let Some(hb) = msg.take_payload::<Heartbeat>() {
            let session = hb.session;
            ctx.send_with(session, "heartbeat", 96, hb);
        }
    }
}

struct Session {
    heartbeat_work: f64,
}

impl ActorLogic for Session {
    fn on_message(&mut self, ctx: &mut ActorCtx<'_>, msg: &mut Message) {
        if msg.fname == ctx.fn_id("join") {
            ctx.work(0.0008);
            let player = ctx.spawn(
                "Player",
                Box::new(Player {
                    heartbeat_work: 0.0002,
                }),
                64 << 10,
            );
            ctx.add_ref("players", player);
            ctx.reply_with(48, Box::new(Joined { player }));
        } else if msg.fname == ctx.fn_id("heartbeat") {
            ctx.work(self.heartbeat_work);
            if let Some(hb) = msg.take_payload::<Heartbeat>() {
                // Sessions may only message their own players (§3.3).
                if ctx.refs("players").contains(&hb.player) {
                    ctx.send(hb.player, "heartbeat", 64);
                }
            }
        }
    }
}

struct Player {
    heartbeat_work: f64,
}

impl ActorLogic for Player {
    fn on_message(&mut self, ctx: &mut ActorCtx<'_>, _msg: &mut Message) {
        ctx.work(self.heartbeat_work);
        ctx.reply(32);
    }
}

/// A game console: joins its session at `join_at`, then heartbeats through
/// random routers.
struct Console {
    session: ActorId,
    routers: Vec<ActorId>,
    player: Option<ActorId>,
    join_at: SimDuration,
    heartbeat_period: SimDuration,
    /// The report series each reply's latency (ms) goes to, if any.
    latency_series: Option<String>,
}

/// The report series of console `c`'s reply latencies (Fig. 11b).
fn console_series(c: usize) -> String {
    format!("halo.console{c}.latency_ms")
}

const TOKEN_JOIN: u64 = 1;
const TOKEN_BEAT: u64 = 2;

impl ClientLogic for Console {
    fn on_start(&mut self, ctx: &mut ClientCtx<'_>) {
        ctx.set_timer(self.join_at, TOKEN_JOIN);
    }

    fn on_reply(
        &mut self,
        ctx: &mut ClientCtx<'_>,
        _request: u64,
        latency: SimDuration,
        payload: Option<Payload>,
    ) {
        if let Some(series) = &self.latency_series {
            ctx.record(series, latency.as_millis_f64());
        }
        if let Some(joined) = payload.and_then(|p| p.downcast::<Joined>().ok()) {
            self.player = Some(joined.player);
            ctx.set_timer(self.heartbeat_period, TOKEN_BEAT);
        }
        // Heartbeat replies need no action; the next beat is timer-driven.
    }

    fn on_timer(&mut self, ctx: &mut ClientCtx<'_>, token: u64) {
        match token {
            TOKEN_JOIN => {
                ctx.request(self.session, "join", 128);
            }
            TOKEN_BEAT => {
                if let Some(player) = self.player {
                    let router = *ctx.rng().choose(&self.routers.clone());
                    ctx.request_with(
                        router,
                        "heartbeat",
                        160,
                        Box::new(Heartbeat {
                            session: self.session,
                            player,
                        }),
                    );
                }
                ctx.set_timer(self.heartbeat_period, TOKEN_BEAT);
            }
            _ => {}
        }
    }
}

/// Fig. 11a/b configuration.
#[derive(Clone, Debug)]
pub struct HaloConfig {
    /// Routers (one per server in the paper).
    pub routers: usize,
    /// Sessions (one per server in the paper).
    pub sessions: usize,
    /// Servers.
    pub servers: usize,
    /// Clients joining in `rounds` waves.
    pub clients: usize,
    /// Number of join waves (4 in the paper).
    pub rounds: usize,
    /// Length of each wave (180 s in the paper).
    pub round_len: SimDuration,
    /// Elasticity period (70 s in the paper).
    pub period: SimDuration,
    /// Elasticity mode.
    pub mode: Mode,
    /// Number of GEMs partitioning the servers (1 in the paper's 11a/b).
    pub gems: usize,
    /// Faults injected during the run (empty = none, byte-identical runs).
    pub faults: FaultPlan,
    /// Detection and recovery policy for the fault plan.
    pub recovery: RecoveryPolicy,
    /// Execution backend carrying deliveries and service time.
    pub backend: BackendKind,
    /// RNG seed.
    pub seed: u64,
}

impl Default for HaloConfig {
    fn default() -> Self {
        HaloConfig {
            routers: 8,
            sessions: 8,
            servers: 8,
            clients: 32,
            rounds: 4,
            round_len: SimDuration::from_secs(180),
            period: SimDuration::from_secs(70),
            mode: Mode::InterRule,
            gems: 1,
            faults: FaultPlan::new(),
            recovery: RecoveryPolicy::default(),
            backend: BackendKind::Sim,
            seed: 23,
        }
    }
}

impl HaloConfig {
    /// The evaluation-harness preset at the given scale.
    pub fn preset(scale: EvalScale) -> Self {
        match scale {
            EvalScale::Full => HaloConfig::default(),
            EvalScale::Smoke => HaloConfig {
                routers: 4,
                sessions: 4,
                servers: 4,
                clients: 12,
                rounds: 2,
                round_len: SimDuration::from_secs(60),
                period: SimDuration::from_secs(30),
                ..HaloConfig::default()
            },
            EvalScale::Xl => HaloConfig {
                routers: 32,
                sessions: 32,
                servers: 16,
                clients: 128,
                ..HaloConfig::default()
            },
        }
    }

    /// The chaos-variant preset: two GEMs manage the cluster; a partition
    /// splits two servers off mid-join-wave (heartbeats across the cut are
    /// lost and cross-partition migrations refused), heals, and then one
    /// GEM crash-stops — its servers re-shuffle onto the survivor (§4.3).
    pub fn chaos_preset(scale: EvalScale) -> Self {
        let faults = FaultPlan::new()
            .partition(
                SimTime::from_secs(20),
                [ServerId(2), ServerId(3)],
                Some(SimDuration::from_secs(20)),
            )
            .crash_gem(SimTime::from_secs(70), 1);
        HaloConfig {
            gems: 2,
            faults,
            seed: 41,
            ..HaloConfig::preset(scale)
        }
    }
}

/// Results of one Fig. 11a/b run.
#[derive(Debug)]
pub struct HaloReport {
    /// Mean latency per 5-second bucket.
    pub latency_series: Vec<(f64, f64)>,
    /// Per-client latency series (Fig. 11b).
    pub client_latency: Vec<(u32, Vec<(f64, f64)>)>,
    /// Mean latency in milliseconds over the whole run.
    pub mean_ms: f64,
    /// Peak bucket latency (spikiness indicator).
    pub peak_ms: f64,
    /// Migrations performed.
    pub migrations: usize,
    /// Players ending the run on their session's server / total players.
    pub colocated: (usize, usize),
    /// Scenario-independent elasticity stats.
    pub eval: ElasticityEval,
    /// Recovery metrics (all zero on a fault-free run).
    pub chaos: ChaosEval,
}

/// The slow inter-instance network of the m1.small era: remote hops cost
/// whole milliseconds, which is what makes player placement visible in
/// Fig. 11.
fn halo_network() -> NetworkModel {
    NetworkModel {
        local_latency: SimDuration::from_micros(200),
        remote_latency: SimDuration::from_millis(3),
        control_latency: SimDuration::from_millis(1),
        client_latency: SimDuration::from_millis(7),
    }
}

/// Runs the Fig. 11a/b interaction-rule experiment.
pub fn run(cfg: &HaloConfig) -> HaloReport {
    let bucket = SimDuration::from_secs(5);
    let runtime_cfg = RuntimeConfig {
        seed: cfg.seed,
        elasticity_period: cfg.period,
        min_residency: cfg.period,
        network: halo_network(),
        profile_window: SimDuration::from_secs(5),
        latency_bucket: bucket,
        backend: cfg.backend,
        ..RuntimeConfig::default()
    };
    let mut app = match cfg.mode {
        Mode::InterRule => Plasma::builder()
            .runtime_config(runtime_cfg)
            .emr_config(EmrConfig {
                num_gems: cfg.gems.max(1),
                ..EmrConfig::default()
            })
            .policy(interaction_policy(), &schema())
            .build()
            .expect("halo policy compiles"),
        Mode::DefRule => Plasma::builder()
            .runtime_config(runtime_cfg)
            .controller(Box::new(FrequencyColocate::new(8)))
            .build()
            .expect("builds"),
    };
    let rt = app.runtime_mut();
    rt.install_fault_plan(&cfg.faults, cfg.recovery);
    let servers: Vec<ServerId> = (0..cfg.servers)
        .map(|_| rt.add_server(InstanceType::m1_small()))
        .collect();
    let routers: Vec<ActorId> = (0..cfg.routers)
        .map(|i| {
            rt.spawn_actor(
                "Router",
                // Fig. 11a routers skip decryption to highlight messaging.
                Box::new(Router { decrypt_work: 0.0 }),
                32 << 10,
                servers[i % servers.len()],
            )
        })
        .collect();
    let sessions: Vec<ActorId> = (0..cfg.sessions)
        .map(|i| {
            rt.spawn_actor(
                "Session",
                Box::new(Session {
                    heartbeat_work: 0.0003,
                }),
                128 << 10,
                servers[i % servers.len()],
            )
        })
        .collect();
    let mut rng = DetRng::new(cfg.seed ^ 0xC0FFEE);
    for c in 0..cfg.clients {
        let round = c % cfg.rounds;
        let offset = rng.range_f64(0.0, cfg.round_len.as_secs_f64());
        let join_at = cfg.round_len * round as u64 + SimDuration::from_secs_f64(offset)
            - SimTime::ZERO.saturating_since(SimTime::ZERO);
        rt.add_client(Box::new(Console {
            session: sessions[c % sessions.len()],
            routers: routers.clone(),
            player: None,
            join_at,
            heartbeat_period: SimDuration::from_millis(500),
            latency_series: Some(console_series(c)),
        }));
    }
    let end = SimTime::ZERO + cfg.round_len * (cfg.rounds as u64 + 1);
    app.run_until(end);
    let mut colocated = (0usize, 0usize);
    for &session in &sessions {
        let home = app.runtime().actor_server(session);
        for p in app.runtime().actor_refs(session, "players") {
            colocated.1 += 1;
            if app.runtime().actor_server(p) == home {
                colocated.0 += 1;
            }
        }
    }
    let report = app.report();
    let latency_series: Vec<(f64, f64)> = report
        .latency_series
        .buckets()
        .into_iter()
        .map(|(t, v)| (t.as_secs_f64(), v))
        .collect();
    HaloReport {
        mean_ms: report.mean_latency_ms(),
        peak_ms: latency_series.iter().map(|&(_, v)| v).fold(0.0, f64::max),
        migrations: report.migrations.len(),
        colocated,
        eval: ElasticityEval::collect(app.runtime()),
        chaos: ChaosEval::collect(app.runtime()),
        client_latency: (0..cfg.clients)
            .filter_map(|c| {
                let mut series = BucketedSeries::new(bucket);
                for &(t, v) in report.series(&console_series(c))?.points() {
                    series.record(t, v);
                }
                let buckets = series
                    .buckets()
                    .into_iter()
                    .map(|(t, v)| (t.as_secs_f64(), v));
                Some((c as u32, buckets.collect()))
            })
            .collect(),
        latency_series,
    }
}

/// Fig. 11c configuration: CPU-heavy routers balanced across a larger
/// cluster by 1, 2 or 4 GEMs.
#[derive(Clone, Debug)]
pub struct HaloScaleConfig {
    /// Sessions (each on its own server; 64 in the paper).
    pub sessions: usize,
    /// Routers, initially packed onto the first servers (32 in the paper).
    pub routers: usize,
    /// Servers initially hosting routers (8 in the paper).
    pub router_servers: usize,
    /// Clients (128 in the paper).
    pub clients: usize,
    /// Number of GEMs (1/2/4 in Fig. 11c).
    pub gems: usize,
    /// Elasticity period (80 s in the paper).
    pub period: SimDuration,
    /// Run length.
    pub run_for: SimDuration,
    /// Execution backend carrying deliveries and service time.
    pub backend: BackendKind,
    /// RNG seed.
    pub seed: u64,
}

impl Default for HaloScaleConfig {
    fn default() -> Self {
        HaloScaleConfig {
            sessions: 64,
            routers: 32,
            router_servers: 8,
            clients: 128,
            gems: 1,
            period: SimDuration::from_secs(80),
            run_for: SimDuration::from_secs(780),
            backend: BackendKind::Sim,
            seed: 29,
        }
    }
}

/// Results of one Fig. 11c run.
#[derive(Debug)]
pub struct HaloScaleReport {
    /// Mean latency per 10-second bucket.
    pub latency_series: Vec<(f64, f64)>,
    /// Mean latency over the final quarter of the run.
    pub tail_ms: f64,
    /// Migrations performed.
    pub migrations: usize,
    /// FNV-1a digest of the run's elasticity decision sequence.
    pub decision_digest: u64,
}

/// Runs the Fig. 11c resource-rule experiment.
pub fn run_scale(cfg: &HaloScaleConfig) -> HaloScaleReport {
    let runtime_cfg = RuntimeConfig {
        seed: cfg.seed,
        elasticity_period: cfg.period,
        min_residency: cfg.period,
        network: halo_network(),
        profile_window: SimDuration::from_secs(10),
        latency_bucket: SimDuration::from_secs(10),
        backend: cfg.backend,
        ..RuntimeConfig::default()
    };
    let mut app = Plasma::builder()
        .runtime_config(runtime_cfg)
        .emr_config(EmrConfig {
            num_gems: cfg.gems,
            ..EmrConfig::default()
        })
        .policy(resource_policy(), &schema())
        .build()
        .expect("halo resource policy compiles");
    let rt = app.runtime_mut();
    let servers: Vec<ServerId> = (0..cfg.sessions)
        .map(|_| rt.add_server(InstanceType::m1_small()))
        .collect();
    let routers: Vec<ActorId> = (0..cfg.routers)
        .map(|i| {
            rt.spawn_actor(
                "Router",
                Box::new(Router {
                    decrypt_work: 0.0035,
                }),
                32 << 10,
                servers[i % cfg.router_servers],
            )
        })
        .collect();
    let sessions: Vec<ActorId> = (0..cfg.sessions)
        .map(|i| {
            rt.spawn_actor(
                "Session",
                Box::new(Session {
                    heartbeat_work: 0.0003,
                }),
                128 << 10,
                servers[i],
            )
        })
        .collect();
    let mut rng = DetRng::new(cfg.seed ^ 0xFEED);
    let join_window = cfg.run_for.mul_f64(0.4);
    for c in 0..cfg.clients {
        let join_at = SimDuration::from_secs_f64(rng.range_f64(0.0, join_window.as_secs_f64()));
        rt.add_client(Box::new(Console {
            session: sessions[c % sessions.len()],
            routers: routers.clone(),
            player: None,
            join_at,
            heartbeat_period: SimDuration::from_millis(400),
            latency_series: None,
        }));
    }
    let end = SimTime::ZERO + cfg.run_for;
    app.run_until(end);
    let report = app.report();
    let latency_series: Vec<(f64, f64)> = report
        .latency_series
        .buckets()
        .into_iter()
        .map(|(t, v)| (t.as_secs_f64(), v))
        .collect();
    let tail_start = cfg.run_for.mul_f64(0.75).as_secs_f64();
    let tail: Vec<f64> = latency_series
        .iter()
        .filter(|&&(t, _)| t >= tail_start)
        .map(|&(_, v)| v)
        .collect();
    HaloScaleReport {
        tail_ms: if tail.is_empty() {
            0.0
        } else {
            tail.iter().sum::<f64>() / tail.len() as f64
        },
        migrations: report.migrations.len(),
        decision_digest: report.decision_digest(),
        latency_series,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inter_rule_is_smooth_and_low() {
        let inter = run(&HaloConfig::default());
        let def = run(&HaloConfig {
            mode: Mode::DefRule,
            ..HaloConfig::default()
        });
        assert!(
            inter.mean_ms < def.mean_ms,
            "inter {} vs def {}",
            inter.mean_ms,
            def.mean_ms
        );
        // The default rule produces join-round latency spikes (Fig. 11a).
        assert!(
            def.peak_ms > inter.peak_ms * 1.15,
            "def peak {} vs inter peak {}",
            def.peak_ms,
            inter.peak_ms
        );
    }

    #[test]
    fn def_rule_recovers_after_redistribution() {
        let def = run(&HaloConfig {
            mode: Mode::DefRule,
            rounds: 1,
            clients: 8,
            round_len: SimDuration::from_secs(180),
            ..HaloConfig::default()
        });
        // After the first elasticity period players get colocated, so the
        // last buckets approach the well-placed latency.
        let early: Vec<f64> = def
            .latency_series
            .iter()
            .filter(|&&(t, _)| t < 70.0)
            .map(|&(_, v)| v)
            .collect();
        // Joins continue until 180 s and residency delays re-placement, so
        // convergence completes by ~280 s (Fig. 11a's recovery windows).
        let late: Vec<f64> = def
            .latency_series
            .iter()
            .filter(|&&(t, _)| t > 280.0)
            .map(|&(_, v)| v)
            .collect();
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        assert!(def.migrations > 0, "frequency rule migrated players");
        assert!(
            mean(&late) < mean(&early),
            "late {} vs early {}",
            mean(&late),
            mean(&early)
        );
    }

    #[test]
    fn per_client_latency_split_between_lucky_and_unlucky() {
        let def = run(&HaloConfig {
            mode: Mode::DefRule,
            rounds: 1,
            clients: 8,
            ..HaloConfig::default()
        });
        // Fig. 11b: some clients start well-placed, others ~35% higher.
        let firsts: Vec<f64> = def
            .client_latency
            .iter()
            .filter_map(|(_, series)| series.first().map(|&(_, v)| v))
            .collect();
        let min = firsts.iter().copied().fold(f64::INFINITY, f64::min);
        let max = firsts.iter().copied().fold(0.0, f64::max);
        assert!(
            max > min * 1.15,
            "expected placement-dependent spread, got {min}..{max}"
        );
    }

    #[test]
    fn every_console_reports_its_own_latency_series() {
        let cfg = HaloConfig::preset(EvalScale::Smoke);
        let report = run(&cfg);
        let clients: Vec<u32> = report.client_latency.iter().map(|&(c, _)| c).collect();
        assert_eq!(clients, (0..cfg.clients as u32).collect::<Vec<_>>());
        assert!(report.client_latency.iter().all(|(_, s)| !s.is_empty()));
    }

    #[test]
    fn scale_rule_stabilizes_latency_with_any_gem_count() {
        let mut tails = Vec::new();
        for gems in [1usize, 2, 4] {
            let r = run_scale(&HaloScaleConfig {
                gems,
                sessions: 24,
                routers: 12,
                router_servers: 4,
                clients: 48,
                run_for: SimDuration::from_secs(600),
                ..HaloScaleConfig::default()
            });
            assert!(r.migrations > 0, "{gems} GEMs migrated routers");
            tails.push(r.tail_ms);
        }
        // GEM count has only a small impact (Fig. 11c).
        let max = tails.iter().copied().fold(0.0, f64::max);
        let min = tails.iter().copied().fold(f64::INFINITY, f64::min);
        assert!(
            max / min < 1.3,
            "GEM counts should perform similarly: {tails:?}"
        );
    }
}
