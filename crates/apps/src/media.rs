//! The Media Service microservice application (§3.3, §5.6, Fig. 10).
//!
//! Eight interdependent actor types serve two user journeys:
//!
//! - **watch**: client -> `FrontEnd` -> `VideoStream` (CPU-heavy stream
//!   encode, plus a `track` update to the user's `UserInfo`) -> the stream
//!   flows back through the `FrontEnd` (making front-ends
//!   network-intensive) -> client.
//! - **review**: client -> `FrontEnd` -> `ReviewEditor` (updates the
//!   user's `UserReview`) -> `ReviewChecker` (CPU-heavy moderation) ->
//!   client. `MovieReview` actors are large in-memory stores browsed
//!   occasionally and must never migrate.
//!
//! A `Gateway` actor creates the per-user actors as clients join. Clients
//! join over the first ten minutes (normal distribution), stay a few
//! minutes, and leave (§5.6); the EMR grows the cluster from 4 instances
//! while the wave builds and reclaims servers as it recedes. The
//! experiment sweeps the elasticity period (60/120/180 s): shorter periods
//! track the wave more closely (Fig. 10).

use plasma::prelude::*;
use plasma_sim::SimTime;

use crate::common::{ElasticityEval, EvalScale};

/// Schema for the Media Service policy.
pub fn schema() -> ActorSchema {
    let mut schema = ActorSchema::new();
    schema.actor_type("Gateway").func("join").func("leave");
    schema.actor_type("FrontEnd").func("watch").func("review");
    schema.actor_type("VideoStream").func("stream");
    schema.actor_type("UserInfo").func("track");
    schema.actor_type("ReviewEditor").func("edit");
    schema.actor_type("UserReview").func("update");
    schema.actor_type("ReviewChecker").func("check");
    schema.actor_type("MovieReview").func("browse");
    schema
}

/// The six §3.3 Media Service rules, verbatim.
pub fn policy() -> &'static str {
    "server.net.perc > 80 or server.net.perc < 60 => balance({FrontEnd}, net);\n\
     server.cpu.perc > 50 => reserve(VideoStream(v), cpu);\n\
     VideoStream(v).call(UserInfo(u).track).count > 0 => pin(v); colocate(v, u);\n\
     ReviewEditor(r).call(UserReview(u).update).count > 0 => pin(r); colocate(r, u);\n\
     true => pin(MovieReview(m));\n\
     server.cpu.perc > 90 or server.cpu.perc < 70 => balance({ReviewChecker}, cpu);"
}

/// Media Service experiment configuration (§5.6 defaults).
#[derive(Clone, Debug)]
pub struct MediaConfig {
    /// Total clients (128 in the paper).
    pub clients: usize,
    /// Initial servers (4 in the paper).
    pub initial_servers: usize,
    /// Cluster ceiling (65 in the paper).
    pub max_servers: usize,
    /// Elasticity period (60/120/180 s in Fig. 10).
    pub period: SimDuration,
    /// Mean join time.
    pub join_mean: SimDuration,
    /// Join/leave standard deviation (90 s in the paper).
    pub sigma: SimDuration,
    /// Mean leave time (19 min in the paper).
    pub leave_mean: SimDuration,
    /// Total run length.
    pub run_for: SimDuration,
    /// Execution backend carrying deliveries and service time.
    pub backend: BackendKind,
    /// RNG seed.
    pub seed: u64,
}

impl Default for MediaConfig {
    fn default() -> Self {
        MediaConfig {
            clients: 128,
            initial_servers: 4,
            max_servers: 65,
            period: SimDuration::from_secs(60),
            join_mean: SimDuration::from_secs(120),
            sigma: SimDuration::from_secs(90),
            leave_mean: SimDuration::from_secs(1_140),
            run_for: SimDuration::from_secs(1_440),
            backend: BackendKind::Sim,
            seed: 31,
        }
    }
}

impl MediaConfig {
    /// The evaluation-harness preset at the given scale.
    pub fn preset(scale: EvalScale) -> Self {
        match scale {
            EvalScale::Full => MediaConfig::default(),
            EvalScale::Smoke => MediaConfig {
                clients: 32,
                max_servers: 20,
                join_mean: SimDuration::from_secs(60),
                sigma: SimDuration::from_secs(30),
                leave_mean: SimDuration::from_secs(300),
                run_for: SimDuration::from_secs(600),
                ..MediaConfig::default()
            },
            EvalScale::Xl => MediaConfig {
                clients: 1024,
                max_servers: 129,
                ..MediaConfig::default()
            },
        }
    }
}

/// Results of one Media Service run.
#[derive(Debug)]
pub struct MediaReport {
    /// Mean latency per 10-second bucket (Fig. 10a).
    pub latency_series: Vec<(f64, f64)>,
    /// Running-server count over time (Fig. 10b).
    pub server_series: Vec<(f64, f64)>,
    /// Mean latency during the full-load plateau.
    pub plateau_ms: f64,
    /// Mean latency over the whole run.
    pub mean_ms: f64,
    /// Peak server count.
    pub peak_servers: usize,
    /// Running servers at the end of the run (reclaim effectiveness).
    pub final_servers: usize,
    /// Migrations performed.
    pub migrations: usize,
    /// Per-type `(name, actors, distinct servers, on busiest server)` at
    /// the end of the run.
    pub type_spread: Vec<(String, usize, usize, usize)>,
    /// EMR admission counters `(admitted, rejected)`.
    pub emr_actions: (u64, u64),
    /// Scenario-independent elasticity stats.
    pub eval: ElasticityEval,
}

/// Ids a joining client receives from the gateway.
struct MediaIds {
    frontend: ActorId,
    user_info: ActorId,
    user_review: ActorId,
    movie_review: ActorId,
    group: usize,
}

/// Leave notification payload.
struct Leaving {
    user_info: ActorId,
    user_review: ActorId,
    group: usize,
}

/// Per-request token identifying the caller's user actors.
struct Token {
    user_info: ActorId,
    user_review: ActorId,
}

/// Shared actors serving two consecutive clients.
struct SharedGroup {
    frontend: ActorId,
    video: ActorId,
    editor: ActorId,
    checker: ActorId,
    movie_review: ActorId,
}

struct Gateway {
    joined: usize,
    group: Option<SharedGroup>,
    groups: Vec<(SharedGroup, u8)>,
}

impl ActorLogic for Gateway {
    fn on_message(&mut self, ctx: &mut ActorCtx<'_>, msg: &mut Message) {
        ctx.work(0.001);
        if msg.fname == ctx.fn_id("leave") {
            // Tear down the departing user's actors; shared groups go when
            // their second member leaves.
            if let Some(leaving) = msg.take_payload::<Leaving>() {
                ctx.despawn(leaving.user_info);
                ctx.despawn(leaving.user_review);
                if let Some((group, left)) = self.groups.get_mut(leaving.group) {
                    *left += 1;
                    if *left >= 2 {
                        ctx.despawn(group.frontend);
                        ctx.despawn(group.video);
                        ctx.despawn(group.editor);
                        ctx.despawn(group.checker);
                        ctx.despawn(group.movie_review);
                    }
                }
            }
            ctx.reply(16);
            return;
        }
        // Every other client opens a fresh shared group ("all other actors
        // serve two clients each", §5.6).
        if self.joined.is_multiple_of(2) || self.group.is_none() {
            let video = ctx.spawn(
                "VideoStream",
                Box::new(VideoStream { work: 0.09 }),
                48 << 20,
            );
            let checker = ctx.spawn(
                "ReviewChecker",
                Box::new(ReviewChecker { work: 0.035 }),
                8 << 20,
            );
            let movie_review = ctx.spawn(
                "MovieReview",
                Box::new(MovieReview { work: 0.002 }),
                192 << 20,
            );
            let editor = ctx.spawn("ReviewEditor", Box::new(ReviewEditor { checker }), 4 << 20);
            let frontend = ctx.spawn("FrontEnd", Box::new(FrontEnd { video, editor }), 4 << 20);
            let group = SharedGroup {
                frontend,
                video,
                editor,
                checker,
                movie_review,
            };
            self.groups.push((
                SharedGroup {
                    frontend: group.frontend,
                    video: group.video,
                    editor: group.editor,
                    checker: group.checker,
                    movie_review: group.movie_review,
                },
                0,
            ));
            self.group = Some(group);
        }
        self.joined += 1;
        let group_index = self.groups.len() - 1;
        let group = self.group.as_ref().expect("group exists");
        let user_info = ctx.spawn("UserInfo", Box::new(UserInfo), 2 << 20);
        let user_review = ctx.spawn("UserReview", Box::new(UserReview), 2 << 20);
        ctx.reply_with(
            128,
            Box::new(MediaIds {
                frontend: group.frontend,
                user_info,
                user_review,
                movie_review: group.movie_review,
                group: group_index,
            }),
        );
    }
}

struct FrontEnd {
    video: ActorId,
    editor: ActorId,
}

impl ActorLogic for FrontEnd {
    fn on_message(&mut self, ctx: &mut ActorCtx<'_>, msg: &mut Message) {
        if msg.fname == ctx.fn_id("watch") {
            ctx.work(0.002);
            if let Some(token) = msg.take_payload::<Token>() {
                ctx.send_with(self.video, "stream", 4 << 10, token);
            }
        } else if msg.fname == ctx.fn_id("review") {
            ctx.work(0.001);
            if let Some(token) = msg.take_payload::<Token>() {
                ctx.send_with(self.editor, "edit", 2 << 10, token);
            }
        } else if msg.fname == ctx.fn_id("deliver") {
            // The encoded stream flows back through the front end; this is
            // what makes front ends network-intensive.
            ctx.work(0.001);
            ctx.reply(msg.bytes);
        }
    }
}

struct VideoStream {
    work: f64,
}

impl ActorLogic for VideoStream {
    fn on_message(&mut self, ctx: &mut ActorCtx<'_>, msg: &mut Message) {
        ctx.work(self.work);
        if let Some(token) = msg.take_payload::<Token>() {
            // Update the viewer's watching history (drives the colocate
            // rule binding v to u).
            ctx.send_detached(token.user_info, "track", 256);
        }
        // Ship the encoded chunk back via the front end.
        if let Some(frontend) = msg.from_actor {
            ctx.send(frontend, "deliver", 400 << 10);
        }
    }
}

struct UserInfo;
impl ActorLogic for UserInfo {
    fn on_message(&mut self, ctx: &mut ActorCtx<'_>, _msg: &mut Message) {
        ctx.work(0.0004);
    }
}

struct ReviewEditor {
    checker: ActorId,
}

impl ActorLogic for ReviewEditor {
    fn on_message(&mut self, ctx: &mut ActorCtx<'_>, msg: &mut Message) {
        ctx.work(0.002);
        if let Some(token) = msg.take_payload::<Token>() {
            ctx.send_detached(token.user_review, "update", 1 << 10);
        }
        ctx.send(self.checker, "check", 2 << 10);
    }
}

struct UserReview;
impl ActorLogic for UserReview {
    fn on_message(&mut self, ctx: &mut ActorCtx<'_>, _msg: &mut Message) {
        ctx.work(0.0005);
    }
}

struct ReviewChecker {
    work: f64,
}

impl ActorLogic for ReviewChecker {
    fn on_message(&mut self, ctx: &mut ActorCtx<'_>, _msg: &mut Message) {
        ctx.work(self.work);
        ctx.reply(1 << 10);
    }
}

struct MovieReview {
    work: f64,
}

impl ActorLogic for MovieReview {
    fn on_message(&mut self, ctx: &mut ActorCtx<'_>, _msg: &mut Message) {
        ctx.work(self.work);
        ctx.reply(16 << 10);
    }
}

const TOKEN_JOIN: u64 = 1;
const TOKEN_NEXT: u64 = 2;

struct MediaClient {
    gateway: ActorId,
    ids: Option<MediaIds>,
    join_at: SimDuration,
    leave_at: SimDuration,
    think: SimDuration,
    requests: u64,
    left: bool,
}

impl MediaClient {
    fn fire(&mut self, ctx: &mut ClientCtx<'_>) {
        let Some(ids) = &self.ids else { return };
        if ctx.now() >= SimTime::ZERO + self.leave_at {
            if !self.left {
                self.left = true;
                ctx.record("media.leave", 1.0);
                ctx.request_with(
                    self.gateway,
                    "leave",
                    64,
                    Box::new(Leaving {
                        user_info: ids.user_info,
                        user_review: ids.user_review,
                        group: ids.group,
                    }),
                );
            }
            return;
        }
        self.requests += 1;
        let token = Box::new(Token {
            user_info: ids.user_info,
            user_review: ids.user_review,
        });
        // Half the requests watch movies, half review them (§5.6), with an
        // occasional direct browse of the memory-heavy MovieReview store.
        if self.requests.is_multiple_of(10) {
            ctx.request(ids.movie_review, "browse", 1 << 10);
        } else if self.requests.is_multiple_of(2) {
            ctx.request_with(ids.frontend, "watch", 8 << 10, token);
        } else {
            ctx.request_with(ids.frontend, "review", 4 << 10, token);
        }
    }
}

impl ClientLogic for MediaClient {
    fn on_start(&mut self, ctx: &mut ClientCtx<'_>) {
        ctx.set_timer(self.join_at, TOKEN_JOIN);
    }

    fn on_reply(
        &mut self,
        ctx: &mut ClientCtx<'_>,
        _request: u64,
        _latency: SimDuration,
        payload: Option<Payload>,
    ) {
        if let Some(ids) = payload.and_then(|p| p.downcast::<MediaIds>().ok()) {
            self.ids = Some(*ids);
            ctx.record("media.join", 1.0);
        }
        if !self.left {
            ctx.set_timer(self.think, TOKEN_NEXT);
        }
    }

    fn on_timer(&mut self, ctx: &mut ClientCtx<'_>, token: u64) {
        match token {
            TOKEN_JOIN => {
                ctx.request(self.gateway, "join", 256);
            }
            TOKEN_NEXT => self.fire(ctx),
            _ => {}
        }
    }
}

/// Runs the Media Service experiment.
pub fn run(cfg: &MediaConfig) -> MediaReport {
    let runtime_cfg = RuntimeConfig {
        seed: cfg.seed,
        elasticity_period: cfg.period,
        min_residency: cfg.period,
        profile_window: SimDuration::from_secs(10),
        latency_bucket: SimDuration::from_secs(10),
        limits: ClusterLimits {
            max_servers: cfg.max_servers,
            min_servers: cfg.initial_servers,
        },
        backend: cfg.backend,
        ..RuntimeConfig::default()
    };
    let mut app = Plasma::builder()
        .runtime_config(runtime_cfg)
        .emr_config(EmrConfig {
            auto_scale: true,
            scale_instance: InstanceType::m1_small(),
            scale_out_step: 6,
            scale_in_step: 4,
            ..EmrConfig::default()
        })
        .policy(policy(), &schema())
        .build()
        .expect("media policy compiles");
    let rt = app.runtime_mut();
    let first = rt.add_server(InstanceType::m1_small());
    for _ in 1..cfg.initial_servers {
        rt.add_server(InstanceType::m1_small());
    }
    let gateway = rt.spawn_actor(
        "Gateway",
        Box::new(Gateway {
            joined: 0,
            group: None,
            groups: Vec::new(),
        }),
        1 << 20,
        first,
    );
    let mut rng = DetRng::new(cfg.seed ^ 0x5EED);
    for _ in 0..cfg.clients {
        let join_at = rng
            .normal(cfg.join_mean.as_secs_f64(), cfg.sigma.as_secs_f64())
            .max(0.0);
        let leave_at = rng
            .normal(cfg.leave_mean.as_secs_f64(), cfg.sigma.as_secs_f64())
            .max(join_at + 60.0);
        rt.add_client(Box::new(MediaClient {
            gateway,
            ids: None,
            join_at: SimDuration::from_secs_f64(join_at),
            leave_at: SimDuration::from_secs_f64(leave_at),
            think: SimDuration::from_millis(800),
            requests: 0,
            left: false,
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
    let server_series: Vec<(f64, f64)> = app
        .runtime()
        .cluster()
        .server_count_series()
        .points()
        .iter()
        .map(|&(t, v)| (t.as_secs_f64(), v))
        .collect();
    // Plateau: everyone joined, nobody left yet (minutes 10-14).
    let plateau: Vec<f64> = latency_series
        .iter()
        .filter(|&&(t, _)| (600.0..840.0).contains(&t))
        .map(|&(_, v)| v)
        .collect();
    // Per-type placement spread.
    let rt = app.runtime();
    let mut by_type: std::collections::BTreeMap<String, Vec<ServerId>> = Default::default();
    for a in rt.all_actors() {
        let name = rt.names().type_name(rt.actor_type(a)).to_string();
        by_type.entry(name).or_default().push(rt.actor_server(a));
    }
    let type_spread: Vec<(String, usize, usize, usize)> = by_type
        .into_iter()
        .map(|(name, servers)| {
            let mut counts: std::collections::BTreeMap<ServerId, usize> = Default::default();
            for s in &servers {
                *counts.entry(*s).or_default() += 1;
            }
            let distinct = counts.len();
            let busiest = counts.values().copied().max().unwrap_or(0);
            (name, servers.len(), distinct, busiest)
        })
        .collect();
    let emr_actions = (
        report.scalar("emr.admitted").unwrap_or(0.0) as u64,
        report.scalar("emr.rejected").unwrap_or(0.0) as u64,
    );
    MediaReport {
        type_spread,
        emr_actions,
        eval: ElasticityEval::collect(app.runtime()),
        plateau_ms: if plateau.is_empty() {
            0.0
        } else {
            plateau.iter().sum::<f64>() / plateau.len() as f64
        },
        mean_ms: report.mean_latency_ms(),
        peak_servers: server_series
            .iter()
            .map(|&(_, v)| v as usize)
            .max()
            .unwrap_or(0),
        final_servers: app.runtime().cluster().running_count(),
        migrations: report.migrations.len(),
        latency_series,
        server_series,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(period: u64) -> MediaReport {
        run(&MediaConfig {
            clients: 96,
            max_servers: 48,
            period: SimDuration::from_secs(period),
            ..MediaConfig::default()
        })
    }

    #[test]
    fn service_scales_out_and_back() {
        let r = quick(60);
        assert!(r.peak_servers > 8, "scaled out, peak {}", r.peak_servers);
        assert!(
            r.final_servers < r.peak_servers,
            "reclaimed servers: final {} < peak {}",
            r.final_servers,
            r.peak_servers
        );
        assert!(r.migrations > 0);
    }

    #[test]
    fn shorter_period_reacts_faster_and_lower_latency() {
        let fast = quick(60);
        let slow = quick(180);
        // The period's effect shows while the wave builds (the paper's
        // Fig. 10a gap): compare the ramp window.
        let ramp = |r: &MediaReport| {
            let vals: Vec<f64> = r
                .latency_series
                .iter()
                .filter(|&&(t, _)| (100.0..600.0).contains(&t))
                .map(|&(_, v)| v)
                .collect();
            vals.iter().sum::<f64>() / vals.len().max(1) as f64
        };
        assert!(
            ramp(&fast) < ramp(&slow) * 1.02,
            "60s period should not lose to 180s during the ramp: {} vs {}",
            ramp(&fast),
            ramp(&slow)
        );
        // The short period reaches its peak allocation earlier.
        let peak_time = |r: &MediaReport| {
            let peak = r
                .server_series
                .iter()
                .map(|&(_, v)| v as usize)
                .max()
                .unwrap_or(0);
            r.server_series
                .iter()
                .find(|&&(_, v)| v as usize == peak)
                .map(|&(t, _)| t)
                .unwrap_or(f64::MAX)
        };
        assert!(
            peak_time(&fast) <= peak_time(&slow),
            "fast {} vs slow {}",
            peak_time(&fast),
            peak_time(&slow)
        );
    }

    #[test]
    fn movie_reviews_never_migrate() {
        let r = quick(60);
        // MovieReview is pinned by rule 5; the report cannot tell types, but
        // a pinned actor never appears in migrations - verified indirectly
        // by re-running with access to the runtime.
        let _ = r;
        let mut app = Plasma::builder()
            .policy(policy(), &schema())
            .build()
            .unwrap();
        let rt = app.runtime_mut();
        let s = rt.add_server(InstanceType::m1_small());
        let gw = rt.spawn_actor(
            "Gateway",
            Box::new(Gateway {
                joined: 0,
                group: None,
                groups: Vec::new(),
            }),
            1 << 20,
            s,
        );
        rt.inject(gw, "join", 64, None);
        app.run_until(SimTime::from_secs(120));
        let rt = app.runtime();
        let mr_type = rt.names().lookup_type("MovieReview").unwrap();
        let pinned: Vec<bool> = rt
            .all_actors()
            .into_iter()
            .filter(|&a| rt.actor_type(a) == mr_type)
            .map(|a| rt.is_pinned(a))
            .collect();
        assert!(!pinned.is_empty());
        assert!(pinned.iter().all(|&p| p), "every MovieReview pinned");
    }
}
