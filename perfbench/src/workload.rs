//! The three benchmark workloads: their shapes, runtime configuration and
//! world builders.
//!
//! The application crates' `run()` functions build their own `Plasma`, so
//! the benchmark assembles each world itself from the public pieces the
//! apps export (policy text, schema, cascade weights, `WorkActor`). The
//! actor logic the apps keep private (E-Store roots and clients, the Media
//! Service actors) is restated here with the same work, payload and
//! message pattern.

use plasma::prelude::*;
use plasma_apps::common::WorkActor;
use plasma_apps::{estore, media};

/// A named benchmark workload.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// E-Store cascade skew at xl shape on the net backend: request
    /// traffic dominates.
    EstoreSkewNet,
    /// The same policy over a wide, quiet world on sim: EMR planning and
    /// the window roll dominate.
    EstoreWideSim,
    /// The Media Service join/leave wave on the live backend: the server
    /// set changes most rounds, so frames rebuild and placement runs.
    MediaChurnLive,
}

/// The seed every recorded number refers to.
pub const DEFAULT_SEED: u64 = 17;
/// A seed kept out of tuning, for checking later claims.
pub const HELD_OUT_SEED: u64 = 1009;

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 3] = [
        Workload::EstoreSkewNet,
        Workload::EstoreWideSim,
        Workload::MediaChurnLive,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::EstoreSkewNet => "estore-skew-net",
            Workload::EstoreWideSim => "estore-wide-sim",
            Workload::MediaChurnLive => "media-churn-live",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The carrier the workload runs on.
    pub fn backend(self) -> BackendKind {
        match self {
            Workload::EstoreSkewNet => BackendKind::Net,
            Workload::EstoreWideSim => BackendKind::Sim,
            Workload::MediaChurnLive => BackendKind::Live,
        }
    }

    /// SimBackend `decision_digest` at [`DEFAULT_SEED`] and full size.
    pub fn recorded_digest(self) -> u64 {
        match self {
            Workload::EstoreSkewNet => 0x4383_40b1_d258_2b58,
            Workload::EstoreWideSim => 0x0924_f47f_21ea_b542,
            Workload::MediaChurnLive => 0xd5ef_4e77_723a_e9ca,
        }
    }

    /// The workload's sizing; `reduced` is the small preset `check` uses.
    pub fn shape(self, reduced: bool) -> Shape {
        match (self, reduced) {
            (Workload::EstoreSkewNet, false) => Shape::estore(512, 384, 30, 220),
            (Workload::EstoreSkewNet, true) => Shape::estore(128, 96, 30, 120),
            (Workload::EstoreWideSim, false) => Shape::estore(8192, 16, 5, 300),
            (Workload::EstoreWideSim, true) => Shape::estore(1024, 16, 5, 60),
            (Workload::MediaChurnLive, false) => Shape {
                world: World::Media {
                    clients: 1024,
                    max_servers: 129,
                    join_mean_s: 120.0,
                    leave_mean_s: 1140.0,
                    sigma_s: 90.0,
                },
                period_s: 60,
                window_s: 10,
                run_s: 1440,
            },
            (Workload::MediaChurnLive, true) => Shape {
                world: World::Media {
                    clients: 128,
                    max_servers: 24,
                    join_mean_s: 60.0,
                    leave_mean_s: 300.0,
                    sigma_s: 30.0,
                },
                period_s: 60,
                window_s: 10,
                run_s: 600,
            },
        }
    }
}

/// What the world is made of.
#[derive(Clone, Debug)]
pub enum World {
    /// E-Store: `roots` root partitions with four children each on 16
    /// m1.small servers plus one spare, `clients` closed-loop clients
    /// with 50 ms think time over cascade skew 0.35.
    Estore { roots: usize, clients: usize },
    /// Media Service: `clients` join at ~N(join_mean, sigma) and leave at
    /// ~N(leave_mean, sigma); the EMR scales from 4 servers up to
    /// `max_servers`.
    Media {
        clients: usize,
        max_servers: usize,
        join_mean_s: f64,
        leave_mean_s: f64,
        sigma_s: f64,
    },
}

/// One workload's size and timing.
#[derive(Clone, Debug)]
pub struct Shape {
    pub world: World,
    /// Elasticity period.
    pub period_s: u64,
    /// Profiling window; the harness slices `run_until` at its boundaries.
    pub window_s: u64,
    /// Simulated run length, a whole number of windows.
    pub run_s: u64,
}

const ESTORE_SERVERS: usize = 16;
const ESTORE_CHILDREN: usize = 4;
const ESTORE_SKEW: f64 = 0.35;
const MEDIA_INITIAL_SERVERS: usize = 4;

impl Shape {
    fn estore(roots: usize, clients: usize, period_s: u64, run_s: u64) -> Shape {
        Shape {
            world: World::Estore { roots, clients },
            period_s,
            window_s: 5,
            run_s,
        }
    }

    /// Profiling windows in one run.
    pub fn windows(&self) -> u64 {
        self.run_s / self.window_s
    }

    /// The runtime configuration for `seed` on `backend`.
    pub fn runtime_config(&self, seed: u64, backend: BackendKind) -> RuntimeConfig {
        let period = SimDuration::from_secs(self.period_s);
        let window = SimDuration::from_secs(self.window_s);
        let base = RuntimeConfig {
            seed,
            elasticity_period: period,
            min_residency: period,
            profile_window: window,
            backend,
            ..RuntimeConfig::default()
        };
        match self.world {
            World::Estore { .. } => base,
            World::Media { max_servers, .. } => RuntimeConfig {
                latency_bucket: window,
                limits: ClusterLimits {
                    max_servers,
                    min_servers: MEDIA_INITIAL_SERVERS,
                },
                ..base
            },
        }
    }

    /// The EMR configuration.
    pub fn emr_config(&self) -> EmrConfig {
        match self.world {
            World::Estore { .. } => EmrConfig::default(),
            World::Media { .. } => EmrConfig {
                auto_scale: true,
                scale_instance: InstanceType::m1_small(),
                scale_out_step: 6,
                scale_in_step: 4,
                ..EmrConfig::default()
            },
        }
    }

    /// The policy source and the schema it compiles against.
    pub fn policy(&self) -> (&'static str, ActorSchema) {
        match self.world {
            World::Estore { .. } => (estore::policy(), estore::schema()),
            World::Media { .. } => (media::policy(), media::schema()),
        }
    }

    /// Adds the servers, actors and clients.
    pub fn build_world(&self, rt: &mut Runtime, seed: u64) {
        match self.world {
            World::Estore { roots, clients } => build_estore(rt, roots, clients),
            World::Media {
                clients,
                join_mean_s,
                leave_mean_s,
                sigma_s,
                ..
            } => build_media(rt, seed, clients, join_mean_s, leave_mean_s, sigma_s),
        }
    }
}

// ---------------------------------------------------------------------
// E-Store (§5.5).
// ---------------------------------------------------------------------

/// A root partition: does its share of the read, then forwards it to one
/// child, rotating.
struct Root {
    children: Vec<ActorId>,
    next: usize,
}

impl ActorLogic for Root {
    fn on_message(&mut self, ctx: &mut ActorCtx<'_>, _msg: &mut Message) {
        ctx.work(0.0018);
        let child = self.children[self.next % self.children.len()];
        self.next += 1;
        ctx.send(child, "read", 128);
    }
}

/// A closed-loop client drawing roots from the cascade-skew weights.
struct SkewClient {
    roots: Vec<ActorId>,
    weights: Vec<f64>,
}

impl SkewClient {
    fn fire(&mut self, ctx: &mut ClientCtx<'_>) {
        let i = ctx.rng().weighted_index(&self.weights);
        ctx.request(self.roots[i], "read", 96);
    }
}

impl ClientLogic for SkewClient {
    fn on_start(&mut self, ctx: &mut ClientCtx<'_>) {
        self.fire(ctx);
    }

    fn on_reply(&mut self, ctx: &mut ClientCtx<'_>, _: u64, _: SimDuration, _: Option<Payload>) {
        ctx.set_timer(SimDuration::from_millis(50), 0);
    }

    fn on_timer(&mut self, ctx: &mut ClientCtx<'_>, _token: u64) {
        self.fire(ctx);
    }
}

fn build_estore(rt: &mut Runtime, roots: usize, clients: usize) {
    let servers: Vec<ServerId> = (0..ESTORE_SERVERS)
        .map(|_| rt.add_server(InstanceType::m1_small()))
        .collect();
    // The elastic setup gets one spare instance (§5.5).
    rt.add_server(InstanceType::m1_small());
    let mut root_ids = Vec::with_capacity(roots);
    for i in 0..roots {
        let home = servers[i % servers.len()];
        let children: Vec<ActorId> = (0..ESTORE_CHILDREN)
            .map(|_| {
                rt.spawn_actor(
                    "Partition",
                    Box::new(replying(0.0012, 512)),
                    512 << 10,
                    home,
                )
            })
            .collect();
        let root = Root {
            children: children.clone(),
            next: 0,
        };
        let root = rt.spawn_actor("Partition", Box::new(root), 256 << 10, home);
        for &c in &children {
            rt.actor_add_ref(root, "children", c);
        }
        root_ids.push(root);
    }
    let weights = estore::cascade_weights(roots, ESTORE_SKEW);
    for _ in 0..clients {
        rt.add_client(Box::new(SkewClient {
            roots: root_ids.clone(),
            weights: weights.clone(),
        }));
    }
}

// ---------------------------------------------------------------------
// Media Service (§5.6).
// ---------------------------------------------------------------------

/// What a joining client gets back from the gateway.
struct Joined {
    frontend: ActorId,
    user_info: ActorId,
    user_review: ActorId,
    movie_review: ActorId,
    group: usize,
}

/// A leave request's payload.
struct Leaving {
    user_info: ActorId,
    user_review: ActorId,
    group: usize,
}

/// Per-request token naming the caller's own actors.
struct Token {
    user_info: ActorId,
    user_review: ActorId,
}

/// Actors shared by two consecutive clients.
#[derive(Clone, Copy)]
struct Group {
    frontend: ActorId,
    video: ActorId,
    editor: ActorId,
    checker: ActorId,
    movie_review: ActorId,
}

/// Creates each joining client's actors and tears them down on leave.
struct Gateway {
    joined: usize,
    /// Every shared group with the number of its members that left.
    groups: Vec<(Group, u8)>,
}

impl ActorLogic for Gateway {
    fn on_message(&mut self, ctx: &mut ActorCtx<'_>, msg: &mut Message) {
        ctx.work(0.001);
        if msg.fname == ctx.fn_id("leave") {
            if let Some(leaving) = msg.take_payload::<Leaving>() {
                ctx.despawn(leaving.user_info);
                ctx.despawn(leaving.user_review);
                if let Some((group, left)) = self.groups.get_mut(leaving.group) {
                    *left += 1;
                    if *left >= 2 {
                        for actor in [
                            group.frontend,
                            group.video,
                            group.editor,
                            group.checker,
                            group.movie_review,
                        ] {
                            ctx.despawn(actor);
                        }
                    }
                }
            }
            ctx.reply(16);
            return;
        }
        if self.joined.is_multiple_of(2) || self.groups.is_empty() {
            let video = ctx.spawn("VideoStream", Box::new(VideoStream), 48 << 20);
            let checker = ctx.spawn("ReviewChecker", Box::new(replying(0.035, 1 << 10)), 8 << 20);
            let movie_review = ctx.spawn(
                "MovieReview",
                Box::new(replying(0.002, 16 << 10)),
                192 << 20,
            );
            let editor = ctx.spawn("ReviewEditor", Box::new(Editor { checker }), 4 << 20);
            let frontend = ctx.spawn("FrontEnd", Box::new(FrontEnd { video, editor }), 4 << 20);
            let group = Group {
                frontend,
                video,
                editor,
                checker,
                movie_review,
            };
            self.groups.push((group, 0));
        }
        self.joined += 1;
        let group_index = self.groups.len() - 1;
        let group = self.groups[group_index].0;
        let user_info = ctx.spawn("UserInfo", Box::new(UserStore { work: 0.0004 }), 2 << 20);
        let user_review = ctx.spawn("UserReview", Box::new(UserStore { work: 0.0005 }), 2 << 20);
        let joined = Joined {
            frontend: group.frontend,
            user_info,
            user_review,
            movie_review: group.movie_review,
            group: group_index,
        };
        ctx.reply_with(128, Box::new(joined));
    }
}

fn replying(work: f64, reply_bytes: u64) -> WorkActor {
    WorkActor { work, reply_bytes }
}

/// Routes watches to the video stream and reviews to the editor, and
/// relays encoded streams back to the client.
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
            ctx.work(0.001);
            ctx.reply(msg.bytes);
        }
    }
}

/// Encodes a chunk, tracks the viewer, and ships the chunk back through
/// the front end.
struct VideoStream;

impl ActorLogic for VideoStream {
    fn on_message(&mut self, ctx: &mut ActorCtx<'_>, msg: &mut Message) {
        ctx.work(0.09);
        if let Some(token) = msg.take_payload::<Token>() {
            ctx.send_detached(token.user_info, "track", 256);
        }
        if let Some(frontend) = msg.from_actor {
            ctx.send(frontend, "deliver", 400 << 10);
        }
    }
}

/// A per-user store: fixed work per update, no reply.
struct UserStore {
    work: f64,
}

impl ActorLogic for UserStore {
    fn on_message(&mut self, ctx: &mut ActorCtx<'_>, _msg: &mut Message) {
        ctx.work(self.work);
    }
}

/// Updates the reviewer's store, then hands the review to the checker.
struct Editor {
    checker: ActorId,
}

impl ActorLogic for Editor {
    fn on_message(&mut self, ctx: &mut ActorCtx<'_>, msg: &mut Message) {
        ctx.work(0.002);
        if let Some(token) = msg.take_payload::<Token>() {
            ctx.send_detached(token.user_review, "update", 1 << 10);
        }
        ctx.send(self.checker, "check", 2 << 10);
    }
}

const TOKEN_JOIN: u64 = 1;
const TOKEN_NEXT: u64 = 2;

/// A user: joins at `join_at`, alternates watches and reviews (every
/// tenth request browses the movie reviews) with 800 ms think time, and
/// leaves once past `leave_at`.
struct MediaClient {
    gateway: ActorId,
    ids: Option<Joined>,
    join_at: SimDuration,
    leave_at: SimDuration,
    requests: u64,
    left: bool,
}

impl MediaClient {
    fn fire(&mut self, ctx: &mut ClientCtx<'_>) {
        let Some(ids) = &self.ids else { return };
        if ctx.now() >= SimTime::ZERO + self.leave_at {
            if !self.left {
                self.left = true;
                let leaving = Leaving {
                    user_info: ids.user_info,
                    user_review: ids.user_review,
                    group: ids.group,
                };
                ctx.request_with(self.gateway, "leave", 64, Box::new(leaving));
            }
            return;
        }
        self.requests += 1;
        let token = Box::new(Token {
            user_info: ids.user_info,
            user_review: ids.user_review,
        });
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
        _: u64,
        _: SimDuration,
        payload: Option<Payload>,
    ) {
        if let Some(ids) = payload.and_then(|p| p.downcast::<Joined>().ok()) {
            self.ids = Some(*ids);
        }
        if !self.left {
            ctx.set_timer(SimDuration::from_millis(800), TOKEN_NEXT);
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

fn build_media(
    rt: &mut Runtime,
    seed: u64,
    clients: usize,
    join_mean_s: f64,
    leave_mean_s: f64,
    sigma_s: f64,
) {
    let first = rt.add_server(InstanceType::m1_small());
    for _ in 1..MEDIA_INITIAL_SERVERS {
        rt.add_server(InstanceType::m1_small());
    }
    let gateway = Gateway {
        joined: 0,
        groups: Vec::new(),
    };
    let gateway = rt.spawn_actor("Gateway", Box::new(gateway), 1 << 20, first);
    let mut rng = DetRng::new(seed ^ 0x5EED);
    for _ in 0..clients {
        let join_at = rng.normal(join_mean_s, sigma_s).max(0.0);
        let leave_at = rng.normal(leave_mean_s, sigma_s).max(join_at + 60.0);
        rt.add_client(Box::new(MediaClient {
            gateway,
            ids: None,
            join_at: SimDuration::from_secs_f64(join_at),
            leave_at: SimDuration::from_secs_f64(leave_at),
            requests: 0,
            left: false,
        }));
    }
}
