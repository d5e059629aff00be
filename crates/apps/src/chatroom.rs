//! The chat-room microbenchmark (§5.2, Table 3).
//!
//! Users, each represented by an actor, exchange messages within one room:
//! a `say` request costs CPU at the speaking user and fans out to every
//! other user in the room, whose `recv` handlers cost CPU too. All actors
//! sit on a single server and clients saturate it, so the measured makespan
//! is CPU-bound — exactly the regime in which Table 3 quantifies the EPR's
//! profiling tax.

use plasma::prelude::*;
use plasma_sim::SimTime;

use crate::common::{ChaosEval, ClosedLoop, ElasticityEval, EvalScale, Pulse};

/// The EPL-visible schema (no rules are attached in the overhead study;
/// actors must stay stationary as in the paper).
pub fn schema() -> ActorSchema {
    let mut schema = ActorSchema::new();
    schema.actor_type("ChatUser").func("say").func("recv");
    schema
}

/// Chat-room experiment configuration.
#[derive(Clone, Debug)]
pub struct ChatConfig {
    /// Number of users (8/16/32 in Table 3).
    pub users: usize,
    /// Hosting instance (`m1.small` = `s`, `m1.medium` = `m` in Table 3).
    pub instance: InstanceType,
    /// Messages each user sends before finishing.
    pub messages_per_user: u64,
    /// Whether the profiling runtime (EPR) is enabled.
    pub epr_enabled: bool,
    /// Servers hosting the room (users spread round-robin). The paper's
    /// overhead study uses 1; the chaos variant spreads the room so a
    /// crash orphans only part of it.
    pub servers: usize,
    /// Faults injected during the run (empty = none, byte-identical runs).
    pub faults: FaultPlan,
    /// Detection and recovery policy for the fault plan.
    pub recovery: RecoveryPolicy,
    /// Execution backend carrying deliveries and service time.
    pub backend: BackendKind,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ChatConfig {
    fn default() -> Self {
        ChatConfig {
            users: 8,
            instance: InstanceType::m1_small(),
            messages_per_user: 200,
            epr_enabled: true,
            servers: 1,
            faults: FaultPlan::new(),
            recovery: RecoveryPolicy::default(),
            backend: BackendKind::Sim,
            seed: 1,
        }
    }
}

impl ChatConfig {
    /// The evaluation-harness preset at the given scale.
    pub fn preset(scale: EvalScale) -> Self {
        match scale {
            EvalScale::Full => ChatConfig::default(),
            EvalScale::Smoke => ChatConfig {
                users: 4,
                messages_per_user: 50,
                ..ChatConfig::default()
            },
            EvalScale::Xl => ChatConfig {
                users: 128,
                servers: 8,
                ..ChatConfig::default()
            },
        }
    }

    /// The chaos-variant preset: the room spreads over several servers and
    /// the plan crashes two of them — one rebooting before the heartbeat
    /// sweep notices (in-place recovery), one detected and respawned onto
    /// the survivors — plus a LEM crash and a provisioner stall.
    pub fn chaos_preset(scale: EvalScale) -> Self {
        let faults = FaultPlan::new()
            .crash_lem(SimTime::from_secs(10), ServerId(0))
            .crash_server(
                SimTime::from_secs(20),
                ServerId(1),
                Some(SimDuration::from_secs(5)),
            )
            .stall_provisioner(SimTime::from_secs(35), SimDuration::from_secs(10))
            .crash_server(SimTime::from_secs(50), ServerId(2), None);
        match scale {
            EvalScale::Full => ChatConfig {
                users: 16,
                servers: 4,
                faults,
                seed: 31,
                ..ChatConfig::default()
            },
            EvalScale::Smoke => ChatConfig {
                users: 6,
                servers: 3,
                faults,
                seed: 31,
                ..ChatConfig::default()
            },
            // The chaos plan targets fixed server ids; xl reuses the full
            // topology rather than scaling past the fault plan's reach.
            EvalScale::Xl => ChatConfig {
                users: 16,
                servers: 4,
                faults,
                seed: 31,
                ..ChatConfig::default()
            },
        }
    }
}

/// Results of one chat-room run.
#[derive(Clone, Copy, Debug)]
pub struct ChatReport {
    /// Time until every user finished sending and receiving replies.
    pub makespan: SimDuration,
    /// Mean end-to-end `say` latency in milliseconds.
    pub mean_latency_ms: f64,
    /// Scenario-independent elasticity stats.
    pub eval: ElasticityEval,
}

struct ChatUser {
    peers: Vec<ActorId>,
    say_work: f64,
    recv_work: f64,
}

impl ActorLogic for ChatUser {
    fn on_message(&mut self, ctx: &mut ActorCtx<'_>, msg: &mut Message) {
        if msg.fname == ctx.fn_id("say") {
            ctx.work(self.say_work);
            for &p in &self.peers {
                ctx.send_detached(p, "recv", 48);
            }
            ctx.reply(16);
        } else {
            ctx.work(self.recv_work);
        }
    }
}

/// A chat client that marks its completion time in the report.
struct ChatClient {
    inner: ClosedLoop,
}

impl ClientLogic for ChatClient {
    fn on_start(&mut self, ctx: &mut ClientCtx<'_>) {
        self.inner.on_start(ctx);
    }

    fn on_reply(
        &mut self,
        ctx: &mut ClientCtx<'_>,
        request: u64,
        latency: SimDuration,
        payload: Option<Payload>,
    ) {
        self.inner.on_reply(ctx, request, latency, payload);
        if self.inner.sent == self.inner.max_requests {
            ctx.record("chat.client_done", ctx.now().as_secs_f64());
        }
    }

    fn on_timer(&mut self, ctx: &mut ClientCtx<'_>, token: u64) {
        self.inner.on_timer(ctx, token);
    }
}

/// Builds the room: the runtime with `cfg`'s fault plan, its servers, and
/// every user actor with its peers and `room` refs, spread round-robin.
/// Returns the runtime and the users' ids.
fn room(cfg: &ChatConfig) -> (Runtime, Vec<ActorId>) {
    let mut rt = Runtime::new(RuntimeConfig {
        seed: cfg.seed,
        epr_enabled: cfg.epr_enabled,
        backend: cfg.backend,
        ..RuntimeConfig::default()
    });
    rt.install_fault_plan(&cfg.faults, cfg.recovery);
    let servers: Vec<ServerId> = (0..cfg.servers.max(1))
        .map(|_| rt.add_server(cfg.instance.clone()))
        .collect();
    // Actor ids are assigned sequentially from zero, so the full room
    // membership is known before the first spawn.
    let ids: Vec<ActorId> = (0..cfg.users as u64).map(ActorId).collect();
    for i in 0..cfg.users {
        let peers: Vec<ActorId> = ids
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != i)
            .map(|(_, &p)| p)
            .collect();
        let id = rt.spawn_actor(
            "ChatUser",
            Box::new(ChatUser {
                peers: peers.clone(),
                say_work: 0.0015,
                recv_work: 0.0002,
            }),
            16 << 10,
            servers[i % servers.len()],
        );
        assert_eq!(id, ids[i], "deterministic id assignment");
        for p in peers {
            rt.actor_add_ref(id, "room", p);
        }
    }
    (rt, ids)
}

/// Runs the chat room and returns its makespan and mean latency.
pub fn run(cfg: &ChatConfig) -> ChatReport {
    let (mut rt, ids) = room(cfg);
    for &u in &ids {
        rt.add_client(Box::new(ChatClient {
            inner: ClosedLoop {
                target: u,
                fname: "say",
                bytes: 128,
                think: SimDuration::ZERO,
                max_requests: cfg.messages_per_user,
                sent: 0,
            },
        }));
    }
    rt.run_until(SimTime::from_secs(3_600));
    let makespan = rt
        .report()
        .series("chat.client_done")
        .and_then(|s| s.points().iter().map(|&(t, _)| t).max())
        .map(|t| t.saturating_since(SimTime::ZERO))
        .unwrap_or(SimDuration::MAX);
    // The run idles on to the 3,600 s cap after the last user is done, so
    // the room's rates are taken over its makespan.
    let mut eval = ElasticityEval::collect(&rt);
    if makespan != SimDuration::MAX {
        eval.rate_over(makespan.as_secs_f64());
    }
    ChatReport {
        makespan,
        mean_latency_ms: rt.report().mean_latency_ms(),
        eval,
    }
}

/// Results of one chat-room chaos run.
#[derive(Clone, Copy, Debug)]
pub struct ChatChaosReport {
    /// Replies delivered to the open-loop clients.
    pub replies: u64,
    /// Scenario-independent elasticity stats.
    pub eval: ElasticityEval,
    /// Recovery metrics from the fault plan.
    pub chaos: ChaosEval,
}

/// Runs the chat room under the configured fault plan for `run_for`.
///
/// Clients here are open-loop ([`Pulse`]): a crash may swallow replies, and
/// a closed loop would deadlock waiting for them. The room spreads over
/// `cfg.servers`, so crashing one server orphans only its share of users;
/// the heartbeat sweep (or an early reboot) brings them back.
pub fn run_chaos(cfg: &ChatConfig, run_for: SimDuration) -> ChatChaosReport {
    let (mut rt, ids) = room(cfg);
    for &u in &ids {
        rt.add_client(Box::new(Pulse {
            target: u,
            fname: "say",
            bytes: 128,
            period: SimDuration::from_millis(250),
        }));
    }
    rt.run_until(SimTime::ZERO + run_for);
    ChatChaosReport {
        replies: rt.report().replies,
        eval: ElasticityEval::collect(&rt),
        chaos: ChaosEval::collect(&rt),
    }
}

/// Runs the Table-3 comparison: normalized execution time with profiling
/// enabled over profiling disabled (1.0 = no overhead).
pub fn normalized_overhead(users: usize, instance: InstanceType, seed: u64) -> f64 {
    let base = ChatConfig {
        users,
        instance,
        messages_per_user: 150,
        epr_enabled: false,
        seed,
        ..ChatConfig::default()
    };
    let with_epr = ChatConfig {
        epr_enabled: true,
        ..base.clone()
    };
    let t_off = run(&base).makespan.as_secs_f64();
    let t_on = run(&with_epr).makespan.as_secs_f64();
    t_on / t_off
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chat_room_completes() {
        let report = run(&ChatConfig {
            users: 4,
            messages_per_user: 20,
            ..ChatConfig::default()
        });
        assert!(report.makespan < SimDuration::from_secs(3_600));
        assert!(report.mean_latency_ms > 0.0);
    }

    #[test]
    fn rates_are_taken_over_the_makespan() {
        let report = run(&ChatConfig::preset(EvalScale::Smoke));
        let eval = report.eval;
        assert_eq!(eval.run_secs, report.makespan.as_secs_f64());
        assert!(eval.run_secs < 3_600.0, "run_secs {}", eval.run_secs);
        assert!(eval.replies > 0 && eval.delivered_messages > 0);
        let replies = eval.throughput_rps * eval.run_secs;
        assert!((replies - eval.replies as f64).abs() < 1e-6, "{replies}");
        let messages = eval.message_throughput_per_s * eval.run_secs;
        assert!(
            (messages - eval.delivered_messages as f64).abs() < 1e-6,
            "{messages}"
        );
    }

    #[test]
    fn overhead_is_small_but_positive() {
        let ratio = normalized_overhead(8, InstanceType::m1_small(), 7);
        assert!(ratio > 1.0, "profiling must cost something: {ratio}");
        assert!(ratio < 1.03, "Table 3 band is <= 2.3%: {ratio}");
    }

    #[test]
    fn more_users_still_bounded_overhead() {
        let ratio = normalized_overhead(16, InstanceType::m1_medium(), 9);
        assert!((1.0..1.03).contains(&ratio), "ratio {ratio}");
    }
}
