//! Abstract counterexamples are real: bands the model checker flags as
//! oscillating actually ping-pong the simulated cluster.
//!
//! The verifier's scaling model says a `balance` band `(upper, lower)` with
//! `upper·n < lower·(n+1)` admits a load that grows an `n`-server cluster
//! and immediately shrinks it back. This property test samples such bands,
//! confirms the verifier produces an oscillation finding, then replays the
//! counterexample's load point in the full simulator (EMR + GEMs + actor
//! runtime, auto-scale on) and checks the cluster both scales out *and*
//! scales back in under constant offered load — the concrete grow→shrink
//! cycle the abstract trace promised.

use plasma_actor::logic::{ActorCtx, ClientCtx};
use plasma_actor::message::Payload;
use plasma_actor::{ActorId, ActorLogic, ClientLogic, Message, Runtime, RuntimeConfig};
use plasma_cluster::topology::ClusterLimits;
use plasma_cluster::InstanceType;
use plasma_emr::{EmrConfig, PlasmaEmr};
use plasma_epl::verify::{verify, Property, VerifyConfig};
use plasma_epl::{compile, ActorSchema};
use plasma_sim::rng::check_cases;
use plasma_sim::{SimDuration, SimTime};

/// Burns a fixed CPU share per request and replies.
struct Burner {
    work: f64,
}

impl ActorLogic for Burner {
    fn on_message(&mut self, ctx: &mut ActorCtx<'_>, _msg: &mut Message) {
        ctx.work(self.work);
        ctx.reply(32);
    }
}

/// Open-loop client: one request every `period`.
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
    let mut s = ActorSchema::new();
    s.actor_type("Worker").func("run");
    s
}

/// Number of equal-weight workers. Divisible by 2 and 3 so both the two-
/// and the three-server configuration can reach the uniform spread the
/// abstract model reasons about.
const WORKERS: usize = 12;

/// Sampled bands violate `upper·2 ≥ lower·3`, so a two-server cluster
/// oscillates. The margin (`3·lower - 2·upper ≥ 12` percent) keeps the
/// replay's load point comfortably inside the grow *and* shrink regions
/// despite discrete actors and measurement jitter.
#[test]
fn abstract_oscillation_replays_in_sim() {
    check_cases("abstract_oscillation_replays_in_sim", 6, |rng| {
        let upper = 70 + rng.below(11) as u32;
        // Place lower inside [ceil((2·upper + 12) / 3), upper - 1].
        let lo_min = (2 * upper + 12).div_ceil(3);
        let lower = lo_min + rng.below(u64::from(upper - lo_min)) as u32;

        let policy_src = format!(
            "server.cpu.perc > {upper} or server.cpu.perc < {lower} => \
             balance({{Worker}}, cpu);"
        );
        let policy = compile(&policy_src, &worker_schema()).unwrap();

        // Abstract side: the verifier must flag the band.
        let config = VerifyConfig {
            min_servers: 2,
            max_servers: 4,
            ..VerifyConfig::default()
        };
        let verdict = verify(&policy, &config);
        let finding = verdict
            .of(Property::Oscillation)
            .next()
            .expect("verifier flags 2U < 3L band");
        assert!(finding.gating());

        // Concrete side: replay the counterexample's load point. Any total
        // load W with 2·upper < W < 3·lower grows 2 servers and shrinks 3;
        // take the midpoint and split it over WORKERS equal actors.
        let w_total = (2 * upper + 3 * lower) as f64 / 2.0; // percent
        let per_worker = w_total / 100.0 / WORKERS as f64; // fraction
        let period = SimDuration::from_millis(100);
        let work = per_worker * period.as_secs_f64();

        let emr = PlasmaEmr::new(
            compile(&policy_src, &worker_schema()).unwrap(),
            EmrConfig {
                auto_scale: true,
                scale_instance: InstanceType::m1_small(),
                scale_in_step: 1,
                ..EmrConfig::default()
            },
        );
        let mut rt = Runtime::new(RuntimeConfig {
            seed: (upper * 100 + lower) as u64,
            limits: ClusterLimits {
                max_servers: 4,
                min_servers: 2,
            },
            elasticity_period: SimDuration::from_secs(30),
            min_residency: SimDuration::from_secs(30),
            ..RuntimeConfig::default()
        });
        rt.set_controller(Box::new(emr));
        let s0 = rt.add_server(InstanceType::m1_small());
        let s1 = rt.add_server(InstanceType::m1_small());
        for i in 0..WORKERS {
            let home = if i % 2 == 0 { s0 } else { s1 };
            let a = rt.spawn_actor("Worker", Box::new(Burner { work }), 1 << 10, home);
            rt.add_client(Box::new(Pulse { target: a, period }));
        }
        rt.run_until(SimTime::from_secs(900));

        let report = rt.report();
        let outs = report.scalar("emr.scale_outs").unwrap_or(0.0);
        let ins = report.scalar("emr.scale_ins").unwrap_or(0.0);
        assert!(
            outs >= 1.0 && ins >= 1.0,
            "band {upper}/{lower} at load {w_total}%: expected a grow and a \
             shrink under constant load, got scale_outs={outs} scale_ins={ins}"
        );
    });
}
