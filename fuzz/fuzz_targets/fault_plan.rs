//! Fuzz target: no fault schedule may panic the runtime.
//!
//! Decodes arbitrary bytes into a [`FaultPlan`] — every `FaultKind`
//! variant, arbitrary injection times, overlapping windows, out-of-range
//! subjects — plus a byte-derived [`RecoveryPolicy`], installs it into a
//! small auto-scaling world, and runs the simulation to completion. Crashes
//! during boot, partitions that never heal, aborts with zero windows,
//! GEM indices past the fleet: all must degrade gracefully. The property
//! under test is that no schedule can make the kernel panic, deadlock the
//! event loop, or corrupt the report.
//!
//! Runs on the shared driver in `plasma_fuzz`. Usage:
//!
//! ```text
//! fault_plan [iterations] [seed]
//! ```
//!
//! Defaults: 500 iterations (each one a full ~120 sim-second run), seed
//! 0x464C54 (ASCII "FLT").

use plasma::prelude::*;
use plasma_fuzz::{below, Target};

const TARGET: Target = Target {
    name: "fault_plan",
    iterations: 500,
    seed: 0x0046_4C54,
    // MAX_FAULTS bounds the decoded plan; this bounds raw memory.
    max_len: 1 << 12,
    // Inserts a fresh random record at a record boundary. Inputs are binary
    // records rather than text, so a whole synthesized record keeps most of
    // them schedule-shaped.
    mutation: |out, state| {
        let rec: Vec<u8> = (0..RECORD).map(|_| below(state, 256) as u8).collect();
        let at = below(state, out.len() / RECORD + 1) * RECORD;
        out.splice(at..at, rec);
    },
};

/// Bytes per decoded fault record.
const RECORD: usize = 6;
/// Cap on decoded faults, so giant inputs can't stall a run.
const MAX_FAULTS: usize = 48;
/// Simulated horizon; fault times wrap into `0..HORIZON_SECS`.
const HORIZON_SECS: u64 = 120;
/// Servers in the fuzz world (faults may reference a few beyond this).
const SERVERS: u32 = 3;

/// Decodes one 6-byte record into a scheduled fault.
///
/// Layout: `[kind, time, a, b, c, d]`. `kind % 10` selects the variant;
/// the rest parameterize it. Subjects deliberately range a little past the
/// world's servers and GEMs so the out-of-range handling is exercised too.
fn decode_fault(rec: &[u8]) -> (SimTime, FaultKind) {
    let at = SimTime::from_secs(rec[1] as u64 % HORIZON_SECS);
    let (a, b, c, d) = (rec[2], rec[3], rec[4], rec[5]);
    let server = ServerId(a as u32 % (SERVERS + 2));
    let kind = match rec[0] % 10 {
        0 => FaultKind::ServerCrash {
            server,
            restart_after: (b % 2 == 0).then(|| SimDuration::from_secs(c as u64 % 40)),
        },
        1 => FaultKind::Partition {
            // One bit per server: which side of the partition it lands on.
            group: (0..SERVERS + 2)
                .filter(|s| c & (1 << (s % 8)) != 0)
                .map(ServerId)
                .collect(),
            heal_after: (b % 2 == 0).then(|| SimDuration::from_secs(d as u64 % 60)),
        },
        2 => FaultKind::HealPartitions,
        3 => FaultKind::LinkDegrade {
            degradation: LinkDegradation {
                extra_latency: SimDuration::from_millis(b as u64 % 50),
                bandwidth_factor: (c % 100 + 1) as f64 / 100.0,
                drop_per_mille: d as u32 % 250,
            },
            heal_after: (a % 2 == 0).then(|| SimDuration::from_secs(b as u64 % 60)),
        },
        4 => FaultKind::HealLinks,
        5 => FaultKind::MigrationAbort {
            window: SimDuration::from_secs(b as u64 % 45),
            max: c as u32 % 12,
        },
        6 => FaultKind::GemCrash {
            gem: a as usize % 4,
        },
        7 => FaultKind::LemCrash { server },
        8 => FaultKind::ProvisionerStall {
            duration: SimDuration::from_secs(b as u64 % 70),
        },
        _ => FaultKind::SnapshotSkew,
    };
    (at, kind)
}

/// Decodes the whole input: first record doubles as the recovery policy,
/// the rest become the schedule.
fn decode(bytes: &[u8]) -> (FaultPlan, RecoveryPolicy) {
    let mut plan = FaultPlan::new();
    let mut policy = RecoveryPolicy::default();
    let mut chunks = bytes.chunks_exact(RECORD);
    if let Some(head) = chunks.next() {
        policy = RecoveryPolicy {
            heartbeat_period: SimDuration::from_secs(1 + head[0] as u64 % 10),
            heartbeat_timeout: SimDuration::from_secs(1 + head[1] as u64 % 30),
            respawn: head[2] % 2 == 0,
            migration_retry_limit: head[3] as u32 % 6,
            migration_retry_backoff: SimDuration::from_secs(head[4] as u64 % 8),
        };
    }
    for rec in chunks.take(MAX_FAULTS) {
        let (at, kind) = decode_fault(rec);
        plan.push(at, kind);
    }
    (plan, policy)
}

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

/// One fuzz execution: a small elastic world (balance + auto-scale, two
/// GEMs so GEM crashes have a survivor to shuffle onto) runs the decoded
/// schedule to the horizon. Returning at all is the pass condition.
fn run_one(bytes: &[u8]) {
    let (plan, policy) = decode(bytes);

    let mut schema = ActorSchema::new();
    schema.actor_type("Worker").func("run");
    let compiled = compile(
        "server.cpu.perc > 80 or server.cpu.perc < 60 => balance({Worker}, cpu);",
        &schema,
    )
    .expect("fuzz policy compiles");
    let emr = PlasmaEmr::new(
        compiled,
        EmrConfig {
            auto_scale: true,
            scale_instance: InstanceType::m1_small(),
            num_gems: 2,
            ..EmrConfig::default()
        },
    );

    let mut rt = Runtime::new(RuntimeConfig {
        seed: 0xFA171,
        limits: ClusterLimits {
            max_servers: 5,
            min_servers: 1,
        },
        elasticity_period: SimDuration::from_secs(10),
        min_residency: SimDuration::from_secs(10),
        ..RuntimeConfig::default()
    });
    rt.set_controller(Box::new(emr));
    let mut servers = Vec::new();
    for _ in 0..SERVERS {
        servers.push(rt.add_server(InstanceType::m1_small()));
    }
    for i in 0..6 {
        let home = servers[i % servers.len()];
        let a = rt.spawn_actor("Worker", Box::new(Burner { work: 0.02 }), 1 << 10, home);
        rt.add_client(Box::new(Pulse {
            target: a,
            period: SimDuration::from_millis(100),
        }));
    }
    rt.install_fault_plan(&plan, policy);
    rt.run_until(SimTime::from_secs(HORIZON_SECS));
    // The counters must stay internally consistent even after arbitrary
    // chaos: recovered actors can never exceed lost ones.
    let stats = rt.chaos_stats();
    let (lost, recovered) = (stats.actors_lost, stats.actors_recovered);
    assert!(
        recovered <= lost,
        "recovered {recovered} > lost {lost} under plan {plan:?}"
    );
}

fn main() {
    plasma_fuzz::run(&TARGET, run_one);
}
