//! E-Store: elastic partitioning for a distributed OLTP store (§5.5, Fig. 9).
//!
//! Root-level key ranges are `Partition` actors, each with child partitions
//! co-located beneath it. A `read` hits a root and then one random child.
//! The workload is heavily skewed (root *i* receives 35% of the traffic
//! remaining after roots `0..i`), overloading the server hosting the
//! hottest roots.
//!
//! Three managements are compared, as in Fig. 9:
//!
//! - **PLASMA E-Store** — the three §3.3 rules (reserve hot roots, colocate
//!   children, rebalance on low watermark).
//! - **in-app E-Store** — the paper's reimplementation of E-Store's own
//!   algorithm inside the application: on a high watermark, migrate the
//!   top-k% hottest roots (with their children) to the least-loaded server.
//! - **no elasticity**.

use std::collections::BTreeMap;

use plasma::prelude::*;
use plasma_sim::metrics::BucketedSeries;
use plasma_sim::SimTime;

use crate::common::{ChaosEval, ElasticityEval, EvalScale};

/// Schema for the E-Store policy.
pub fn schema() -> ActorSchema {
    let mut schema = ActorSchema::new();
    schema.actor_type("Partition").prop("children").func("read");
    schema
}

/// The paper's three E-Store rules (§3.3), verbatim.
pub fn policy() -> &'static str {
    "server.cpu.perc > 80 and client.call(Partition(p1).read).perc > 30 => reserve(p1, cpu);\n\
     Partition(p2) in ref(Partition(p1).children) => colocate(p1, p2);\n\
     server.cpu.perc < 50 => balance({Partition}, cpu);"
}

/// Elasticity management under test.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    /// PLASMA rules.
    Plasma,
    /// E-Store's own top-k% migration implemented in application code.
    Native,
    /// No elasticity.
    None,
}

/// E-Store experiment configuration (§5.5 defaults, scaled).
#[derive(Clone, Debug)]
pub struct EstoreConfig {
    /// Number of root partitions (40 in the paper).
    pub roots: usize,
    /// Children per root (4 in the paper).
    pub children_per_root: usize,
    /// Initial servers (4 m1.small in the paper).
    pub servers: usize,
    /// Number of clients (48 in the paper).
    pub clients: usize,
    /// Cascade skew: root i's share of the traffic left after 0..i.
    pub skew: f64,
    /// Elasticity period.
    pub period: SimDuration,
    /// Run length.
    pub run_for: SimDuration,
    /// Elasticity mode.
    pub mode: Mode,
    /// Faults injected during the run (empty = none, byte-identical runs).
    pub faults: FaultPlan,
    /// Detection and recovery policy for the fault plan.
    pub recovery: RecoveryPolicy,
    /// Execution backend carrying deliveries and service time.
    pub backend: BackendKind,
    /// RNG seed.
    pub seed: u64,
}

impl Default for EstoreConfig {
    fn default() -> Self {
        EstoreConfig {
            roots: 40,
            children_per_root: 4,
            servers: 4,
            clients: 48,
            skew: 0.35,
            period: SimDuration::from_secs(30),
            run_for: SimDuration::from_secs(220),
            mode: Mode::Plasma,
            faults: FaultPlan::new(),
            recovery: RecoveryPolicy::default(),
            backend: BackendKind::Sim,
            seed: 17,
        }
    }
}

impl EstoreConfig {
    /// The evaluation-harness preset at the given scale.
    pub fn preset(scale: EvalScale) -> Self {
        match scale {
            EvalScale::Full => EstoreConfig::default(),
            EvalScale::Smoke => EstoreConfig {
                roots: 16,
                children_per_root: 2,
                servers: 3,
                clients: 12,
                run_for: SimDuration::from_secs(120),
                ..EstoreConfig::default()
            },
            EvalScale::Xl => EstoreConfig {
                roots: 512,
                children_per_root: 4,
                servers: 16,
                clients: 384,
                ..EstoreConfig::default()
            },
        }
    }

    /// The chaos-variant preset: an abort window swallows the EMR's first
    /// wave of rebalancing migrations mid-transfer (the retry-with-backoff
    /// path completes them), then every link degrades — added latency,
    /// halved bandwidth, 2% drop — before healing.
    pub fn chaos_preset(scale: EvalScale) -> Self {
        let faults = FaultPlan::new()
            .abort_migrations(SimTime::from_secs(25), SimDuration::from_secs(60), 8)
            .degrade_links(
                SimTime::from_secs(100),
                LinkDegradation {
                    extra_latency: SimDuration::from_millis(2),
                    bandwidth_factor: 0.5,
                    drop_per_mille: 20,
                },
                Some(SimDuration::from_secs(30)),
            );
        EstoreConfig {
            faults,
            seed: 37,
            ..EstoreConfig::preset(scale)
        }
    }
}

/// Results of one E-Store run.
#[derive(Debug)]
pub struct EstoreReport {
    /// Mean latency per second (Fig. 9's series).
    pub latency_series: BucketedSeries,
    /// Mean latency over the final third of the run.
    pub tail_ms: f64,
    /// Migrations performed.
    pub migrations: usize,
    /// Scenario-independent elasticity stats.
    pub eval: ElasticityEval,
    /// Recovery metrics (all zero on a fault-free run).
    pub chaos: ChaosEval,
}

struct RootPartition {
    children: Vec<ActorId>,
    read_work: f64,
    next: usize,
}

impl ActorLogic for RootPartition {
    fn on_message(&mut self, ctx: &mut ActorCtx<'_>, _msg: &mut Message) {
        ctx.work(self.read_work);
        if self.children.is_empty() {
            ctx.reply(256);
            return;
        }
        // Requests arriving at a root continue to one random child (§5.5);
        // we rotate deterministically, which is uniform in the limit.
        let child = self.children[self.next % self.children.len()];
        self.next += 1;
        ctx.send(child, "read", 128);
    }
}

struct ChildPartition {
    read_work: f64,
}

impl ActorLogic for ChildPartition {
    fn on_message(&mut self, ctx: &mut ActorCtx<'_>, _msg: &mut Message) {
        ctx.work(self.read_work);
        ctx.reply(512);
    }
}

/// A client drawing roots from the cascade-skew distribution.
struct EstoreClient {
    roots: Vec<ActorId>,
    weights: Vec<f64>,
    think: SimDuration,
}

impl EstoreClient {
    fn fire(&mut self, ctx: &mut ClientCtx<'_>) {
        let i = ctx.rng().weighted_index(&self.weights);
        ctx.request(self.roots[i], "read", 96);
    }
}

impl ClientLogic for EstoreClient {
    fn on_start(&mut self, ctx: &mut ClientCtx<'_>) {
        self.fire(ctx);
    }

    fn on_reply(
        &mut self,
        ctx: &mut ClientCtx<'_>,
        _request: u64,
        _latency: SimDuration,
        _payload: Option<Payload>,
    ) {
        ctx.set_timer(self.think, 0);
    }

    fn on_timer(&mut self, ctx: &mut ClientCtx<'_>, _token: u64) {
        self.fire(ctx);
    }
}

/// Cascade weights: root i gets `skew` of what remains after roots `0..i`.
pub fn cascade_weights(roots: usize, skew: f64) -> Vec<f64> {
    let mut weights = Vec::with_capacity(roots);
    let mut remaining = 1.0;
    for _ in 0..roots {
        let w = remaining * skew;
        weights.push(w);
        remaining -= w;
    }
    // The tail remainder spreads over the last root to keep a proper
    // distribution.
    if let Some(last) = weights.last_mut() {
        *last += remaining;
    }
    weights
}

/// The in-app E-Store elasticity manager: top-k% hot roots move (with their
/// children) from servers above the high watermark to the least-loaded
/// server; on a low watermark it rebalances the same way.
struct NativeEstore {
    high: f64,
    low: f64,
    top_fraction: f64,
}

impl ElasticityController for NativeEstore {
    fn on_elasticity_tick(&mut self, rt: &mut Runtime) {
        let snapshot = rt.snapshot_shared();
        let servers = rt.cluster().running_ids();
        if servers.len() < 2 {
            return;
        }
        let usage = |sid: ServerId| snapshot.server(sid).map(|s| s.usage.cpu()).unwrap_or(0.0);
        let trigger = servers.iter().any(|&s| usage(s) > self.high)
            || servers.iter().any(|&s| usage(s) < self.low);
        if !trigger {
            return;
        }
        let hot = servers
            .iter()
            .copied()
            .max_by(|a, b| usage(*a).partial_cmp(&usage(*b)).expect("finite"))
            .expect("non-empty");
        let idle = servers
            .iter()
            .copied()
            .filter(|&s| s != hot)
            .min_by(|a, b| usage(*a).partial_cmp(&usage(*b)).expect("finite"))
            .expect("two servers");
        if usage(hot) - usage(idle) < 0.15 {
            return;
        }
        // Roots on the hot server ranked by received client calls.
        let mut roots: Vec<(ActorId, u64)> = snapshot
            .actors_on(hot)
            .filter(|a| !a.refs.get("children").map(Vec::is_empty).unwrap_or(true))
            .map(|a| (a.actor, a.counters.total_received()))
            .collect();
        roots.sort_by_key(|&(_, calls)| std::cmp::Reverse(calls));
        let k = ((roots.len() as f64 * self.top_fraction).ceil() as usize).max(1);
        for &(root, _) in roots.iter().take(k) {
            if rt.migrate(root, idle).is_ok() {
                // E-Store moves descendant tuples with their root ranges.
                for child in rt.actor_refs(root, "children") {
                    let _ = rt.migrate(child, idle);
                }
            }
        }
    }
}

/// Runs the E-Store experiment.
pub fn run(cfg: &EstoreConfig) -> EstoreReport {
    let runtime_cfg = RuntimeConfig {
        seed: cfg.seed,
        elasticity_period: cfg.period,
        min_residency: cfg.period,
        profile_window: SimDuration::from_secs(5),
        backend: cfg.backend,
        ..RuntimeConfig::default()
    };
    let mut app = match cfg.mode {
        Mode::Plasma => Plasma::builder()
            .runtime_config(runtime_cfg)
            .policy(policy(), &schema())
            .build()
            .expect("estore policy compiles"),
        Mode::Native => Plasma::builder()
            .runtime_config(runtime_cfg)
            .controller(Box::new(NativeEstore {
                high: 0.8,
                low: 0.5,
                top_fraction: 0.10,
            }))
            .build()
            .expect("builds"),
        Mode::None => Plasma::builder()
            .runtime_config(runtime_cfg)
            .build()
            .expect("builds"),
    };
    let rt = app.runtime_mut();
    rt.install_fault_plan(&cfg.faults, cfg.recovery);
    let servers: Vec<ServerId> = (0..cfg.servers)
        .map(|_| rt.add_server(InstanceType::m1_small()))
        .collect();
    // Elastic setups get one extra instance (§5.5).
    if cfg.mode != Mode::None {
        rt.add_server(InstanceType::m1_small());
    }
    let mut roots = Vec::with_capacity(cfg.roots);
    let mut children_of: BTreeMap<ActorId, Vec<ActorId>> = BTreeMap::new();
    for i in 0..cfg.roots {
        let home = servers[i % cfg.servers];
        let children: Vec<ActorId> = (0..cfg.children_per_root)
            .map(|_| {
                rt.spawn_actor(
                    "Partition",
                    Box::new(ChildPartition { read_work: 0.0012 }),
                    512 << 10,
                    home,
                )
            })
            .collect();
        let root = rt.spawn_actor(
            "Partition",
            Box::new(RootPartition {
                children: children.clone(),
                read_work: 0.0018,
                next: 0,
            }),
            256 << 10,
            home,
        );
        for &c in &children {
            rt.actor_add_ref(root, "children", c);
        }
        children_of.insert(root, children);
        roots.push(root);
    }
    let weights = cascade_weights(cfg.roots, cfg.skew);
    for _ in 0..cfg.clients {
        rt.add_client(Box::new(EstoreClient {
            roots: roots.clone(),
            weights: weights.clone(),
            think: SimDuration::from_millis(50),
        }));
    }
    let end = SimTime::ZERO + cfg.run_for;
    app.run_until(end);
    let report = app.report();
    let buckets = report.latency_series.buckets();
    let tail_start = SimTime::ZERO + cfg.run_for.mul_f64(0.66);
    let tail: Vec<f64> = buckets
        .iter()
        .filter(|&&(t, _)| t >= tail_start)
        .map(|&(_, v)| v)
        .collect();
    EstoreReport {
        tail_ms: if tail.is_empty() {
            0.0
        } else {
            tail.iter().sum::<f64>() / tail.len() as f64
        },
        migrations: report.migrations.len(),
        latency_series: report.latency_series.clone(),
        eval: ElasticityEval::collect(app.runtime()),
        chaos: ChaosEval::collect(app.runtime()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plasma_sim::DetRng;

    #[test]
    fn cascade_weights_sum_to_one_and_decay() {
        let w = cascade_weights(40, 0.35);
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(w[0] > w[1] && w[1] > w[2]);
        assert!((w[0] - 0.35).abs() < 1e-12);
        assert!((w[1] - 0.35 * 0.65).abs() < 1e-12);
    }

    /// The first 64 roots `DetRng::new(17)` draws from cascades longer than
    /// one of `weighted_index`'s skip chunks, and the generator's next output
    /// after them, as the plain two-pass draw produced them. The smoke and
    /// full presets draw over 16 and 40 roots, inside a single chunk.
    #[test]
    fn cascade_draws_past_one_skip_chunk_are_pinned() {
        const DRAWS: [usize; 64] = [
            2, 2, 6, 7, 2, 6, 4, 4, 1, 2, 0, 7, 1, 0, 0, 0, 0, 0, 6, 1, 5, 0, 1, 1, 0, 1, 0, 5, 2,
            3, 0, 0, 0, 1, 2, 2, 6, 0, 1, 7, 0, 0, 0, 0, 4, 3, 0, 0, 0, 3, 3, 2, 7, 0, 1, 1, 3, 2,
            1, 0, 0, 0, 1, 5,
        ];
        for roots in [8192, 512] {
            let weights = cascade_weights(roots, 0.35);
            let mut rng = DetRng::new(17);
            let drawn: Vec<usize> = (0..64).map(|_| rng.weighted_index(&weights)).collect();
            assert_eq!(drawn, DRAWS, "{roots} roots");
            assert_eq!(rng.next_u64(), 0xbc65_0a44_3de4_1cb0, "{roots} roots");
        }
    }

    #[test]
    fn both_elastic_modes_beat_no_elasticity() {
        let plasma = run(&EstoreConfig::default());
        let native = run(&EstoreConfig {
            mode: Mode::Native,
            ..EstoreConfig::default()
        });
        let none = run(&EstoreConfig {
            mode: Mode::None,
            ..EstoreConfig::default()
        });
        assert!(plasma.migrations > 0);
        assert!(native.migrations > 0);
        assert!(
            plasma.tail_ms < none.tail_ms * 0.9,
            "plasma {} vs none {}",
            plasma.tail_ms,
            none.tail_ms
        );
        assert!(
            native.tail_ms < none.tail_ms * 0.9,
            "native {} vs none {}",
            native.tail_ms,
            none.tail_ms
        );
    }

    #[test]
    fn plasma_matches_native_estore() {
        let plasma = run(&EstoreConfig::default());
        let native = run(&EstoreConfig {
            mode: Mode::Native,
            ..EstoreConfig::default()
        });
        let ratio = plasma.tail_ms / native.tail_ms;
        assert!(
            (0.75..1.35).contains(&ratio),
            "PLASMA E-Store should track in-app E-Store: ratio {ratio} ({} vs {})",
            plasma.tail_ms,
            native.tail_ms
        );
    }
}
