//! Distributed actor-based PageRank (§2.1, §5.4, Figs. 6-8).
//!
//! One `Worker` actor owns each graph partition; a `Master` actor drives
//! synchronous iterations. Every iteration each worker (a) burns CPU
//! proportional to the edges of its partition, (b) ships rank updates to
//! every other worker (bytes from the partition cut matrix), and
//! (c) reports to the master once it has computed *and* received all
//! peers' updates. The master performs the *real* numeric PageRank step
//! over the full graph, so convergence is genuine, while the CPU/network
//! costs of the distributed execution are modeled per partition.
//!
//! Because the synthetic graph is power-law, vertex-balanced partitions
//! carry unequal edge counts: the slowest worker gates every iteration,
//! which is precisely the imbalance PLASMA's one-line `balance` rule
//! repairs (Fig. 7) and Orleans' count-balancing cannot see (Fig. 6a).
//!
//! The Mizan baseline (Fig. 7a) migrates *vertices* between workers after
//! each iteration: it can shave the gap only a few percent per superstep
//! and pays a migration barrier, reproducing the paper's ~3% ceiling.

use plasma::prelude::*;
use plasma_graph::gen::preferential_attachment;

use crate::common::{ElasticityEval, EvalScale};
use plasma_graph::partition::{partition_balanced, Partitioning};
use plasma_graph::Graph;
use plasma_sim::SimTime;

/// The schema for the PageRank policy.
pub fn schema() -> ActorSchema {
    let mut schema = ActorSchema::new();
    schema
        .actor_type("Worker")
        .func("load")
        .func("iterate")
        .func("updates");
    schema.actor_type("Master").func("worker_done");
    schema
}

/// The paper's one-rule PageRank policy (§3.3).
pub fn policy() -> &'static str {
    "server.cpu.perc > 80 or server.cpu.perc < 60 => balance({Worker}, cpu);"
}

/// Elasticity management under test.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    /// PLASMA with the `balance` rule.
    Plasma,
    /// Orleans-style actor-count balancing.
    Orleans,
    /// No elasticity.
    None,
    /// Mizan-style vertex migration between workers.
    Mizan,
}

/// PageRank experiment configuration.
#[derive(Clone, Debug)]
pub struct PageRankConfig {
    /// Vertices in the synthetic LiveJournal stand-in.
    pub vertices: u32,
    /// Preferential-attachment out-degree.
    pub attach: u32,
    /// Number of partitions (= Worker actors); 32 in the paper.
    pub partitions: u32,
    /// Number of servers to start with.
    pub servers: usize,
    /// Server flavor (m5.large in §5.4).
    pub instance: InstanceType,
    /// Iterations to run (19 in Fig. 7a).
    pub max_iters: u32,
    /// Elasticity mode.
    pub mode: Mode,
    /// Elasticity period (iteration-scale for this workload).
    pub period: SimDuration,
    /// CPU work units per graph edge per iteration.
    pub work_per_edge: f64,
    /// Lognormal sigma of the per-partition compute-cost factor.
    ///
    /// Edge counts alone understate real per-partition cost variance
    /// (convergence activity, cache behavior); the paper observes CPU
    /// usage "diverging greatly" despite METIS-even partitions (§5.4).
    /// A factor of `exp(N(0, sigma))` per partition reproduces that.
    pub work_spread_sigma: f64,
    /// Allow the EMR to grow the cluster (Fig. 8) up to `max_servers`.
    pub auto_scale: bool,
    /// Cluster growth ceiling.
    pub max_servers: usize,
    /// RNG seed (placement and graph).
    pub seed: u64,
    /// Record per-iteration straggler identity (debugging/analysis).
    pub debug_trace: bool,
    /// Override the placement-stability residency (None = elasticity
    /// period, the paper's default; used by the residency ablation).
    pub min_residency: Option<SimDuration>,
    /// Synchronization overhead: the master's per-iteration aggregation
    /// work, as a fraction of the cluster-wide balanced per-server compute
    /// time. Models the global rank application + barrier phase that keeps
    /// equilibrium CPU inside the 60-80% band (Figs. 7b/8b).
    pub sync_frac: f64,
    /// Execution backend carrying deliveries and service time.
    pub backend: BackendKind,
}

impl Default for PageRankConfig {
    fn default() -> Self {
        PageRankConfig {
            vertices: 30_000,
            attach: 8,
            partitions: 32,
            servers: 8,
            instance: InstanceType::m5_large(),
            max_iters: 19,
            mode: Mode::Plasma,
            period: SimDuration::from_secs(2),
            work_per_edge: 1.0e-4,
            work_spread_sigma: 0.8,
            auto_scale: false,
            max_servers: 16,
            seed: 1,
            debug_trace: false,
            min_residency: None,
            sync_frac: 0.12,
            backend: BackendKind::Sim,
        }
    }
}

impl PageRankConfig {
    /// The evaluation-harness preset at the given scale.
    pub fn preset(scale: EvalScale) -> Self {
        match scale {
            EvalScale::Full => PageRankConfig::default(),
            EvalScale::Smoke => PageRankConfig {
                vertices: 6_000,
                attach: 6,
                partitions: 16,
                servers: 4,
                max_iters: 12,
                ..PageRankConfig::default()
            },
            EvalScale::Xl => PageRankConfig {
                vertices: 200_000,
                partitions: 128,
                servers: 16,
                max_servers: 64,
                ..PageRankConfig::default()
            },
        }
    }
}

/// Results of one PageRank run.
#[derive(Clone, Debug)]
pub struct PageRankReport {
    /// Wall-clock time of each iteration (seconds).
    pub iteration_times: Vec<f64>,
    /// Sum of all iteration times: the converged computation time (Fig. 6).
    pub converged_time: f64,
    /// Final L1 delta between the last two rank vectors.
    pub final_delta: f64,
    /// Number of actor migrations performed.
    pub migrations: usize,
    /// Per-server CPU utilization series (Figs. 7b, 8b).
    pub server_cpu: std::collections::BTreeMap<ServerId, Vec<(f64, f64)>>,
    /// Per-server worker-count series (Figs. 7c, 8c).
    pub server_actors: std::collections::BTreeMap<ServerId, Vec<(f64, f64)>>,
    /// Running servers over time (Fig. 8).
    pub server_count: Vec<(f64, f64)>,
    /// Final number of running servers.
    pub final_servers: usize,
    /// Completed migrations as `(time_s, actor, src, dst)`.
    pub migration_events: Vec<(f64, u64, u32, u32)>,
    /// `(worker_index, seconds_into_iteration)` of each iteration's last
    /// finisher, when `debug_trace` is set.
    pub straggler_trace: Vec<(u64, f64)>,
    /// Cumulative EMR migration admissions and rejections.
    pub emr_admitted: u64,
    /// Rejected actions (admission control, residency, pinning).
    pub emr_rejected: u64,
    /// Scenario-independent elasticity stats.
    pub eval: ElasticityEval,
}

/// Iteration-tagged control payload.
struct Iter(u32);
/// Mizan work adjustment payload.
struct SetWork(f64);

struct Worker {
    master: ActorId,
    work: f64,
    /// `(peer, bytes per iteration)` update channels to every other worker.
    peer_traffic: Vec<(ActorId, u64)>,
    /// Updates received per iteration number.
    pending_updates: std::collections::BTreeMap<u32, usize>,
    /// Iterations computed locally.
    computed: std::collections::BTreeMap<u32, bool>,
    load_work: f64,
}

impl Worker {
    fn maybe_report(&mut self, ctx: &mut ActorCtx<'_>, iter: u32) {
        let have = self.pending_updates.get(&iter).copied().unwrap_or(0);
        let done = self.computed.get(&iter).copied().unwrap_or(false);
        if done && have == self.peer_traffic.len() {
            self.pending_updates.remove(&iter);
            self.computed.remove(&iter);
            ctx.send_detached_with(self.master, "worker_done", 16, Box::new(Iter(iter)));
        }
    }
}

impl ActorLogic for Worker {
    fn on_message(&mut self, ctx: &mut ActorCtx<'_>, msg: &mut Message) {
        if msg.fname == ctx.fn_id("load") {
            ctx.work(self.load_work);
            ctx.send_detached_with(self.master, "worker_done", 16, Box::new(Iter(u32::MAX)));
        } else if msg.fname == ctx.fn_id("iterate") {
            let iter = msg.payload_ref::<Iter>().expect("iterate payload").0;
            ctx.work(self.work);
            for &(peer, bytes) in &self.peer_traffic {
                ctx.send_detached_with(peer, "updates", bytes.max(64), Box::new(Iter(iter)));
            }
            self.computed.insert(iter, true);
            self.maybe_report(ctx, iter);
        } else if msg.fname == ctx.fn_id("updates") {
            let iter = msg.payload_ref::<Iter>().expect("updates payload").0;
            // A tiny deserialization cost per update batch.
            ctx.work(1e-5);
            *self.pending_updates.entry(iter).or_insert(0) += 1;
            self.maybe_report(ctx, iter);
        } else if msg.fname == ctx.fn_id("set_work") {
            let w = msg.payload_ref::<SetWork>().expect("set_work payload").0;
            self.work = w;
        }
    }
}

struct Master {
    workers: Vec<ActorId>,
    sync_work: f64,
    graph: std::sync::Arc<Graph>,
    ranks: Vec<f64>,
    next_ranks: Vec<f64>,
    iter: u32,
    max_iters: u32,
    done_count: usize,
    iter_started: SimTime,
    final_delta: f64,
    mizan: Option<MizanState>,
    debug_trace: bool,
}

/// State of the Mizan vertex-migration baseline.
struct MizanState {
    /// Current work of each worker (mirrors the workers' own values).
    works: Vec<f64>,
    /// Fraction of the max-min gap migrated per superstep.
    step: f64,
    /// Barrier overhead per migration round, as CPU work at the master
    /// (models Mizan's migration barrier).
    barrier_work: f64,
}

impl Master {
    fn broadcast_iterate(&mut self, ctx: &mut ActorCtx<'_>) {
        self.done_count = 0;
        self.iter_started = ctx.now();
        let iter = self.iter;
        // Shuffle the fan-out order: on a real network, per-message jitter
        // randomizes arrival (and thus service) order every iteration; a
        // fixed order would freeze one unlucky run-queue packing forever.
        let mut order = self.workers.clone();
        ctx.rng().shuffle(&mut order);
        for w in order {
            ctx.send_detached_with(w, "iterate", 32, Box::new(Iter(iter)));
        }
    }
}

impl ActorLogic for Master {
    fn on_message(&mut self, ctx: &mut ActorCtx<'_>, msg: &mut Message) {
        if msg.fname == ctx.fn_id("start") {
            // Phase 1: data loading.
            self.done_count = 0;
            for &w in &self.workers.clone() {
                ctx.send_detached(w, "load", 64);
            }
            return;
        }
        if msg.fname != ctx.fn_id("worker_done") {
            return;
        }
        let iter = msg.payload_ref::<Iter>().expect("done payload").0;
        if iter == u32::MAX {
            // Loading phase.
            self.done_count += 1;
            if self.done_count == self.workers.len() {
                ctx.record("pagerank.load_done", ctx.now().as_secs_f64());
                self.broadcast_iterate(ctx);
            }
            return;
        }
        if iter != self.iter {
            return;
        }
        self.done_count += 1;
        if self.done_count < self.workers.len() {
            return;
        }
        // Iteration barrier reached: apply the updates (the aggregation
        // phase costs real CPU at the master) and record timing.
        ctx.work(self.sync_work);
        let elapsed = ctx.now().saturating_since(self.iter_started).as_secs_f64();
        ctx.record("pagerank.iter_time", elapsed);
        if self.debug_trace {
            if let Some(last) = msg.from_actor {
                ctx.record("pagerank.straggler", last.0 as f64);
                ctx.record("pagerank.straggler_t", elapsed);
            }
        }
        plasma_graph::pagerank::step(&self.graph, &self.ranks, &mut self.next_ranks);
        self.final_delta = plasma_graph::pagerank::l1_delta(&self.ranks, &self.next_ranks);
        std::mem::swap(&mut self.ranks, &mut self.next_ranks);
        // Mizan: migrate vertices (work units) from the slowest to the
        // fastest worker, paying the barrier.
        if let Some(mizan) = &mut self.mizan {
            let (mut hi, mut lo) = (0usize, 0usize);
            for (i, &w) in mizan.works.iter().enumerate() {
                if w > mizan.works[hi] {
                    hi = i;
                }
                if w < mizan.works[lo] {
                    lo = i;
                }
            }
            let gap = mizan.works[hi] - mizan.works[lo];
            if gap > 0.0 {
                let delta = gap * mizan.step;
                mizan.works[hi] -= delta;
                mizan.works[lo] += delta;
                ctx.work(mizan.barrier_work);
                let (hi_id, lo_id) = (self.workers[hi], self.workers[lo]);
                let (hi_w, lo_w) = (mizan.works[hi], mizan.works[lo]);
                ctx.send_detached_with(hi_id, "set_work", 1 << 16, Box::new(SetWork(hi_w)));
                ctx.send_detached_with(lo_id, "set_work", 1 << 16, Box::new(SetWork(lo_w)));
            }
        }
        self.iter += 1;
        if self.iter >= self.max_iters {
            ctx.record_scalar("pagerank.final_delta", self.final_delta);
            ctx.stop_simulation();
        } else {
            self.broadcast_iterate(ctx);
        }
    }
}

/// Builds the graph, partitions it, and runs the experiment.
pub fn run(cfg: &PageRankConfig) -> PageRankReport {
    let mut rng = DetRng::new(cfg.seed);
    let graph = preferential_attachment(cfg.vertices, cfg.attach, &mut rng);
    let parts = partition_balanced(&graph, cfg.partitions, 1.03, &mut rng);
    run_on(cfg, graph, parts, &mut rng)
}

/// Runs the experiment on a pre-built graph and partitioning.
pub fn run_on(
    cfg: &PageRankConfig,
    graph: Graph,
    parts: Partitioning,
    rng: &mut DetRng,
) -> PageRankReport {
    let runtime_cfg = RuntimeConfig {
        seed: cfg.seed,
        elasticity_period: cfg.period,
        min_residency: cfg.min_residency.unwrap_or(cfg.period),
        // Profile over whole elasticity periods: iteration barriers make
        // sub-iteration windows alias the compute/wait phases (the paper's
        // LEMs likewise report per elasticity period).
        profile_window: cfg.period,
        limits: ClusterLimits {
            max_servers: cfg.max_servers,
            min_servers: 1,
        },
        backend: cfg.backend,
        ..RuntimeConfig::default()
    };
    let emr_cfg = EmrConfig {
        auto_scale: cfg.auto_scale,
        scale_instance: cfg.instance.clone(),
        max_balance_moves: 6,
        ..EmrConfig::default()
    };
    let mut app = match cfg.mode {
        Mode::Plasma => Plasma::builder()
            .runtime_config(runtime_cfg)
            .emr_config(emr_cfg)
            .policy(policy(), &schema())
            .build()
            .expect("pagerank policy compiles"),
        Mode::Orleans => Plasma::builder()
            .runtime_config(runtime_cfg)
            .controller(Box::new(OrleansBalance::new()))
            .build()
            .expect("builds"),
        Mode::None | Mode::Mizan => Plasma::builder()
            .runtime_config(runtime_cfg)
            .build()
            .expect("builds"),
    };
    let rt = app.runtime_mut();
    let servers: Vec<ServerId> = (0..cfg.servers)
        .map(|_| rt.add_server(cfg.instance.clone()))
        .collect();

    // Count-balanced random placement of workers (the paper randomly
    // assigns 32 actors over 8 VMs, 4 each).
    let k = cfg.partitions as usize;
    let mut slots: Vec<ServerId> = (0..k).map(|i| servers[i % servers.len()]).collect();
    rng.shuffle(&mut slots);

    // Actor ids are assigned sequentially: master first, then workers.
    let master_id = ActorId(0);
    let worker_ids: Vec<ActorId> = (1..=k as u64).map(ActorId).collect();
    let part_edges = parts.part_edges(&graph);
    // Per-partition compute cost: edges x base cost x a lognormal factor
    // (see `PageRankConfig::work_spread_sigma`). The factor is clamped so
    // no single partition becomes the whole critical path - the imbalance
    // the paper measures is *server-level* aggregation of partitions.
    let works: Vec<f64> = part_edges
        .iter()
        .map(|&e| {
            let factor = rng.log_normal(0.0, cfg.work_spread_sigma).clamp(0.3, 1.9);
            e as f64 * cfg.work_per_edge * factor
        })
        .collect();
    let cut = parts.cut_matrix(&graph);
    let n = graph.vertex_count() as usize;
    let total_work: f64 = works.iter().sum();
    // The aggregation cost scales with the paper's deployment shape (4
    // workers per server), not with however many servers the run *starts*
    // with - a dynamic run starting from one server still has the same
    // global rank-apply work.
    let reference_servers = (cfg.partitions as f64 / 4.0).max(cfg.servers as f64);
    let sync_work = total_work / (reference_servers * cfg.instance.vcpus as f64) * cfg.sync_frac;
    let master = rt.spawn_actor(
        "Master",
        Box::new(Master {
            workers: worker_ids.clone(),
            sync_work,
            graph: std::sync::Arc::new(graph),
            ranks: vec![1.0 / n as f64; n],
            next_ranks: vec![0.0; n],
            iter: 0,
            max_iters: cfg.max_iters,
            done_count: 0,
            iter_started: SimTime::ZERO,
            final_delta: f64::INFINITY,
            debug_trace: cfg.debug_trace,
            mizan: match cfg.mode {
                Mode::Mizan => Some(MizanState {
                    works: works.clone(),
                    // Calibrated to the paper's observation that Mizan's
                    // vertex migration only shaves a few percent: small
                    // per-superstep transfers plus a migration barrier.
                    step: 0.02,
                    barrier_work: 0.02,
                }),
                _ => None,
            },
        }),
        1 << 20,
        servers[0],
    );
    assert_eq!(master, master_id);
    for (i, &sid) in slots.iter().enumerate() {
        let work = works[i];
        let peer_traffic: Vec<(ActorId, u64)> = (0..k)
            .filter(|&j| j != i)
            .map(|j| {
                let bytes = cut[i][j] * plasma_graph::pagerank::BYTES_PER_CUT_EDGE;
                (worker_ids[j], bytes)
            })
            .collect();
        let state_size = 4 + 12 * (part_edges[i] / cfg.attach as u64).max(1);
        let id = rt.spawn_actor(
            "Worker",
            Box::new(Worker {
                master: master_id,
                work,
                peer_traffic,
                pending_updates: Default::default(),
                computed: Default::default(),
                load_work: work * 2.0,
            }),
            state_size,
            sid,
        );
        assert_eq!(id, worker_ids[i]);
    }
    rt.inject(master, "start", 16, None);
    app.run_until(SimTime::from_secs(3_600));

    let report = app.report();
    let iteration_times: Vec<f64> = report
        .series("pagerank.iter_time")
        .map(|s| s.points().iter().map(|&(_, v)| v).collect())
        .unwrap_or_default();
    let to_pairs = |ts: &plasma_sim::metrics::TimeSeries| {
        ts.points()
            .iter()
            .map(|&(t, v)| (t.as_secs_f64(), v))
            .collect::<Vec<_>>()
    };
    PageRankReport {
        converged_time: iteration_times.iter().sum(),
        final_delta: report.scalar("pagerank.final_delta").unwrap_or(f64::NAN),
        migrations: report.migrations.len(),
        server_cpu: report
            .server_cpu
            .iter()
            .map(|(&s, ts)| (s, to_pairs(ts)))
            .collect(),
        server_actors: report
            .server_actors
            .iter()
            .map(|(&s, ts)| (s, to_pairs(ts)))
            .collect(),
        server_count: app
            .runtime()
            .cluster()
            .server_count_series()
            .points()
            .iter()
            .map(|&(t, v)| (t.as_secs_f64(), v))
            .collect(),
        final_servers: app.runtime().cluster().running_count(),
        emr_admitted: report.scalar("emr.admitted").unwrap_or(0.0) as u64,
        emr_rejected: report.scalar("emr.rejected").unwrap_or(0.0) as u64,
        migration_events: report
            .migrations
            .iter()
            .map(|m| (m.at.as_secs_f64(), m.actor.0, m.src.0, m.dst.0))
            .collect(),
        straggler_trace: report
            .series("pagerank.straggler")
            .map(|s| {
                let ts = report
                    .series("pagerank.straggler_t")
                    .expect("paired series");
                s.points()
                    .iter()
                    .zip(ts.points())
                    .map(|(&(_, w), &(_, t))| (w as u64, t))
                    .collect()
            })
            .unwrap_or_default(),
        iteration_times,
        eval: ElasticityEval::collect(app.runtime()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(mode: Mode) -> PageRankConfig {
        PageRankConfig {
            vertices: 12_000,
            attach: 6,
            max_iters: 30,
            mode,
            seed: 13,
            ..PageRankConfig::default()
        }
    }

    #[test]
    fn pagerank_runs_to_completion_and_converges() {
        let report = run(&small(Mode::None));
        assert_eq!(report.iteration_times.len(), 30);
        assert!(report.final_delta < 0.05, "delta {}", report.final_delta);
        assert!(report.converged_time > 0.0);
    }

    #[test]
    fn plasma_beats_orleans_static_allocation() {
        let plasma = run(&small(Mode::Plasma));
        let orleans = run(&small(Mode::Orleans));
        assert!(plasma.migrations > 0, "balance rule migrated workers");
        assert_eq!(orleans.migrations, 0, "counts already equal");
        let tail = |r: &PageRankReport| {
            let n = r.iteration_times.len();
            r.iteration_times[n - 8..].iter().sum::<f64>() / 8.0
        };
        let speedup = 1.0 - tail(&plasma) / tail(&orleans);
        assert!(
            speedup > 0.08,
            "expected ~24% faster convergence, got {:.0}% ({:.2}s vs {:.2}s)",
            speedup * 100.0,
            plasma.converged_time,
            orleans.converged_time
        );
    }

    #[test]
    fn mizan_gains_little() {
        let none = run(&small(Mode::None));
        let mizan = run(&small(Mode::Mizan));
        let tail = |r: &PageRankReport| {
            let n = r.iteration_times.len();
            r.iteration_times[n - 4..].iter().sum::<f64>() / 4.0
        };
        let gain = 1.0 - tail(&mizan) / tail(&none);
        assert!(
            (-0.05..0.12).contains(&gain),
            "Mizan should gain only a few percent, got {:.0}%",
            gain * 100.0
        );
    }

    #[test]
    fn dynamic_allocation_scales_out_and_stabilizes() {
        let mut cfg = small(Mode::Plasma);
        cfg.servers = 1;
        cfg.auto_scale = true;
        cfg.max_servers = 8;
        cfg.max_iters = 60;
        // Longer iterations so instance boot delays (40s) fit in the run.
        cfg.work_per_edge = 5.0e-4;
        let report = run(&cfg);
        assert!(
            report.final_servers > 2,
            "scaled beyond initial server: {}",
            report.final_servers
        );
        assert!(
            report.final_servers <= 8,
            "stayed within ceiling: {}",
            report.final_servers
        );
        // Iterations speed up as capacity arrives.
        let early: f64 = report.iteration_times[..5].iter().sum::<f64>() / 5.0;
        let n = report.iteration_times.len();
        let late: f64 = report.iteration_times[n - 5..].iter().sum::<f64>() / 5.0;
        assert!(late < early * 0.7, "late {late} vs early {early}");
    }
}
