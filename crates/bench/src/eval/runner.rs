//! Drives the §5 application scenarios under fixed seeds and folds each run
//! into a [`ScenarioResult`].
//!
//! Every scenario pushes the same block of scenario-independent elasticity
//! metrics (decision latency, migration outcomes, throughput, balance
//! score) followed by its paper-specific headline numbers. Metric insertion
//! order is fixed, which — together with the deterministic simulator — makes
//! the serialized results byte-identical across same-seed runs.

use plasma_actor::BackendKind;
use plasma_apps::common::{ChaosEval, ElasticityEval, EvalScale};
use plasma_apps::{chatroom, estore, halo, media, pagerank};
use plasma_sim::SimDuration;

use super::result::{Direction, ScenarioResult};

/// One entry of the scenario registry.
#[derive(Clone, Copy, Debug)]
pub struct ScenarioSpec {
    /// Scenario name as used on the CLI and in file names.
    pub name: &'static str,
    /// Paper section the scenario reproduces.
    pub paper_section: &'static str,
    /// One-line description for `plasma-eval list`.
    pub summary: &'static str,
}

/// The evaluation scenario registry, in canonical run order.
pub const SCENARIOS: &[ScenarioSpec] = &[
    ScenarioSpec {
        name: "chatroom",
        paper_section: "5.2",
        summary: "chat-room microbenchmark: CPU-bound makespan and EPR profiling tax",
    },
    ScenarioSpec {
        name: "pagerank",
        paper_section: "5.4",
        summary: "distributed PageRank: one balance rule repairs edge-count imbalance",
    },
    ScenarioSpec {
        name: "estore",
        paper_section: "5.5",
        summary: "E-Store skew: hot roots reserved and colocated off the overloaded server",
    },
    ScenarioSpec {
        name: "media",
        paper_section: "5.6",
        summary: "Media Service join/leave wave: cluster grows and reclaims servers",
    },
    ScenarioSpec {
        name: "halo",
        paper_section: "5.7",
        summary: "Halo presence: creation-time colocation vs frequency default rule",
    },
    ScenarioSpec {
        name: "eval-engine",
        paper_section: "4.2",
        summary: "indexed rule evaluator on a synthetic large cluster: env counts, rows read vs the naive walker, snapshot sharing",
    },
    ScenarioSpec {
        name: "chatroom-chaos",
        paper_section: "4.3",
        summary: "chat room under server crashes: detection, respawn, in-place reboot",
    },
    ScenarioSpec {
        name: "estore-chaos",
        paper_section: "4.3",
        summary: "E-Store under migration aborts and degraded links: retry-with-backoff",
    },
    ScenarioSpec {
        name: "halo-chaos",
        paper_section: "4.3",
        summary: "Halo presence under a partition and a GEM crash: §4.3 re-shuffling",
    },
];

/// Looks a scenario up by name.
pub fn spec(name: &str) -> Option<&'static ScenarioSpec> {
    SCENARIOS.iter().find(|s| s.name == name)
}

/// Pushes the scenario-independent elasticity metrics.
///
/// `rebalance_direction` lets hotspot-at-start scenarios gate on
/// time-to-rebalance while wave scenarios (where migrations legitimately
/// continue to the end of the run) keep it informational.
fn push_common(result: &mut ScenarioResult, eval: &ElasticityEval, rebalance_direction: Direction) {
    result.push("run_secs", eval.run_secs, Direction::Info);
    result.push("throughput_rps", eval.throughput_rps, Direction::Higher);
    result.push(
        "message_throughput_per_s",
        eval.message_throughput_per_s,
        Direction::Higher,
    );
    result.push("locality", eval.locality, Direction::Info);
    result.push(
        "migrations_completed",
        eval.migrations_completed as f64,
        Direction::Info,
    );
    result.push("emr_admitted", eval.emr_admitted as f64, Direction::Info);
    result.push("emr_rejected", eval.emr_rejected as f64, Direction::Info);
    result.push("emr_ticks", eval.emr_ticks as f64, Direction::Info);
    result.push("scale_outs", eval.scale_outs as f64, Direction::Info);
    result.push("scale_ins", eval.scale_ins as f64, Direction::Info);
    result.push(
        "time_to_rebalance_s",
        eval.time_to_rebalance_s,
        rebalance_direction,
    );
    result.push("balance_score", eval.balance_score, Direction::Higher);
    result.push(
        "decisions_total",
        eval.decisions_total as f64,
        Direction::Info,
    );
    // Low 32 bits of the order-sensitive decision-sequence digest. An f64
    // carries a u32 exactly, so the value survives the round-trip through
    // the BENCH file, the parity gate can compare it byte-for-byte, and
    // `compare` fails on any change to it.
    result.push(
        "decision_digest",
        (eval.decision_digest & 0xFFFF_FFFF) as f64,
        Direction::Exact,
    );
    result.push(
        "snapshot_skew_rounds",
        eval.snapshot_skew_rounds as f64,
        Direction::Info,
    );
    // Frame-maintenance counters ride at the end so pre-existing baseline
    // lines stay byte-identical.
    result.push(
        "frame_rebuilds",
        eval.frame_rebuilds as f64,
        Direction::Info,
    );
    result.push(
        "frame_patches",
        eval.frame_patches as f64,
        Direction::Higher,
    );
    // Carrier transport counters: identically 0 under sim and zeroed by
    // the parity normalizer (the `backend_` prefix) under live/net, so
    // every backend still serializes to byte-identical normalized JSON.
    result.push(
        "backend_frames_sent",
        eval.backend_frames_sent as f64,
        Direction::Info,
    );
    result.push(
        "backend_frames_received",
        eval.backend_frames_received as f64,
        Direction::Info,
    );
    result.push(
        "backend_wire_bytes_sent",
        eval.backend_wire_bytes_sent as f64,
        Direction::Info,
    );
    result.push(
        "backend_wire_bytes_received",
        eval.backend_wire_bytes_received as f64,
        Direction::Info,
    );
    result.push(
        "backend_max_inflight",
        eval.backend_max_inflight as f64,
        Direction::Info,
    );
    // Control-plane carriage counters: reply/byte counts depend on the
    // carrier's partitioning, so the parity normalizer zeroes the
    // `control_` prefix the same way it zeroes `backend_`.
    result.push(
        "control_queries",
        eval.control_queries as f64,
        Direction::Info,
    );
    result.push(
        "control_replies",
        eval.control_replies as f64,
        Direction::Info,
    );
    result.push(
        "control_wire_bytes",
        eval.control_wire_bytes as f64,
        Direction::Info,
    );
}

/// Makes a gated metric `info` in a scenario where it sits at 0.0 by
/// design, where `compare` could never see it regress.
fn ungate(result: &mut ScenarioResult, metric: &str) {
    if let Some((_, m)) = result.metrics.iter_mut().find(|(n, _)| n == metric) {
        m.direction = Direction::Info;
    }
}

/// Pushes the recovery metrics of a chaos scenario.
///
/// Counts are informational (the fault plan fixes how much breaks); the
/// gated metrics are the recovery *times* — detection latency, the
/// unavailability window, time-to-rebalance after the first crash — and
/// the fraction of orphaned actors brought back.
fn push_chaos(result: &mut ScenarioResult, chaos: &ChaosEval) {
    result.push(
        "faults_injected",
        chaos.faults_injected as f64,
        Direction::Info,
    );
    result.push(
        "servers_crashed",
        chaos.servers_crashed as f64,
        Direction::Info,
    );
    result.push(
        "servers_restarted",
        chaos.servers_restarted as f64,
        Direction::Info,
    );
    result.push("actors_lost", chaos.actors_lost as f64, Direction::Info);
    result.push(
        "actors_recovered",
        chaos.actors_recovered as f64,
        Direction::Info,
    );
    result.push(
        "recovered_fraction",
        if chaos.actors_lost == 0 {
            1.0
        } else {
            chaos.actors_recovered as f64 / chaos.actors_lost as f64
        },
        Direction::Higher,
    );
    result.push(
        "state_bytes_lost",
        chaos.state_bytes_lost as f64,
        Direction::Info,
    );
    result.push("messages_lost", chaos.messages_lost as f64, Direction::Info);
    result.push(
        "migrations_aborted",
        chaos.migrations_aborted as f64,
        Direction::Info,
    );
    result.push(
        "migration_retries",
        chaos.migration_retries as f64,
        Direction::Info,
    );
    result.push("detections", chaos.detections as f64, Direction::Info);
    result.push(
        "time_to_detect_s_mean",
        chaos.time_to_detect_s_mean,
        Direction::Lower,
    );
    result.push(
        "time_to_detect_s_max",
        chaos.time_to_detect_s_max,
        Direction::Lower,
    );
    result.push(
        "unavailability_s_sum",
        chaos.unavailability_s_sum,
        Direction::Lower,
    );
    result.push(
        "unavailability_s_max",
        chaos.unavailability_s_max,
        Direction::Lower,
    );
    result.push("first_crash_at_s", chaos.first_crash_at_s, Direction::Info);
    result.push(
        "time_to_rebalance_after_crash_s",
        chaos.time_to_rebalance_after_crash_s,
        Direction::Lower,
    );
}

/// Runs one scenario at the given scale and returns its result, or `None`
/// for an unknown scenario name.
///
/// `seed` overrides the preset's fixed seed when given; CI and the checked
/// in baselines always use the preset seed.
pub fn run_scenario(name: &str, scale: EvalScale, seed: Option<u64>) -> Option<ScenarioResult> {
    run_scenario_on(name, scale, seed, BackendKind::Sim)
}

/// [`run_scenario`] with an explicit execution backend.
///
/// All BENCH metrics derive from logical state only, so a scenario run
/// under [`BackendKind::Live`] or [`BackendKind::Net`] must produce a
/// byte-identical normalized result — that equivalence is the backend
/// parity gate. The `eval-engine` scenario has
/// no runtime (it probes the evaluator on a synthetic world) and ignores
/// the backend.
pub fn run_scenario_on(
    name: &str,
    scale: EvalScale,
    seed: Option<u64>,
    backend: BackendKind,
) -> Option<ScenarioResult> {
    let spec = spec(name)?;
    let mut result = ScenarioResult::new(spec.name, spec.paper_section, scale.name(), 0);
    match name {
        "chatroom" => {
            let mut cfg = chatroom::ChatConfig::preset(scale);
            cfg.backend = backend;
            if let Some(s) = seed {
                cfg.seed = s;
            }
            result.seed = cfg.seed;
            let report = chatroom::run(&cfg);
            let mut off = cfg.clone();
            off.epr_enabled = false;
            let base = chatroom::run(&off);
            push_common(&mut result, &report.eval, Direction::Info);
            // The chat room runs without an EMR.
            ungate(&mut result, "frame_patches");
            result.push(
                "makespan_s",
                report.makespan.as_secs_f64(),
                Direction::Lower,
            );
            result.push("mean_latency_ms", report.mean_latency_ms, Direction::Lower);
            result.push(
                "epr_overhead_ratio",
                report.makespan.as_secs_f64() / base.makespan.as_secs_f64().max(1e-9),
                Direction::Lower,
            );
        }
        "pagerank" => {
            let mut cfg = pagerank::PageRankConfig::preset(scale);
            cfg.backend = backend;
            if let Some(s) = seed {
                cfg.seed = s;
            }
            result.seed = cfg.seed;
            let report = pagerank::run(&cfg);
            push_common(&mut result, &report.eval, Direction::Lower);
            // PageRank has no client requests.
            ungate(&mut result, "throughput_rps");
            result.push("converged_time_s", report.converged_time, Direction::Lower);
            let n = report.iteration_times.len();
            let tail = n.min(5);
            let tail_mean = if tail == 0 {
                0.0
            } else {
                report.iteration_times[n - tail..].iter().sum::<f64>() / tail as f64
            };
            result.push("tail_iteration_s", tail_mean, Direction::Lower);
            result.push("iterations", n as f64, Direction::Info);
            result.push("final_delta", report.final_delta, Direction::Info);
        }
        "estore" => {
            let mut cfg = estore::EstoreConfig::preset(scale);
            cfg.backend = backend;
            if let Some(s) = seed {
                cfg.seed = s;
            }
            result.seed = cfg.seed;
            let report = estore::run(&cfg);
            push_common(&mut result, &report.eval, Direction::Lower);
            // E-Store's rules reserve hot roots, so its end state is uneven
            // by design.
            ungate(&mut result, "balance_score");
            result.push("tail_ms", report.tail_ms, Direction::Lower);
        }
        "media" => {
            let mut cfg = media::MediaConfig::preset(scale);
            cfg.backend = backend;
            if let Some(s) = seed {
                cfg.seed = s;
            }
            result.seed = cfg.seed;
            let report = media::run(&cfg);
            push_common(&mut result, &report.eval, Direction::Info);
            result.push("mean_latency_ms", report.mean_ms, Direction::Lower);
            result.push("plateau_latency_ms", report.plateau_ms, Direction::Lower);
            // The plateau window opens at 600 s, when the smoke run ends.
            if scale == EvalScale::Smoke {
                ungate(&mut result, "plateau_latency_ms");
            }
            result.push("peak_servers", report.peak_servers as f64, Direction::Info);
            result.push(
                "final_servers",
                report.final_servers as f64,
                Direction::Lower,
            );
        }
        "halo" => {
            let mut cfg = halo::HaloConfig::preset(scale);
            cfg.backend = backend;
            if let Some(s) = seed {
                cfg.seed = s;
            }
            result.seed = cfg.seed;
            let report = halo::run(&cfg);
            push_common(&mut result, &report.eval, Direction::Lower);
            result.push("mean_latency_ms", report.mean_ms, Direction::Lower);
            result.push("peak_latency_ms", report.peak_ms, Direction::Lower);
            let (on_home, total) = report.colocated;
            result.push(
                "colocated_fraction",
                if total == 0 {
                    1.0
                } else {
                    on_home as f64 / total as f64
                },
                Direction::Higher,
            );
        }
        "eval-engine" => {
            use plasma_cluster::ServerId;
            use plasma_emr::eval::{naive, solve_bound, BoundRule};
            use plasma_emr::view::{EvalCtx, EvalFrame};

            let world_seed = seed.unwrap_or(0x4556_414C); // "EVAL"
            result.seed = world_seed;
            let (n_servers, n_actors) = match scale {
                EvalScale::Smoke => (8u32, 600u64),
                EvalScale::Full => (32, 3000),
                EvalScale::Xl => (128, 50_000),
            };
            let (snap, servers) = super::synth::synth_world(n_servers, n_actors, world_seed);
            let snap = std::sync::Arc::new(snap);
            let (types, fns) = super::synth::name_tables();
            let frame = EvalFrame::from_parts(snap, servers.clone(), types, fns);
            let scope: Vec<ServerId> = servers.iter().map(|s| s.id).collect();
            let schema = super::synth::schema();
            result.push("servers", n_servers as f64, Direction::Info);
            result.push("actors", n_actors as f64, Direction::Info);
            let mut agree = 0usize;
            // Actor rows each evaluator reads per rule (indexed, naive).
            let mut rows = Vec::new();
            for (name, src) in super::synth::RULES {
                let policy = plasma_epl::compile(src, &schema).expect("synth rule compiles");
                let rule = &policy.rules[0];
                let ctx = EvalCtx::scoped(&frame, &scope);
                let envs = solve_bound(&BoundRule::bind(rule, &frame), &ctx);
                let naive_ctx = EvalCtx::scoped(&frame, &scope);
                if envs == naive::solve(rule, &naive_ctx) {
                    agree += 1;
                }
                rows.push((name, ctx.rows_examined(), naive_ctx.rows_examined()));
                result.push(&format!("envs_{name}"), envs.len() as f64, Direction::Info);
            }
            // 1.0 = the indexed evaluator and the naive AST oracle agree on
            // every rule shape; any drop gates the comparison.
            result.push(
                "oracle_agreement",
                agree as f64 / super::synth::RULES.len() as f64,
                Direction::Higher,
            );
            let (builds, ticks, rebuilds, patches) =
                super::synth::sharing_probe(4, 120, world_seed);
            result.push("snapshot_builds", builds as f64, Direction::Info);
            result.push("emr_ticks", ticks, Direction::Info);
            result.push("frame_rebuilds", rebuilds, Direction::Info);
            result.push("frame_patches", patches, Direction::Higher);
            // Evaluator work, appended so earlier lines stay byte-identical.
            // Each rule shape is gated on its own: a shape that loses its
            // index path can multiply its rows while barely moving a total.
            for &(name, indexed, _) in &rows {
                result.push(&format!("rows_{name}"), indexed as f64, Direction::Lower);
            }
            for &(name, _, naive) in &rows {
                result.push(&format!("naive_rows_{name}"), naive as f64, Direction::Info);
            }
            // 1 = the naive walker reads at least 3x the indexed rows.
            let indexed: u64 = rows.iter().map(|r| r.1).sum();
            let naive: u64 = rows.iter().map(|r| r.2).sum();
            result.push(
                "claim_indexed_eval",
                f64::from(u8::from(naive >= 3 * indexed)),
                Direction::Exact,
            );
        }
        "chatroom-chaos" => {
            let mut cfg = chatroom::ChatConfig::chaos_preset(scale);
            cfg.backend = backend;
            if let Some(s) = seed {
                cfg.seed = s;
            }
            result.seed = cfg.seed;
            let run_for = match scale {
                EvalScale::Smoke => SimDuration::from_secs(90),
                EvalScale::Full | EvalScale::Xl => SimDuration::from_secs(180),
            };
            let report = chatroom::run_chaos(&cfg, run_for);
            push_common(&mut result, &report.eval, Direction::Info);
            ungate(&mut result, "frame_patches");
            push_chaos(&mut result, &report.chaos);
            result.push("replies", report.replies as f64, Direction::Higher);
        }
        "estore-chaos" => {
            let mut cfg = estore::EstoreConfig::chaos_preset(scale);
            cfg.backend = backend;
            if let Some(s) = seed {
                cfg.seed = s;
            }
            result.seed = cfg.seed;
            let report = estore::run(&cfg);
            push_common(&mut result, &report.eval, Direction::Info);
            ungate(&mut result, "balance_score");
            push_chaos(&mut result, &report.chaos);
            result.push("tail_ms", report.tail_ms, Direction::Info);
        }
        "halo-chaos" => {
            let mut cfg = halo::HaloConfig::chaos_preset(scale);
            cfg.backend = backend;
            if let Some(s) = seed {
                cfg.seed = s;
            }
            result.seed = cfg.seed;
            let report = halo::run(&cfg);
            push_common(&mut result, &report.eval, Direction::Info);
            push_chaos(&mut result, &report.chaos);
            result.push("mean_latency_ms", report.mean_ms, Direction::Info);
            let (on_home, total) = report.colocated;
            result.push(
                "colocated_fraction",
                if total == 0 {
                    1.0
                } else {
                    on_home as f64 / total as f64
                },
                Direction::Info,
            );
        }
        _ => unreachable!("spec() vetted the name"),
    }
    Some(result)
}

/// Zeroes carrier-dependent metrics so the byte comparison only sees
/// deterministic values: `backend_*` transport counters describe the
/// carrier itself (frames, wire bytes, injected delay), and `control_*`
/// counters depend on how the carrier partitions the control plane (reply
/// counts per query, wire footprint) — both legitimately differ per
/// medium.
pub fn normalize_for_parity(r: &mut ScenarioResult) {
    for (metric, v) in &mut r.metrics {
        if metric.starts_with("backend_") || metric.starts_with("control_") {
            v.value = 0.0;
        }
    }
}

/// Renders the human summary of one result (one line per metric).
pub fn render_summary(result: &ScenarioResult) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "== {} (§{}, scale={}, seed={}) ==\n",
        result.scenario, result.paper_section, result.scale, result.seed
    ));
    for (name, m) in &result.metrics {
        let tag = match m.direction {
            Direction::Lower => "↓",
            Direction::Higher => "↑",
            Direction::Info => " ",
            Direction::Exact => "=",
        };
        out.push_str(&format!("  {tag} {name:<28} {:>14.6}\n", m.value));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_resolvable() {
        for s in SCENARIOS {
            assert!(spec(s.name).is_some());
        }
        let mut names: Vec<&str> = SCENARIOS.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), SCENARIOS.len());
    }

    #[test]
    fn unknown_scenario_is_none() {
        assert!(run_scenario("nope", EvalScale::Smoke, None).is_none());
    }

    #[test]
    fn chatroom_smoke_produces_headline_metrics() {
        let r = run_scenario("chatroom", EvalScale::Smoke, None).unwrap();
        assert_eq!(r.scenario, "chatroom");
        assert!(r.metric("makespan_s").unwrap().value > 0.0);
        assert!(r.metric("epr_overhead_ratio").unwrap().value > 1.0);
        assert!(r.metric("throughput_rps").unwrap().value > 0.0);
    }
}
