//! The paper-figure scenarios: Tables 1 and 3, Figs. 5–11 of PLASMA §5 and
//! the EMR design ablations, as EXPERIMENTS.md reproduces them.
//!
//! Each runs its figure's paper config on the sim backend under the
//! figure's fixed seeds. For every arm (one configuration the figure
//! compares, e.g. Fig. 9's PLASMA, in-app and no-elasticity runs) it
//! records the headline numbers and the run's `decision_digest` (`exact`).
//! The numbers of PLASMA's own arms gate by direction; the arms PLASMA is
//! compared against are `info`. Then come the margins the EXPERIMENTS.md
//! verdicts rest on, gated by direction, and one 0/1 `claim_*` scalar per
//! verdict, gated `exact`, so a verdict that flips fails `compare`.
//!
//! A figure result records scale `full` and the seed its arms share (0
//! when they use several seeds or run nothing).

use std::collections::BTreeSet;
use std::fmt::Display;

use plasma_apps::pagerank::{self, PageRankConfig, PageRankReport};
use plasma_apps::{chatroom, estore, halo, media, metadata};
use plasma_cluster::InstanceType;
use plasma_emr::{EmrConfig, PlasmaEmr};
use plasma_sim::SimDuration;

use super::result::{Direction, ScenarioResult};
use super::runner::ScenarioSpec;

use Direction::{Exact, Higher, Info, Lower};

/// The figure scenarios, in EXPERIMENTS.md order (`plasma-eval run
/// figures`).
#[rustfmt::skip]
pub const FIGURES: &[ScenarioSpec] = &[
    figure("table1", "5.1", "Table 1: ten applications, their rules and rule counts"),
    figure("table3", "5.2", "Table 3: EPR profiling overhead on the saturated chat room"),
    figure("fig5", "5.3", "Fig. 5: Metadata Server res-col-rule vs def-rule vs no-rule"),
    figure("fig6", "5.4", "Fig. 6: PageRank vs Orleans; dynamic vs conservative servers"),
    figure("fig7", "5.4", "Fig. 7: PageRank vs Mizan; per-server CPU and workers"),
    figure("fig8", "5.4", "Fig. 8: PageRank dynamic allocation from one server"),
    figure("fig9", "5.5", "Fig. 9: E-Store PLASMA rules vs in-app elasticity vs none"),
    figure("fig10", "5.6", "Fig. 10: Media Service elasticity periods 60/120/180 s"),
    figure("fig11", "5.7", "Fig. 11: Halo rules, per-client spread, 1/2/4 GEMs"),
    figure("ablations", "4.3", "EMR ablations on PageRank: period, residency, GEM loss"),
];

const fn figure(name: &'static str, section: &'static str, summary: &'static str) -> ScenarioSpec {
    ScenarioSpec {
        name,
        paper_section: section,
        summary,
    }
}

/// Runs one figure scenario, or returns `None` for a name that is not one.
pub fn run_figure(name: &str) -> Option<ScenarioResult> {
    let spec = FIGURES.iter().find(|s| s.name == name)?;
    let mut r = ScenarioResult::new(spec.name, spec.paper_section, "full", 0);
    match name {
        "table1" => table1(&mut r),
        "table3" => table3(&mut r),
        "fig5" => fig5(&mut r),
        "fig6" => fig6(&mut r),
        "fig7" => fig7(&mut r),
        "fig8" => fig8(&mut r),
        "fig9" => fig9(&mut r),
        "fig10" => fig10(&mut r),
        "fig11" => fig11(&mut r),
        "ablations" => ablations(&mut r),
        _ => unreachable!("FIGURES vetted the name"),
    }
    Some(r)
}

/// Pushes one arm's metrics, named `<arm>_<metric>`.
struct Arm<'a> {
    result: &'a mut ScenarioResult,
    name: String,
}

fn arm(result: &mut ScenarioResult, name: impl Display) -> Arm<'_> {
    let name = name.to_string();
    Arm { result, name }
}

impl Arm<'_> {
    fn push(&mut self, metric: &str, value: f64, direction: Direction) {
        let name = format!("{}_{metric}", self.name);
        self.result.push(&name, value, direction);
    }

    /// The run's decision digest: its low 32 bits, which an f64 carries
    /// exactly, gated `exact` as in the other scenarios' common block.
    fn digest(&mut self, digest: u64) {
        self.push("decision_digest", (digest & 0xFFFF_FFFF) as f64, Exact);
    }
}

/// Pushes the 0/1 scalar of one EXPERIMENTS.md verdict.
fn claim(r: &mut ScenarioResult, verdict: &str, holds: bool) {
    let value = if holds { 1.0 } else { 0.0 };
    r.push(&format!("claim_{verdict}"), value, Exact);
}

fn min_max(values: impl IntoIterator<Item = f64>) -> (f64, f64) {
    values
        .into_iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| {
            (lo.min(v), hi.max(v))
        })
}

/// `(min, max)` over several series of each one's first or last sample.
fn sample_range<'a>(series: impl Iterator<Item = &'a Vec<(f64, f64)>>, last: bool) -> (f64, f64) {
    min_max(
        series
            .filter_map(|s| if last { s.last() } else { s.first() })
            .map(|p| p.1),
    )
}

/// Mean of the last `n` iteration times: the steady-state iteration time.
fn steady(report: &PageRankReport, n: usize) -> f64 {
    let tail = &report.iteration_times[report.iteration_times.len().saturating_sub(n)..];
    tail.iter().sum::<f64>() / tail.len().max(1) as f64
}

/// Figs. 6a and 7 and the ablations: 32 workers on 8 m5.large, 30
/// iterations.
fn static_allocation(mode: pagerank::Mode, seed: u64) -> PageRankConfig {
    PageRankConfig {
        mode,
        seed,
        max_iters: 30,
        ..PageRankConfig::default()
    }
}

/// Figs. 6b and 8: PLASMA grows a PageRank job from one server.
fn dynamic_allocation() -> PageRankConfig {
    PageRankConfig {
        mode: pagerank::Mode::Plasma,
        servers: 1,
        auto_scale: true,
        max_servers: 16,
        max_iters: 220,
        work_per_edge: 2.0e-4,
        period: SimDuration::from_secs(4),
        seed: 3,
        ..PageRankConfig::default()
    }
}

/// The servers conservative provisioning uses in Figs. 6b and 8.
const CONSERVATIVE_SERVERS: usize = 16;

fn table1(r: &mut ScenarioResult) {
    use plasma_epl::error::Severity;
    let apps = plasma_apps::table1::applications();
    let (mut mismatches, mut notes, mut hard) = (0, 0, 0);
    for entry in &apps {
        let compiled = plasma_apps::table1::compile_entry(entry);
        let rules = compiled.rules.len();
        let key = entry.name.to_ascii_lowercase().replace('+', "");
        let key = key.replace([' ', '-'], "_");
        r.push(&format!("rules_{key}"), rules as f64, Info);
        mismatches += usize::from(rules != entry.paper_rule_count);
        for w in &compiled.warnings {
            match w.severity {
                Severity::Warning => hard += 1,
                Severity::Note => notes += 1,
            }
        }
    }
    // The rule-less chat-room microbenchmark (Table 3) rounds out the ten.
    r.push("rules_chat_room", 0.0, Info);
    let applications = apps.len() + 1;
    r.push("applications", applications as f64, Info);
    r.push("conflict_notes", notes as f64, Info);
    r.push("hard_conflicts", hard as f64, Lower);
    r.push("rule_count_mismatches", mismatches as f64, Lower);
    let holds = applications == 10 && mismatches == 0 && hard == 0;
    claim(r, "table1", holds);
}

fn table3(r: &mut ScenarioResult) {
    const PAPER_WORST: f64 = 1.023;
    let mut worst = 0.0f64;
    for (instance, size) in [
        (InstanceType::m1_small(), "small"),
        (InstanceType::m1_medium(), "medium"),
    ] {
        for users in [8usize, 16, 32] {
            let ratio = chatroom::normalized_overhead(users, instance.clone(), 7 + users as u64);
            r.push(&format!("overhead_{users}_{size}"), ratio, Lower);
            worst = worst.max(ratio);
        }
    }
    r.push("overhead_max", worst, Lower);
    r.push("paper_worst_margin", PAPER_WORST - worst, Higher);
    claim(r, "table3", worst <= PAPER_WORST);
}

fn fig5(r: &mut ScenarioResult) {
    use metadata::Mode;
    let mut cfg = metadata::MetadataConfig::default();
    r.seed = cfg.seed;
    let mut after = Vec::new();
    for (mode, name, own) in [
        (Mode::ResColRule, "res_col", Lower),
        (Mode::DefRule, "def", Info),
        (Mode::NoRule, "no_rule", Info),
    ] {
        cfg.mode = mode;
        let report = metadata::run(&cfg);
        let mut a = arm(r, name);
        a.push("before_ms", report.before_ms, Info);
        a.push("after_ms", report.after_ms, own);
        a.push("migrations", report.migrations as f64, Info);
        a.digest(report.decision_digest);
        after.push(report.after_ms);
    }
    let res_col_gain = 1.0 - after[0] / after[2];
    let def_gain = 1.0 - after[1] / after[2];
    r.push("res_col_gain", res_col_gain, Higher);
    r.push("def_gain", def_gain, Info);
    r.push("res_col_gain_over_def", res_col_gain - def_gain, Higher);
    claim(r, "fig5", res_col_gain >= 0.40 && res_col_gain > def_gain);
}

fn fig6(r: &mut ScenarioResult) {
    use pagerank::Mode;
    // (a) Static allocation, 16 vCPU: five random placements.
    let (mut plasma, mut orleans, mut gains) = (Vec::new(), Vec::new(), Vec::new());
    let mut orleans_migrations = 0;
    for seed in [1u64, 5, 9, 13, 21] {
        let p = pagerank::run(&static_allocation(Mode::Plasma, seed));
        let o = pagerank::run(&static_allocation(Mode::Orleans, seed));
        for (system, report) in [("plasma", &p), ("orleans", &o)] {
            let mut a = arm(r, format!("{system}_seed{seed}"));
            a.push("converged_s", report.converged_time, Info);
            a.digest(report.eval.decision_digest);
        }
        plasma.push(p.converged_time);
        orleans.push(o.converged_time);
        gains.push(1.0 - p.converged_time / o.converged_time);
        orleans_migrations += o.migrations;
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let (plasma, orleans) = (mean(&plasma), mean(&orleans));
    let (worst_gain, best_gain) = min_max(gains);
    r.push("plasma_converged_s", plasma, Lower);
    r.push("orleans_converged_s", orleans, Info);
    r.push("orleans_migrations", orleans_migrations as f64, Info);
    r.push("seed_gain_min", worst_gain, Info);
    r.push("seed_gain_max", best_gain, Info);
    r.push("speedup", 1.0 - plasma / orleans, Higher);
    claim(r, "fig6a", worst_gain > 0.0 && orleans_migrations == 0);

    // (b) Dynamic allocation from one server vs conservative provisioning.
    let dynamic = pagerank::run(&dynamic_allocation());
    let conservative = pagerank::run(&PageRankConfig {
        mode: Mode::None,
        servers: CONSERVATIVE_SERVERS,
        partitions: 32,
        max_iters: 220,
        work_per_edge: 2.0e-4,
        seed: 3,
        ..PageRankConfig::default()
    });
    for (name, report, own) in [
        ("dynamic", &dynamic, Lower),
        ("conservative", &conservative, Info),
    ] {
        let mut a = arm(r, name);
        a.push("steady_iter_s", steady(report, 20), own);
        a.push("final_servers", report.final_servers as f64, own);
        a.digest(report.eval.decision_digest);
    }
    let saving = 1.0 - dynamic.final_servers as f64 / CONSERVATIVE_SERVERS as f64;
    r.push("server_saving", saving, Higher);
    let penalty = steady(&dynamic, 20) / steady(&conservative, 20) - 1.0;
    r.push("steady_iter_penalty", penalty, Lower);
    claim(r, "fig6b_saves_servers", saving > 0.0);
}

fn fig7(r: &mut ScenarioResult) {
    use pagerank::Mode;
    let run = |mode| pagerank::run(&static_allocation(mode, 21));
    r.seed = 21;
    // (a) Steady-state iteration time with and without elasticity.
    let (plasma, none, mizan) = (run(Mode::Plasma), run(Mode::None), run(Mode::Mizan));
    for (name, report, own) in [
        ("plasma", &plasma, Lower),
        ("none", &none, Info),
        ("mizan", &mizan, Info),
    ] {
        let mut a = arm(r, name);
        a.push("steady_iter_s", steady(report, 6), own);
        a.push("migrations", report.migrations as f64, Info);
        a.digest(report.eval.decision_digest);
    }
    let gain = |report| 1.0 - steady(report, 6) / steady(&none, 6);
    let (plasma_gain, mizan_gain) = (gain(&plasma), gain(&mizan));
    r.push("plasma_gain", plasma_gain, Higher);
    r.push("mizan_gain", mizan_gain, Info);
    r.push("plasma_gain_over_mizan", plasma_gain - mizan_gain, Higher);
    claim(r, "fig7a", plasma_gain > mizan_gain && mizan_gain > 0.0);

    // (b, c) Per-server CPU and worker counts per redistribution, PLASMA run.
    let (cpu_lo0, cpu_hi0) = sample_range(plasma.server_cpu.values(), false);
    let (cpu_lo1, cpu_hi1) = sample_range(plasma.server_cpu.values(), true);
    let (workers_lo, workers_hi) = sample_range(plasma.server_actors.values(), true);
    let rounds = plasma.server_cpu.values().map(Vec::len).max().unwrap_or(0);
    r.push("redistributions", rounds as f64, Info);
    r.push("cpu_first_min", cpu_lo0, Info);
    r.push("cpu_first_max", cpu_hi0, Info);
    r.push("cpu_last_min", cpu_lo1, Info);
    r.push("cpu_last_max", cpu_hi1, Info);
    r.push("workers_last_min", workers_lo, Info);
    r.push("workers_last_max", workers_hi, Info);
    let (spread0, spread1) = (cpu_hi0 - cpu_lo0, cpu_hi1 - cpu_lo1);
    r.push("cpu_spread_cut", 1.0 - spread1 / spread0, Higher);
    claim(r, "fig7bc", spread1 < spread0 && workers_hi > workers_lo);
}

fn fig8(r: &mut ScenarioResult) {
    let cfg = dynamic_allocation();
    r.seed = cfg.seed;
    let report = pagerank::run(&cfg);
    let first = report.iteration_times.first().copied().unwrap_or(0.0);
    let steady_s = steady(&report, 20);
    r.push("first_iter_s", first, Info);
    r.push("steady_iter_s", steady_s, Lower);
    r.push("iteration_speedup", first / steady_s, Higher);
    // The server-count staircase: how far each change steps, and the time
    // between successive boots.
    let counts = &report.server_count;
    let changes: Vec<(f64, f64)> = counts
        .windows(2)
        .map(|w| (w[1].0, w[1].1 - w[0].1))
        .collect();
    let boots: Vec<f64> = changes.iter().filter(|c| c.1 > 0.0).map(|c| c.0).collect();
    let (gap_lo, gap_hi) = min_max(boots.windows(2).map(|w| w[1] - w[0]));
    let largest_step = min_max(changes.iter().map(|c| c.1)).1;
    let peak = min_max(counts.iter().map(|c| c.1)).1;
    r.push("peak_servers", peak, Info);
    r.push("final_servers", report.final_servers as f64, Lower);
    r.push("largest_server_step", largest_step, Lower);
    r.push("boot_gap_min_s", gap_lo, Info);
    r.push("boot_gap_max_s", gap_hi, Info);
    let (cpu_lo, cpu_hi) = sample_range(report.server_cpu.values(), true);
    r.push("final_cpu_min", cpu_lo, Info);
    r.push("final_cpu_max", cpu_hi, Info);
    r.push("migrations", report.migrations as f64, Info);
    arm(r, "dynamic").digest(report.eval.decision_digest);
    let saving = 1.0 - report.final_servers as f64 / CONSERVATIVE_SERVERS as f64;
    r.push("server_saving", saving, Higher);
    let staircase = largest_step <= 1.0 && saving > 0.0 && steady_s < first;
    claim(r, "fig8_staircase", staircase);
}

fn fig9(r: &mut ScenarioResult) {
    use estore::Mode;
    let mut cfg = estore::EstoreConfig::default();
    r.seed = cfg.seed;
    let mut tails = Vec::new();
    for (mode, name, own) in [
        (Mode::Plasma, "plasma", Lower),
        (Mode::Native, "native", Info),
        (Mode::None, "none", Info),
    ] {
        cfg.mode = mode;
        let report = estore::run(&cfg);
        let mut a = arm(r, name);
        a.push("tail_ms", report.tail_ms, own);
        a.push("migrations", report.migrations as f64, Info);
        a.digest(report.eval.decision_digest);
        tails.push(report.tail_ms);
    }
    let ratio = tails[0] / tails[1];
    r.push("plasma_native_ratio", ratio, Lower);
    r.push("plasma_gain", 1.0 - tails[0] / tails[2], Higher);
    r.push("native_gain", 1.0 - tails[1] / tails[2], Info);
    let both_beat_none = tails[0] < tails[2] && tails[1] < tails[2];
    claim(r, "fig9", both_beat_none && (ratio - 1.0).abs() <= 0.1);
}

fn fig10(r: &mut ScenarioResult) {
    let mut cfg = media::MediaConfig::default();
    r.seed = cfg.seed;
    let mut runs = Vec::new();
    for secs in [60u64, 120, 180] {
        cfg.period = SimDuration::from_secs(secs);
        let report = media::run(&cfg);
        let mut a = arm(r, format!("period{secs}s"));
        a.push("mean_ms", report.mean_ms, Lower);
        a.push("plateau_ms", report.plateau_ms, Lower);
        a.push("peak_servers", report.peak_servers as f64, Info);
        a.push("final_servers", report.final_servers as f64, Info);
        a.push("migrations", report.migrations as f64, Info);
        a.digest(report.eval.decision_digest);
        runs.push(report);
    }
    let start = cfg.initial_servers;
    r.push("start_servers", start as f64, Info);
    let (fast, slower) = (&runs[0], &runs[1..]);
    let next_mean = min_max(slower.iter().map(|s| s.mean_ms)).0;
    let next_plateau = min_max(slower.iter().map(|s| s.plateau_ms)).0;
    let gain = 1.0 - fast.mean_ms / next_mean;
    r.push("mean_gain_over_next_period", gain, Higher);
    let lowest = fast.mean_ms < next_mean && fast.plateau_ms < next_plateau;
    let only_fast_reclaims_all =
        fast.final_servers == start && slower.iter().all(|s| s.final_servers > start);
    claim(r, "fig10", lowest && only_fast_reclaims_all);
}

fn fig11(r: &mut ScenarioResult) {
    use halo::{HaloConfig, HaloScaleConfig, Mode};
    // (a) Interaction rule vs frequency-based default rule.
    let inter = halo::run(&HaloConfig::default());
    let def = halo::run(&HaloConfig {
        mode: Mode::DefRule,
        ..HaloConfig::default()
    });
    for (name, report, own) in [("inter_rule", &inter, Lower), ("def_rule", &def, Info)] {
        let mut a = arm(r, name);
        a.push("mean_ms", report.mean_ms, own);
        a.push("peak_ms", report.peak_ms, own);
        a.push("migrations", report.migrations as f64, Info);
        a.digest(report.eval.decision_digest);
    }
    let peak_excess = def.peak_ms / inter.peak_ms - 1.0;
    r.push("def_rule_peak_excess", peak_excess, Higher);
    let smoother = inter.peak_ms - inter.mean_ms < def.peak_ms - def.mean_ms;
    claim(r, "fig11a", inter.mean_ms < def.mean_ms && smoother);

    // (b) Per-client latency under the default rule, first round.
    let single = halo::run(&HaloConfig {
        mode: Mode::DefRule,
        rounds: 1,
        clients: 8,
        ..HaloConfig::default()
    });
    let clients = || single.client_latency.iter().map(|(_, series)| series);
    let (first_lo, first_hi) = sample_range(clients(), false);
    let (last_lo, last_hi) = sample_range(clients(), true);
    r.push("client_first_min_ms", first_lo, Info);
    r.push("client_first_max_ms", first_hi, Info);
    r.push("client_final_min_ms", last_lo, Info);
    r.push("client_final_max_ms", last_hi, Info);
    let (first_spread, last_spread) = (first_hi / first_lo - 1.0, last_hi / last_lo - 1.0);
    r.push("client_first_spread", first_spread, Info);
    r.push("client_final_spread", last_spread, Lower);
    arm(r, "per_client").digest(single.eval.decision_digest);
    r.push("client_spread_cut", first_spread - last_spread, Higher);
    claim(r, "fig11b", last_spread < first_spread);

    // (c) Router balance with 1, 2 and 4 GEMs.
    let mut tails = Vec::new();
    let mut all_migrate = true;
    for gems in [1usize, 2, 4] {
        let report = halo::run_scale(&HaloScaleConfig {
            gems,
            ..HaloScaleConfig::default()
        });
        let mut a = arm(r, format!("gems{gems}"));
        a.push("tail_ms", report.tail_ms, Lower);
        a.push("migrations", report.migrations as f64, Info);
        a.digest(report.decision_digest);
        tails.push(report.tail_ms);
        all_migrate &= report.migrations > 0;
    }
    let (lo, hi) = min_max(tails);
    r.push("gem_tail_spread", hi / lo - 1.0, Lower);
    claim(r, "fig11c", hi / lo - 1.0 <= 0.05 && all_migrate);
}

fn ablations(r: &mut ScenarioResult) {
    let mut cfg = static_allocation(pagerank::Mode::Plasma, 21);
    r.seed = cfg.seed;
    // 1. Elasticity period sweep (the period also sets the residency timer).
    let default_period = cfg.period;
    let mut sweep = Vec::new();
    for secs in [1u64, 2, 4, 8, 16] {
        cfg.period = SimDuration::from_secs(secs);
        let report = pagerank::run(&cfg);
        let mut a = arm(r, format!("period{secs}s"));
        a.push("steady_iter_s", steady(&report, 6), Lower);
        a.push("migrations", report.migrations as f64, Info);
        a.digest(report.eval.decision_digest);
        sweep.push(report);
    }
    let short = min_max(sweep[..3].iter().map(|s| steady(s, 6))).1;
    let long = min_max(sweep[3..].iter().map(|s| steady(s, 6))).0;
    r.push("short_period_gain", 1.0 - short / long, Higher);
    let busier = sweep[0].migrations > sweep[3].migrations;
    claim(r, "period_sweep", short < long && busier);

    // 2. Residency timer off. Its baseline is the 2 s sweep arm: the
    // default period, with residency equal to it.
    let with = &sweep[1];
    cfg.period = default_period;
    cfg.min_residency = Some(SimDuration::ZERO);
    let without = pagerank::run(&cfg);
    let moved: BTreeSet<u64> = without.migration_events.iter().map(|m| m.1).collect();
    let mut a = arm(r, "no_residency");
    a.push("steady_iter_s", steady(&without, 6), Info);
    a.push("migrations", without.migrations as f64, Info);
    a.push(
        "repeat_moves",
        (without.migrations - moved.len()) as f64,
        Info,
    );
    a.digest(without.eval.decision_digest);
    let saved = without.migrations as f64 - with.migrations as f64;
    r.push("residency_migrations_saved", saved, Higher);
    claim(r, "residency", saved > 0.0);

    // 3. GEM failure: one of two GEMs fails and the survivor keeps the
    // policy (EMR tests show planning proceeding on it).
    let policy =
        plasma_epl::compile(pagerank::policy(), &pagerank::schema()).expect("policy compiles");
    let gems = EmrConfig {
        num_gems: 2,
        ..EmrConfig::default()
    };
    let mut emr = PlasmaEmr::new(policy, gems);
    emr.fail_gem(0);
    r.push("gems_alive_after_failure", emr.alive_gems() as f64, Info);
    claim(r, "gem_failure", emr.alive_gems() == 1);
}
