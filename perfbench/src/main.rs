//! Wall-clock benchmark of the PLASMA workspace.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! perfbench check
//! ```
//!
//! The first form runs one workload repeatedly for `S` seconds through the
//! public `Plasma` builder API and prints its end-to-end metrics (`--trace
//! 0`) or its per-layer breakdown (`--trace 1`), ending with one JSON line.
//! `check` proves at reduced size that the instrumentation leaves every
//! decision unchanged and that each carrier agrees with sim on both the
//! default and the held-out seed. See `perfbench/README.md`.

mod cpu;
mod measure;
mod probe;
mod stats;
mod workload;

use std::fmt::Write as _;
use std::hint::black_box;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use plasma::prelude::*;
use plasma_backend::{Delivery, Execution};
use plasma_net::{Frame, FrameBuffer};

use measure::{failure, guarded, Mode, Outcome};
use stats::{median, percentile};
use workload::{Shape, Workload, DEFAULT_SEED, HELD_OUT_SEED};

/// Keep iterating past `--seconds` until every instance has run
/// [`REPEATS`] times in whole cycles, but never past this, so that with
/// set-up, references and memory runs a run ends well within 180 s.
const HARD_CAP: Duration = Duration::from_secs(100);
/// Set-ups timed on their own before anything else runs, at least this
/// many and for at least [`SETUP_SPAN`]; `setup_s` is their median.
const SETUP_REPEATS: usize = 40;
/// The host's speed changes every few seconds, so set-ups are spread over
/// more than one such stretch.
const SETUP_SPAN: Duration = Duration::from_secs(2);
/// The fewest seeded instances of the workload one run cycles through, so
/// that every figure is taken over several inputs and one seed's elasticity
/// trajectory cannot decide a run's figures.
const INSTANCES: usize = 4;
/// Samples p80 needs, the highest percentile reported, to leave
/// `stats::MIN_BEYOND` beyond it.
const P80_SAMPLES: usize = 50;
/// Untraced runs of each instance before a run may stop. Every end-to-end
/// timing is scaled to the reference host speed ([`cpu::speed`]) and then
/// keeps the fastest repeat of its instance, window or round: what the
/// scaling misses of the shared host's slowdowns only ever adds time, so
/// the fastest repeat is the one nearest the program's own cost.
const REPEATS: usize = 3;
/// The bound `BENCHMARK.json` gives `run_wall_s`; `check` holds the sliced
/// run to it against the bare one.
const RUN_WALL_BOUND: f64 = 0.25;

/// The seed of instance `i` of a run seeded with `seed`; instance 0 runs
/// `seed` itself.
fn instance_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_add((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Instances one run cycles through: [`INSTANCES`], or more where one
/// instance has too few decision rounds for a cycle to give p80 its
/// samples (`estore-skew-net` has 7 rounds, so it cycles through 8).
fn instance_count(shape: &Shape) -> usize {
    let rounds = (shape.run_s / shape.period_s).max(1) as usize;
    INSTANCES.max(P80_SAMPLES.div_ceil(rounds))
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or(format!("bad seconds {value}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("check") {
        return check();
    }
    match parse(&args) {
        Ok(a) => bench(&a),
        Err(e) => {
            let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload {{{}}} --seed N --seconds S --trace 0|1\n       perfbench check",
                names.join("|")
            );
            ExitCode::from(2)
        }
    }
}

/// One metric as printed: name, value, unit and where it came from.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    samples: String,
}

fn metric(name: &'static str, value: f64, unit: &'static str, samples: String) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples,
    }
}

fn bench(args: &Args) -> ExitCode {
    let w = args.workload;
    let shape = w.shape(false);
    let backend = w.backend();
    println!(
        "workload {} backend {:?} seed {} seconds {} trace {}",
        w.name(),
        backend,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let instances = instance_count(&shape);
    let seeds: Vec<u64> = (0..instances)
        .map(|i| instance_seed(args.seed, i))
        .collect();
    // Set-ups first, while the process is fresh, so every run times them in
    // the same allocator state.
    let mut setups = Vec::new();
    let mut raw_setups = Vec::new();
    let setup_start = Instant::now();
    while !args.trace && (setups.len() < SETUP_REPEATS || setup_start.elapsed() < SETUP_SPAN) {
        let seed = seeds[setups.len() % instances];
        cpu::pin_fastest();
        let before = cpu::speed();
        match guarded(|| measure::setup(&shape, seed, backend, Mode::Untraced)) {
            Ok((app, _, setup)) => {
                let after = cpu::speed();
                drop(app);
                let s = setup.total().as_secs_f64();
                raw_setups.push(s);
                setups.push(s * (before * after).sqrt());
            }
            Err(why) => {
                println!("set-up failed: {why}");
                println!("{}", result_json(false, 1, 1, &[]));
                return ExitCode::FAILURE;
            }
        }
    }
    // One SimBackend reference per instance, through the application's own
    // path (the bare `PlasmaEmr`, one `run_until`).
    let mut references = Vec::with_capacity(instances);
    for &seed in &seeds {
        match guarded(|| measure::run(&shape, seed, BackendKind::Sim, Mode::Bare)) {
            Ok(o) => {
                println!(
                    "reference sim run, seed {seed}: {} decisions, digest {:016x}, \
                     {} dropped, {} orphan replies",
                    o.decisions, o.digest, o.dropped_messages, o.orphan_replies
                );
                references.push(o.reference());
            }
            Err(why) => {
                println!("reference sim run failed, seed {seed}: {why}");
                println!("{}", result_json(false, 1, 1, &[]));
                return ExitCode::FAILURE;
            }
        }
    }
    if args.seed == DEFAULT_SEED && references[0].digest != w.recorded_digest() {
        println!(
            "note: sim digest {:016x} differs from the recorded {:016x}: \
             this build decides differently",
            references[0].digest,
            w.recorded_digest()
        );
    }
    let deadline = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    // Kept iterations, per instance.
    let mut kept: Vec<Vec<Vec<Outcome>>> = (0..instances).map(|_| Vec::new()).collect();
    let runs_per_iteration = if args.trace { 3 } else { 1 };
    // Traced figures are medians over iterations and need no repeats; a
    // cycle of `media-churn-live` alone takes about 20 s, so it runs once.
    let repeats = if args.trace || w == Workload::MediaChurnLive {
        1
    } else {
        REPEATS
    };
    loop {
        let elapsed = start.elapsed();
        // Whole cycles only, so every instance weighs the same.
        let cycles = kept.iter().map(Vec::len).min().unwrap_or(0);
        let enough = cycles >= repeats && kept.iter().all(|k| k.len() == cycles);
        if (elapsed >= deadline && (enough || failed > 0)) || elapsed >= HARD_CAP {
            break;
        }
        let instance = attempted as usize % instances;
        let (seed, sim) = (seeds[instance], &references[instance]);
        attempted += 1;
        let mut iteration = Vec::with_capacity(runs_per_iteration);
        let mut why = None;
        for k in 0..runs_per_iteration {
            // Traced iterations run the workload traced, then untraced, then
            // untraced on SimBackend (the untraced run already is one on a
            // sim workload).
            let (on, mode) = match k {
                0 if args.trace => (backend, Mode::Traced),
                2 if backend == BackendKind::Sim => break,
                2 => (BackendKind::Sim, Mode::Untraced),
                _ => (backend, Mode::Untraced),
            };
            match guarded(|| measure::run(&shape, seed, on, mode)) {
                Ok(o) => {
                    if let Some(f) = failure(&o, sim) {
                        why = Some(f);
                        break;
                    }
                    iteration.push(o);
                }
                Err(f) => {
                    why = Some(f);
                    break;
                }
            }
        }
        match why {
            Some(why) => {
                failed += 1;
                println!("iteration {attempted} (seed {seed}) failed: {why}");
            }
            None => {
                let o = &iteration[0];
                println!(
                    "iteration {attempted} (seed {seed}): setup {:.2} ms, run_until {:.1} ms \
                     ({:.1} ms at reference speed), {} deliveries, {} rounds",
                    ms(o.setup.total()),
                    ms(o.run_wall),
                    o.scaled().run_wall_s * 1e3,
                    o.backend.deliveries,
                    o.probe.round_ns.len()
                );
                kept[instance].push(iteration);
            }
        }
    }
    // Peak memory from one more run of each instance, untimed, each after
    // a heap trim and a `VmHWM` reset; trimming before a timed run would
    // add the page faults of a fresh heap to its time.
    let mut peaks = Vec::new();
    if !args.trace && failed == 0 {
        for (&seed, sim) in seeds.iter().zip(&references) {
            attempted += 1;
            measure::reset_peak_rss();
            match guarded(|| measure::run(&shape, seed, backend, Mode::Untraced)) {
                Ok(o) => match failure(&o, sim) {
                    None => peaks.push(o.peak_rss_mb),
                    Some(why) => {
                        failed += 1;
                        println!("memory run (seed {seed}) failed: {why}");
                    }
                },
                Err(why) => {
                    failed += 1;
                    println!("memory run (seed {seed}) failed: {why}");
                }
            }
        }
    }
    let correct = failed == 0 && kept.iter().all(|k| !k.is_empty());
    println!(
        "iterations {attempted}, failed {failed}: failed_fraction {} (ratio)",
        failed as f64 / attempted.max(1) as f64
    );
    let metrics = if kept.iter().all(Vec::is_empty) {
        Vec::new()
    } else if args.trace {
        per_layer(&kept.into_iter().flatten().collect::<Vec<_>>())
    } else {
        for m in end_to_end(&kept, &raw_setups, &peaks, Timings::raw) {
            println!(
                "as measured: {:<28} {:>14.4} {:<6}",
                m.name, m.value, m.unit
            );
        }
        end_to_end(&kept, &setups, &peaks, Timings::scaled)
    };
    for m in &metrics {
        println!(
            "{:<28} {:>14.4} {:<6} {}",
            m.name, m.value, m.unit, m.samples
        );
    }
    let finite = metrics.iter().all(|m| m.value.is_finite());
    println!(
        "{}",
        result_json(correct && finite, attempted, failed, &metrics)
    );
    ExitCode::SUCCESS
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn ns_to_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// One run's end-to-end timings.
struct Timings {
    run_wall_s: f64,
    deliveries: u64,
    window_ms: Vec<f64>,
    round_ms: Vec<f64>,
}

impl Timings {
    /// At the reference host speed (see [`cpu::speed`]).
    fn scaled(o: &Outcome) -> Self {
        let s = o.scaled();
        Timings {
            run_wall_s: s.run_wall_s,
            deliveries: o.backend.deliveries,
            window_ms: s.window_ms,
            round_ms: s.round_ms,
        }
    }

    /// As measured.
    fn raw(o: &Outcome) -> Self {
        Timings {
            run_wall_s: o.run_wall.as_secs_f64(),
            deliveries: o.backend.deliveries,
            window_ms: o.window_ms.clone(),
            round_ms: o.probe.round_ns.iter().map(|&ns| ns_to_ms(ns)).collect(),
        }
    }
}

/// The end-to-end metrics, from the run timings `timings` gives. Each
/// instance counts with its fastest repeat: `run_wall_s` and
/// `deliveries_per_s` are medians over instances of each one's fastest run,
/// and the percentiles pool, over instances, the fastest repeat of each
/// window and of each decision round. `setup_s` and `peak_rss_mb` are the
/// medians of `setups` and `peaks`.
fn end_to_end(
    kept: &[Vec<Vec<Outcome>>],
    setups: &[f64],
    peaks: &[f64],
    timings: fn(&Outcome) -> Timings,
) -> Vec<Metric> {
    let runs: Vec<Vec<Timings>> = kept
        .iter()
        .filter(|k| !k.is_empty())
        .map(|k| k.iter().map(|i| timings(&i[0])).collect())
        .collect();
    let repeats = runs.iter().map(Vec::len).min().unwrap_or(0);
    let fastest: Vec<&Timings> = runs
        .iter()
        .filter_map(|r| {
            r.iter()
                .min_by(|a, b| a.run_wall_s.total_cmp(&b.run_wall_s))
        })
        .collect();
    let over =
        |f: &dyn Fn(&Timings) -> f64| median(&fastest.iter().map(|t| f(t)).collect::<Vec<_>>());
    let of_iterations = format!(
        "median over {} seeds of the fastest of {repeats}+ runs each",
        fastest.len()
    );
    let windows = fastest_slots(&runs, |t| &t.window_ms);
    let rounds = fastest_slots(&runs, |t| &t.round_ms);
    let pct = |samples: &[f64], p: u32| match percentile(samples, p) {
        Ok(q) => (
            q.value,
            format!(
                "p{p} of {} samples, {} beyond; each the fastest of {repeats}+ runs",
                q.samples, q.beyond
            ),
        ),
        Err(e) => (f64::NAN, e.to_string()),
    };
    let (w50, w50n) = pct(&windows, 50);
    let (w75, w75n) = pct(&windows, 75);
    let (r50, r50n) = pct(&rounds, 50);
    let (r80, r80n) = pct(&rounds, 80);
    vec![
        metric(
            "setup_s",
            median(setups),
            "s",
            format!("median of {} set-ups", setups.len()),
        ),
        metric(
            "run_wall_s",
            over(&|t| t.run_wall_s),
            "s",
            of_iterations.clone(),
        ),
        metric(
            "deliveries_per_s",
            over(&|t| t.deliveries as f64 / t.run_wall_s),
            "1/s",
            of_iterations.clone(),
        ),
        metric("window_ms_p50", w50, "ms", w50n),
        metric("window_ms_p75", w75, "ms", w75n),
        metric("decision_round_ms_p50", r50, "ms", r50n),
        metric("decision_round_ms_p80", r80, "ms", r80n),
        metric(
            "peak_rss_mb",
            median(peaks),
            "MiB",
            format!("median over {} seeds of one run's VmHWM", peaks.len()),
        ),
    ]
}

/// Each position of `series` (a window, a decision round) at its fastest
/// over an instance's repeats, pooled over instances.
fn fastest_slots(runs: &[Vec<Timings>], series: impl Fn(&Timings) -> &Vec<f64>) -> Vec<f64> {
    let mut slots = Vec::new();
    for repeats in runs {
        let len = repeats.iter().map(|t| series(t).len()).min().unwrap_or(0);
        slots.extend((0..len).map(|k| {
            repeats
                .iter()
                .map(|t| series(t)[k])
                .fold(f64::INFINITY, f64::min)
        }));
    }
    slots
}

/// The layers of one traced iteration, in milliseconds. Together they
/// account for the traced run's whole `run_until` wall time.
struct Layers {
    data_plane: f64,
    window_roll: f64,
    carrier: f64,
    emr_plan: f64,
    emr_apply: f64,
    emr_place: f64,
    other_callbacks: f64,
    shadow_view: f64,
    shadow_eval: f64,
}

impl Layers {
    fn rows(&self) -> [(&'static str, f64); 9] {
        [
            ("data plane (plasma-sim + plasma-actor)", self.data_plane),
            ("window roll + report publish", self.window_roll),
            ("carrier (plasma-backend/plasma-net)", self.carrier),
            ("EMR plan (plasma-emr tick)", self.emr_plan),
            ("EMR apply (plasma-emr control)", self.emr_apply),
            ("EMR placement", self.emr_place),
            ("other controller callbacks", self.other_callbacks),
            ("shadow view (harness)", self.shadow_view),
            ("shadow eval (harness)", self.shadow_eval),
        ]
    }

    fn sum(&self) -> f64 {
        self.rows().iter().map(|r| r.1).sum()
    }
}

/// The per-layer metrics of every traced iteration, each reduced to its
/// median over iterations, plus the layer table.
fn per_layer(kept: &[Vec<Outcome>]) -> Vec<Metric> {
    type Row = (&'static str, &'static str, f64);
    let mut rows_per_iteration: Vec<Vec<Row>> = Vec::new();
    let mut tables: Vec<Layers> = Vec::new();
    for iteration in kept {
        let traced = &iteration[0];
        let untraced = &iteration[1];
        let sim = iteration.get(2).unwrap_or(untraced);
        let p = &traced.probe;
        let b = &traced.backend;
        let sum_ns = |v: &[u64]| v.iter().sum::<u64>();
        let rolls = traced.roll_ms.iter().sum::<f64>();
        let carrier = ms(traced.run_self) - ms(sim.run_self);
        let layers = Layers {
            data_plane: ms(traced.run_self) - rolls - carrier,
            window_roll: rolls,
            carrier,
            emr_plan: ns_to_ms(sum_ns(&p.tick_ns)),
            emr_apply: ns_to_ms(sum_ns(&p.apply_ns)),
            emr_place: ns_to_ms(p.place_ns),
            other_callbacks: ns_to_ms(p.other_ns),
            shadow_view: ns_to_ms(p.view.advance_ns + p.view.rebuild_ns),
            shadow_eval: ns_to_ms(p.view.bind_ns + p.view.solve_ns),
        };
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        let to_f = |v: &[u64]| v.iter().map(|&ns| ns as f64).collect::<Vec<_>>();
        let ticks_ms: Vec<f64> = p.tick_ns.iter().map(|&ns| ns_to_ms(ns)).collect();
        let deliveries = b.deliveries as f64;
        rows_per_iteration.push(vec![
            ("epl.compile_ms", "ms", ms(traced.setup.compile)),
            ("backend.launch_ms", "ms", ms(traced.setup.launch)),
            ("actor.world_build_ms", "ms", ms(traced.setup.world)),
            ("actor.run_self_ms", "ms", ms(traced.run_self)),
            ("actor.deliveries", "count", deliveries),
            ("actor.executions", "count", b.executions as f64),
            (
                "actor.ns_per_delivery",
                "ns",
                ratio(traced.run_self.as_nanos() as f64, deliveries),
            ),
            ("actor.window_roll_ms_p50", "ms", median(&traced.roll_ms)),
            (
                "actor.window_roll_ms_max",
                "ms",
                traced.roll_ms.iter().copied().fold(0.0, f64::max),
            ),
            ("actor.windows", "count", traced.roll_ms.len() as f64),
            (
                "actor.snapshot_builds",
                "count",
                traced.snapshot_builds as f64,
            ),
            ("emr.plan_ms_total", "ms", layers.emr_plan),
            ("emr.plan_ms_p50", "ms", median(&ticks_ms)),
            ("emr.ticks", "count", p.tick_ns.len() as f64),
            ("emr.apply_ms_total", "ms", layers.emr_apply),
            ("emr.applies", "count", p.apply_ns.len() as f64),
            (
                "emr.place_us_mean",
                "us",
                ratio(p.place_ns as f64 / 1e3, p.placements as f64),
            ),
            ("emr.placements", "count", p.placements as f64),
            ("emr.decisions", "count", traced.decisions as f64),
            (
                "emr.admit_ratio",
                "ratio",
                ratio(traced.admitted, traced.admitted + traced.rejected),
            ),
            ("view.advance_ms_total", "ms", ns_to_ms(p.view.advance_ns)),
            ("view.advances", "count", p.view.advances as f64),
            ("view.rebuild_ms_total", "ms", ns_to_ms(p.view.rebuild_ns)),
            ("view.rebuilds", "count", p.view.rebuilds as f64),
            (
                "view.patch_ratio",
                "ratio",
                ratio(p.view.advances as f64, p.view.advance_attempts as f64),
            ),
            (
                "view.round_share",
                "ratio",
                ratio(median(&to_f(&p.frame_ns)), median(&to_f(&p.round_ns))),
            ),
            ("eval.bind_ms_total", "ms", ns_to_ms(p.view.bind_ns)),
            ("eval.solve_ms_total", "ms", ns_to_ms(p.view.solve_ns)),
            ("eval.envs", "count", p.view.envs as f64),
            ("backend.carrier_ms", "ms", carrier),
            ("backend.channel_us_mean", "us", b.channel_latency_us_mean()),
            (
                "backend.max_inflight_frames",
                "count",
                b.max_inflight_frames as f64,
            ),
            ("backend.workers_spawned", "count", b.workers_spawned as f64),
            (
                "backend.window_mismatches",
                "count",
                b.window_mismatches as f64,
            ),
            ("net.frames_sent", "count", b.frames_sent as f64),
            ("net.wire_bytes_sent", "bytes", b.wire_bytes_sent as f64),
            (
                "net.bytes_per_delivery",
                "bytes",
                ratio(b.wire_bytes_sent as f64, deliveries),
            ),
            ("control.queries", "count", b.control_queries as f64),
            ("control.replies", "count", b.control_replies as f64),
            ("control.wire_bytes", "bytes", b.control_wire_bytes as f64),
            (
                "trace.overhead_ratio",
                "ratio",
                ratio(ms(traced.run_wall), ms(untraced.run_wall)),
            ),
            (
                "trace.layer_sum_ratio",
                "ratio",
                ratio(layers.sum(), ms(traced.run_wall)),
            ),
        ]);
        tables.push(layers);
    }
    let n = rows_per_iteration.len();
    let mut metrics: Vec<Metric> = (0..rows_per_iteration[0].len())
        .map(|i| {
            let (name, unit, _) = rows_per_iteration[0][i];
            let values: Vec<f64> = rows_per_iteration.iter().map(|r| r[i].2).collect();
            metric(
                name,
                median(&values),
                unit,
                format!("median of {n} traced runs"),
            )
        })
        .collect();
    // The wire codec over a frame stream shaped like the run's carriage:
    // its frame count under net, its deliveries and executions otherwise.
    let traced: Vec<&Outcome> = kept.iter().map(|i| &i[0]).collect();
    let med = |f: &dyn Fn(&BackendStats) -> u64| {
        median(
            &traced
                .iter()
                .map(|o| f(&o.backend) as f64)
                .collect::<Vec<_>>(),
        ) as u64
    };
    let (deliveries, executions) = (med(&|b| b.deliveries), med(&|b| b.executions));
    let frames = match med(&|b| b.frames_sent) {
        0 => deliveries + executions,
        sent => sent,
    };
    let codec: Vec<f64> = (0..3)
        .map(|_| codec_ns_per_frame(frames, deliveries, executions))
        .collect();
    let at = metrics
        .iter()
        .position(|m| m.name == "net.bytes_per_delivery")
        .expect("listed above")
        + 1;
    metrics.insert(
        at,
        metric(
            "net.codec_ns_per_frame",
            median(&codec),
            "ns",
            format!("median of 3 passes over {frames} frames"),
        ),
    );
    print_layers(&tables, &metrics);
    metrics
}

fn print_layers(tables: &[Layers], metrics: &[Metric]) {
    let get = |name: &str| {
        metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    };
    let column = |i: usize| median(&tables.iter().map(|t| t.rows()[i].1).collect::<Vec<_>>());
    let rows = tables[0].rows();
    let total: f64 = median(&tables.iter().map(Layers::sum).collect::<Vec<_>>());
    let mut out = String::new();
    let _ = writeln!(
        out,
        "layer breakdown of the traced run (median of {} runs)",
        tables.len()
    );
    let _ = writeln!(
        out,
        "  {:<40} {:>10}",
        "setup: epl compile",
        format!("{:.2} ms", get("epl.compile_ms"))
    );
    let _ = writeln!(
        out,
        "  {:<40} {:>10}",
        "setup: carrier launch (Plasma::build)",
        format!("{:.2} ms", get("backend.launch_ms"))
    );
    let _ = writeln!(
        out,
        "  {:<40} {:>10}",
        "setup: world build",
        format!("{:.2} ms", get("actor.world_build_ms"))
    );
    for (i, (name, _)) in rows.iter().enumerate() {
        let v = column(i);
        let _ = writeln!(
            out,
            "  {name:<40} {:>10} {:>6.1}%",
            format!("{v:.2} ms"),
            100.0 * v / total
        );
    }
    let _ = writeln!(
        out,
        "  {:<40} {:>10} (run_until wall x {:.4})",
        "sum of layers",
        format!("{total:.2} ms"),
        get("trace.layer_sum_ratio")
    );
    print!("{out}");
}

/// `Frame::encode` plus `FrameBuffer::next` per frame over a stream of
/// `frames` Deliver/Execute frames in the run's delivery:execution mix.
fn codec_ns_per_frame(frames: u64, deliveries: u64, executions: u64) -> f64 {
    let n = frames.max(1);
    let per_delivery = deliveries as f64 / (deliveries + executions).max(1) as f64;
    let stream: Vec<Frame> = (0..n)
        .map(|i| {
            let server = (i % 17) as u32;
            let actor = i.wrapping_mul(7919) % 41_000;
            if ((i + 1) as f64 * per_delivery).floor() > (i as f64 * per_delivery).floor() {
                Frame::Deliver {
                    delivery: Delivery {
                        server,
                        actor,
                        bytes: 96 + (i % 4) * 128,
                        remote: i % 3 == 0,
                    },
                    delay_ns: 0,
                }
            } else {
                Frame::Execute {
                    execution: Execution {
                        server,
                        actor,
                        service_ns: 1_200_000 + (i % 5) * 150_000,
                    },
                }
            }
        })
        .collect();
    let start = Instant::now();
    let mut wire = Vec::new();
    for frame in &stream {
        frame.encode(&mut wire);
    }
    let mut buffer = FrameBuffer::new();
    let mut decoded = 0u64;
    for chunk in wire.chunks(64 << 10) {
        buffer.extend(chunk);
        while let Some(frame) = buffer.next().expect("the stream was just encoded") {
            black_box(frame);
            decoded += 1;
        }
    }
    let elapsed = start.elapsed();
    assert_eq!(decoded, n, "every encoded frame decodes");
    elapsed.as_nanos() as f64 / n as f64
}

/// The final line: `{"correct", "attempted", "failed", "metrics"}`.
fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Reduced-size proof that the instrumentation changes no decision and
/// that each carrier agrees with sim, on the default and held-out seeds;
/// plus the full-size sim digests at the default seed.
fn check() -> ExitCode {
    let mut ok = true;
    println!(
        "{:<17} {:>5} {:<7} {:>16} {:>9} {:>9} {:>11} {:>9} {:>13}  verdict",
        "workload",
        "seed",
        "backend",
        "sim digest",
        "bare ms",
        "sliced ms",
        "sliced/bare",
        "traced ms",
        "traced/sliced"
    );
    for w in Workload::ALL {
        let shape = w.shape(true);
        let backend = w.backend();
        for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
            let reference = measure::run(&shape, seed, BackendKind::Sim, Mode::Bare);
            let sim = reference.reference();
            let mut problems: Vec<String> = Vec::new();
            let mut classify = |label: &str, o: &Outcome| {
                if let Some(why) = failure(o, &sim) {
                    problems.push(format!("{label}: {why}"));
                }
            };
            classify(
                "sim sliced",
                &measure::run(&shape, seed, BackendKind::Sim, Mode::Untraced),
            );
            classify(
                "sim traced",
                &measure::run(&shape, seed, BackendKind::Sim, Mode::Traced),
            );
            // Alternate bare and sliced runs on the workload's own carrier.
            let (mut bare, mut sliced) = (Vec::new(), Vec::new());
            for _ in 0..5 {
                let b = measure::run(&shape, seed, backend, Mode::Bare);
                classify("bare", &b);
                bare.push(ms(b.run_wall));
                let s = measure::run(&shape, seed, backend, Mode::Untraced);
                classify("sliced", &s);
                sliced.push(ms(s.run_wall));
            }
            let traced = measure::run(&shape, seed, backend, Mode::Traced);
            classify("traced", &traced);
            let ratio = median(&sliced) / median(&bare);
            if (ratio - 1.0).abs() > RUN_WALL_BOUND {
                problems.push(format!(
                    "sliced run_wall is {ratio:.3}x the bare run's, outside the {RUN_WALL_BOUND} bound"
                ));
            }
            println!(
                "{:<17} {:>5} {:<7} {:016x} {:>9.1} {:>9.1} {:>11.3} {:>9.1} {:>13.3}  {}",
                w.name(),
                seed,
                format!("{backend:?}"),
                reference.digest,
                median(&bare),
                median(&sliced),
                ratio,
                ms(traced.run_wall),
                ms(traced.run_wall) / median(&sliced),
                if problems.is_empty() { "ok" } else { "FAIL" }
            );
            for p in &problems {
                println!("    {p}");
            }
            ok &= problems.is_empty();
        }
    }
    for w in Workload::ALL {
        let o = measure::run(&w.shape(false), DEFAULT_SEED, BackendKind::Sim, Mode::Bare);
        let same = o.digest == w.recorded_digest();
        println!(
            "full-size {} sim digest at seed {DEFAULT_SEED}: {:016x} ({} decisions), recorded {:016x}: {}",
            w.name(),
            o.digest,
            o.decisions,
            w.recorded_digest(),
            if same { "ok" } else { "MISMATCH" }
        );
        ok &= same;
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
