//! One workload run, timed at the public boundaries of each layer, and the
//! classifier that decides whether the run counts.

use std::time::{Duration, Instant};

use plasma::prelude::*;

use crate::probe::{Log, Probe, ProbeLog};
use crate::workload::Shape;

/// How a run is driven.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    /// The application's own path: `PlasmaBuilder::policy`, a bare
    /// `PlasmaEmr`, and one `run_until` to the end. Gives the reference
    /// digest and the uninstrumented wall time.
    Bare,
    /// The probe around the EMR and `run_until` sliced at every window
    /// boundary; the end-to-end metrics come from this mode.
    Untraced,
    /// As `Untraced`, plus the probe's shadow `view`/`eval` work.
    Traced,
}

/// Set-up wall times of one run.
#[derive(Clone, Copy, Debug, Default)]
pub struct Setup {
    /// `plasma_epl::compile` (inside `build` under [`Mode::Bare`]).
    pub compile: Duration,
    /// `PlasmaBuilder::build`: runtime and carrier launch.
    pub launch: Duration,
    /// `add_server`, `spawn_actor` and `add_client`.
    pub world: Duration,
}

impl Setup {
    pub fn total(&self) -> Duration {
        self.compile + self.launch + self.world
    }
}

/// What one run measured and produced.
#[derive(Debug)]
pub struct Outcome {
    pub setup: Setup,
    /// Summed wall time of every `run_until` slice.
    pub run_wall: Duration,
    /// `run_wall` minus the probe's callbacks.
    pub run_self: Duration,
    /// Wall time of each profiling window (its two slices), ms.
    pub window_ms: Vec<f64>,
    /// Wall time of each boundary slice minus callbacks in it, ms.
    pub roll_ms: Vec<f64>,
    /// Host speed around each window ([`crate::cpu::speed`]): the geometric
    /// mean of the calibrations just before and just after it.
    pub window_speed: Vec<f64>,
    /// Decision rounds closed by the end of each window.
    pub window_rounds: Vec<usize>,
    pub probe: ProbeLog,
    pub digest: u64,
    pub decisions: u64,
    pub dropped_messages: u64,
    pub orphan_replies: u64,
    pub snapshot_builds: u64,
    /// This process's `VmHWM` at the end of the run, MiB: its peak over
    /// the run when [`reset_peak_rss`] came just before.
    pub peak_rss_mb: f64,
    pub admitted: f64,
    pub rejected: f64,
    pub backend: BackendStats,
}

/// Sets `shape` up on `backend` with `seed`, timing each step, and returns
/// the system ready for its first `run_until`.
pub fn setup(shape: &Shape, seed: u64, backend: BackendKind, mode: Mode) -> (Plasma, Log, Setup) {
    let (source, schema) = shape.policy();
    let runtime_cfg = shape.runtime_config(seed, backend);
    let log = Log::default();
    let mut setup = Setup::default();
    let start = Instant::now();
    let mut app = if mode == Mode::Bare {
        let app = Plasma::builder()
            .runtime_config(runtime_cfg)
            .emr_config(shape.emr_config())
            .policy(source, &schema)
            .build()
            .expect("workload policy compiles");
        setup.launch = start.elapsed();
        app
    } else {
        let policy = compile(source, &schema).expect("workload policy compiles");
        setup.compile = start.elapsed();
        let shadow = (mode == Mode::Traced).then(|| policy.clone());
        let probe = Probe::new(
            PlasmaEmr::new(policy, shape.emr_config()),
            log.clone(),
            shadow,
        );
        let app = Plasma::builder()
            .runtime_config(runtime_cfg)
            .controller(Box::new(probe))
            .build()
            .expect("a controller needs no compile");
        setup.launch = start.elapsed() - setup.compile;
        app
    };
    let world_start = Instant::now();
    shape.build_world(app.runtime_mut(), seed);
    setup.world = world_start.elapsed();
    (app, log, setup)
}

/// Runs `shape` once on `backend` with `seed`.
pub fn run(shape: &Shape, seed: u64, backend: BackendKind, mode: Mode) -> Outcome {
    crate::cpu::pin_fastest();
    let (mut app, log, setup) = self::setup(shape, seed, backend, mode);
    let end = SimTime::from_secs(shape.run_s);
    let mut run_wall = Duration::ZERO;
    let mut run_self = Duration::ZERO;
    let mut window_ms = Vec::new();
    let mut roll_ms = Vec::new();
    let mut window_speed = Vec::new();
    let mut window_rounds = Vec::new();
    if mode == Mode::Bare {
        let t = Instant::now();
        app.run_until(end);
        run_wall = t.elapsed();
    } else {
        // Each window runs as two slices: up to 1 µs before its boundary,
        // then the boundary itself, where the window roll (and any tick
        // landing on it) happens.
        let callbacks =
            |d: Duration| Duration::from_nanos(log.lock().take_slice_callbacks()).min(d);
        // Calibrations sit between windows, outside every timed slice.
        let mut before = crate::cpu::speed();
        for w in 1..=shape.windows() {
            let boundary = SimTime::from_secs(w * shape.window_s);
            let t = Instant::now();
            app.run_until(SimTime::from_micros(boundary.as_micros() - 1));
            let body = t.elapsed();
            let body_self = body - callbacks(body);
            let t = Instant::now();
            app.run_until(boundary);
            let edge = t.elapsed();
            let edge_self = edge - callbacks(edge);
            run_wall += body + edge;
            run_self += body_self + edge_self;
            window_ms.push((body + edge).as_secs_f64() * 1e3);
            roll_ms.push(edge_self.as_secs_f64() * 1e3);
            let after = crate::cpu::speed();
            window_speed.push((before * after).sqrt());
            window_rounds.push(log.lock().round_ns.len());
            before = after;
        }
        debug_assert_eq!(app.runtime().now(), end);
    }
    let mut probe = std::mem::take(&mut *log.lock());
    probe.finish();
    let rt = app.runtime();
    let report = rt.report();
    Outcome {
        setup,
        run_wall,
        run_self,
        window_ms,
        roll_ms,
        window_speed,
        window_rounds,
        probe,
        digest: report.decision_digest(),
        decisions: report.decisions.len() as u64,
        dropped_messages: report.dropped_messages,
        orphan_replies: report.orphan_replies,
        snapshot_builds: rt.snapshot_builds(),
        peak_rss_mb: peak_rss_mb(),
        admitted: report.scalar("emr.admitted").unwrap_or(0.0),
        rejected: report.scalar("emr.rejected").unwrap_or(0.0),
        backend: rt.backend_stats(),
    }
}

extern "C" {
    /// glibc: hands free heap memory back to the kernel.
    fn malloc_trim(pad: usize) -> i32;
}

/// Returns the heap earlier runs freed to the kernel, then lowers this
/// process's `VmHWM` to its resident set (Linux's `clear_refs` 5), so the
/// next reading covers one run and not the largest before it. Where the
/// reset fails, readings cover the process so far.
pub fn reset_peak_rss() {
    // SAFETY: malloc_trim takes no pointers and only releases free memory.
    unsafe { malloc_trim(0) };
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// This process's `VmHWM`, MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// What the SimBackend run of the same workload and seed produced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Reference {
    pub digest: u64,
    pub dropped_messages: u64,
    pub orphan_replies: u64,
}

/// A run's end-to-end timings at the reference host speed: each window's
/// wall time times the speed measured around it.
#[derive(Debug)]
pub struct Scaled {
    pub run_wall_s: f64,
    pub window_ms: Vec<f64>,
    /// Each decision round, scaled by the speed of the window it closed in.
    pub round_ms: Vec<f64>,
}

impl Outcome {
    pub fn scaled(&self) -> Scaled {
        let window_ms: Vec<f64> = self
            .window_ms
            .iter()
            .zip(&self.window_speed)
            .map(|(ms, speed)| ms * speed)
            .collect();
        let last = self.window_speed.last().copied().unwrap_or(1.0);
        let round_ms = self
            .probe
            .round_ns
            .iter()
            .enumerate()
            .map(|(i, &ns)| {
                // A tick still open at the end closes after the last window.
                let w = self.window_rounds.partition_point(|&closed| closed <= i);
                ns as f64 / 1e6 * self.window_speed.get(w).copied().unwrap_or(last)
            })
            .collect();
        Scaled {
            run_wall_s: window_ms.iter().sum::<f64>() / 1e3,
            window_ms,
            round_ms,
        }
    }

    pub fn reference(&self) -> Reference {
        Reference {
            digest: self.digest,
            dropped_messages: self.dropped_messages,
            orphan_replies: self.orphan_replies,
        }
    }
}

/// Why a run does not count, or `None` when it does.
///
/// A run whose digest differs from the SimBackend digest for the same
/// workload and seed has lost or changed decisions: a carrier that died
/// silently shows up here as a short run, and must not pass as a fast one.
/// Message drops and orphan replies are held to the sim run's counts rather
/// than to 0, because the Media wave's own teardown can drop a message that
/// is still queued for a departing user's actor (one at seed 17, on every
/// carrier).
pub fn failure(o: &Outcome, sim: &Reference) -> Option<String> {
    if o.backend.window_mismatches > 0 {
        return Some(format!("{} window mismatches", o.backend.window_mismatches));
    }
    if o.dropped_messages != sim.dropped_messages {
        return Some(format!(
            "{} dropped messages, sim dropped {}",
            o.dropped_messages, sim.dropped_messages
        ));
    }
    if o.orphan_replies != sim.orphan_replies {
        return Some(format!(
            "{} orphan replies, sim had {}",
            o.orphan_replies, sim.orphan_replies
        ));
    }
    if o.digest != sim.digest {
        return Some(format!(
            "decision digest {:016x} ({} decisions) differs from sim's {:016x}",
            o.digest, o.decisions, sim.digest
        ));
    }
    None
}

/// Runs `f`, turning a panic into a failure.
pub fn guarded<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|e| {
        let msg = e
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| e.downcast_ref::<&str>().copied())
            .unwrap_or("non-string panic");
        format!("panicked: {msg}")
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;

    fn small_run() -> Outcome {
        let shape = Workload::EstoreWideSim.shape(true);
        run(&shape, 3, BackendKind::Sim, Mode::Untraced)
    }

    #[test]
    fn wrong_digest_is_a_failed_run() {
        let o = small_run();
        assert!(o.decisions > 0, "the reduced run must decide something");
        let sim = o.reference();
        assert_eq!(failure(&o, &sim), None);
        let wrong = Reference {
            digest: sim.digest ^ 1,
            ..sim
        };
        let why = failure(&o, &wrong).expect("a wrong digest fails");
        assert!(why.contains("differs from sim"), "{why}");
    }

    #[test]
    fn a_dead_carrier_that_decided_nothing_fails() {
        // A carrier killed mid-run can exit cleanly with zero decisions;
        // its digest is the empty sequence's, never the reference's.
        let o = small_run();
        let sim = o.reference();
        let empty = Outcome {
            decisions: 0,
            digest: Plasma::builder()
                .build()
                .unwrap()
                .report()
                .decision_digest(),
            ..o
        };
        assert!(failure(&empty, &sim).is_some());
    }

    #[test]
    fn carrier_faults_fail_the_run() {
        let mut o = small_run();
        let sim = o.reference();
        o.backend.window_mismatches = 1;
        assert!(failure(&o, &sim).unwrap().contains("window mismatches"));
        o.backend.window_mismatches = 0;
        o.dropped_messages += 2;
        assert!(failure(&o, &sim).unwrap().contains("dropped"));
        o.dropped_messages = sim.dropped_messages;
        o.orphan_replies += 1;
        assert!(failure(&o, &sim).unwrap().contains("orphan"));
    }

    #[test]
    fn scaling_follows_each_window_speed() {
        let mut o = small_run();
        assert_eq!(o.window_speed.len(), o.window_ms.len());
        assert!(o.window_speed.iter().all(|&s| s > 0.0 && s.is_finite()));
        // Twice the reference speed in the first window, half after it.
        for (i, s) in o.window_speed.iter_mut().enumerate() {
            *s = if i == 0 { 2.0 } else { 0.5 };
        }
        let scaled = o.scaled();
        let expect: f64 = o
            .window_ms
            .iter()
            .enumerate()
            .map(|(i, ms)| ms * if i == 0 { 2.0 } else { 0.5 })
            .sum();
        assert!((scaled.run_wall_s * 1e3 - expect).abs() < 1e-9);
        assert_eq!(scaled.round_ms.len(), o.probe.round_ns.len());
        let first_window_rounds = o.window_rounds[0];
        for (i, (&ns, &ms)) in o.probe.round_ns.iter().zip(&scaled.round_ms).enumerate() {
            let speed = if i < first_window_rounds { 2.0 } else { 0.5 };
            assert!((ms - ns as f64 / 1e6 * speed).abs() < 1e-12);
        }
    }

    #[test]
    fn panics_are_caught_as_failures() {
        let r: Result<(), String> = guarded(|| panic!("carrier gone"));
        assert_eq!(r.unwrap_err(), "panicked: carrier gone");
    }
}
