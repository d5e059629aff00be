//! A delegating [`ElasticityController`] that times every call into
//! [`PlasmaEmr`] from outside, and in traced runs also times the `view`
//! and `eval` layers on a shadow frame of its own.

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use plasma::prelude::*;
use plasma_actor::ControlFault;
use plasma_emr::eval::{solve_bound, BoundRule};
use plasma_emr::view::{EvalCtx, EvalFrame};
use plasma_epl::CompiledPolicy;

/// Everything the probe measured, shared with the harness driving the run.
#[derive(Debug, Default)]
pub struct ProbeLog {
    /// Callback wall time since the harness last took it (one slice).
    slice_callback_ns: u64,
    /// Wall time of each `on_elasticity_tick` call into the EMR.
    pub tick_ns: Vec<u64>,
    /// Wall time of each `on_control` call into the EMR.
    pub apply_ns: Vec<u64>,
    /// One decision round: a tick plus the apply it scheduled.
    pub round_ns: Vec<u64>,
    open_round: Option<u64>,
    pub place_ns: u64,
    pub placements: u64,
    /// Server-ready and fault callbacks.
    pub other_ns: u64,
    pub view: ViewCost,
    /// Shadow frame maintenance (advance or rebuild) of each tick.
    pub frame_ns: Vec<u64>,
}

/// Shadow-frame work, measured in traced runs only.
#[derive(Debug, Default, Clone, Copy)]
pub struct ViewCost {
    pub advance_ns: u64,
    pub advances: u64,
    pub advance_attempts: u64,
    pub rebuild_ns: u64,
    pub rebuilds: u64,
    pub bind_ns: u64,
    pub solve_ns: u64,
    pub envs: u64,
}

impl ProbeLog {
    /// Takes the callback wall time accumulated during the last slice.
    pub fn take_slice_callbacks(&mut self) -> u64 {
        std::mem::take(&mut self.slice_callback_ns)
    }

    /// Closes a tick whose apply never came (end of run).
    pub fn finish(&mut self) {
        if let Some(tick) = self.open_round.take() {
            self.round_ns.push(tick);
        }
    }
}

/// Shared handle to a probe's log.
#[derive(Clone, Default)]
pub struct Log(Arc<Mutex<ProbeLog>>);

impl Log {
    pub fn lock(&self) -> MutexGuard<'_, ProbeLog> {
        self.0
            .lock()
            .expect("probe log poisoned by a panicking callback")
    }
}

/// The delegating controller.
pub struct Probe {
    emr: PlasmaEmr,
    log: Log,
    shadow: Option<Shadow>,
}

impl Probe {
    /// Wraps `emr`; `shadow_policy` turns on the traced shadow work.
    pub fn new(emr: PlasmaEmr, log: Log, shadow_policy: Option<CompiledPolicy>) -> Self {
        let shadow = shadow_policy.map(|policy| Shadow {
            policy,
            frame: None,
        });
        Probe { emr, log, shadow }
    }

    fn charge(&self, start: Instant, f: impl FnOnce(&mut ProbeLog, u64)) {
        let ns = start.elapsed().as_nanos() as u64;
        let mut log = self.log.lock();
        log.slice_callback_ns += ns;
        f(&mut log, ns);
    }
}

impl ElasticityController for Probe {
    fn on_elasticity_tick(&mut self, rt: &mut Runtime) {
        let start = Instant::now();
        self.emr.on_elasticity_tick(rt);
        let tick = start.elapsed().as_nanos() as u64;
        let view = self.shadow.as_mut().map(|s| s.observe(rt));
        self.charge(start, |log, _| {
            if let Some(open) = log.open_round.replace(tick) {
                log.round_ns.push(open);
            }
            log.tick_ns.push(tick);
            if let Some(v) = view {
                log.frame_ns.push(v.advance_ns + v.rebuild_ns);
                let acc = &mut log.view;
                acc.advance_ns += v.advance_ns;
                acc.advances += v.advances;
                acc.advance_attempts += v.advance_attempts;
                acc.rebuild_ns += v.rebuild_ns;
                acc.rebuilds += v.rebuilds;
                acc.bind_ns += v.bind_ns;
                acc.solve_ns += v.solve_ns;
                acc.envs += v.envs;
            }
        });
    }

    fn on_control(&mut self, rt: &mut Runtime, token: u64) {
        let start = Instant::now();
        self.emr.on_control(rt, token);
        self.charge(start, |log, ns| {
            log.apply_ns.push(ns);
            if let Some(tick) = log.open_round.take() {
                log.round_ns.push(tick + ns);
            }
        });
    }

    fn place_new_actor(
        &mut self,
        rt: &Runtime,
        type_id: ActorTypeId,
        creator: Option<ServerId>,
    ) -> Option<ServerId> {
        let start = Instant::now();
        let choice = self.emr.place_new_actor(rt, type_id, creator);
        self.charge(start, |log, ns| {
            log.place_ns += ns;
            log.placements += 1;
        });
        choice
    }

    fn on_server_ready(&mut self, rt: &mut Runtime, server: ServerId) {
        let start = Instant::now();
        self.emr.on_server_ready(rt, server);
        self.charge(start, |log, ns| log.other_ns += ns);
    }

    fn on_fault(&mut self, rt: &mut Runtime, fault: ControlFault) {
        let start = Instant::now();
        self.emr.on_fault(rt, fault);
        self.charge(start, |log, ns| log.other_ns += ns);
    }
}

/// A frame the probe maintains beside the EMR's own, through the same
/// public `view` and `eval` entry points the EMR uses each round.
struct Shadow {
    policy: CompiledPolicy,
    frame: Option<EvalFrame>,
}

impl Shadow {
    /// Advances (or rebuilds) the shadow frame to the runtime's current
    /// snapshot, then binds and solves every rule over the running servers.
    /// Reads the runtime only, so the run's decisions cannot change.
    fn observe(&mut self, rt: &Runtime) -> ViewCost {
        let mut cost = ViewCost::default();
        let start = Instant::now();
        let advanced = match self.frame.as_mut() {
            Some(frame) => {
                cost.advance_attempts = 1;
                frame.advance(rt)
            }
            None => false,
        };
        if advanced {
            cost.advance_ns = start.elapsed().as_nanos() as u64;
            cost.advances = 1;
        } else {
            self.frame = Some(EvalFrame::new(rt));
            cost.rebuild_ns = start.elapsed().as_nanos() as u64;
            cost.rebuilds = 1;
        }
        let frame = self.frame.as_ref().expect("frame set above");
        let running = rt.cluster().running_ids();
        let start = Instant::now();
        let ctx = EvalCtx::scoped(frame, &running);
        cost.bind_ns = start.elapsed().as_nanos() as u64;
        for rule in &self.policy.rules {
            let start = Instant::now();
            let bound = BoundRule::bind(rule, frame);
            let bound_at = Instant::now();
            // Dropping the environments is part of solving.
            cost.envs += solve_bound(&bound, &ctx).len() as u64;
            cost.bind_ns += (bound_at - start).as_nanos() as u64;
            cost.solve_ns += bound_at.elapsed().as_nanos() as u64;
        }
        cost
    }
}
