#![warn(missing_docs)]

//! # PLASMA — Programmable Elasticity for Stateful Cloud Applications
//!
//! This crate is the public face of the PLASMA reproduction (EuroSys '20,
//! Sang et al.): a programming framework that complements an actor-based
//! application with a second "level" of programming — declarative
//! *elasticity rules* — and a runtime that profiles actors and acts on the
//! rules by migrating them, pinning them, and growing or shrinking the
//! cluster.
//!
//! The moving parts live in focused crates re-exported here:
//!
//! | crate | role |
//! |---|---|
//! | `plasma-sim` | deterministic discrete-event kernel |
//! | `plasma-cluster` | simulated servers, network, provisioning |
//! | `plasma-actor` | the actor cluster runtime (mailboxes, migration) |
//! | `plasma-epl` | the elasticity programming language |
//! | `plasma-emr` | the elasticity management runtime (LEM/GEM) |
//! | `plasma-trace` | structured tracing and elasticity decision audit |
//! | `plasma-chaos` | deterministic fault injection and recovery runtime |
//!
//! # Quickstart
//!
//! ```
//! use plasma::prelude::*;
//!
//! // 1. Declare the application schema the policy compiles against.
//! let mut schema = ActorSchema::new();
//! schema.actor_type("Worker").func("run");
//!
//! // 2. Write the elasticity policy (the paper's Fig. 3 syntax).
//! let policy = "server.cpu.perc > 80 or server.cpu.perc < 60 \
//!               => balance({Worker}, cpu);";
//!
//! // 3. Build the system: cluster + policy + application actors.
//! let mut app = Plasma::builder()
//!     .seed(42)
//!     .policy(policy, &schema)
//!     .build()
//!     .unwrap();
//! let server = app.runtime_mut().add_server(InstanceType::m1_small());
//!
//! struct Worker;
//! impl ActorLogic for Worker {
//!     fn on_message(&mut self, ctx: &mut ActorCtx<'_>, _msg: &mut Message) {
//!         ctx.work(0.001);
//!         ctx.reply(32);
//!     }
//! }
//! let _worker = app
//!     .runtime_mut()
//!     .spawn_actor("Worker", Box::new(Worker), 1024, server);
//!
//! // 4. Run and inspect.
//! app.run_until(SimTime::from_secs(10));
//! assert_eq!(app.report().dropped_messages, 0);
//! ```

use plasma_actor::{BackendKind, ElasticityController, Runtime, RuntimeConfig};
use plasma_chaos::{FaultPlan, RecoveryPolicy};
use plasma_emr::{EmrConfig, PlasmaEmr};
use plasma_epl::error::Warning;
use plasma_epl::{compile, ActorSchema, CompileError};
use plasma_sim::SimTime;
use plasma_trace::{TraceConfig, Tracer};

pub mod prelude;

/// A PLASMA system: an actor runtime with an attached elasticity policy.
pub struct Plasma {
    runtime: Runtime,
    warnings: Vec<Warning>,
}

impl Plasma {
    /// Starts building a PLASMA system.
    pub fn builder() -> PlasmaBuilder {
        PlasmaBuilder::default()
    }

    /// Returns the underlying actor runtime.
    pub fn runtime(&self) -> &Runtime {
        &self.runtime
    }

    /// Returns the underlying actor runtime mutably (spawn actors, add
    /// servers and clients, migrate, inspect).
    pub fn runtime_mut(&mut self) -> &mut Runtime {
        &mut self.runtime
    }

    /// Returns the conflict warnings the policy compiler emitted.
    pub fn warnings(&self) -> &[Warning] {
        &self.warnings
    }

    /// Returns the tracer (disabled unless [`PlasmaBuilder::tracing`] was
    /// called). Use it to export the trace or run
    /// [`Tracer::explain`](plasma_trace::Tracer::explain) after a run.
    pub fn tracer(&self) -> &Tracer {
        self.runtime.tracer()
    }

    /// Runs the simulation until `end` (or until stopped).
    pub fn run_until(&mut self, end: SimTime) {
        self.runtime.run_until(end);
    }

    /// Returns the run report.
    pub fn report(&self) -> &plasma_actor::RunReport {
        self.runtime.report()
    }
}

/// Builder for [`Plasma`].
#[derive(Default)]
pub struct PlasmaBuilder {
    runtime_cfg: RuntimeConfig,
    emr_cfg: EmrConfig,
    policy: Option<(String, ActorSchema)>,
    controller: Option<Box<dyn ElasticityController>>,
    tracing: Option<TraceConfig>,
    faults: Option<(FaultPlan, RecoveryPolicy)>,
}

impl PlasmaBuilder {
    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.runtime_cfg.seed = seed;
        self
    }

    /// Replaces the whole runtime configuration.
    pub fn runtime_config(mut self, cfg: RuntimeConfig) -> Self {
        self.runtime_cfg = cfg;
        self
    }

    /// Selects the execution backend carrying deliveries and service time:
    /// the simulated event loop by default, or `plasma-net`'s worker loop
    /// on one OS thread per server group under [`BackendKind::Live`] and
    /// one `plasma-server` process per group under [`BackendKind::Net`]
    /// (`PLASMA_NET_GROUPS` sizes both). Elasticity decisions are a pure
    /// function of logical state, so every backend produces the same
    /// decision sequence for the same seed.
    pub fn backend(mut self, kind: BackendKind) -> Self {
        self.runtime_cfg.backend = kind;
        self
    }

    /// Replaces the EMR configuration.
    pub fn emr_config(mut self, cfg: EmrConfig) -> Self {
        self.emr_cfg = cfg;
        self
    }

    /// Attaches an EPL policy compiled against `schema`; the EMR controller
    /// executing it is installed at build time.
    pub fn policy(mut self, source: &str, schema: &ActorSchema) -> Self {
        self.policy = Some((source.to_string(), schema.clone()));
        self
    }

    /// Installs a custom controller instead of the EMR (baselines, tests).
    /// Mutually exclusive with [`PlasmaBuilder::policy`]; the controller
    /// wins if both are set.
    pub fn controller(mut self, controller: Box<dyn ElasticityController>) -> Self {
        self.controller = Some(controller);
        self
    }

    /// Enables structured tracing: every runtime, EMR, and provisioning
    /// event is recorded per `cfg` and available through
    /// [`Plasma::tracer`] after (or during) the run.
    pub fn tracing(mut self, cfg: TraceConfig) -> Self {
        self.tracing = Some(cfg);
        self
    }

    /// Installs a deterministic fault plan executed by the runtime's chaos
    /// engine, with `policy` governing detection and recovery. An empty
    /// plan is a no-op: the run is byte-identical to one without chaos.
    pub fn faults(mut self, plan: FaultPlan, policy: RecoveryPolicy) -> Self {
        self.faults = Some((plan, policy));
        self
    }

    /// Builds the system, compiling the policy if one was attached.
    pub fn build(self) -> Result<Plasma, CompileError> {
        let mut runtime = Runtime::new(self.runtime_cfg);
        if let Some(cfg) = self.tracing {
            runtime.set_tracer(Tracer::new(cfg));
        }
        let mut warnings = Vec::new();
        if let Some(controller) = self.controller {
            runtime.set_controller(controller);
        } else if let Some((source, schema)) = self.policy {
            let compiled = compile(&source, &schema)?;
            warnings = compiled.warnings.clone();
            runtime.set_controller(Box::new(PlasmaEmr::new(compiled, self.emr_cfg)));
        }
        if let Some((plan, policy)) = self.faults {
            runtime.install_fault_plan(&plan, policy);
        }
        Ok(Plasma { runtime, warnings })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plasma_actor::logic::ActorCtx;
    use plasma_actor::{ActorLogic, Message};
    use plasma_cluster::InstanceType;

    struct Echo;
    impl ActorLogic for Echo {
        fn on_message(&mut self, ctx: &mut ActorCtx<'_>, _msg: &mut Message) {
            ctx.work(0.001);
            ctx.reply(8);
        }
    }

    fn schema() -> ActorSchema {
        let mut s = ActorSchema::new();
        s.actor_type("Echo").func("ping");
        s
    }

    #[test]
    fn builder_without_policy_runs() {
        let mut app = Plasma::builder().seed(1).build().unwrap();
        let s = app.runtime_mut().add_server(InstanceType::m1_small());
        let echo = app.runtime_mut().spawn_actor("Echo", Box::new(Echo), 64, s);
        app.runtime_mut().inject(echo, "ping", 8, None);
        app.run_until(SimTime::from_secs(1));
        assert_eq!(app.report().dropped_messages, 0);
        assert!(app.warnings().is_empty());
    }

    #[test]
    fn builder_with_policy_installs_emr() {
        let app = Plasma::builder()
            .seed(1)
            .policy(
                "server.cpu.perc > 80 or server.cpu.perc < 60 => balance({Echo}, cpu);",
                &schema(),
            )
            .build()
            .unwrap();
        assert!(app.warnings().is_empty());
    }

    #[test]
    fn builder_surfaces_policy_warnings() {
        let app = Plasma::builder()
            .policy(
                "true => pin(Echo);\nserver.cpu.perc > 80 => balance({Echo}, cpu);",
                &schema(),
            )
            .build()
            .unwrap();
        assert_eq!(app.warnings().len(), 1);
    }

    #[test]
    fn builder_rejects_bad_policy() {
        let result = Plasma::builder()
            .policy("true => explode(x);", &schema())
            .build();
        assert!(matches!(result, Err(CompileError::Parse(_))));
    }
}
