//! `plasma-trace` — deterministic structured tracing and elasticity
//! decision audit for the PLASMA simulator.
//!
//! The simulator's elasticity loop makes layered decisions — EPL rules
//! match, the GEM proposes a plan, destination LEMs admit or reject each
//! migration via QUERY/QREPLY, and the runtime performs the transfers.
//! This crate records that whole pipeline as a stream of causally linked
//! [`TraceEvent`]s so a run can be *replayed and interrogated* after the
//! fact:
//!
//! * [`event`] — the event model: one [`TraceEventKind`] per interesting
//!   occurrence (message send/deliver, actor lifecycle, migration,
//!   rule evaluation, plan proposal, admission, scale vote, server
//!   boot/drain), each stamped with [`SimTime`](plasma_sim::SimTime), the
//!   originating [`Component`], and a causal `parent` id.
//! * [`record`] — the bounded-memory [`Recorder`] ring buffer behind a
//!   cheap cloneable [`Tracer`] handle. A disabled tracer is a no-op: one
//!   branch per call site, no event construction.
//! * [`export`] — deterministic serializers to JSON Lines and Chrome
//!   `trace_event` JSON (loadable in Perfetto / `chrome://tracing`),
//!   conventionally written under `target/plasma-results/`.
//! * [`json`] — the workspace's one JSON codec: the string escaper every
//!   JSON writer uses and a strict parser for reading JSON back.
//! * [`audit`] — [`explain`]: reconstructs the
//!   rule → plan → admission → migration chain for an actor at a point in
//!   simulated time.
//!
//! Because the simulator itself is deterministic, two runs with the same
//! seed produce byte-identical JSONL traces — the regression suite pins
//! that property.

pub mod audit;
pub mod event;
pub mod export;
pub mod json;
pub mod record;

pub use audit::{explain, render_explanation};
pub use event::{Category, CategorySet, Component, EventId, TraceEvent, TraceEventKind};
pub use export::{results_dir, to_chrome_trace, to_jsonl, write_under};
pub use record::{Recorder, TraceConfig, Tracer};

impl Tracer {
    /// Renders the retained events as JSON Lines (see [`export::to_jsonl`]).
    pub fn jsonl(&self) -> String {
        to_jsonl(&self.events())
    }

    /// Renders the retained events in Chrome `trace_event` format (see
    /// [`export::to_chrome_trace`]).
    pub fn chrome_trace(&self) -> String {
        to_chrome_trace(&self.events())
    }

    /// Reconstructs the decision chain for `actor` at or before `at` from
    /// the retained events (see [`audit::explain`]).
    pub fn explain(&self, actor: u64, at: plasma_sim::SimTime) -> Vec<TraceEvent> {
        explain(&self.events(), actor, at)
    }
}
