#![warn(missing_docs)]

//! A from-scratch actor *cluster* runtime for PLASMA.
//!
//! The paper builds on AEON, a distributed actor language whose runtime
//! provides: typed actors with mailboxes, location-transparent messaging, a
//! directory, *live actor migration*, and hooks for an external elasticity
//! manager. No mainstream Rust actor framework is distributed (the original
//! motivation for this crate), so this module implements that runtime on top
//! of the simulated cluster from `plasma-cluster`:
//!
//! - [`ids`] — interned actor types, function names, actor and client ids.
//! - [`message`] — messages, caller kinds, client correlation for latency.
//! - [`logic`] — the [`ActorLogic`] / [`ClientLogic`] traits applications
//!   implement, and the contexts they program against.
//! - [`entry`] — per-actor runtime record: mailbox, references, residency.
//! - [`stats`] — the profiling counters the EPR (elasticity profiling
//!   runtime) reads each window.
//! - [`controller`] — the [`ElasticityController`] trait through which the
//!   EMR (or a baseline policy) observes the system and issues migrations.
//! - [`runtime`] — the discrete-event driver tying everything together.
//! - [`report`] — the measurement record every experiment harness consumes.
//!
//! The runtime is deterministic: same seed, same program, same trace.

mod chaos;
pub mod controller;
pub mod entry;
pub mod ids;
pub mod logic;
pub mod message;
pub mod report;
pub mod runtime;
pub mod stats;

pub use controller::{ControlFault, ElasticityController, NullController};
pub use ids::{ActorId, ActorTypeId, ClientId, FnId};
pub use logic::{ActorCtx, ActorLogic, ClientCtx, ClientLogic};
pub use message::{CallerKind, Message};
pub use plasma_backend::{BackendKind, BackendStats, ControlQuery, ControlReply, ServerReport};
pub use report::{DecisionKind, DecisionRecord, RunReport};
pub use runtime::{DecommissionError, Runtime, RuntimeConfig};
