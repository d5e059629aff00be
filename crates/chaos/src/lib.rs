#![warn(missing_docs)]

//! Deterministic fault injection for the PLASMA workspace.
//!
//! The paper's fault-tolerance argument (§4.3: GEM crash-stop with server
//! re-shuffling and majority-vote scaling) only matters if failures actually
//! happen. This crate describes *what* fails and *when* — the runtime in
//! `plasma-actor` turns the description into first-class simulation events,
//! so a fault plan replays bit-for-bit under a fixed seed like everything
//! else in the workspace.
//!
//! Three pieces:
//!
//! - [`FaultPlan`]: a declarative, time-sorted schedule of [`FaultKind`]s —
//!   server crash-stop (with optional restart), network partitions between
//!   server groups, link degradation, migration aborts, GEM/LEM crashes and
//!   provisioner stalls. An empty plan is the no-fault hot path: installing
//!   it is a no-op and changes nothing about a run.
//! - [`RecoveryPolicy`]: how the runtime detects and repairs damage —
//!   heartbeat-based failure detection, actor respawn via the directory
//!   (with state-loss accounting), and migration retry with exponential
//!   backoff.
//! - [`ChaosStats`]: counters every fault and recovery step increments,
//!   read through `Runtime::chaos_stats` and folded into the recovery
//!   metrics the chaos evaluation scenarios gate on (time-to-detect,
//!   unavailability window, lost/retried messages).

pub mod fault;
pub mod recovery;

pub use fault::{FaultEvent, FaultKind, FaultPlan};
pub use recovery::{ChaosStats, RecoveryPolicy};

// The degradation parameters live with the partition state in
// `plasma-cluster` (the layer that owns the network); re-exported here so
// fault plans can be built from this crate alone.
pub use plasma_cluster::LinkDegradation;
