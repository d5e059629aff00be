#![warn(missing_docs)]

//! The real execution carrier for the PLASMA runtime.
//!
//! `plasma-net` carries the `ExecutionBackend` surface for both real
//! backends. Every [`Delivery`](plasma_backend::Delivery),
//! [`Execution`](plasma_backend::Execution) and control message is
//! serialized onto a versioned, length-prefixed binary wire format and
//! shipped over localhost TCP to one worker per server group, which
//! accounts the carriage and answers window/round barriers and GEM queries
//! over the same FIFO connection. The worker loop is one function,
//! [`worker::run`]; only its host differs:
//!
//! - **net** — one `plasma-server` process per group
//!   ([`NetBackend::launch`]);
//! - **live** — one OS thread per group in the coordinator's process
//!   ([`NetBackend::launch_threads`]), which needs no worker binary.
//!
//! The layering mirrors the paper's separation of mechanism from policy:
//! elasticity decisions are made once, by the deterministic coordinator,
//! and are *carried* by whichever medium the run selects. Because nothing
//! a carrier returns may steer scheduling, a same-seed scenario produces
//! byte-identical normalized BENCH JSON and an identical timestamp-free
//! `decision_digest` under sim, live, and net — the three-way parity the
//! `net-parity` CI job gates.
//!
//! Crate layout:
//!
//! - [`frame`] — the wire format: `len:u32be` framing, version byte,
//!   message kinds, strict decode, the fixed-offset layout of the two data
//!   frames, and [`FrameBuffer`] reassembly over torn reads. The control
//!   messages' field layouts sit beside it in the private `wire` module,
//!   so this crate owns every byte of the wire; a malformed one surfaces
//!   as a [`DecodeError`].
//! - [`worker`] — the worker loop: one per-connection [`WindowCounters`]
//!   tally, held report rows, and barrier and query replies. The
//!   `plasma-server` binary is a thin wrapper over [`worker::run`].
//! - [`NetBackend`] — the coordinator side: starts and addresses workers,
//!   multiplexes frames over per-group connections, verifies exactly-once
//!   carriage at window and round barriers, and fails a query that a
//!   group leaves unanswered.

pub mod frame;
pub mod worker;

mod backend;
mod wire;

pub use backend::{locate_worker, NetBackend, NetConfig};
pub use frame::{Frame, FrameBuffer, WindowCounters, MAX_FRAME_LEN, WIRE_VERSION};
pub use wire::DecodeError;
