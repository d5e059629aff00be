#![warn(missing_docs)]

//! Deterministic discrete-event simulation kernel for the PLASMA workspace.
//!
//! This crate provides the low-level machinery every other PLASMA crate is
//! built on:
//!
//! - [`SimTime`] / [`SimDuration`] — a virtual clock in integer microseconds.
//! - [`EventQueue`] — a stable-order priority queue of timestamped events:
//!   a heap of `(time, seq, slot)` keys over a slab that holds the events.
//! - [`DetRng`] — a seedable xoshiro256** generator with the distributions
//!   the workload generators need (uniform, normal, exponential, Zipf).
//! - [`metrics`] — time series, fixed-window bucketed series and a busy-time
//!   meter, used by the profiling runtime and the benchmark harnesses.
//!
//! Nothing in this crate knows about actors or servers; it is a generic
//! simulation substrate. Determinism is a hard requirement: given the same
//! seed and the same sequence of calls, every type here produces identical
//! results on every platform, which is what makes the paper-figure harnesses
//! reproducible byte-for-byte.

pub mod event;
pub mod metrics;
pub mod rng;
pub mod time;

pub use event::EventQueue;
pub use rng::DetRng;
pub use time::{SimDuration, SimTime};
