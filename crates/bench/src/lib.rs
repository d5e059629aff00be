//! The PLASMA paper-evaluation harness behind the `plasma-eval` binary.
//!
//! [`eval`] runs the §5 application scenarios, their chaos variants and the
//! paper-figure scenarios under fixed seeds, writes one
//! `BENCH_<scenario>.json` per scenario and compares result sets. The one
//! bench under `benches/`, `frame_maintenance`, is a wall-clock gate on
//! incremental evaluation-frame maintenance.

pub mod eval;
