#![warn(missing_docs)]

//! Simulated cloud cluster substrate for PLASMA.
//!
//! The paper evaluates PLASMA on AWS EC2. This crate stands in for the cloud:
//! it models [`InstanceType`]s with calibrated vCPU counts, clock speeds,
//! memory and NIC bandwidth ([`instance`]), [`Server`]s with utilization
//! meters ([`server`]), a latency/bandwidth [`NetworkModel`] ([`network`]),
//! and a [`Cluster`] registry with provisioning/decommissioning mechanics and
//! cost accounting ([`topology`]).
//!
//! The substitution is documented in `DESIGN.md`: the paper's experiments
//! measure *relative* behavior (who wins, crossover points), which a
//! deterministic model of CPU service time, network latency/bandwidth, and
//! instance boot delay preserves without cloud noise.

pub mod instance;
pub mod netfault;
pub mod network;
pub mod resources;
pub mod server;
pub mod topology;

pub use instance::InstanceType;
pub use netfault::{LinkDegradation, NetFaults};
pub use network::NetworkModel;
pub use resources::{ResourceKind, ResourceUsage};
pub use server::{Server, ServerId, ServerState};
pub use topology::Cluster;
