//! Network fault state: partitions between server groups and link
//! degradation (added latency, bandwidth loss, probabilistic drop).
//!
//! The [`Cluster`](crate::Cluster) owns one [`NetFaults`] instance; the actor
//! runtime consults it on every cross-server delivery and migration
//! transfer. With no faults active ([`NetFaults::is_clear`]) every query
//! returns the identity answer (`severed == false`, zero extra latency,
//! bandwidth factor 1.0, zero drop probability), so the fault-free hot path
//! takes the same decisions — and the same RNG draws — as before this module
//! existed.

use std::collections::BTreeSet;

use plasma_sim::SimDuration;

use crate::server::ServerId;

/// Uniform degradation applied to every inter-server link while active.
#[derive(Clone, Debug, PartialEq)]
pub struct LinkDegradation {
    /// Latency added to every cross-server delivery and transfer.
    pub extra_latency: SimDuration,
    /// Multiplier on effective link bandwidth (0 < factor <= 1).
    pub bandwidth_factor: f64,
    /// Per-mille probability that a cross-server message is dropped.
    pub drop_per_mille: u32,
}

impl Default for LinkDegradation {
    fn default() -> Self {
        LinkDegradation {
            extra_latency: SimDuration::ZERO,
            bandwidth_factor: 1.0,
            drop_per_mille: 0,
        }
    }
}

/// Active network faults: a set of partitioned server groups plus an
/// optional link degradation.
///
/// A partition entry severs every link between a server inside the group and
/// a server outside it; traffic within the group (and among the remainder)
/// flows normally, matching the "partition between server groups" fault of
/// the chaos plan.
#[derive(Debug, Default)]
pub struct NetFaults {
    partitions: Vec<BTreeSet<ServerId>>,
    degradation: Option<LinkDegradation>,
}

impl NetFaults {
    /// Creates the no-fault state.
    pub fn new() -> Self {
        NetFaults::default()
    }

    /// Returns `true` when no partition or degradation is active.
    pub fn is_clear(&self) -> bool {
        self.partitions.is_empty() && self.degradation.is_none()
    }

    /// Severs the links between `group` and the rest of the cluster.
    pub fn start_partition(&mut self, group: impl IntoIterator<Item = ServerId>) {
        let set: BTreeSet<ServerId> = group.into_iter().collect();
        if !set.is_empty() {
            self.partitions.push(set);
        }
    }

    /// Heals every active partition; returns how many were healed.
    pub fn heal_partitions(&mut self) -> usize {
        let healed = self.partitions.len();
        self.partitions.clear();
        healed
    }

    /// Returns `true` when the link between `a` and `b` is severed by any
    /// active partition. A server always reaches itself.
    pub fn severed(&self, a: ServerId, b: ServerId) -> bool {
        if a == b {
            return false;
        }
        self.partitions
            .iter()
            .any(|group| group.contains(&a) != group.contains(&b))
    }

    /// Activates (replacing any previous) link degradation.
    pub fn set_degradation(&mut self, degradation: LinkDegradation) {
        self.degradation = Some(degradation);
    }

    /// Clears link degradation; returns `true` if one was active.
    pub fn clear_degradation(&mut self) -> bool {
        self.degradation.take().is_some()
    }

    /// The active degradation, if any.
    pub fn degradation(&self) -> Option<&LinkDegradation> {
        self.degradation.as_ref()
    }

    /// Latency added to cross-server traffic right now.
    pub fn extra_latency(&self) -> SimDuration {
        self.degradation
            .as_ref()
            .map(|d| d.extra_latency)
            .unwrap_or(SimDuration::ZERO)
    }

    /// Effective bandwidth multiplier right now (1.0 when clear).
    pub fn bandwidth_factor(&self) -> f64 {
        self.degradation
            .as_ref()
            .map(|d| d.bandwidth_factor.clamp(1e-6, 1.0))
            .unwrap_or(1.0)
    }

    /// Per-mille drop probability for cross-server messages right now.
    pub fn drop_per_mille(&self) -> u32 {
        self.degradation
            .as_ref()
            .map(|d| d.drop_per_mille.min(1000))
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(i: u32) -> ServerId {
        ServerId(i)
    }

    #[test]
    fn clear_state_is_identity() {
        let f = NetFaults::new();
        assert!(f.is_clear());
        assert!(!f.severed(s(0), s(1)));
        assert_eq!(f.extra_latency(), SimDuration::ZERO);
        assert_eq!(f.bandwidth_factor(), 1.0);
        assert_eq!(f.drop_per_mille(), 0);
    }

    #[test]
    fn partition_severs_across_but_not_within_groups() {
        let mut f = NetFaults::new();
        f.start_partition([s(0), s(1)]);
        assert!(f.severed(s(0), s(2)));
        assert!(f.severed(s(2), s(1)), "severing is symmetric");
        assert!(!f.severed(s(0), s(1)), "within the group");
        assert!(!f.severed(s(2), s(3)), "within the remainder");
        assert!(!f.severed(s(0), s(0)), "self-links never sever");
        assert_eq!(f.heal_partitions(), 1);
        assert!(!f.severed(s(0), s(2)));
    }

    #[test]
    fn empty_partition_groups_are_ignored() {
        let mut f = NetFaults::new();
        f.start_partition(std::iter::empty());
        assert!(f.is_clear());
    }

    #[test]
    fn degradation_clamps_and_clears() {
        let mut f = NetFaults::new();
        f.set_degradation(LinkDegradation {
            extra_latency: SimDuration::from_millis(5),
            bandwidth_factor: 0.0,
            drop_per_mille: 5000,
        });
        assert!(f.bandwidth_factor() > 0.0, "factor clamps away from zero");
        assert_eq!(f.drop_per_mille(), 1000);
        assert_eq!(f.extra_latency(), SimDuration::from_millis(5));
        assert!(f.clear_degradation());
        assert!(f.is_clear());
    }
}
