//! Cloud instance types with capacities calibrated to the paper's testbed.
//!
//! The paper deploys on AWS `m1.small`, `m1.medium` and `m5.large` instances.
//! Absolute AWS performance is irrelevant to the reproduced figures; what
//! matters is the *ratio* structure: an `m1.small` is a single slow vCPU that
//! saturates under modest load (§5.3, §5.5), an `m1.medium` is roughly twice
//! as fast (used for clients), and an `m5.large` has 2 modern vCPUs and a
//! 10 Gbps NIC (§5.4).

use plasma_sim::{SimDuration, SimTime};

/// Static description of a server flavor.
///
/// One *work unit* is defined as one second of compute on a `speed = 1.0`
/// vCPU, so [`InstanceType::service_time`] for `work = 0.001` on an
/// `m1.small` is one millisecond.
#[derive(Clone, Debug, PartialEq)]
pub struct InstanceType {
    /// Flavor name, e.g. `"m1.small"`.
    pub name: String,
    /// Number of parallel CPU lanes.
    pub vcpus: u32,
    /// Work units per second per vCPU (relative clock speed).
    pub speed: f64,
    /// Memory capacity in bytes.
    pub mem_bytes: u64,
    /// NIC bandwidth in bits per second.
    pub net_bps: f64,
    /// Delay between requesting the instance and it becoming usable.
    pub boot_delay: SimDuration,
    /// Relative cost per hour, for resource-saving accounting (Fig. 8).
    pub hourly_cost: f64,
}

impl InstanceType {
    /// AWS `m1.small`: one slow vCPU — the paper's "easily overloaded" tier.
    pub fn m1_small() -> Self {
        InstanceType {
            name: "m1.small".to_string(),
            vcpus: 1,
            speed: 1.0,
            mem_bytes: 1_700 << 20,
            net_bps: 250e6,
            boot_delay: SimDuration::from_secs(45),
            hourly_cost: 0.044,
        }
    }

    /// AWS `m1.medium`: one vCPU at roughly double the `m1.small` speed.
    pub fn m1_medium() -> Self {
        InstanceType {
            name: "m1.medium".to_string(),
            vcpus: 1,
            speed: 2.0,
            mem_bytes: 3_750 << 20,
            net_bps: 500e6,
            boot_delay: SimDuration::from_secs(45),
            hourly_cost: 0.087,
        }
    }

    /// AWS `m5.large`: 2 vCPUs, 8 GB, 10 Gbps — the PageRank tier (§5.4).
    pub fn m5_large() -> Self {
        InstanceType {
            name: "m5.large".to_string(),
            vcpus: 2,
            speed: 2.5,
            mem_bytes: 8 << 30,
            net_bps: 10e9,
            boot_delay: SimDuration::from_secs(40),
            hourly_cost: 0.096,
        }
    }

    /// Returns the time to execute `work` units on one lane of this flavor.
    ///
    /// Negative or non-finite work is treated as zero.
    pub fn service_time(&self, work: f64) -> SimDuration {
        if !work.is_finite() || work <= 0.0 {
            return SimDuration::ZERO;
        }
        SimDuration::from_secs_f64(work / self.speed)
    }

    /// Returns the total compute throughput (work units per second).
    pub fn total_speed(&self) -> f64 {
        self.speed * self.vcpus as f64
    }

    /// Returns the cost accrued by running this flavor from `from` to `to`.
    pub fn cost_between(&self, from: SimTime, to: SimTime) -> f64 {
        self.hourly_cost * to.saturating_since(from).as_secs_f64() / 3600.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_expected_ratios() {
        let small = InstanceType::m1_small();
        let medium = InstanceType::m1_medium();
        let large = InstanceType::m5_large();
        assert_eq!(small.vcpus, 1);
        assert_eq!(large.vcpus, 2);
        assert!(medium.speed > small.speed);
        assert!(large.net_bps > medium.net_bps);
        assert!(large.total_speed() > medium.total_speed());
    }

    #[test]
    fn service_time_scales_with_speed() {
        let small = InstanceType::m1_small();
        let medium = InstanceType::m1_medium();
        let w = 0.010;
        assert_eq!(small.service_time(w), SimDuration::from_millis(10));
        assert_eq!(medium.service_time(w), SimDuration::from_millis(5));
    }

    #[test]
    fn service_time_handles_degenerate_work() {
        let small = InstanceType::m1_small();
        assert_eq!(small.service_time(0.0), SimDuration::ZERO);
        assert_eq!(small.service_time(-1.0), SimDuration::ZERO);
        assert_eq!(small.service_time(f64::NAN), SimDuration::ZERO);
    }

    #[test]
    fn cost_accrues_per_hour() {
        let small = InstanceType::m1_small();
        let cost = small.cost_between(SimTime::ZERO, SimTime::from_secs(3600));
        assert!((cost - small.hourly_cost).abs() < 1e-12);
    }
}
