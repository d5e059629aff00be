//! A simulated server: an instance with utilization meters.

use std::fmt;

use plasma_sim::metrics::BusyMeter;
use plasma_sim::{SimDuration, SimTime};

use crate::instance::InstanceType;
use crate::resources::ResourceUsage;

/// Identifier of a server within a [`Cluster`](crate::Cluster).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ServerId(pub u32);

impl fmt::Debug for ServerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

impl fmt::Display for ServerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "server-{}", self.0)
    }
}

/// Lifecycle state of a server.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ServerState {
    /// Requested from the provider; becomes usable at the contained time.
    Booting {
        /// Instant at which the server finishes booting.
        ready_at: SimTime,
    },
    /// Accepting actors and processing messages.
    Running,
    /// Decommissioned; holds no actors and accrues no further cost.
    Stopped,
    /// Crash-stopped by fault injection: volatile state is gone, cost is
    /// frozen, but the slot may come back via [`Server::restart`].
    Crashed,
}

/// A server: static instance description plus rolling utilization meters.
///
/// CPU is metered as busy lane-time (fed by the actor scheduler), network as
/// bytes sent+received in the current window, and memory as the sum of
/// resident actor state. [`Server::roll_usage`] closes the current window and
/// returns utilization fractions — exactly the server-level signals the EPL's
/// `server.cpu/mem/net` features read.
#[derive(Debug, Clone)]
pub struct Server {
    id: ServerId,
    itype: InstanceType,
    state: ServerState,
    started_at: SimTime,
    stopped_at: Option<SimTime>,
    /// Cost accrued in lifetimes before the most recent (re)start; stays
    /// exactly `0.0` for servers that never crashed, so `prior_cost + x`
    /// is bit-identical to `x` on the fault-free path.
    prior_cost: f64,
    cpu: BusyMeter,
    net_window_start: SimTime,
    net_bytes: u64,
    mem_used: u64,
    /// Most recent utilization snapshot (from the last `roll_usage`).
    last_usage: ResourceUsage,
}

impl Server {
    /// Creates a server in the `Booting` state.
    pub fn new(id: ServerId, itype: InstanceType, requested_at: SimTime) -> Self {
        let ready_at = requested_at + itype.boot_delay;
        Server {
            id,
            itype,
            state: ServerState::Booting { ready_at },
            started_at: requested_at,
            stopped_at: None,
            prior_cost: 0.0,
            cpu: BusyMeter::new(),
            net_window_start: requested_at,
            net_bytes: 0,
            mem_used: 0,
            last_usage: ResourceUsage::ZERO,
        }
    }

    /// Returns this server's identifier.
    pub fn id(&self) -> ServerId {
        self.id
    }

    /// Returns the instance flavor.
    pub fn instance(&self) -> &InstanceType {
        &self.itype
    }

    /// Returns the lifecycle state.
    pub fn state(&self) -> ServerState {
        self.state
    }

    /// Returns `true` if the server is accepting work.
    pub fn is_running(&self) -> bool {
        self.state == ServerState::Running
    }

    /// Transitions `Booting -> Running`; resets meter windows to `now`.
    pub fn mark_running(&mut self, now: SimTime) {
        self.state = ServerState::Running;
        self.cpu.roll(now, self.itype.vcpus);
        self.net_window_start = now;
        self.net_bytes = 0;
    }

    /// Transitions to `Stopped` and freezes cost accrual.
    pub fn mark_stopped(&mut self, now: SimTime) {
        self.state = ServerState::Stopped;
        self.stopped_at = Some(now);
    }

    /// Returns `true` if the server is crash-stopped.
    pub fn is_crashed(&self) -> bool {
        self.state == ServerState::Crashed
    }

    /// Crash-stops the server: cost accrued so far is folded into
    /// `prior_cost` and frozen; volatile meters stop advancing.
    pub fn mark_crashed(&mut self, now: SimTime) {
        self.prior_cost += self.itype.cost_between(self.started_at, now);
        self.started_at = now;
        self.stopped_at = Some(now);
        self.state = ServerState::Crashed;
    }

    /// Reboots a crashed server; it becomes `Booting` and is usable at the
    /// returned instant (cost accrual resumes from `now`).
    pub fn restart(&mut self, now: SimTime) -> SimTime {
        debug_assert!(self.is_crashed(), "only crashed servers restart");
        let ready_at = now + self.itype.boot_delay;
        self.started_at = now;
        self.stopped_at = None;
        self.state = ServerState::Booting { ready_at };
        ready_at
    }

    /// Adds CPU busy time (one lane busy for `d`).
    pub fn add_cpu_busy(&mut self, d: SimDuration) {
        self.cpu.add_busy(d);
    }

    /// Adds bytes crossing this server's NIC (sent or received).
    pub fn add_net_bytes(&mut self, bytes: u64) {
        self.net_bytes += bytes;
    }

    /// Adds resident memory (actor state placed here).
    pub fn add_mem(&mut self, bytes: u64) {
        self.mem_used += bytes;
    }

    /// Releases resident memory (actor state leaving this server).
    pub fn remove_mem(&mut self, bytes: u64) {
        self.mem_used = self.mem_used.saturating_sub(bytes);
    }

    /// Returns resident memory in bytes.
    pub fn mem_used(&self) -> u64 {
        self.mem_used
    }

    /// Closes the current metering window at `now` and returns utilization
    /// fractions for CPU, memory and network.
    pub fn roll_usage(&mut self, now: SimTime) -> ResourceUsage {
        let cpu = self.cpu.roll(now, self.itype.vcpus);
        let elapsed = now.saturating_since(self.net_window_start).as_secs_f64();
        let net = if elapsed > 0.0 && self.itype.net_bps > 0.0 {
            (self.net_bytes as f64 * 8.0 / (self.itype.net_bps * elapsed)).min(1.0)
        } else {
            0.0
        };
        self.net_window_start = now;
        self.net_bytes = 0;
        let mem = if self.itype.mem_bytes > 0 {
            (self.mem_used as f64 / self.itype.mem_bytes as f64).min(1.0)
        } else {
            0.0
        };
        self.last_usage = ResourceUsage::new(cpu, mem, net);
        self.last_usage
    }

    /// Returns the most recent utilization snapshot without rolling.
    pub fn last_usage(&self) -> ResourceUsage {
        self.last_usage
    }

    /// Returns the cost accrued by this server up to `now`.
    pub fn cost(&self, now: SimTime) -> f64 {
        let end = self.stopped_at.unwrap_or(now).min(now);
        self.prior_cost
            + self
                .itype
                .cost_between(self.started_at, end.max(self.started_at))
    }

    /// Returns the instant the server was requested.
    pub fn started_at(&self) -> SimTime {
        self.started_at
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn server() -> Server {
        Server::new(ServerId(0), InstanceType::m1_small(), SimTime::ZERO)
    }

    #[test]
    fn boot_lifecycle() {
        let mut s = server();
        match s.state() {
            ServerState::Booting { ready_at } => {
                assert_eq!(
                    ready_at,
                    SimTime::ZERO + InstanceType::m1_small().boot_delay
                )
            }
            other => panic!("unexpected state {other:?}"),
        }
        assert!(!s.is_running());
        s.mark_running(SimTime::from_secs(45));
        assert!(s.is_running());
        s.mark_stopped(SimTime::from_secs(100));
        assert_eq!(s.state(), ServerState::Stopped);
    }

    #[test]
    fn cpu_utilization_rolls() {
        let mut s = server();
        s.mark_running(SimTime::ZERO);
        s.add_cpu_busy(SimDuration::from_millis(250));
        let u = s.roll_usage(SimTime::from_secs(1));
        assert!((u.cpu() - 0.25).abs() < 1e-9);
        // The window reset: same busy time over 0.5s doubles utilization.
        s.add_cpu_busy(SimDuration::from_millis(250));
        let u = s.roll_usage(SimTime::from_millis(1_500));
        assert!((u.cpu() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn net_utilization() {
        let mut s = server();
        s.mark_running(SimTime::ZERO);
        // m1.small NIC = 250 Mbps. 12.5 MB in 1s = 100 Mbps = 40%.
        s.add_net_bytes(12_500_000);
        let u = s.roll_usage(SimTime::from_secs(1));
        assert!((u.net() - 0.4).abs() < 1e-9, "net {}", u.net());
    }

    #[test]
    fn mem_utilization_tracks_state() {
        let mut s = server();
        s.mark_running(SimTime::ZERO);
        let cap = s.instance().mem_bytes;
        s.add_mem(cap / 2);
        let u = s.roll_usage(SimTime::from_secs(1));
        assert!((u.mem() - 0.5).abs() < 1e-9);
        s.remove_mem(cap); // Saturates at zero rather than underflowing.
        assert_eq!(s.mem_used(), 0);
    }

    #[test]
    fn crash_freezes_cost_and_restart_resumes_it() {
        let mut s = server();
        s.mark_running(SimTime::ZERO);
        s.mark_crashed(SimTime::from_secs(3600));
        assert!(s.is_crashed());
        let at_crash = s.cost(SimTime::from_secs(3600));
        assert_eq!(at_crash, s.cost(SimTime::from_secs(7200)), "cost frozen");
        assert!((at_crash - s.instance().hourly_cost).abs() < 1e-12);
        let ready_at = s.restart(SimTime::from_secs(7200));
        assert_eq!(ready_at, SimTime::from_secs(7200) + s.instance().boot_delay);
        assert!(matches!(s.state(), ServerState::Booting { .. }));
        s.mark_running(ready_at);
        // One more hour after the restart: prior cost is preserved.
        let later = s.cost(SimTime::from_secs(7200 + 3600));
        assert!((later - 2.0 * s.instance().hourly_cost).abs() < 1e-9);
    }

    #[test]
    fn cost_freezes_at_stop() {
        let mut s = server();
        s.mark_running(SimTime::ZERO);
        s.mark_stopped(SimTime::from_secs(3600));
        let at_stop = s.cost(SimTime::from_secs(3600));
        let later = s.cost(SimTime::from_secs(7200));
        assert_eq!(at_stop, later);
        assert!((at_stop - s.instance().hourly_cost).abs() < 1e-12);
    }
}
