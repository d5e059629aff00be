//! Cluster membership: the server registry and provisioning mechanics.

use plasma_sim::metrics::TimeSeries;
use plasma_sim::SimTime;
use plasma_trace::{Component, TraceEventKind, Tracer};

use crate::instance::InstanceType;
use crate::netfault::NetFaults;
use crate::network::NetworkModel;
use crate::server::{Server, ServerId, ServerState};

/// Static limits on cluster growth, mirroring the paper's setups
/// (e.g., §5.6 scales from 4 to at most 65 instances).
#[derive(Clone, Debug)]
pub struct ClusterLimits {
    /// Maximum number of servers that may exist concurrently.
    pub max_servers: usize,
    /// Minimum number of running servers `decommission` must preserve.
    pub min_servers: usize,
}

impl Default for ClusterLimits {
    fn default() -> Self {
        ClusterLimits {
            max_servers: 128,
            min_servers: 1,
        }
    }
}

/// The server registry: owns every [`Server`], handles provisioning and
/// decommissioning, and records the running-server count over time
/// (the series plotted in Fig. 10b).
#[derive(Debug)]
pub struct Cluster {
    servers: Vec<Server>,
    network: NetworkModel,
    limits: ClusterLimits,
    net_faults: NetFaults,
    server_count_series: TimeSeries,
    tracer: Tracer,
}

impl Cluster {
    /// Creates an empty cluster.
    pub fn new(network: NetworkModel, limits: ClusterLimits) -> Self {
        Cluster {
            servers: Vec::new(),
            network,
            limits,
            net_faults: NetFaults::new(),
            server_count_series: TimeSeries::new(),
            tracer: Tracer::disabled(),
        }
    }

    /// Installs the tracer provisioning events are emitted to.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Returns the interconnect model.
    pub fn network(&self) -> &NetworkModel {
        &self.network
    }

    /// Returns the growth limits.
    pub fn limits(&self) -> &ClusterLimits {
        &self.limits
    }

    /// Active network faults (partitions, link degradation).
    pub fn net_faults(&self) -> &NetFaults {
        &self.net_faults
    }

    /// Mutable access to the network-fault state (fault injection only).
    pub fn net_faults_mut(&mut self) -> &mut NetFaults {
        &mut self.net_faults
    }

    /// Requests a new server of the given flavor.
    ///
    /// Returns the new id and the instant it becomes usable, or `None` if
    /// the `max_servers` limit is reached. The caller is responsible for
    /// scheduling a boot-completion event and then calling
    /// [`Cluster::mark_running`].
    pub fn request_server(
        &mut self,
        itype: InstanceType,
        now: SimTime,
    ) -> Option<(ServerId, SimTime)> {
        if self.active_count() >= self.limits.max_servers {
            return None;
        }
        let id = ServerId(self.servers.len() as u32);
        let server = Server::new(id, itype, now);
        let ready_at = match server.state() {
            ServerState::Booting { ready_at } => ready_at,
            _ => unreachable!("new servers always boot"),
        };
        self.servers.push(server);
        self.tracer.emit(now, Component::Provisioner, None, || {
            TraceEventKind::ServerBoot {
                server: id.0,
                instance: self.servers[id.0 as usize].instance().name.clone(),
                ready_at_us: ready_at.as_micros(),
            }
        });
        Some((id, ready_at))
    }

    /// Provisions a server that is usable immediately (initial deployment).
    pub fn add_running_server(&mut self, itype: InstanceType, now: SimTime) -> ServerId {
        let (id, _) = self
            .request_server(itype, now)
            .expect("initial deployment exceeds max_servers");
        self.mark_running(id, now);
        id
    }

    /// Marks a booting server as running and records the new count.
    pub fn mark_running(&mut self, id: ServerId, now: SimTime) {
        self.servers[id.0 as usize].mark_running(now);
        let count = self.running_count();
        self.server_count_series.push(now, count as f64);
    }

    /// Stops a running server.
    ///
    /// Returns `false` (and does nothing) if stopping would violate
    /// `min_servers` or the server is not running. The caller must have
    /// already drained its actors.
    pub fn decommission(&mut self, id: ServerId, now: SimTime) -> bool {
        if self.running_count() <= self.limits.min_servers {
            return false;
        }
        if !self.servers[id.0 as usize].is_running() {
            return false;
        }
        self.servers[id.0 as usize].mark_stopped(now);
        let count = self.running_count();
        self.server_count_series.push(now, count as f64);
        self.tracer.emit(now, Component::Provisioner, None, || {
            TraceEventKind::ServerDrain { server: id.0 }
        });
        true
    }

    /// Crash-stops a running server (fault injection).
    ///
    /// Unlike [`Cluster::decommission`] this ignores `min_servers` — faults
    /// do not ask permission — and leaves the slot eligible for
    /// [`Cluster::restart`]. Returns `false` if the server is not running.
    pub fn crash(&mut self, id: ServerId, now: SimTime) -> bool {
        // Fault plans may name servers that were never provisioned (or were
        // decommissioned): crashing nothing is a no-op, not a panic.
        if id.0 as usize >= self.servers.len() || !self.servers[id.0 as usize].is_running() {
            return false;
        }
        self.servers[id.0 as usize].mark_crashed(now);
        let count = self.running_count();
        self.server_count_series.push(now, count as f64);
        true
    }

    /// Reboots a crashed server; it becomes `Booting` and is usable at the
    /// returned instant. Returns `None` if the server is not crashed.
    pub fn restart(&mut self, id: ServerId, now: SimTime) -> Option<SimTime> {
        if id.0 as usize >= self.servers.len() || !self.servers[id.0 as usize].is_crashed() {
            return None;
        }
        let ready_at = self.servers[id.0 as usize].restart(now);
        self.tracer.emit(now, Component::Provisioner, None, || {
            TraceEventKind::ServerBoot {
                server: id.0,
                instance: self.servers[id.0 as usize].instance().name.clone(),
                ready_at_us: ready_at.as_micros(),
            }
        });
        Some(ready_at)
    }

    /// Returns the ids of all crash-stopped servers, in id order.
    pub fn crashed_ids(&self) -> Vec<ServerId> {
        self.servers
            .iter()
            .filter(|s| s.is_crashed())
            .map(|s| s.id())
            .collect()
    }

    /// Returns a shared reference to a server.
    pub fn server(&self, id: ServerId) -> &Server {
        &self.servers[id.0 as usize]
    }

    /// Returns a mutable reference to a server.
    pub fn server_mut(&mut self, id: ServerId) -> &mut Server {
        &mut self.servers[id.0 as usize]
    }

    /// Returns the ids of all running servers, in id order.
    pub fn running_ids(&self) -> Vec<ServerId> {
        self.servers
            .iter()
            .filter(|s| s.is_running())
            .map(|s| s.id())
            .collect()
    }

    /// Returns the number of running servers.
    pub fn running_count(&self) -> usize {
        self.servers.iter().filter(|s| s.is_running()).count()
    }

    /// Returns the number of running or booting servers.
    pub fn active_count(&self) -> usize {
        self.servers
            .iter()
            .filter(|s| s.state() != ServerState::Stopped)
            .count()
    }

    /// Returns the accumulated cost of all servers up to `now`.
    pub fn total_cost(&self, now: SimTime) -> f64 {
        self.servers.iter().map(|s| s.cost(now)).sum()
    }

    /// Returns the running-server-count series (Fig. 10b).
    pub fn server_count_series(&self) -> &TimeSeries {
        &self.server_count_series
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plasma_sim::SimDuration;

    fn cluster() -> Cluster {
        Cluster::new(
            NetworkModel::default(),
            ClusterLimits {
                max_servers: 4,
                min_servers: 1,
            },
        )
    }

    #[test]
    fn provisioning_respects_max() {
        let mut c = cluster();
        for _ in 0..4 {
            assert!(c
                .request_server(InstanceType::m1_small(), SimTime::ZERO)
                .is_some());
        }
        assert!(c
            .request_server(InstanceType::m1_small(), SimTime::ZERO)
            .is_none());
        assert_eq!(c.active_count(), 4);
        assert_eq!(c.running_count(), 0);
    }

    #[test]
    fn boot_then_run() {
        let mut c = cluster();
        let (id, ready_at) = c
            .request_server(InstanceType::m1_small(), SimTime::from_secs(10))
            .unwrap();
        assert_eq!(
            ready_at,
            SimTime::from_secs(10) + InstanceType::m1_small().boot_delay
        );
        c.mark_running(id, ready_at);
        assert_eq!(c.running_count(), 1);
        assert_eq!(c.running_ids(), vec![id]);
    }

    #[test]
    fn decommission_respects_min() {
        let mut c = cluster();
        let a = c.add_running_server(InstanceType::m1_small(), SimTime::ZERO);
        let b = c.add_running_server(InstanceType::m1_small(), SimTime::ZERO);
        assert!(c.decommission(b, SimTime::from_secs(1)));
        assert!(!c.decommission(a, SimTime::from_secs(2)), "min_servers=1");
        assert_eq!(c.running_count(), 1);
    }

    #[test]
    fn decommission_twice_is_rejected() {
        let mut c = cluster();
        let _a = c.add_running_server(InstanceType::m1_small(), SimTime::ZERO);
        let b = c.add_running_server(InstanceType::m1_small(), SimTime::ZERO);
        assert!(c.decommission(b, SimTime::from_secs(1)));
        assert!(!c.decommission(b, SimTime::from_secs(2)));
    }

    #[test]
    fn stopped_slots_free_capacity() {
        let mut c = cluster();
        let mut ids = Vec::new();
        for _ in 0..4 {
            ids.push(c.add_running_server(InstanceType::m1_small(), SimTime::ZERO));
        }
        assert!(c
            .request_server(InstanceType::m1_small(), SimTime::ZERO)
            .is_none());
        assert!(c.decommission(ids[3], SimTime::from_secs(1)));
        assert!(c
            .request_server(InstanceType::m1_small(), SimTime::from_secs(2))
            .is_some());
    }

    #[test]
    fn crash_and_restart_cycle() {
        let mut c = cluster();
        let a = c.add_running_server(InstanceType::m1_small(), SimTime::ZERO);
        let _b = c.add_running_server(InstanceType::m1_small(), SimTime::ZERO);
        assert!(c.crash(a, SimTime::from_secs(5)));
        assert!(!c.crash(a, SimTime::from_secs(6)), "already crashed");
        assert_eq!(c.crashed_ids(), vec![a]);
        assert_eq!(c.running_count(), 1);
        // Crashed servers still hold a provider slot.
        assert_eq!(c.active_count(), 2);
        let ready_at = c.restart(a, SimTime::from_secs(10)).unwrap();
        assert!(c.restart(a, SimTime::from_secs(11)).is_none(), "booting");
        c.mark_running(a, ready_at);
        assert_eq!(c.running_count(), 2);
        assert!(c.crashed_ids().is_empty());
    }

    #[test]
    fn crash_ignores_min_servers() {
        let mut c = cluster();
        let a = c.add_running_server(InstanceType::m1_small(), SimTime::ZERO);
        assert!(!c.decommission(a, SimTime::from_secs(1)), "min_servers=1");
        assert!(c.crash(a, SimTime::from_secs(1)), "faults do not ask");
        assert_eq!(c.running_count(), 0);
    }

    #[test]
    fn server_count_series_records_changes() {
        let mut c = cluster();
        let _ = c.add_running_server(InstanceType::m1_small(), SimTime::ZERO);
        let b = c.add_running_server(InstanceType::m1_small(), SimTime::from_secs(5));
        c.decommission(b, SimTime::from_secs(10));
        let pts = c.server_count_series().points();
        let counts: Vec<f64> = pts.iter().map(|&(_, v)| v).collect();
        assert_eq!(counts, vec![1.0, 2.0, 1.0]);
    }

    #[test]
    fn total_cost_accumulates() {
        let mut c = cluster();
        let _ = c.add_running_server(InstanceType::m1_small(), SimTime::ZERO);
        let one_hour = c.total_cost(SimTime::from_secs(3600));
        let two_hours = c.total_cost(SimTime::from_secs(7200));
        assert!(two_hours > one_hour);
        let _ = SimDuration::ZERO; // Keep the import exercised in this cfg.
    }
}
