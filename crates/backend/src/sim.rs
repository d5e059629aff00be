//! The simulated carrier: an audit-only adapter over the event loop.
//!
//! Under simulation the `plasma-sim` event queue *is* the transport and the
//! CPU — a pushed event is delivered exactly once, in deterministic order,
//! by construction. The backend therefore has nothing to carry; it only
//! mirrors the coordinator's counters so harnesses can assert that sim and
//! live runs saw identical event streams. Crucially it adds **zero** state
//! to the run: no RNG draws, no clock reads, no report scalars — a run with
//! this backend is byte-identical to one predating the backend layer.

use std::collections::BTreeMap;

use crate::control::{answer_query, ControlDecision, ControlQuery, ControlReply, ServerReport};
use crate::{BackendKind, BackendStats, Delivery, Execution, ExecutionBackend, WindowReport};

/// Adapter wrapping the discrete-event loop. See the [module docs](self).
#[derive(Debug, Default)]
pub struct SimBackend {
    stats: BackendStats,
    window_deliveries: u64,
    window_executions: u64,
    /// Held LEM report rows, one per server, for `report_generation`.
    /// Under sim the coordinator *is* every LEM, so one map answers
    /// queries inline — the audit-only twin of the per-worker state the
    /// live and net carriers hold.
    reports: BTreeMap<u32, ServerReport>,
    report_generation: u64,
}

impl SimBackend {
    /// Creates the audit-only sim carrier.
    pub fn new() -> Self {
        SimBackend::default()
    }
}

impl ExecutionBackend for SimBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Sim
    }

    fn server_up(&mut self, _server: u32, _vcpus: u32) {}

    fn server_down(&mut self, server: u32) {
        self.reports.remove(&server);
    }

    fn transmit(&mut self, d: Delivery) {
        let _ = (d.server, d.actor, d.bytes, d.remote);
        self.stats.deliveries += 1;
        self.window_deliveries += 1;
    }

    fn execute(&mut self, e: Execution) {
        self.stats.executions += 1;
        self.stats.worker_busy_ns += e.service_ns;
        self.window_executions += 1;
    }

    fn window_close(&mut self, generation: u64) -> WindowReport {
        let report = WindowReport {
            generation,
            deliveries: self.window_deliveries,
            executions: self.window_executions,
            // The event queue delivers exactly once by construction.
            matched: true,
        };
        self.window_deliveries = 0;
        self.window_executions = 0;
        self.stats.windows_closed += 1;
        report
    }

    fn round_barrier(&mut self, _round: u64) -> bool {
        self.stats.rounds += 1;
        true
    }

    fn publish_report(&mut self, generation: u64, report: &ServerReport) {
        if generation != self.report_generation {
            self.reports.clear();
            self.report_generation = generation;
        }
        self.reports.insert(report.server, *report);
        self.stats.control_reports += 1;
    }

    fn query(&mut self, query: &ControlQuery) -> Vec<ControlReply> {
        self.stats.control_queries += 1;
        self.stats.control_replies += 1;
        vec![answer_query(self.report_generation, &self.reports, query)]
    }

    fn decision(&mut self, _decision: &ControlDecision) {
        self.stats.control_decisions += 1;
    }

    fn stats(&self) -> BackendStats {
        self.stats
    }

    fn shutdown(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_partition_the_counters() {
        let mut b = SimBackend::new();
        b.server_up(0, 4);
        for i in 0..3 {
            b.transmit(Delivery {
                server: 0,
                actor: i,
                bytes: 1,
                remote: false,
            });
        }
        b.execute(Execution {
            server: 0,
            actor: 0,
            service_ns: 500,
        });
        let w1 = b.window_close(1);
        assert_eq!((w1.deliveries, w1.executions), (3, 1));
        assert!(w1.matched);
        let w2 = b.window_close(2);
        assert_eq!((w2.deliveries, w2.executions), (0, 0));
        assert_eq!(b.stats().deliveries, 3);
        assert_eq!(b.stats().worker_busy_ns, 500);
        assert_eq!(b.stats().windows_closed, 2);
        assert_eq!(b.stats().workers_spawned, 0, "sim starts no workers");
    }
}
