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

use crate::control::{answer_query, ControlQuery, ControlReply, ServerReport};
use crate::{BackendKind, BackendStats, Delivery, Execution, ExecutionBackend};

/// Adapter wrapping the discrete-event loop. See the [module docs](self).
#[derive(Debug, Default)]
pub struct SimBackend {
    stats: BackendStats,
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

    fn transmit(&mut self, _d: Delivery) {
        self.stats.deliveries += 1;
    }

    fn execute(&mut self, _e: Execution) {
        self.stats.executions += 1;
    }

    fn window_close(&mut self, _generation: u64) -> bool {
        // The event queue delivers exactly once by construction.
        true
    }

    fn round_barrier(&mut self, _round: u64) -> bool {
        true
    }

    fn publish_report(&mut self, generation: u64, report: &ServerReport) {
        if generation != self.report_generation {
            self.reports.clear();
            self.report_generation = generation;
        }
        self.reports.insert(report.server, *report);
    }

    fn query(&mut self, query: &ControlQuery) -> Option<Vec<ControlReply>> {
        self.stats.control_queries += 1;
        self.stats.control_replies += 1;
        Some(vec![answer_query(
            self.report_generation,
            &self.reports,
            query,
        )])
    }

    fn stats(&self) -> BackendStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_across_windows() {
        let mut b = SimBackend::new();
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
        assert!(b.window_close(1));
        assert!(b.window_close(2));
        assert_eq!(b.stats().deliveries, 3);
        assert_eq!(b.stats().executions, 1);
        assert_eq!(b.stats().workers_spawned, 0, "sim starts no workers");
    }
}
