#![warn(missing_docs)]

//! Execution backends for the PLASMA runtime.
//!
//! Everything above this crate — the actor runtime, the EMR, compiled EPL
//! policies, chaos — plans and decides on *logical* state: the deterministic
//! event schedule, profiling snapshots, and the decision sequence they
//! produce. What varies between a simulated run and a deployed one is the
//! *carrier* underneath that logic: what a message delivery physically is,
//! where a service executes, what closes a profiling window, and what
//! carries the GEM/LEM control traffic. The [`ExecutionBackend`] trait
//! abstracts exactly that carrier surface:
//!
//! - **transport** — [`ExecutionBackend::transmit`] and
//!   [`ExecutionBackend::execute`]: a counter under sim, a wire frame to
//!   the server group's worker under live and net.
//! - **windows and rounds** — [`ExecutionBackend::window_close`] /
//!   [`ExecutionBackend::round_barrier`]: no-ops under sim, real barriers
//!   under live and net that verify exactly-once carriage of every event.
//! - **control plane** — [`ExecutionBackend::publish_report`] and
//!   [`ExecutionBackend::query`]: the REPORT and QUERY/QREPLY steps,
//!   answered inline under sim and by the server's worker under live and
//!   net. The coordinator enacts each decision itself, so no DECISION step
//!   crosses the carrier.
//!
//! This crate holds the trait, [`SimBackend`] (an adapter over the
//! `plasma-sim` event loop: the queue itself already *is* the carrier, so
//! the backend only audits) and the [`control`] message grammar. The real
//! carrier lives one crate up: `plasma-net`'s `NetBackend` runs one worker
//! loop per server group over localhost TCP, hosted either by
//! `plasma-server` processes (net) or by threads of the coordinator's
//! process (live), and owns the byte layout of every carriage type on its
//! wire. The logical schedule stays single-threaded and deterministic in
//! the coordinator, so decision-relevant ordering is identical by
//! construction — the three-way parity the `net-parity` CI job gates.

pub mod control;
pub mod sim;

pub use control::{answer_query, ControlQuery, ControlReply, ServerReport};
pub use sim::SimBackend;

/// Which execution backend carries a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BackendKind {
    /// The discrete-event simulator carries everything (the default).
    #[default]
    Sim,
    /// Worker threads of this process carry deliveries and services on
    /// the `plasma-net` wire format over localhost TCP (one thread per
    /// server group).
    Live,
    /// Worker processes carry deliveries and services on the `plasma-net`
    /// wire format over localhost TCP (one process per server group).
    Net,
}

impl BackendKind {
    /// Parses `"sim"` / `"live"` / `"net"` (case-insensitive).
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "sim" => Some(BackendKind::Sim),
            "live" => Some(BackendKind::Live),
            "net" => Some(BackendKind::Net),
            _ => None,
        }
    }

    /// The canonical lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Sim => "sim",
            BackendKind::Live => "live",
            BackendKind::Net => "net",
        }
    }
}

/// One message delivery handed to the carrier.
///
/// Identifies the hosting server and target actor by raw id so the backend
/// stays below the actor crate in the dependency order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Delivery {
    /// The server the target actor resides on.
    pub server: u32,
    /// The target actor.
    pub actor: u64,
    /// Payload size in bytes.
    pub bytes: u64,
    /// Whether the message crossed servers.
    pub remote: bool,
}

/// One message service handed to the carrier.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Execution {
    /// The server whose CPU lane runs the service.
    pub server: u32,
    /// The serviced actor.
    pub actor: u64,
    /// Simulated service time in nanoseconds (real carriers account it as
    /// busy time; they do not dilate wall-clock to simulated durations).
    pub service_ns: u64,
}

/// Cumulative backend counters, read through `Runtime::backend_stats`.
///
/// Every field is a measurement side-channel: none feeds back into
/// scheduling or decisions.
#[derive(Clone, Copy, Debug, Default)]
pub struct BackendStats {
    /// Deliveries handed to the carrier.
    pub deliveries: u64,
    /// Services handed to the carrier.
    pub executions: u64,
    /// Window barriers whose carrier counts diverged from the
    /// coordinator's (lost or duplicated carriage; gated to 0 by parity).
    pub window_mismatches: u64,
    /// Worker groups started: `plasma-server` processes under net, worker
    /// threads under live.
    pub workers_spawned: u64,
    /// Total transport latency over sampled deliveries, ns: the
    /// deterministic *injected* (chaos link-degradation) delay stamped onto
    /// remote deliveries under live and net. There is no shared clock
    /// between a worker and the coordinator to time real one-way latency.
    pub channel_ns_total: u64,
    /// Worst transport latency over sampled deliveries, ns.
    pub channel_ns_max: u64,
    /// Deliveries with a transport-latency sample.
    pub channel_samples: u64,
    /// Wire frames written by the coordinator (0 under sim).
    pub frames_sent: u64,
    /// Wire frames read back by the coordinator (0 under sim).
    pub frames_received: u64,
    /// Wire bytes written by the coordinator (0 under sim).
    pub wire_bytes_sent: u64,
    /// Wire bytes read back by the coordinator (0 under sim).
    pub wire_bytes_received: u64,
    /// Most frames ever outstanding between two carrier barriers (0 under
    /// sim): frames written since the last fully-acked barrier.
    pub max_inflight_frames: u64,
    /// GEM control queries carried.
    pub control_queries: u64,
    /// Query replies carried back. Carrier-dependent fan-out: one merged
    /// reply under sim, one per worker group holding in-scope servers
    /// under live and net.
    pub control_replies: u64,
    /// Wire bytes of control-plane traffic, both directions (0 under sim,
    /// where control is an in-process call).
    pub control_wire_bytes: u64,
}

impl BackendStats {
    /// Mean injected (chaos link-degradation) transport delay per sampled
    /// delivery, in microseconds: [`BackendStats::channel_ns_total`] over
    /// [`BackendStats::channel_samples`], not a measured wall-clock
    /// latency. 0 when no samples were taken, e.g. under sim or on a
    /// fault-free run.
    pub fn channel_latency_us_mean(&self) -> f64 {
        if self.channel_samples == 0 {
            0.0
        } else {
            self.channel_ns_total as f64 / self.channel_samples as f64 / 1e3
        }
    }
}

/// The carrier surface under the actor runtime.
///
/// # Contract
///
/// The caller (the runtime's single-threaded coordinator) promises:
///
/// - [`ExecutionBackend::window_close`] is called once per profiling
///   window, after the window's last delivery and before the next window's
///   first; `generation` strictly increases.
/// - Nothing the backend returns may alter logical scheduling: barrier
///   outcomes and stats feed measurements only, never decisions. This is
///   what makes sim/live decision sequences comparable at all.
///
/// The backend promises in return: `window_close` confirms every event of
/// the window reached its carrier exactly once, and `query` answers from
/// every carrier it asked.
pub trait ExecutionBackend {
    /// Which backend this is.
    fn kind(&self) -> BackendKind;

    /// Carries one message delivery.
    fn transmit(&mut self, delivery: Delivery);

    /// Carries one message service.
    fn execute(&mut self, execution: Execution);

    /// Closes a profiling window: barriers all carriers and returns
    /// whether the window's carriage arrived exactly once (always `true`
    /// under sim).
    fn window_close(&mut self, generation: u64) -> bool;

    /// Barriers all carriers at an elasticity-round boundary. Returns
    /// whether every carrier acknowledged it (always `true` under sim).
    fn round_barrier(&mut self, round: u64) -> bool;

    /// Publishes one server's LEM report row to the carrier — the REPORT
    /// step of the control plane. Called once per running server when a
    /// profiling window closes (and once, with a zero-utilization row, when
    /// a server boots mid-window), before any query against `generation`.
    /// The row must be a byte-exact copy of the coordinator's snapshot
    /// data: carriers hold it verbatim and echo it back in query replies.
    fn publish_report(&mut self, generation: u64, report: &ServerReport);

    /// Carries one GEM query synchronously: the carrier routes it to every
    /// LEM holding in-scope reports and returns their replies in a
    /// deterministic order (ascending group order under live and net, one
    /// merged reply under sim). Returns `None` when a carrier it asked
    /// sent back no reply echoing the query's gem, round and generation
    /// (a lost worker): planning over part of the scope is not an answer.
    ///
    /// This is the one deliberate relaxation of the "nothing the backend
    /// returns may alter logical scheduling" rule: replies *do* feed the
    /// GEM's decision — but every candidate row is a bit-exact copy of
    /// snapshot state the coordinator itself published, so the decision
    /// sequence remains a pure function of logical state (the N-way parity
    /// gate holds the carriages to that).
    fn query(&mut self, query: &ControlQuery) -> Option<Vec<ControlReply>>;

    /// Announces the currently injected cross-server transport delay in
    /// nanoseconds (`0` clears it). The chaos layer calls this when a
    /// link-degradation fault is applied or healed, so transport-level
    /// carriers can map the fault onto their own medium — the net backend
    /// stamps subsequent remote deliveries with the delay and accounts it
    /// as deterministic transport latency. Purely a measurement
    /// side-channel: it must never alter carriage or logical scheduling.
    /// Default: ignored (sim models the delay in the event queue).
    fn link_delay(&mut self, _extra_ns: u64) {}

    /// Snapshot of the cumulative counters.
    fn stats(&self) -> BackendStats;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_parses_and_names() {
        assert_eq!(BackendKind::parse("sim"), Some(BackendKind::Sim));
        assert_eq!(BackendKind::parse("LIVE"), Some(BackendKind::Live));
        assert_eq!(BackendKind::parse("net"), Some(BackendKind::Net));
        assert_eq!(BackendKind::parse("tcp"), None);
        assert_eq!(BackendKind::Sim.name(), "sim");
        assert_eq!(BackendKind::Live.name(), "live");
        assert_eq!(BackendKind::Net.name(), "net");
        assert_eq!(BackendKind::default(), BackendKind::Sim);
    }
}
