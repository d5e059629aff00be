//! Runtime-side chaos bookkeeping.
//!
//! [`ChaosState`] is created by [`Runtime::install_fault_plan`]
//! (crate::Runtime::install_fault_plan) and exists only while a non-empty
//! fault plan is installed — the fault-free path carries no chaos state at
//! all, which is what keeps it byte-identical to a build without this
//! module. It holds the sorted fault schedule, the recovery policy, the
//! accumulating [`ChaosStats`], and the transient records recovery needs:
//! which servers are crashed but undetected, which actors are orphaned and
//! awaiting respawn, and how often each aborted migration has retried.

use std::collections::{BTreeMap, BTreeSet};

use plasma_chaos::fault::FaultEvent;
use plasma_chaos::{ChaosStats, RecoveryPolicy};
use plasma_cluster::ServerId;
use plasma_sim::SimTime;
use plasma_trace::EventId;

use crate::ids::{ActorId, ActorTypeId};
use crate::logic::ActorLogic;
use crate::stats::RefMap;

/// An actor whose hosting server crashed, parked until recovery respawns
/// it. Its state is gone (accounted in [`ChaosStats::state_bytes_lost`]);
/// the logic, references and pin survive because the directory retains
/// them, per the AEON recovery model.
pub(crate) struct OrphanActor {
    /// The actor's identity (its slot is re-filled on respawn).
    pub id: ActorId,
    /// The actor's type.
    pub type_id: ActorTypeId,
    /// Application logic, carried over to the respawned incarnation.
    pub logic: Box<dyn ActorLogic>,
    /// State size the respawned incarnation starts with.
    pub state_size: u64,
    /// Reference properties, preserved by the directory.
    pub refs: RefMap,
    /// Whether a `pin` behavior was active.
    pub pinned: bool,
    /// Migration-attempt counter, preserved so stale in-flight arrivals
    /// from before the crash can never match the new incarnation.
    pub migration_seq: u64,
}

/// A server crash awaiting detection by the heartbeat failure detector.
pub(crate) struct CrashRecord {
    /// When the crash happened.
    pub at: SimTime,
    /// Trace id of the `ServerCrashed` event, parent for detection.
    pub trace: Option<EventId>,
}

/// All mutable chaos state of a runtime with an installed fault plan.
pub(crate) struct ChaosState {
    /// The plan's faults, sorted by injection time.
    pub schedule: Vec<FaultEvent>,
    /// Detection and repair parameters.
    pub policy: RecoveryPolicy,
    /// Accumulated fault / recovery counters, exported as `chaos.*`.
    pub stats: ChaosStats,
    /// Crashed servers the failure detector has not yet declared dead.
    pub crashed: BTreeMap<ServerId, CrashRecord>,
    /// Crashed servers with a scheduled reboot: crash instant plus the
    /// `ServerRestarted` trace id (parent for in-place recovery).
    pub restarting: BTreeMap<ServerId, (SimTime, Option<EventId>)>,
    /// Orphaned actors per crashed server, in crash order.
    pub orphans: BTreeMap<ServerId, Vec<OrphanActor>>,
    /// Ids of all currently-orphaned actors (for message-loss accounting).
    pub orphaned_ids: BTreeSet<ActorId>,
    /// Retry attempts per actor with an aborted migration.
    pub retries: BTreeMap<ActorId, u32>,
    /// End of the currently open migration-abort window.
    pub abort_until: SimTime,
    /// Remaining migrations the open abort window may kill.
    pub abort_budget: u32,
    /// Until when `request_server` fails (provisioner stall).
    pub provisioner_stalled_until: SimTime,
}

impl ChaosState {
    /// Creates chaos state for a sorted schedule and a recovery policy.
    pub fn new(schedule: Vec<FaultEvent>, policy: RecoveryPolicy) -> Self {
        ChaosState {
            schedule,
            policy,
            stats: ChaosStats::default(),
            crashed: BTreeMap::new(),
            restarting: BTreeMap::new(),
            orphans: BTreeMap::new(),
            orphaned_ids: BTreeSet::new(),
            retries: BTreeMap::new(),
            abort_until: SimTime::ZERO,
            abort_budget: 0,
            provisioner_stalled_until: SimTime::ZERO,
        }
    }

    /// Whether an arriving migration should be aborted by the open window.
    pub fn should_abort_migration(&mut self, now: SimTime) -> bool {
        if now <= self.abort_until && self.abort_budget > 0 {
            self.abort_budget -= 1;
            true
        } else {
            false
        }
    }
}
