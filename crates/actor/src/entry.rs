//! Per-actor runtime record: mailbox, location, references, migration state.

use std::collections::VecDeque;

use plasma_cluster::ServerId;
use plasma_sim::SimTime;

use crate::ids::{ActorId, ActorTypeId};
use crate::logic::ActorLogic;
use crate::message::Message;
use crate::stats::{ActorCounters, RefMap};

/// Why an actor cannot be migrated right now.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MigrationBlocked {
    /// A `pin` behavior protects the actor.
    Pinned,
    /// The actor has not yet satisfied the placement-stability residency
    /// requirement (§4.3: an actor migrates only after staying on the same
    /// server for at least one elasticity period).
    Residency,
    /// A migration is already in progress.
    InFlight,
    /// The destination equals the current server.
    SameServer,
    /// The destination server is not running.
    DestinationDown,
    /// The actor no longer exists.
    Gone,
}

/// Migration progress of an actor.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MigrationState {
    /// Waiting for the in-flight message service to finish.
    Pending {
        /// Migration target.
        dst: ServerId,
    },
    /// State is being transferred over the network.
    InTransit {
        /// Migration target.
        dst: ServerId,
    },
}

/// The runtime record of a live actor.
pub struct ActorEntry {
    /// The actor's id.
    pub id: ActorId,
    /// The actor's type.
    pub type_id: ActorTypeId,
    /// Current hosting server (updated when a migration completes).
    pub server: ServerId,
    /// Application logic; taken out while a message is being dispatched.
    pub logic: Option<Box<dyn ActorLogic>>,
    /// Serialized-state size in bytes, drives migration and `mem` features.
    pub state_size: u64,
    /// Reference properties (`prop` fields holding actor references),
    /// shared copy-on-write with the snapshot rows taken of this actor.
    pub refs: RefMap,
    /// Queued messages.
    pub mailbox: VecDeque<Message>,
    /// Whether the actor currently occupies a CPU lane.
    pub servicing: bool,
    /// Whether the actor is queued in its server's run queue.
    pub in_runq: bool,
    /// Migration progress, if any.
    pub migration: Option<MigrationState>,
    /// Monotone counter distinguishing migration attempts: each transfer
    /// carries the value at launch, and an arrival whose value no longer
    /// matches is stale (the migration was aborted by a fault in between).
    pub migration_seq: u64,
    /// When the actor arrived on its current server (residency clock).
    pub arrived_at: SimTime,
    /// Whether a `pin` behavior protects the actor from migration.
    pub pinned: bool,
    /// Actor is being removed; reaped when its current service completes.
    pub tombstone: bool,
    /// Profiling counters for the current window.
    pub counters: ActorCounters,
    /// Trace id of the admission decision that caused the pending/in-flight
    /// migration; becomes the parent of the `MigrationStart` event.
    pub migration_trace: Option<plasma_trace::EventId>,
}

impl ActorEntry {
    /// Creates a fresh entry resident on `server`.
    pub fn new(
        id: ActorId,
        type_id: ActorTypeId,
        server: ServerId,
        logic: Box<dyn ActorLogic>,
        state_size: u64,
        now: SimTime,
    ) -> Self {
        ActorEntry {
            id,
            type_id,
            server,
            logic: Some(logic),
            state_size,
            refs: RefMap::default(),
            mailbox: VecDeque::new(),
            servicing: false,
            in_runq: false,
            migration: None,
            migration_seq: 0,
            arrived_at: now,
            pinned: false,
            tombstone: false,
            counters: ActorCounters::default(),
            migration_trace: None,
        }
    }

    /// Returns `true` if the actor can be scheduled on a CPU lane.
    pub fn runnable(&self) -> bool {
        !self.mailbox.is_empty()
            && !self.servicing
            && !self.in_runq
            && !matches!(self.migration, Some(MigrationState::InTransit { .. }))
    }

    /// Checks whether a migration to `dst` may start, per the paper's
    /// stability policy.
    pub fn check_migratable(
        &self,
        dst: ServerId,
        now: SimTime,
        min_residency: plasma_sim::SimDuration,
    ) -> Result<(), MigrationBlocked> {
        if self.pinned {
            return Err(MigrationBlocked::Pinned);
        }
        if self.migration.is_some() {
            return Err(MigrationBlocked::InFlight);
        }
        if dst == self.server {
            return Err(MigrationBlocked::SameServer);
        }
        if now.saturating_since(self.arrived_at) < min_residency {
            return Err(MigrationBlocked::Residency);
        }
        Ok(())
    }

    /// Adds an actor reference under a property name.
    pub fn add_ref(&mut self, prop: &str, target: ActorId) {
        self.refs.add(prop, target);
    }

    /// Removes an actor reference.
    pub fn remove_ref(&mut self, prop: &str, target: ActorId) {
        self.refs.remove(prop, target);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logic::ActorCtx;
    use plasma_sim::SimDuration;

    struct Noop;
    impl ActorLogic for Noop {
        fn on_message(&mut self, _ctx: &mut ActorCtx<'_>, _msg: &mut Message) {}
    }

    fn entry() -> ActorEntry {
        ActorEntry::new(
            ActorId(0),
            ActorTypeId(0),
            ServerId(0),
            Box::new(Noop),
            1024,
            SimTime::ZERO,
        )
    }

    #[test]
    fn residency_blocks_until_elapsed() {
        let e = entry();
        let period = SimDuration::from_secs(60);
        assert_eq!(
            e.check_migratable(ServerId(1), SimTime::from_secs(30), period),
            Err(MigrationBlocked::Residency)
        );
        assert_eq!(
            e.check_migratable(ServerId(1), SimTime::from_secs(60), period),
            Ok(())
        );
    }

    #[test]
    fn pin_blocks() {
        let mut e = entry();
        e.pinned = true;
        assert_eq!(
            e.check_migratable(ServerId(1), SimTime::from_secs(999), SimDuration::ZERO),
            Err(MigrationBlocked::Pinned)
        );
    }

    #[test]
    fn same_server_blocks() {
        let e = entry();
        assert_eq!(
            e.check_migratable(ServerId(0), SimTime::from_secs(999), SimDuration::ZERO),
            Err(MigrationBlocked::SameServer)
        );
    }

    #[test]
    fn in_flight_blocks() {
        let mut e = entry();
        e.migration = Some(MigrationState::Pending { dst: ServerId(1) });
        assert_eq!(
            e.check_migratable(ServerId(2), SimTime::from_secs(999), SimDuration::ZERO),
            Err(MigrationBlocked::InFlight)
        );
    }

    #[test]
    fn refs_dedupe_and_remove() {
        let mut e = entry();
        e.add_ref("files", ActorId(7));
        e.add_ref("files", ActorId(7));
        e.add_ref("files", ActorId(8));
        assert_eq!(e.refs["files"], vec![ActorId(7), ActorId(8)]);
        e.remove_ref("files", ActorId(7));
        assert_eq!(e.refs["files"], vec![ActorId(8)]);
        e.remove_ref("ghost", ActorId(1)); // No-op on unknown property.
    }

    #[test]
    fn runnable_logic() {
        let mut e = entry();
        assert!(!e.runnable(), "empty mailbox");
        e.mailbox.push_back(Message {
            to: ActorId(0),
            fname: crate::ids::FnId(0),
            from: crate::message::CallerKind::Client,
            from_actor: None,
            bytes: 0,
            corr: None,
            payload: None,
            dest_server_at_send: ServerId(0),
            forwarded: false,
            was_remote: false,
            trace: None,
        });
        assert!(e.runnable());
        e.servicing = true;
        assert!(!e.runnable());
        e.servicing = false;
        e.migration = Some(MigrationState::InTransit { dst: ServerId(1) });
        assert!(!e.runnable(), "in transit");
    }
}
