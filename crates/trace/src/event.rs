//! The trace event model: ids, components, categories, and event kinds.
//!
//! Every record the tracing subsystem captures is a [`TraceEvent`]: a
//! sequentially-numbered, virtually-timestamped fact about one step of the
//! system — a message hop, an actor lifecycle change, a planning decision,
//! an admission verdict, or a provisioning action. Events carry an optional
//! *causal parent* so a migration can be traced back through the
//! QUERY/QREPLY admission handshake to the plan and rule that produced it.

use plasma_sim::SimTime;

/// Identifier of one recorded trace event.
///
/// Ids are assigned sequentially (starting at 1) in emission order, so they
/// double as a tie-breaker for events sharing a [`SimTime`]: a larger id
/// never precedes a smaller one causally.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EventId(pub u64);

/// Which PLASMA component emitted an event.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Component {
    /// The actor runtime: delivery, scheduling, migration mechanics.
    Runtime,
    /// A Local Elasticity Manager (interaction rules, QUERY side).
    Lem,
    /// A Global Elasticity Manager (resource rules, QREPLY side, votes).
    Gem,
    /// The cluster provisioner (server boot/drain).
    Provisioner,
    /// The chaos fault injector (plasma-chaos plans).
    Chaos,
}

impl Component {
    /// Stable lowercase name used by the exporters.
    pub fn as_str(self) -> &'static str {
        match self {
            Component::Runtime => "runtime",
            Component::Lem => "lem",
            Component::Gem => "gem",
            Component::Provisioner => "provisioner",
            Component::Chaos => "chaos",
        }
    }
}

/// Coarse event family, the unit of recording filters.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Category {
    /// Message sends and deliveries (the high-volume family).
    Message,
    /// Actor creation and removal.
    Actor,
    /// Live-migration start/completion.
    Migration,
    /// EPL rule evaluation and firing.
    Rule,
    /// Planned elasticity actions.
    Plan,
    /// QUERY/QREPLY admission control.
    Admission,
    /// GEM scale votes.
    Scale,
    /// Server provisioning lifecycle.
    Server,
    /// Injected faults (crashes, partitions, degradation, stalls).
    Fault,
    /// Failure detection and repair steps.
    Recovery,
}

impl Category {
    /// All categories, in declaration order.
    pub const ALL: [Category; 10] = [
        Category::Message,
        Category::Actor,
        Category::Migration,
        Category::Rule,
        Category::Plan,
        Category::Admission,
        Category::Scale,
        Category::Server,
        Category::Fault,
        Category::Recovery,
    ];

    /// Stable lowercase name used by the exporters.
    pub fn as_str(self) -> &'static str {
        match self {
            Category::Message => "message",
            Category::Actor => "actor",
            Category::Migration => "migration",
            Category::Rule => "rule",
            Category::Plan => "plan",
            Category::Admission => "admission",
            Category::Scale => "scale",
            Category::Server => "server",
            Category::Fault => "fault",
            Category::Recovery => "recovery",
        }
    }

    fn bit(self) -> u16 {
        1 << (self as u16)
    }
}

/// A set of [`Category`] values, used for per-category recording filters.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CategorySet(u16);

impl CategorySet {
    /// The set containing every category.
    pub fn all() -> Self {
        CategorySet(Category::ALL.iter().map(|c| c.bit()).sum())
    }

    /// The empty set.
    pub fn none() -> Self {
        CategorySet(0)
    }

    /// Returns the set with `cat` added.
    pub fn with(self, cat: Category) -> Self {
        CategorySet(self.0 | cat.bit())
    }

    /// Returns the set with `cat` removed.
    pub fn without(self, cat: Category) -> Self {
        CategorySet(self.0 & !cat.bit())
    }

    /// Returns whether `cat` is in the set.
    pub fn contains(self, cat: Category) -> bool {
        self.0 & cat.bit() != 0
    }
}

impl Default for CategorySet {
    fn default() -> Self {
        CategorySet::all()
    }
}

/// What happened. Ids are raw integers (`ActorId.0`, `ServerId.0`, interned
/// function/rule indices) so this crate stays below the actor and cluster
/// crates in the dependency graph.
#[derive(Clone, PartialEq, Debug)]
pub enum TraceEventKind {
    /// A message left its sender (actor send, client request, or injection).
    MessageSend {
        /// Sending actor, when the sender is an actor.
        from_actor: Option<u64>,
        /// Issuing client, when the sender is an external client.
        from_client: Option<u32>,
        /// Destination actor.
        to: u64,
        /// Interned function id of the invoked method.
        func: u32,
        /// Payload size in bytes.
        bytes: u64,
    },
    /// A message reached its destination actor's mailbox.
    MessageDeliver {
        /// Destination actor.
        to: u64,
        /// Server the actor resides on at delivery.
        server: u32,
        /// Interned function id of the invoked method.
        func: u32,
        /// Whether the message paid a forwarding hop after racing a
        /// migration.
        forwarded: bool,
    },
    /// An actor came into existence.
    ActorCreated {
        /// The new actor.
        actor: u64,
        /// Its actor type name.
        actor_type: String,
        /// Its initial server.
        server: u32,
    },
    /// An actor was removed (reaped).
    ActorRemoved {
        /// The removed actor.
        actor: u64,
        /// Its last server.
        server: u32,
    },
    /// Live state transfer of an actor began.
    MigrationStart {
        /// The migrating actor.
        actor: u64,
        /// Source server.
        src: u32,
        /// Destination server.
        dst: u32,
        /// Serialized-state size being transferred.
        state_bytes: u64,
    },
    /// An actor finished migrating and resumed on its destination.
    MigrationComplete {
        /// The migrated actor.
        actor: u64,
        /// Source server.
        src: u32,
        /// Destination server.
        dst: u32,
        /// Transfer time in microseconds.
        transfer_us: u64,
    },
    /// An EPL rule was evaluated against the profiling snapshot.
    RuleEvaluated {
        /// Rule index within the compiled policy.
        rule: u64,
        /// Number of variable environments that satisfied the condition.
        matches: u64,
    },
    /// A rule produced at least one action this round.
    RuleFired {
        /// Rule index within the compiled policy.
        rule: u64,
        /// Number of actions the rule contributed.
        actions: u64,
    },
    /// One action survived conflict resolution and entered the round plan.
    PlanProposed {
        /// Elasticity round (tick count).
        round: u64,
        /// The actor the action moves.
        actor: u64,
        /// Source server.
        src: u32,
        /// Destination server.
        dst: u32,
        /// Behavior name: `balance`, `reserve`, `colocate`, or `separate`.
        action: String,
        /// Action priority.
        priority: u32,
        /// Originating rule index; `u64::MAX` for internal scale-in drains.
        rule: u64,
    },
    /// A LEM asked the destination whether it can admit a migration
    /// (the QUERY of Alg. 1).
    QuerySent {
        /// Elasticity round (tick count).
        round: u64,
        /// The actor to admit.
        actor: u64,
        /// Source server.
        src: u32,
        /// Destination server queried.
        dst: u32,
    },
    /// The destination's admission verdict (the QREPLY of Alg. 1).
    QueryReply {
        /// Elasticity round (tick count).
        round: u64,
        /// The actor in question.
        actor: u64,
        /// Destination server replying.
        dst: u32,
        /// Whether the migration was admitted.
        admitted: bool,
        /// Why (e.g. `within-headroom`, `improves-source`, `no-headroom`).
        reason: String,
    },
    /// One round's profiling snapshot/evaluation frame was built once and
    /// shared across every evaluation consumer (GEM scopes plus the LEM
    /// pass), instead of each consumer rebuilding its own view.
    SnapshotShared {
        /// Elasticity round (tick count).
        round: u64,
        /// Generation stamp of the profiling snapshot the frame was built
        /// from (bumped once per profiling window).
        generation: u64,
        /// Evaluation consumers served by the shared frame this round.
        consumers: u32,
    },
    /// A GEM queried its managed LEMs over the control carriage (the
    /// cluster-level QUERY of Alg. 2, carried as backend message traffic).
    ControlQuerySent {
        /// Elasticity round (tick count).
        round: u64,
        /// Querying GEM index.
        gem: u32,
        /// Snapshot generation the query was stamped with.
        generation: u64,
        /// Servers in the query's scope.
        servers: u32,
    },
    /// The carrier's aggregated QREPLY for one GEM query: how many
    /// candidate report rows came back. The GEM's vote over them is
    /// [`TraceEventKind::ScaleVote`].
    ControlQueryReply {
        /// Elasticity round (tick count).
        round: u64,
        /// Querying GEM index.
        gem: u32,
        /// Candidate report rows carried back.
        candidates: u32,
    },
    /// The round's decision was broadcast over the control carriage.
    ControlDecisionIssued {
        /// Elasticity round (tick count).
        round: u64,
        /// Servers requested this round.
        grow: u32,
        /// Servers put into draining this round.
        shrink: u32,
        /// Migrations admitted and issued.
        migrations: u32,
    },
    /// One GEM's scale vote for this round (§4.2 majority voting).
    ScaleVote {
        /// Voting GEM index.
        gem: u32,
        /// The GEM observed overload with nowhere to rebalance.
        scale_out: bool,
        /// The GEM observed every managed server idle.
        scale_in: bool,
    },
    /// A server was requested from the cloud provider.
    ServerBoot {
        /// The new server.
        server: u32,
        /// Instance flavor name.
        instance: String,
        /// When it becomes usable, in microseconds since start.
        ready_at_us: u64,
    },
    /// A running server was decommissioned.
    ServerDrain {
        /// The stopped server.
        server: u32,
    },
    /// A fault from the chaos plan was injected. Parent of the concrete
    /// fault events it causes, so `explain` can show fault -> detection ->
    /// recovery chains.
    FaultInjected {
        /// Stable fault label (e.g. `server-crash`, `partition`).
        fault: String,
        /// The primarily affected server, when the fault targets one.
        server: Option<u64>,
    },
    /// A server crash-stopped: resident actors lost, queued messages gone.
    ServerCrashed {
        /// The crashed server.
        server: u32,
        /// Actors that were resident (now orphaned).
        actors_lost: u64,
        /// Queued mailbox messages dropped by the crash.
        messages_lost: u64,
    },
    /// A crashed server began rebooting.
    ServerRestarted {
        /// The rebooting server.
        server: u32,
        /// When it becomes usable again, in microseconds since start.
        ready_at_us: u64,
    },
    /// The heartbeat failure detector declared a crashed server dead.
    ServerDeclaredDead {
        /// The dead server.
        server: u32,
        /// Crash-to-detection latency in microseconds.
        detect_latency_us: u64,
    },
    /// An orphaned actor respawned via the directory after its server died.
    ActorRecovered {
        /// The recovered actor.
        actor: u64,
        /// The dead server it was orphaned on.
        src: u32,
        /// Where it respawned (may equal `src` after an in-place reboot).
        dst: u32,
        /// State bytes lost with the crash (crash-stop: no state survives).
        state_bytes_lost: u64,
    },
    /// An in-flight migration failed and the actor fell back to its source.
    MigrationAborted {
        /// The migrating actor.
        actor: u64,
        /// Source server (where the actor remains).
        src: u32,
        /// The destination that was not reached.
        dst: u32,
        /// Why (`injected`, `source-crashed`, `destination-down`).
        reason: String,
    },
    /// An aborted migration is being retried after backoff.
    MigrationRetry {
        /// The migrating actor.
        actor: u64,
        /// Destination being retried.
        dst: u32,
        /// 1-based retry attempt number.
        attempt: u32,
    },
    /// Links between a server group and the rest of the cluster severed.
    PartitionStarted {
        /// Servers on the severed side.
        group_size: u64,
    },
    /// All active partitions healed.
    PartitionHealed {
        /// How many partition groups were healed.
        healed: u64,
    },
    /// Uniform link degradation activated.
    LinkDegraded {
        /// Latency added per cross-server hop, microseconds.
        extra_latency_us: u64,
        /// Effective bandwidth, percent of nominal.
        bandwidth_pct: u32,
        /// Per-mille message drop probability.
        drop_per_mille: u32,
    },
    /// Link degradation cleared.
    LinksHealed {
        /// Whether a degradation was actually active.
        was_active: bool,
    },
    /// A GEM crash-stopped; its servers re-shuffle onto survivors (§4.3).
    GemCrashed {
        /// Index of the crashed GEM.
        gem: u32,
    },
    /// The LEM on one server crashed; its profiling window is lost.
    LemCrashed {
        /// The server whose LEM restarted.
        server: u32,
    },
    /// The provisioner stalled: server requests fail until the given time.
    ProvisionerStalled {
        /// When requests succeed again, microseconds since start.
        until_us: u64,
    },
}

impl TraceEventKind {
    /// The recording-filter family this kind belongs to.
    pub fn category(&self) -> Category {
        match self {
            TraceEventKind::MessageSend { .. } | TraceEventKind::MessageDeliver { .. } => {
                Category::Message
            }
            TraceEventKind::ActorCreated { .. } | TraceEventKind::ActorRemoved { .. } => {
                Category::Actor
            }
            TraceEventKind::MigrationStart { .. } | TraceEventKind::MigrationComplete { .. } => {
                Category::Migration
            }
            TraceEventKind::RuleEvaluated { .. } | TraceEventKind::RuleFired { .. } => {
                Category::Rule
            }
            TraceEventKind::PlanProposed { .. } | TraceEventKind::SnapshotShared { .. } => {
                Category::Plan
            }
            TraceEventKind::QuerySent { .. }
            | TraceEventKind::QueryReply { .. }
            | TraceEventKind::ControlQuerySent { .. }
            | TraceEventKind::ControlQueryReply { .. }
            | TraceEventKind::ControlDecisionIssued { .. } => Category::Admission,
            TraceEventKind::ScaleVote { .. } => Category::Scale,
            TraceEventKind::ServerBoot { .. } | TraceEventKind::ServerDrain { .. } => {
                Category::Server
            }
            TraceEventKind::FaultInjected { .. }
            | TraceEventKind::ServerCrashed { .. }
            | TraceEventKind::MigrationAborted { .. }
            | TraceEventKind::PartitionStarted { .. }
            | TraceEventKind::LinkDegraded { .. }
            | TraceEventKind::GemCrashed { .. }
            | TraceEventKind::LemCrashed { .. }
            | TraceEventKind::ProvisionerStalled { .. } => Category::Fault,
            TraceEventKind::ServerRestarted { .. }
            | TraceEventKind::ServerDeclaredDead { .. }
            | TraceEventKind::ActorRecovered { .. }
            | TraceEventKind::MigrationRetry { .. }
            | TraceEventKind::PartitionHealed { .. }
            | TraceEventKind::LinksHealed { .. } => Category::Recovery,
        }
    }

    /// Stable kind name used by the exporters.
    pub fn name(&self) -> &'static str {
        match self {
            TraceEventKind::MessageSend { .. } => "MessageSend",
            TraceEventKind::MessageDeliver { .. } => "MessageDeliver",
            TraceEventKind::ActorCreated { .. } => "ActorCreated",
            TraceEventKind::ActorRemoved { .. } => "ActorRemoved",
            TraceEventKind::MigrationStart { .. } => "MigrationStart",
            TraceEventKind::MigrationComplete { .. } => "MigrationComplete",
            TraceEventKind::RuleEvaluated { .. } => "RuleEvaluated",
            TraceEventKind::RuleFired { .. } => "RuleFired",
            TraceEventKind::PlanProposed { .. } => "PlanProposed",
            TraceEventKind::SnapshotShared { .. } => "SnapshotShared",
            TraceEventKind::QuerySent { .. } => "QuerySent",
            TraceEventKind::QueryReply { .. } => "QueryReply",
            TraceEventKind::ControlQuerySent { .. } => "ControlQuerySent",
            TraceEventKind::ControlQueryReply { .. } => "ControlQueryReply",
            TraceEventKind::ControlDecisionIssued { .. } => "ControlDecisionIssued",
            TraceEventKind::ScaleVote { .. } => "ScaleVote",
            TraceEventKind::ServerBoot { .. } => "ServerBoot",
            TraceEventKind::ServerDrain { .. } => "ServerDrain",
            TraceEventKind::FaultInjected { .. } => "FaultInjected",
            TraceEventKind::ServerCrashed { .. } => "ServerCrashed",
            TraceEventKind::ServerRestarted { .. } => "ServerRestarted",
            TraceEventKind::ServerDeclaredDead { .. } => "ServerDeclaredDead",
            TraceEventKind::ActorRecovered { .. } => "ActorRecovered",
            TraceEventKind::MigrationAborted { .. } => "MigrationAborted",
            TraceEventKind::MigrationRetry { .. } => "MigrationRetry",
            TraceEventKind::PartitionStarted { .. } => "PartitionStarted",
            TraceEventKind::PartitionHealed { .. } => "PartitionHealed",
            TraceEventKind::LinkDegraded { .. } => "LinkDegraded",
            TraceEventKind::LinksHealed { .. } => "LinksHealed",
            TraceEventKind::GemCrashed { .. } => "GemCrashed",
            TraceEventKind::LemCrashed { .. } => "LemCrashed",
            TraceEventKind::ProvisionerStalled { .. } => "ProvisionerStalled",
        }
    }

    /// The actor this event is about, when it is about exactly one.
    pub fn subject_actor(&self) -> Option<u64> {
        match self {
            TraceEventKind::ActorCreated { actor, .. }
            | TraceEventKind::ActorRemoved { actor, .. }
            | TraceEventKind::MigrationStart { actor, .. }
            | TraceEventKind::MigrationComplete { actor, .. }
            | TraceEventKind::PlanProposed { actor, .. }
            | TraceEventKind::QuerySent { actor, .. }
            | TraceEventKind::QueryReply { actor, .. }
            | TraceEventKind::ActorRecovered { actor, .. }
            | TraceEventKind::MigrationAborted { actor, .. }
            | TraceEventKind::MigrationRetry { actor, .. } => Some(*actor),
            _ => None,
        }
    }
}

/// One recorded trace event.
#[derive(Clone, PartialEq, Debug)]
pub struct TraceEvent {
    /// Sequential id (see [`EventId`]).
    pub id: EventId,
    /// Virtual time of the event.
    pub at: SimTime,
    /// Emitting component.
    pub component: Component,
    /// Causal parent, when the emitter knows one.
    pub parent: Option<EventId>,
    /// What happened.
    pub kind: TraceEventKind,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn category_set_operations() {
        let all = CategorySet::all();
        for c in Category::ALL {
            assert!(all.contains(c));
        }
        let none = CategorySet::none();
        for c in Category::ALL {
            assert!(!none.contains(c));
        }
        let only_msg = CategorySet::none().with(Category::Message);
        assert!(only_msg.contains(Category::Message));
        assert!(!only_msg.contains(Category::Rule));
        let no_msg = CategorySet::all().without(Category::Message);
        assert!(!no_msg.contains(Category::Message));
        assert!(no_msg.contains(Category::Migration));
    }

    #[test]
    fn kind_category_mapping_is_total() {
        let kinds = [
            TraceEventKind::MessageSend {
                from_actor: None,
                from_client: Some(0),
                to: 1,
                func: 0,
                bytes: 8,
            },
            TraceEventKind::ActorCreated {
                actor: 0,
                actor_type: "A".into(),
                server: 0,
            },
            TraceEventKind::MigrationStart {
                actor: 0,
                src: 0,
                dst: 1,
                state_bytes: 64,
            },
            TraceEventKind::RuleEvaluated {
                rule: 0,
                matches: 1,
            },
            TraceEventKind::PlanProposed {
                round: 1,
                actor: 0,
                src: 0,
                dst: 1,
                action: "reserve".into(),
                priority: 0,
                rule: 0,
            },
            TraceEventKind::QuerySent {
                round: 1,
                actor: 0,
                src: 0,
                dst: 1,
            },
            TraceEventKind::ScaleVote {
                gem: 0,
                scale_out: true,
                scale_in: false,
            },
            TraceEventKind::ServerDrain { server: 3 },
            TraceEventKind::FaultInjected {
                fault: "server-crash".into(),
                server: Some(3),
            },
            TraceEventKind::ServerDeclaredDead {
                server: 3,
                detect_latency_us: 10,
            },
        ];
        let cats: Vec<Category> = kinds.iter().map(|k| k.category()).collect();
        assert_eq!(
            cats,
            vec![
                Category::Message,
                Category::Actor,
                Category::Migration,
                Category::Rule,
                Category::Plan,
                Category::Admission,
                Category::Scale,
                Category::Server,
                Category::Fault,
                Category::Recovery,
            ]
        );
    }

    #[test]
    fn fault_and_recovery_kinds_have_stable_names_and_subjects() {
        let aborted = TraceEventKind::MigrationAborted {
            actor: 9,
            src: 0,
            dst: 1,
            reason: "injected".into(),
        };
        assert_eq!(aborted.name(), "MigrationAborted");
        assert_eq!(aborted.subject_actor(), Some(9));
        assert_eq!(aborted.category(), Category::Fault);
        let recovered = TraceEventKind::ActorRecovered {
            actor: 4,
            src: 1,
            dst: 2,
            state_bytes_lost: 1024,
        };
        assert_eq!(recovered.subject_actor(), Some(4));
        assert_eq!(recovered.category(), Category::Recovery);
        let crashed = TraceEventKind::ServerCrashed {
            server: 1,
            actors_lost: 2,
            messages_lost: 5,
        };
        assert_eq!(crashed.subject_actor(), None);
        assert_eq!(crashed.category(), Category::Fault);
    }

    #[test]
    fn subject_actor_extraction() {
        let k = TraceEventKind::MigrationComplete {
            actor: 7,
            src: 0,
            dst: 1,
            transfer_us: 10,
        };
        assert_eq!(k.subject_actor(), Some(7));
        let k = TraceEventKind::ServerBoot {
            server: 1,
            instance: "m1.small".into(),
            ready_at_us: 0,
        };
        assert_eq!(k.subject_actor(), None);
    }
}
