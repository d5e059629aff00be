//! Profiling counters — what the EPR collects each window.
//!
//! The paper's EPR "tracks information on all messages (e.g., type, size,
//! number) and the times for actors to process them" (§5.2). The runtime
//! accumulates these raw counters per actor; every profiling window they are
//! snapshotted into [`ActorWindowStats`]/[`ServerWindowStats`] and reset.
//! The EMR evaluates EPL conditions against those snapshots.

use std::collections::BTreeMap;
use std::ops::Deref;
use std::sync::Arc;

use plasma_cluster::{ResourceUsage, ServerId};
use plasma_sim::{SimDuration, SimTime};

use crate::ids::{ActorId, ActorTypeId, FnId};
use crate::message::CallerKind;

/// Per-`(caller, function)` message counters.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CallStat {
    /// Number of messages received.
    pub count: u64,
    /// Total payload bytes received.
    pub bytes: u64,
}

/// Key of a received-call counter.
///
/// Tracking the concrete `caller` instance (not just its type) is what lets
/// pairwise interaction rules such as
/// `VideoStream(v).call(UserInfo(u).track).count > 0 => colocate(v, u)` bind
/// *which* caller talks to *which* callee.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct CallKey {
    /// Caller classification (client or actor type).
    pub caller_kind: CallerKind,
    /// Concrete calling actor, when the caller is an actor.
    pub caller: Option<ActorId>,
    /// The invoked function.
    pub fname: FnId,
}

/// Counters an actor accumulates during one profiling window.
#[derive(Clone, Debug, Default)]
pub struct ActorCounters {
    /// CPU time this actor consumed.
    pub cpu_busy: SimDuration,
    /// Messages received, keyed by caller and function.
    pub calls: BTreeMap<CallKey, CallStat>,
    /// Bytes sent by this actor.
    pub bytes_sent: u64,
}

impl ActorCounters {
    /// Records a received message.
    pub fn record_call(
        &mut self,
        from: CallerKind,
        caller: Option<ActorId>,
        fname: FnId,
        bytes: u64,
    ) {
        let key = CallKey {
            caller_kind: from,
            caller,
            fname,
        };
        let stat = self.calls.entry(key).or_default();
        stat.count += 1;
        stat.bytes += bytes;
    }

    /// Sums counters over every caller instance of `kind` invoking `fname`.
    pub fn calls_from_kind(&self, kind: CallerKind, fname: FnId) -> CallStat {
        let mut total = CallStat::default();
        for (key, stat) in &self.calls {
            if key.caller_kind == kind && key.fname == fname {
                total.count += stat.count;
                total.bytes += stat.bytes;
            }
        }
        total
    }

    /// Returns the counter for one concrete caller instance and function.
    pub fn calls_from_actor(&self, caller: ActorId, fname: FnId) -> CallStat {
        self.calls
            .iter()
            .find(|(k, _)| k.caller == Some(caller) && k.fname == fname)
            .map(|(_, s)| *s)
            .unwrap_or_default()
    }

    /// Records CPU time consumed by one message service.
    pub fn record_cpu(&mut self, d: SimDuration) {
        self.cpu_busy += d;
    }

    /// Returns the total messages received in this window.
    pub fn total_received(&self) -> u64 {
        self.calls.values().map(|s| s.count).sum()
    }

    /// Resets all counters for the next window.
    pub fn reset(&mut self) {
        self.cpu_busy = SimDuration::ZERO;
        self.calls.clear();
        self.bytes_sent = 0;
    }
}

/// An actor's reference properties: property name to referenced actors.
///
/// The map is shared copy-on-write between the actor's runtime entry and
/// every snapshot row taken of it, so a window roll shares it instead of
/// copying it. Most actors hold no references; they store no map at all,
/// so cloning or dropping theirs allocates nothing and performs no atomic
/// operation. A non-empty map lives behind an [`Arc`]: [`RefMap::add`] and
/// [`RefMap::remove`] copy it only when they change it while a snapshot
/// still holds it. Reads go through [`Deref`] to the map itself.
///
/// Sharing proves equality: while the runtime's latest snapshot holds
/// every actor's map, any change copies the map first, so a row that still
/// shares the previous row's map (one allocation, or both empty) holds the
/// same references. [`SnapshotDelta::between`] relies on this to list
/// changed maps without comparing their contents.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RefMap(Option<Arc<BTreeMap<String, Vec<ActorId>>>>);

/// What an empty [`RefMap`] dereferences to.
static NO_REFS: BTreeMap<String, Vec<ActorId>> = BTreeMap::new();

impl RefMap {
    /// Adds `target` to property `prop` unless it is already there.
    pub fn add(&mut self, prop: &str, target: ActorId) {
        if self.get(prop).is_some_and(|list| list.contains(&target)) {
            return;
        }
        let map = Arc::make_mut(self.0.get_or_insert_with(Arc::default));
        match map.get_mut(prop) {
            Some(list) => list.push(target),
            None => {
                map.insert(prop.to_string(), vec![target]);
            }
        }
    }

    /// Removes `target` from property `prop`; the property stays, possibly
    /// empty. A no-op when `target` is not there.
    pub fn remove(&mut self, prop: &str, target: ActorId) {
        if !self.get(prop).is_some_and(|list| list.contains(&target)) {
            return;
        }
        if let Some(map) = self.0.as_mut() {
            if let Some(list) = Arc::make_mut(map).get_mut(prop) {
                list.retain(|&a| a != target);
            }
        }
    }

    /// Returns whether `self` and `other` are the same map: both empty, or
    /// one shared allocation. Two equal maps built separately do not share.
    pub(crate) fn shares(&self, other: &RefMap) -> bool {
        match (&self.0, &other.0) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

impl Deref for RefMap {
    type Target = BTreeMap<String, Vec<ActorId>>;

    fn deref(&self) -> &Self::Target {
        self.0.as_deref().unwrap_or(&NO_REFS)
    }
}

impl From<BTreeMap<String, Vec<ActorId>>> for RefMap {
    fn from(map: BTreeMap<String, Vec<ActorId>>) -> Self {
        RefMap((!map.is_empty()).then(|| Arc::new(map)))
    }
}

/// Snapshot of one actor's activity over the last profiling window.
#[derive(Clone, Debug)]
pub struct ActorWindowStats {
    /// The actor.
    pub actor: ActorId,
    /// Its type.
    pub type_id: ActorTypeId,
    /// The server hosting it at snapshot time.
    pub server: ServerId,
    /// State size in bytes (for `mem` features and migration cost).
    pub state_size: u64,
    /// Whether a `pin` behavior currently protects it.
    pub pinned: bool,
    /// CPU share of the hosting server consumed by this actor, in `[0, 1]`.
    pub cpu_share: f64,
    /// Raw counters for the window.
    pub counters: ActorCounters,
    /// Reference fields: property name to referenced actors, shared with
    /// the actor's runtime entry.
    pub refs: RefMap,
}

/// Snapshot of one server's utilization over the last profiling window.
#[derive(Clone, Copy, Debug)]
pub struct ServerWindowStats {
    /// The server.
    pub server: ServerId,
    /// Utilization fractions for CPU/mem/net.
    pub usage: ResourceUsage,
    /// Number of actors resident at snapshot time.
    pub actor_count: usize,
}

/// A complete profiling snapshot: what every LEM ships to its GEM.
#[derive(Clone, Debug, Default)]
pub struct ProfileSnapshot {
    /// Build counter, bumped once per profiling window. Two handles with
    /// equal generations refer to the same build; the EMR uses this to
    /// count reuse, and tests pin "one build per window" against it.
    pub generation: u64,
    /// When the window closed.
    pub at: SimTime,
    /// Length of the window.
    pub window: SimDuration,
    /// Per-actor stats, ordered by actor id.
    pub actors: Vec<ActorWindowStats>,
    /// Per-server stats, ordered by server id.
    pub servers: Vec<ServerWindowStats>,
}

impl ProfileSnapshot {
    /// Returns the stats of actors hosted on `server`.
    pub fn actors_on(&self, server: ServerId) -> impl Iterator<Item = &ActorWindowStats> {
        self.actors.iter().filter(move |a| a.server == server)
    }

    /// Returns the stats for one server, if present.
    pub fn server(&self, server: ServerId) -> Option<&ServerWindowStats> {
        self.servers.iter().find(|s| s.server == server)
    }

    /// Returns the stats for one actor, if present (a binary search over
    /// the id-ordered rows).
    pub fn actor(&self, actor: ActorId) -> Option<&ActorWindowStats> {
        self.actors
            .binary_search_by(|a| a.actor.cmp(&actor))
            .ok()
            .map(|i| &self.actors[i])
    }
}

/// What changed between two consecutive profiling snapshots.
///
/// Emitted by the runtime alongside every generation bump, derived from the
/// slab-backed actor rows and the per-window server lists (which mirror the
/// cluster lifecycle journal: a server enters when it starts running and
/// leaves when it stops, crashes, or is decommissioned). Consumers use
/// deltas to patch retained indexes in place instead of rebuilding them —
/// only `server` and `type_id` feed retained indexes, and an actor's type
/// never changes, so `server` is the only per-actor stat diffed; everything
/// else, `cpu_share` included, is read straight from the current snapshot.
/// Reference maps are not diffed by content: a row whose
/// [`RefMap`] no longer shares the previous row's map is listed in
/// `refs_changed`, which is what lets the EMR keep the pairs of `in ref`
/// rules across rounds.
///
/// All id vectors are sorted and deduplicated. After [`merge`], an id may
/// appear in more than one category (e.g. added in one window and removed a
/// few windows later); consumers must classify a touched actor by its state
/// in the two endpoint generations, not by category.
///
/// [`merge`]: SnapshotDelta::merge
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SnapshotDelta {
    /// Generation this delta starts from.
    pub from_generation: u64,
    /// Generation this delta produces (`from + 1` until merged).
    pub to_generation: u64,
    /// Actors present in `to` but not in `from`.
    pub added: Vec<ActorId>,
    /// Actors present in `from` but not in `to`.
    pub removed: Vec<ActorId>,
    /// Actors present in both whose hosting server changed.
    pub moved: Vec<ActorId>,
    /// Actors present in both whose reference map is no longer the map the
    /// earlier row shared (see [`RefMap`]); a superset of the actors whose
    /// references changed.
    pub refs_changed: Vec<ActorId>,
    /// Servers reporting in `to` but not in `from` (booted).
    pub servers_added: Vec<ServerId>,
    /// Servers reporting in `from` but not in `to` (decommissioned or
    /// crashed).
    pub servers_removed: Vec<ServerId>,
}

impl SnapshotDelta {
    /// Diffs two consecutive snapshots; both actor and server lists are
    /// id-ordered, so this is a single merge walk.
    pub fn between(from: &ProfileSnapshot, to: &ProfileSnapshot) -> Self {
        let mut delta = SnapshotDelta {
            from_generation: from.generation,
            to_generation: to.generation,
            ..SnapshotDelta::default()
        };
        let (mut i, mut j) = (0, 0);
        while i < from.actors.len() || j < to.actors.len() {
            let old = from.actors.get(i);
            let new = to.actors.get(j);
            match (old, new) {
                (Some(o), Some(n)) if o.actor == n.actor => {
                    if o.server != n.server {
                        delta.moved.push(o.actor);
                    }
                    if !o.refs.shares(&n.refs) {
                        delta.refs_changed.push(o.actor);
                    }
                    i += 1;
                    j += 1;
                }
                (Some(o), Some(n)) if o.actor < n.actor => {
                    delta.removed.push(o.actor);
                    i += 1;
                }
                (Some(_), Some(n)) => {
                    delta.added.push(n.actor);
                    j += 1;
                }
                (Some(o), None) => {
                    delta.removed.push(o.actor);
                    i += 1;
                }
                (None, Some(n)) => {
                    delta.added.push(n.actor);
                    j += 1;
                }
                (None, None) => unreachable!(),
            }
        }
        let old_servers: Vec<ServerId> = from.servers.iter().map(|s| s.server).collect();
        let new_servers: Vec<ServerId> = to.servers.iter().map(|s| s.server).collect();
        for s in &new_servers {
            if !old_servers.contains(s) {
                delta.servers_added.push(*s);
            }
        }
        for s in &old_servers {
            if !new_servers.contains(s) {
                delta.servers_removed.push(*s);
            }
        }
        delta
    }

    /// Returns whether nothing changed between the two generations.
    pub fn is_empty(&self) -> bool {
        self.added.is_empty()
            && self.removed.is_empty()
            && self.moved.is_empty()
            && self.refs_changed.is_empty()
            && self.servers_added.is_empty()
            && self.servers_removed.is_empty()
    }

    /// Returns whether the reporting server set changed at all.
    pub fn scope_changed(&self) -> bool {
        !self.servers_added.is_empty() || !self.servers_removed.is_empty()
    }

    /// Folds a later consecutive delta into this one, producing a delta
    /// spanning `self.from_generation .. later.to_generation`.
    ///
    /// Category vectors become unions (sorted, deduplicated); see the type
    /// docs for why categories may overlap after merging.
    pub fn merge(&mut self, later: &SnapshotDelta) {
        debug_assert_eq!(
            self.to_generation, later.from_generation,
            "merged deltas must be consecutive"
        );
        self.to_generation = later.to_generation;
        fn union<T: Ord + Copy>(dst: &mut Vec<T>, src: &[T]) {
            dst.extend_from_slice(src);
            dst.sort_unstable();
            dst.dedup();
        }
        union(&mut self.added, &later.added);
        union(&mut self.removed, &later.removed);
        union(&mut self.moved, &later.moved);
        union(&mut self.refs_changed, &later.refs_changed);
        union(&mut self.servers_added, &later.servers_added);
        union(&mut self.servers_removed, &later.servers_removed);
    }

    /// Every actor id whose indexed stats this delta may touch — `added`,
    /// `removed` and `moved` — sorted and deduplicated (`refs_changed`
    /// feeds no index, so it is left out).
    pub fn touched_actors(&self) -> Vec<ActorId> {
        let mut all = Vec::with_capacity(self.added.len() + self.removed.len() + self.moved.len());
        all.extend_from_slice(&self.added);
        all.extend_from_slice(&self.removed);
        all.extend_from_slice(&self.moved);
        all.sort_unstable();
        all.dedup();
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_reset() {
        let mut c = ActorCounters::default();
        c.record_call(CallerKind::Client, None, FnId(0), 100);
        c.record_call(CallerKind::Client, None, FnId(0), 50);
        c.record_call(
            CallerKind::Actor(ActorTypeId(2)),
            Some(ActorId(9)),
            FnId(1),
            10,
        );
        c.record_cpu(SimDuration::from_millis(3));
        assert_eq!(c.total_received(), 3);
        let stat = c.calls_from_kind(CallerKind::Client, FnId(0));
        assert_eq!(
            stat,
            CallStat {
                count: 2,
                bytes: 150
            }
        );
        c.reset();
        assert_eq!(c.total_received(), 0);
        assert_eq!(c.cpu_busy, SimDuration::ZERO);
    }

    #[test]
    fn per_instance_and_kind_aggregation() {
        let mut c = ActorCounters::default();
        let t = ActorTypeId(1);
        c.record_call(CallerKind::Actor(t), Some(ActorId(1)), FnId(0), 10);
        c.record_call(CallerKind::Actor(t), Some(ActorId(1)), FnId(0), 10);
        c.record_call(CallerKind::Actor(t), Some(ActorId(2)), FnId(0), 10);
        assert_eq!(c.calls_from_actor(ActorId(1), FnId(0)).count, 2);
        assert_eq!(c.calls_from_actor(ActorId(2), FnId(0)).count, 1);
        assert_eq!(c.calls_from_actor(ActorId(3), FnId(0)).count, 0);
        assert_eq!(c.calls_from_kind(CallerKind::Actor(t), FnId(0)).count, 3);
    }

    #[test]
    fn snapshot_filters() {
        let snap = ProfileSnapshot {
            generation: 1,
            at: SimTime::from_secs(10),
            window: SimDuration::from_secs(1),
            actors: vec![
                ActorWindowStats {
                    actor: ActorId(1),
                    type_id: ActorTypeId(0),
                    server: ServerId(0),
                    state_size: 10,
                    pinned: false,
                    cpu_share: 0.5,
                    counters: ActorCounters::default(),
                    refs: RefMap::default(),
                },
                ActorWindowStats {
                    actor: ActorId(3),
                    type_id: ActorTypeId(0),
                    server: ServerId(1),
                    state_size: 10,
                    pinned: true,
                    cpu_share: 0.1,
                    counters: ActorCounters::default(),
                    refs: RefMap::default(),
                },
            ],
            servers: vec![ServerWindowStats {
                server: ServerId(0),
                usage: ResourceUsage::new(0.9, 0.1, 0.2),
                actor_count: 1,
            }],
        };
        assert_eq!(snap.actors_on(ServerId(0)).count(), 1);
        assert_eq!(snap.actors_on(ServerId(1)).count(), 1);
        assert!(snap.server(ServerId(0)).is_some());
        assert!(snap.server(ServerId(9)).is_none());
        assert!(snap.actor(ActorId(3)).unwrap().pinned);
        assert!(!snap.actor(ActorId(1)).unwrap().pinned);
        // Absent ids: below, between and above the present ones.
        assert!(snap.actor(ActorId(0)).is_none());
        assert!(snap.actor(ActorId(2)).is_none());
        assert!(snap.actor(ActorId(4)).is_none());
    }

    #[test]
    fn ref_map_copies_on_write_only_while_shared() {
        let mut refs = RefMap::default();
        assert!(refs.is_empty());
        // Removing from an empty map stays allocation-free.
        refs.remove("files", ActorId(1));
        assert_eq!(refs, RefMap::default());
        refs.add("files", ActorId(7));
        refs.add("files", ActorId(7));
        refs.add("files", ActorId(8));
        assert_eq!(refs["files"], vec![ActorId(7), ActorId(8)]);
        let held = refs.clone();
        refs.add("files", ActorId(9));
        refs.remove("files", ActorId(7));
        assert_eq!(refs["files"], vec![ActorId(8), ActorId(9)]);
        assert_eq!(held["files"], vec![ActorId(7), ActorId(8)]);
        // A no-op change leaves the shared map shared.
        let again = refs.clone();
        refs.add("files", ActorId(8));
        refs.remove("files", ActorId(1));
        assert!(Arc::ptr_eq(
            refs.0.as_ref().unwrap(),
            again.0.as_ref().unwrap()
        ));
        assert_eq!(RefMap::from(BTreeMap::new()), RefMap::default());
    }

    /// Minimal snapshot: actors given as `(id, server, cpu_share)` rows
    /// (already id-ordered), servers as bare ids.
    fn snap_of(generation: u64, actors: &[(u64, u32, f64)], servers: &[u32]) -> ProfileSnapshot {
        ProfileSnapshot {
            generation,
            at: SimTime::from_secs(generation),
            window: SimDuration::from_secs(1),
            actors: actors
                .iter()
                .map(|&(id, srv, cpu)| ActorWindowStats {
                    actor: ActorId(id),
                    type_id: ActorTypeId(0),
                    server: ServerId(srv),
                    state_size: 1,
                    pinned: false,
                    cpu_share: cpu,
                    counters: ActorCounters::default(),
                    refs: RefMap::default(),
                })
                .collect(),
            servers: servers
                .iter()
                .map(|&s| ServerWindowStats {
                    server: ServerId(s),
                    usage: ResourceUsage::new(0.5, 0.5, 0.5),
                    actor_count: 0,
                })
                .collect(),
        }
    }

    /// A reference map holding `kids`.
    fn kids(targets: &[u64]) -> RefMap {
        let mut refs = RefMap::default();
        for &t in targets {
            refs.add("kids", ActorId(t));
        }
        refs
    }

    #[test]
    fn delta_between_classifies_every_category() {
        let mut a = snap_of(
            1,
            &[(1, 0, 0.2), (2, 0, 0.3), (3, 1, 0.4), (4, 1, 0.5)],
            &[0, 1],
        );
        let mut b = snap_of(
            2,
            &[(2, 1, 0.3), (3, 1, 0.9), (4, 1, 0.5), (5, 0, 0.1)],
            &[0, 2],
        );
        // Actor 3's row keeps sharing its map through a no-op add; adding a
        // new target to actor 4's copies the map the old row still holds.
        a.actors[2].refs = kids(&[1]);
        a.actors[3].refs = kids(&[1]);
        b.actors[1].refs = a.actors[2].refs.clone();
        b.actors[1].refs.add("kids", ActorId(1));
        b.actors[2].refs = a.actors[3].refs.clone();
        b.actors[2].refs.add("kids", ActorId(2));
        let d = SnapshotDelta::between(&a, &b);
        assert_eq!(d.from_generation, 1);
        assert_eq!(d.to_generation, 2);
        assert_eq!(d.added, vec![ActorId(5)]);
        assert_eq!(d.removed, vec![ActorId(1)]);
        assert_eq!(d.moved, vec![ActorId(2)]);
        assert_eq!(d.refs_changed, vec![ActorId(4)]);
        assert_eq!(d.servers_added, vec![ServerId(2)]);
        assert_eq!(d.servers_removed, vec![ServerId(1)]);
        assert!(d.scope_changed());
        assert!(!d.is_empty());
        // Neither a changed share (actor 3) nor a changed map (actor 4)
        // feeds an index, so neither actor is touched.
        assert_eq!(d.touched_actors(), vec![ActorId(1), ActorId(2), ActorId(5)]);
        // Equal contents built separately do not share: the delta lists
        // them (a superset of the real changes is what it promises).
        let mut c = b.clone();
        c.generation = 3;
        c.actors[1].refs = kids(&[1]);
        let d = SnapshotDelta::between(&b, &c);
        assert_eq!(d.refs_changed, vec![ActorId(3)]);
        assert!(!d.is_empty(), "a delta with only a map change is not empty");
        assert!(d.touched_actors().is_empty());
    }

    #[test]
    fn delta_between_identical_snapshots_is_empty() {
        let a = snap_of(1, &[(1, 0, 0.2), (2, 1, 0.3)], &[0, 1]);
        let mut b = a.clone();
        b.generation = 2;
        let d = SnapshotDelta::between(&a, &b);
        assert!(d.is_empty());
        assert!(!d.scope_changed());
        assert!(d.touched_actors().is_empty());
    }

    #[test]
    fn merge_spans_generations_and_unions_categories() {
        let mut a = snap_of(1, &[(1, 0, 0.2), (2, 0, 0.3)], &[0]);
        // Window 2: actor 3 appears, actor 1's cpu changes, actor 2's map
        // gains a target and actor 1's takes a no-op add.
        let mut b = snap_of(2, &[(1, 0, 0.5), (2, 0, 0.3), (3, 0, 0.1)], &[0]);
        // Window 3: actor 3 disappears again, actor 2 moves, actor 1's map
        // loses a target and actor 2's takes a no-op remove.
        let mut c = snap_of(3, &[(1, 0, 0.5), (2, 1, 0.3)], &[0, 1]);
        a.actors[0].refs = kids(&[5]);
        a.actors[1].refs = kids(&[6]);
        b.actors[0].refs = a.actors[0].refs.clone();
        b.actors[0].refs.add("kids", ActorId(5));
        b.actors[1].refs = a.actors[1].refs.clone();
        b.actors[1].refs.add("kids", ActorId(7));
        c.actors[0].refs = b.actors[0].refs.clone();
        c.actors[0].refs.remove("kids", ActorId(5));
        c.actors[1].refs = b.actors[1].refs.clone();
        c.actors[1].refs.remove("kids", ActorId(9));
        let first = SnapshotDelta::between(&a, &b);
        let second = SnapshotDelta::between(&b, &c);
        assert_eq!(first.refs_changed, vec![ActorId(2)]);
        assert_eq!(second.refs_changed, vec![ActorId(1)]);
        let mut d = first;
        d.merge(&second);
        assert_eq!(d.from_generation, 1);
        assert_eq!(d.to_generation, 3);
        // Actor 3 is listed as both added and removed: the merged delta
        // records categories, consumers classify by endpoint presence.
        assert_eq!(d.added, vec![ActorId(3)]);
        assert_eq!(d.removed, vec![ActorId(3)]);
        assert_eq!(d.moved, vec![ActorId(2)]);
        assert_eq!(d.refs_changed, vec![ActorId(1), ActorId(2)]);
        assert_eq!(d.servers_added, vec![ServerId(1)]);
        // touched_actors dedups across categories; actor 1's share and map
        // changes touch no index.
        assert_eq!(d.touched_actors(), vec![ActorId(2), ActorId(3)]);
        // The merged span must classify like a direct endpoint diff for
        // actors present in exactly one endpoint.
        let direct = SnapshotDelta::between(&a, &c);
        assert_eq!(direct.added, Vec::<ActorId>::new());
        assert_eq!(direct.moved, d.moved);
        assert_eq!(direct.refs_changed, d.refs_changed);
    }
}
