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
#[derive(Clone, Debug, Default, PartialEq)]
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

    /// Returns whether nothing was recorded: the counters of an actor that
    /// was idle all window.
    pub fn is_empty(&self) -> bool {
        self.cpu_busy.is_zero() && self.calls.is_empty() && self.bytes_sent == 0
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
/// changed maps without comparing their contents. The rows themselves are
/// shared the same way, a page at a time (see [`ProfileSnapshot`]); the
/// derived `PartialEq` compares maps by content.
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
#[derive(Clone, Debug, PartialEq)]
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

/// Actor ids per snapshot page.
///
/// A roll rebuilds only the pages the runtime marked, so the page is the
/// unit a roll, a [`SnapshotDelta::between`] walk and a frame swap pay
/// for. Pages rebuilt per window, measured on perfbench (seed 17, every
/// roll of a one-second run): `estore-wide-sim` 2, at most 3, of 640
/// (~67 of 40,960 rows differ, all among the low ids its clients call);
/// `estore-skew-net` 2, at most 3, of 40 (~81 of 2,560 rows differ);
/// `media-churn-live` nearly every page (~63% of rows differ), where a
/// page is as cheap to build as the rows it holds. 64 keeps a page's
/// rebuild small where few rows change and the page table short where
/// all do.
pub const PAGE_SLOTS: usize = 64;

/// One page of rows: slot `i` of page `p` holds actor `p * PAGE_SLOTS + i`.
pub(crate) type Page = [Option<ActorWindowStats>; PAGE_SLOTS];

/// A page with every slot empty.
pub(crate) fn empty_page() -> Page {
    std::array::from_fn(|_| None)
}

/// A complete profiling snapshot: what every LEM ships to its GEM.
///
/// Actor rows live in fixed-size pages indexed by actor id
/// ([`PAGE_SLOTS`] ids each), every page behind an [`Arc`]. Consecutive
/// generations share each page the window did not change, so a snapshot
/// costs the pages its roll rebuilt, and dropping one frees only the pages
/// no other generation holds. An edit ([`ProfileSnapshot::insert`],
/// [`ProfileSnapshot::remove`], [`ProfileSnapshot::actor_mut`]) copies its
/// page first while another generation still shares it. A page holds at
/// least one row or is absent.
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
    /// Row pages indexed by `actor id / PAGE_SLOTS`.
    pub(crate) pages: Vec<Option<Arc<Page>>>,
    /// Per-server stats, ordered by server id.
    pub servers: Vec<ServerWindowStats>,
}

impl ProfileSnapshot {
    /// Builds a snapshot from rows in any order (synthetic snapshots in
    /// tests and benches; the runtime builds its pages in place).
    ///
    /// # Panics
    ///
    /// Panics if two rows name the same actor.
    pub fn from_rows(
        generation: u64,
        at: SimTime,
        window: SimDuration,
        rows: impl IntoIterator<Item = ActorWindowStats>,
        servers: Vec<ServerWindowStats>,
    ) -> Self {
        let mut snap = ProfileSnapshot {
            generation,
            at,
            window,
            servers,
            ..ProfileSnapshot::default()
        };
        for row in rows {
            let id = row.actor;
            assert!(snap.insert(row).is_none(), "two rows for {id:?}");
        }
        snap
    }

    /// Returns every actor row, in id order.
    pub fn actors(&self) -> impl DoubleEndedIterator<Item = &ActorWindowStats> {
        self.pages
            .iter()
            .flatten()
            .flat_map(|page| page.iter().flatten())
    }

    /// Returns the number of actor rows, counted over the pages.
    pub fn len(&self) -> usize {
        self.actors().count()
    }

    /// Returns whether the snapshot holds no actor row.
    pub fn is_empty(&self) -> bool {
        self.pages.iter().all(Option::is_none)
    }

    /// Returns the stats of actors hosted on `server`.
    pub fn actors_on(&self, server: ServerId) -> impl Iterator<Item = &ActorWindowStats> {
        self.actors().filter(move |a| a.server == server)
    }

    /// Returns the stats for one server, if present.
    pub fn server(&self, server: ServerId) -> Option<&ServerWindowStats> {
        self.servers.iter().find(|s| s.server == server)
    }

    /// Returns the stats for one actor, if present: its page, then its
    /// slot.
    pub fn actor(&self, actor: ActorId) -> Option<&ActorWindowStats> {
        let id = actor.0 as usize;
        self.pages.get(id / PAGE_SLOTS)?.as_ref()?[id % PAGE_SLOTS].as_ref()
    }

    /// Returns one actor's row for editing, copying its page first if
    /// another generation shares it.
    pub fn actor_mut(&mut self, actor: ActorId) -> Option<&mut ActorWindowStats> {
        let id = actor.0 as usize;
        let page = self.pages.get_mut(id / PAGE_SLOTS)?.as_mut()?;
        page[id % PAGE_SLOTS].as_ref()?;
        Arc::make_mut(page)[id % PAGE_SLOTS].as_mut()
    }

    /// Puts `row` in its actor's slot, copying the page first if another
    /// generation shares it. Returns the row it replaced.
    pub fn insert(&mut self, row: ActorWindowStats) -> Option<ActorWindowStats> {
        let id = row.actor.0 as usize;
        let p = id / PAGE_SLOTS;
        if p >= self.pages.len() {
            self.pages.resize(p + 1, None);
        }
        let page = self.pages[p].get_or_insert_with(|| Arc::new(empty_page()));
        Arc::make_mut(page)[id % PAGE_SLOTS].replace(row)
    }

    /// Takes one actor's row out, copying its page first if another
    /// generation shares it; a page left without rows goes.
    pub fn remove(&mut self, actor: ActorId) -> Option<ActorWindowStats> {
        let id = actor.0 as usize;
        let slot = self.pages.get_mut(id / PAGE_SLOTS)?;
        let page = slot.as_mut()?;
        page[id % PAGE_SLOTS].as_ref()?;
        let old = Arc::make_mut(page)[id % PAGE_SLOTS].take();
        if page.iter().all(Option::is_none) {
            *slot = None;
        }
        old
    }
}

/// What changed between two profiling snapshots, any number of generations
/// apart.
///
/// Derived from the paged actor rows and the per-window server lists (which
/// track cluster membership: a server enters when it starts running and
/// leaves when it stops, crashes, or is decommissioned), and
/// only from the two endpoints: an actor added and removed again in
/// between is not listed, nor is one that moved away and back. Consumers
/// use deltas to patch retained indexes in place instead of rebuilding them —
/// only `server` and `type_id` feed retained indexes, and an actor's type
/// never changes, so `server` is the only per-actor stat diffed; everything
/// else, `cpu_share` included, is read straight from the current snapshot.
/// Reference maps are not diffed by content: a row whose
/// [`RefMap`] no longer shares the previous row's map is listed in
/// `refs_changed`, which is what lets the EMR keep the pairs of `in ref`
/// rules across rounds.
///
/// [`SnapshotDelta::between`] walks the two page tables side by side and
/// skips every page both generations share, so a span costs the pages its
/// rolls rebuilt; inside an unshared page it compares slot by slot.
/// [`SnapshotDelta::walk_rows`], the row-by-row merge walk it replaced,
/// stays as the oracle it is tested against.
///
/// All id vectors are sorted without duplicates, and an id appears in at
/// most one of `added`, `removed` and `moved`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SnapshotDelta {
    /// Generation this delta starts from.
    pub from_generation: u64,
    /// Generation this delta produces.
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
    /// Diffs two snapshots: pages both share are skipped, the slots of
    /// every other page compared in id order.
    pub fn between(from: &ProfileSnapshot, to: &ProfileSnapshot) -> Self {
        let mut delta = Self::servers_between(from, to);
        for p in 0..from.pages.len().max(to.pages.len()) {
            let old = from.pages.get(p).and_then(Option::as_ref);
            let new = to.pages.get(p).and_then(Option::as_ref);
            match (old, new) {
                (None, None) => continue,
                (Some(a), Some(b)) if Arc::ptr_eq(a, b) => continue,
                _ => {}
            }
            for slot in 0..PAGE_SLOTS {
                delta.record(
                    old.and_then(|page| page[slot].as_ref()),
                    new.and_then(|page| page[slot].as_ref()),
                );
            }
        }
        delta
    }

    /// Diffs two snapshots by one merge walk over every row of both,
    /// sharing or not. The reference [`SnapshotDelta::between`] must
    /// agree with; tests compare the two.
    pub fn walk_rows(from: &ProfileSnapshot, to: &ProfileSnapshot) -> Self {
        let mut delta = Self::servers_between(from, to);
        let (mut old, mut new) = (from.actors().peekable(), to.actors().peekable());
        loop {
            let (o, n) = match (old.peek(), new.peek()) {
                (None, None) => break,
                (Some(o), Some(n)) if o.actor == n.actor => (old.next(), new.next()),
                (Some(o), Some(n)) if o.actor < n.actor => (old.next(), None),
                (Some(_), None) => (old.next(), None),
                _ => (None, new.next()),
            };
            delta.record(o, n);
        }
        delta
    }

    /// An empty delta between the two generations, with their server
    /// lists diffed.
    fn servers_between(from: &ProfileSnapshot, to: &ProfileSnapshot) -> Self {
        let old: Vec<ServerId> = from.servers.iter().map(|s| s.server).collect();
        let new: Vec<ServerId> = to.servers.iter().map(|s| s.server).collect();
        SnapshotDelta {
            from_generation: from.generation,
            to_generation: to.generation,
            servers_added: new.iter().copied().filter(|s| !old.contains(s)).collect(),
            servers_removed: old.iter().copied().filter(|s| !new.contains(s)).collect(),
            ..SnapshotDelta::default()
        }
    }

    /// Classifies one actor by its rows in the two generations.
    fn record(&mut self, old: Option<&ActorWindowStats>, new: Option<&ActorWindowStats>) {
        match (old, new) {
            (Some(o), Some(n)) => {
                if o.server != n.server {
                    self.moved.push(o.actor);
                }
                if !o.refs.shares(&n.refs) {
                    self.refs_changed.push(o.actor);
                }
            }
            (Some(o), None) => self.removed.push(o.actor),
            (None, Some(n)) => self.added.push(n.actor),
            (None, None) => {}
        }
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

    /// A row for `id` on `server` with `cpu_share` and nothing else.
    fn row(id: u64, server: u32, cpu_share: f64) -> ActorWindowStats {
        ActorWindowStats {
            actor: ActorId(id),
            type_id: ActorTypeId(0),
            server: ServerId(server),
            state_size: 1,
            pinned: false,
            cpu_share,
            counters: ActorCounters::default(),
            refs: RefMap::default(),
        }
    }

    #[test]
    fn snapshot_filters() {
        let mut pinned = row(3, 1, 0.1);
        pinned.pinned = true;
        let snap = ProfileSnapshot::from_rows(
            1,
            SimTime::from_secs(10),
            SimDuration::from_secs(1),
            [pinned, row(1, 0, 0.5)],
            vec![ServerWindowStats {
                server: ServerId(0),
                usage: ResourceUsage::new(0.9, 0.1, 0.2),
                actor_count: 1,
            }],
        );
        assert_eq!(snap.len(), 2);
        assert_eq!(snap.actors_on(ServerId(0)).count(), 1);
        assert_eq!(snap.actors_on(ServerId(1)).count(), 1);
        assert!(snap.server(ServerId(0)).is_some());
        assert!(snap.server(ServerId(9)).is_none());
        assert!(snap.actor(ActorId(3)).unwrap().pinned);
        assert!(!snap.actor(ActorId(1)).unwrap().pinned);
        // Absent ids: below, between and above the present ones, and in a
        // page the snapshot does not have.
        assert!(snap.actor(ActorId(0)).is_none());
        assert!(snap.actor(ActorId(2)).is_none());
        assert!(snap.actor(ActorId(4)).is_none());
        assert!(snap.actor(ActorId(10 * PAGE_SLOTS as u64)).is_none());
    }

    #[test]
    fn pages_are_indexed_by_id_and_copied_on_write() {
        let far = 3 * PAGE_SLOTS as u64 + 5;
        let a = ProfileSnapshot::from_rows(
            1,
            SimTime::from_secs(1),
            SimDuration::from_secs(1),
            [
                row(far, 0, 0.3),
                row(1, 0, 0.1),
                row(PAGE_SLOTS as u64, 1, 0.2),
            ],
            Vec::new(),
        );
        let ids: Vec<u64> = a.actors().map(|r| r.actor.0).collect();
        assert_eq!(ids, vec![1, PAGE_SLOTS as u64, far]);
        assert_eq!(a.actors().next_back().unwrap().actor.0, far);
        assert_eq!(a.len(), 3);
        assert_eq!(a.pages.len(), 4);
        assert!(a.pages[2].is_none(), "a page without rows is absent");
        // The successor shares every page until a row changes; an edit
        // copies only its own page and leaves the predecessor intact.
        let mut b = a.clone();
        b.generation = 2;
        b.actor_mut(ActorId(1)).unwrap().cpu_share = 0.9;
        assert!(!Arc::ptr_eq(
            a.pages[0].as_ref().unwrap(),
            b.pages[0].as_ref().unwrap()
        ));
        assert!(Arc::ptr_eq(
            a.pages[1].as_ref().unwrap(),
            b.pages[1].as_ref().unwrap()
        ));
        assert_eq!(a.actor(ActorId(1)).unwrap().cpu_share, 0.1);
        assert!(b.actor_mut(ActorId(2)).is_none(), "no row to edit");
        // Removing a page's last row drops the page; inserting past the
        // table grows it.
        assert_eq!(
            b.remove(ActorId(PAGE_SLOTS as u64)).unwrap().server,
            ServerId(1)
        );
        assert!(b.remove(ActorId(PAGE_SLOTS as u64)).is_none());
        assert!(b.pages[1].is_none());
        assert!(b.insert(row(9 * PAGE_SLOTS as u64, 2, 0.0)).is_none());
        assert_eq!(b.len(), 3);
        assert!(
            b.insert(row(1, 1, 0.0)).is_some(),
            "a replaced row is returned"
        );
        assert_eq!(b.len(), 3);
        let d = SnapshotDelta::between(&a, &b);
        assert_eq!(d, SnapshotDelta::walk_rows(&a, &b));
        assert_eq!(d.added, vec![ActorId(9 * PAGE_SLOTS as u64)]);
        assert_eq!(d.removed, vec![ActorId(PAGE_SLOTS as u64)]);
        assert_eq!(d.moved, vec![ActorId(1)]);
    }

    #[test]
    #[should_panic(expected = "two rows for")]
    fn from_rows_rejects_duplicate_actors() {
        ProfileSnapshot::from_rows(
            1,
            SimTime::ZERO,
            SimDuration::from_secs(1),
            [row(7, 0, 0.1), row(7, 1, 0.2)],
            Vec::new(),
        );
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

    /// Minimal snapshot: actors given as `(id, server, cpu_share)` rows,
    /// servers as bare ids.
    fn snap_of(generation: u64, actors: &[(u64, u32, f64)], servers: &[u32]) -> ProfileSnapshot {
        ProfileSnapshot::from_rows(
            generation,
            SimTime::from_secs(generation),
            SimDuration::from_secs(1),
            actors.iter().map(|&(id, srv, cpu)| row(id, srv, cpu)),
            servers
                .iter()
                .map(|&s| ServerWindowStats {
                    server: ServerId(s),
                    usage: ResourceUsage::new(0.5, 0.5, 0.5),
                    actor_count: 0,
                })
                .collect(),
        )
    }

    /// The reference map of actor `id`'s row.
    fn refs_of(snap: &mut ProfileSnapshot, id: u64) -> &mut RefMap {
        &mut snap.actor_mut(ActorId(id)).expect("row present").refs
    }

    /// [`SnapshotDelta::between`], checked against the full row walk.
    fn diff(from: &ProfileSnapshot, to: &ProfileSnapshot) -> SnapshotDelta {
        let d = SnapshotDelta::between(from, to);
        assert_eq!(
            d,
            SnapshotDelta::walk_rows(from, to),
            "page walk vs row walk"
        );
        d
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
        *refs_of(&mut a, 3) = kids(&[1]);
        *refs_of(&mut a, 4) = kids(&[1]);
        *refs_of(&mut b, 3) = refs_of(&mut a, 3).clone();
        refs_of(&mut b, 3).add("kids", ActorId(1));
        *refs_of(&mut b, 4) = refs_of(&mut a, 4).clone();
        refs_of(&mut b, 4).add("kids", ActorId(2));
        let d = diff(&a, &b);
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
        *refs_of(&mut c, 3) = kids(&[1]);
        let d = diff(&b, &c);
        assert_eq!(d.refs_changed, vec![ActorId(3)]);
        assert!(!d.is_empty(), "a delta with only a map change is not empty");
        assert!(d.touched_actors().is_empty());
    }

    #[test]
    fn delta_between_identical_snapshots_is_empty() {
        let a = snap_of(1, &[(1, 0, 0.2), (2, 1, 0.3)], &[0, 1]);
        let mut b = a.clone();
        b.generation = 2;
        let d = diff(&a, &b);
        assert!(d.is_empty());
        assert!(!d.scope_changed());
        assert!(d.touched_actors().is_empty());
    }

    #[test]
    fn between_spans_generations_by_endpoints() {
        let mut a = snap_of(1, &[(1, 0, 0.2), (2, 0, 0.3)], &[0]);
        // Window 2: actor 3 appears, actor 1's cpu changes, actor 2's map
        // gains a target and actor 1's takes a no-op add.
        let mut b = snap_of(2, &[(1, 0, 0.5), (2, 0, 0.3), (3, 0, 0.1)], &[0]);
        // Window 3: actor 3 disappears again, actor 2 moves, actor 1's map
        // loses a target and actor 2's takes a no-op remove.
        let mut c = snap_of(3, &[(1, 0, 0.5), (2, 1, 0.3)], &[0, 1]);
        *refs_of(&mut a, 1) = kids(&[5]);
        *refs_of(&mut a, 2) = kids(&[6]);
        *refs_of(&mut b, 1) = refs_of(&mut a, 1).clone();
        refs_of(&mut b, 1).add("kids", ActorId(5));
        *refs_of(&mut b, 2) = refs_of(&mut a, 2).clone();
        refs_of(&mut b, 2).add("kids", ActorId(7));
        *refs_of(&mut c, 1) = refs_of(&mut b, 1).clone();
        refs_of(&mut c, 1).remove("kids", ActorId(5));
        *refs_of(&mut c, 2) = refs_of(&mut b, 2).clone();
        refs_of(&mut c, 2).remove("kids", ActorId(9));
        assert_eq!(diff(&a, &b).refs_changed, vec![ActorId(2)]);
        assert_eq!(diff(&b, &c).refs_changed, vec![ActorId(1)]);
        // The span diffs its endpoints: actor 3, added and removed inside
        // it, is in neither; each map changed in one of the two windows.
        let d = diff(&a, &c);
        assert_eq!(d.from_generation, 1);
        assert_eq!(d.to_generation, 3);
        assert!(d.added.is_empty());
        assert!(d.removed.is_empty());
        assert_eq!(d.moved, vec![ActorId(2)]);
        assert_eq!(d.refs_changed, vec![ActorId(1), ActorId(2)]);
        assert_eq!(d.servers_added, vec![ServerId(1)]);
        assert!(d.servers_removed.is_empty());
        // Actor 1's share and map changes touch no index.
        assert_eq!(d.touched_actors(), vec![ActorId(2)]);
    }
}
