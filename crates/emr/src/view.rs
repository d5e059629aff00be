//! The evaluation view: one shared indexed frame per round, scoped contexts
//! per consumer.
//!
//! LEMs evaluate rules anchored to their own server; GEMs evaluate over all
//! servers they manage. Both used to rebuild a string-keyed context per
//! evaluation; now the EMR retains one [`EvalFrame`] across decision rounds,
//! advances it by applying the [`SnapshotDelta`] between its snapshot and
//! the runtime's, and every consumer borrows it through a cheap scoped
//! [`EvalCtx`].
//!
//! The frame carries the indexes the evaluator drives candidate enumeration
//! off: per-type actor lists, a per-server residency index, and their
//! `(server, type)` intersection. Index groups store stable [`ActorId`]s —
//! id order *is* enumeration order, which the behavior expansion relies on
//! — and each id resolves to its row through the snapshot's id-indexed
//! pages ([`ProfileSnapshot::actor`]), so membership edits never shift
//! unrelated entries and the frame keeps no row table of its own.
//! Threshold conditions (`actor.cpu.perc > X`) resolve to a
//! `partition_point` over a `cpu_share`-sorted copy of a group (or of the
//! whole in-scope world) instead of a scan. Those copies are sorted on
//! demand: the first threshold query against a generation sorts the family
//! it reads from its id-ordered twin, and advancing the frame drops them,
//! so a round whose rules compare no actor's cpu share sorts nothing.
//!
//! # Incremental maintenance
//!
//! A frame is built from scratch once ([`EvalFrame::new`]) and then patched
//! per round ([`EvalFrame::advance`]): the delta between the frame's
//! snapshot and the runtime's current one names every actor whose indexed
//! stats (`server`, `type_id`) may have changed, and only those ids are
//! spliced out of and back into the affected groups at binary-searched
//! positions. The delta skips every page the two snapshots share, so it
//! costs the pages that changed however many windows lie between them.
//! Row *data* is always read from the current snapshot, so non-indexed
//! stats — cpu share, call counters, refs, state size — are never stale.
//! Swapping in the new snapshot frees only the pages of the old one that no
//! other generation shares. The frame falls back to a full rebuild on scope
//! changes (the running server set differs from the frame's). The
//! from-scratch builder remains the correctness oracle: a patched frame is
//! index-for-index identical to a rebuilt one, which the churn property
//! tests assert.

use std::cell::{Cell, OnceCell};
use std::collections::BTreeMap;
use std::sync::Arc;

use plasma_actor::ids::{ActorId, ActorTypeId, FnId};
use plasma_actor::stats::{ActorWindowStats, ProfileSnapshot, SnapshotDelta};
use plasma_actor::{Runtime, ServerReport};
use plasma_cluster::ServerId;
use plasma_epl::ast::{AType, Comp, Res};

/// A touched actor's indexed state — `(server, type)` — at one endpoint of a
/// delta, or `None` when absent from that generation (or out of the frame's
/// scope).
type EndpointState = Option<(ServerId, ActorTypeId)>;

/// Static capacity data of one server, captured at context build time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ServerMeta {
    /// The server.
    pub id: ServerId,
    /// Total compute throughput (work units per second).
    pub total_speed: f64,
    /// Number of vCPU lanes.
    pub vcpus: u32,
    /// Memory capacity in bytes.
    pub mem_bytes: u64,
    /// NIC bandwidth in bits per second.
    pub net_bps: f64,
    /// Utilization fractions over the last window.
    pub cpu: f64,
    /// Memory utilization fraction.
    pub mem: f64,
    /// Network utilization fraction.
    pub net: f64,
    /// Resident actor count.
    pub actor_count: usize,
}

impl ServerMeta {
    /// Returns the utilization fraction of `res`.
    pub fn usage(&self, res: Res) -> f64 {
        match res {
            Res::Cpu => self.cpu,
            Res::Mem => self.mem,
            Res::Net => self.net,
        }
    }

    /// Decodes a LEM report row ([`Runtime::server_report`], or its
    /// wire-carried copy). The report carries every f64 as raw bits, so
    /// this conversion is exact: the frame and a query reply decode the
    /// same row to the identical `ServerMeta`.
    pub fn from_report(r: &ServerReport) -> ServerMeta {
        ServerMeta {
            id: ServerId(r.server),
            total_speed: f64::from_bits(r.total_speed_bits),
            vcpus: r.vcpus,
            mem_bytes: r.mem_bytes,
            net_bps: f64::from_bits(r.net_bps_bits),
            cpu: f64::from_bits(r.cpu_bits),
            mem: f64::from_bits(r.mem_bits),
            net: f64::from_bits(r.net_bits),
            actor_count: r.actor_count as usize,
        }
    }
}

/// A resolved actor-type selector, produced by binding a plan's type symbol
/// against the runtime's registry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TypeSel {
    /// Matches every actor type.
    Any,
    /// Matches one concrete type.
    Id(ActorTypeId),
    /// The named type is unknown to the registry: matches nothing.
    Unknown,
}

impl TypeSel {
    /// Returns whether `actor` matches this selector.
    pub fn matches(self, actor: &ActorWindowStats) -> bool {
        match self {
            TypeSel::Any => true,
            TypeSel::Id(t) => actor.type_id == t,
            TypeSel::Unknown => false,
        }
    }
}

/// The retained indexed view over one profiling snapshot: server metadata,
/// candidate indexes, and the name tables rule plans are bound against.
/// Built once, advanced per decision round by applying snapshot deltas, and
/// shared by every [`EvalCtx`].
pub struct EvalFrame {
    snap: Arc<ProfileSnapshot>,
    /// Server metadata in construction-scope order.
    servers: Vec<ServerMeta>,
    server_idx: BTreeMap<ServerId, usize>,
    /// Dense server-id-indexed membership mask over the frame's scope
    /// (server ids are slab indices too); the O(1) replacement for
    /// `server_idx` lookups on the per-actor hot paths.
    server_mask: Vec<bool>,
    /// Index groups, each an id-ascending list of in-scope actors.
    by_type: BTreeMap<ActorTypeId, Vec<ActorId>>,
    by_server: BTreeMap<ServerId, Vec<ActorId>>,
    by_server_type: BTreeMap<(ServerId, ActorTypeId), Vec<ActorId>>,
    /// `cpu_share`-sorted copies of the groups above (plus the whole
    /// in-scope world), sorted on demand for threshold pruning.
    cpu_sorted: CpuSorted,
    type_names: BTreeMap<String, ActorTypeId>,
    fn_names: BTreeMap<String, FnId>,
}

/// A `(cpu_share, id)`-ascending candidate list, each id stored beside its
/// sort key so threshold pruning probes the list itself instead of a stats
/// row per comparison.
type CpuGroup = Vec<(f64, ActorId)>;

/// The `(cpu_share, id)`-ascending copies of a frame's index groups, one
/// cell per family. The first threshold query against a generation sorts
/// the family it reads from its id-ordered twin (the in-scope rows, for
/// `all`); [`EvalFrame::apply`] empties every cell when it swaps snapshots.
#[derive(Default)]
struct CpuSorted {
    all: OnceCell<CpuGroup>,
    by_type: OnceCell<BTreeMap<ActorTypeId, CpuGroup>>,
    by_server: OnceCell<BTreeMap<ServerId, CpuGroup>>,
    by_server_type: OnceCell<BTreeMap<(ServerId, ActorTypeId), CpuGroup>>,
}

/// Sorts `rows` into a [`CpuGroup`]. Shares are finite, so `total_cmp` is
/// the usual order.
fn sort_by_cpu<'r>(rows: impl Iterator<Item = &'r ActorWindowStats>) -> CpuGroup {
    let mut group: CpuGroup = rows.map(|a| (a.cpu_share, a.actor)).collect();
    group.sort_unstable_by(|x, y| x.0.total_cmp(&y.0).then(x.1.cmp(&y.1)));
    group
}

impl EvalFrame {
    /// Builds the round's frame over every running server.
    pub fn new(rt: &Runtime) -> Self {
        Self::from_runtime(rt, &rt.cluster().running_ids())
    }

    /// Builds a frame over `scope` servers from the runtime's latest
    /// snapshot (non-running servers are skipped).
    pub(crate) fn from_runtime(rt: &Runtime, scope: &[ServerId]) -> Self {
        let servers = Self::server_metas(rt, scope);
        let names = rt.names();
        let mut type_names = BTreeMap::new();
        for t in names.all_types() {
            type_names.insert(names.type_name(t).to_string(), t);
        }
        let mut fn_names = BTreeMap::new();
        for f in names.all_functions() {
            fn_names.insert(names.function_name(f).to_string(), f);
        }
        Self::build(rt.snapshot_shared(), servers, type_names, fn_names)
    }

    /// The [`ServerMeta`] rows of the running servers of `scope`, decoded
    /// from the runtime's report rows for its current snapshot.
    fn server_metas(rt: &Runtime, scope: &[ServerId]) -> Vec<ServerMeta> {
        scope
            .iter()
            .filter(|&&sid| rt.cluster().server(sid).is_running())
            .map(|&sid| ServerMeta::from_report(&rt.server_report(sid)))
            .collect()
    }

    /// Builds a frame from pre-assembled parts (synthetic snapshots in
    /// benches and property tests). Actors on servers absent from `servers`
    /// are excluded, as they would be for non-running servers.
    pub fn from_parts(
        snap: Arc<ProfileSnapshot>,
        servers: Vec<ServerMeta>,
        type_names: BTreeMap<String, ActorTypeId>,
        fn_names: BTreeMap<String, FnId>,
    ) -> Self {
        Self::build(snap, servers, type_names, fn_names)
    }

    fn build(
        snap: Arc<ProfileSnapshot>,
        servers: Vec<ServerMeta>,
        type_names: BTreeMap<String, ActorTypeId>,
        fn_names: BTreeMap<String, FnId>,
    ) -> Self {
        let server_idx: BTreeMap<ServerId, usize> =
            servers.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
        let mut frame = EvalFrame {
            snap,
            servers,
            server_idx,
            server_mask: Vec::new(),
            by_type: BTreeMap::new(),
            by_server: BTreeMap::new(),
            by_server_type: BTreeMap::new(),
            cpu_sorted: CpuSorted::default(),
            type_names,
            fn_names,
        };
        frame.refresh_server_mask();
        for a in frame.snap.actors() {
            if frame.scope_has(a.server) {
                frame.by_type.entry(a.type_id).or_default().push(a.actor);
                frame.by_server.entry(a.server).or_default().push(a.actor);
                frame
                    .by_server_type
                    .entry((a.server, a.type_id))
                    .or_default()
                    .push(a.actor);
            }
        }
        frame
    }

    /// Rebuilds the dense server-membership mask from the scope list.
    fn refresh_server_mask(&mut self) {
        let width = self
            .servers
            .iter()
            .map(|s| s.id.0 as usize + 1)
            .max()
            .unwrap_or(0);
        self.server_mask.clear();
        self.server_mask.resize(width, false);
        for s in &self.servers {
            self.server_mask[s.id.0 as usize] = true;
        }
    }

    /// Returns whether `sid` is one of the frame's scope servers.
    fn scope_has(&self, sid: ServerId) -> bool {
        self.server_mask
            .get(sid.0 as usize)
            .copied()
            .unwrap_or(false)
    }

    /// Advances the retained frame to the runtime's current snapshot by
    /// applying the delta between the frame's snapshot and the runtime's,
    /// however many windows apart they are. Returns `false` — leaving the
    /// frame untouched — when a full rebuild is required instead: the
    /// running server set changed, the delta reports servers entering or
    /// leaving the profile, or the runtime's generation is behind the
    /// frame's.
    pub fn advance(&mut self, rt: &Runtime) -> bool {
        self.advance_delta(rt).is_some()
    }

    /// [`EvalFrame::advance`], returning the delta it applied (the span
    /// from the frame's old generation to its new one), or `None` when a
    /// full rebuild is required.
    pub fn advance_delta(&mut self, rt: &Runtime) -> Option<SnapshotDelta> {
        let scope = rt.cluster().running_ids();
        if scope.len() != self.servers.len()
            || !scope.iter().zip(&self.servers).all(|(s, m)| *s == m.id)
            || rt.snapshot().generation < self.snap.generation
        {
            return None;
        }
        let delta = SnapshotDelta::between(&self.snap, rt.snapshot());
        if delta.scope_changed() {
            return None;
        }
        // Late registrations only ever grow the name tables; refresh them
        // in place instead of rebuilding the whole frame.
        let names = rt.names();
        if names.all_types().count() != self.type_names.len() {
            self.type_names = names
                .all_types()
                .map(|t| (names.type_name(t).to_string(), t))
                .collect();
        }
        if names.all_functions().count() != self.fn_names.len() {
            self.fn_names = names
                .all_functions()
                .map(|f| (names.function_name(f).to_string(), f))
                .collect();
        }
        let servers = Self::server_metas(rt, &scope);
        self.apply(rt.snapshot_shared(), servers, &delta)
            .then_some(delta)
    }

    /// Applies the delta from the frame's snapshot to `snap`, advancing the
    /// frame to it. `servers` must cover the same server ids as the
    /// frame (scope changes require a rebuild). Returns `false` — frame
    /// untouched — when the delta does not chain the two generations or the
    /// scope differs.
    ///
    /// Cost is O(touched · log group + touched · group-shift) for the index
    /// splices — no re-sorting, no re-keying of untouched actors — plus
    /// dropping the old snapshot, which frees only the pages the new one
    /// does not share. The cpu-sorted copies are dropped, not patched: the
    /// next threshold query sorts the family it reads again.
    pub fn apply(
        &mut self,
        snap: Arc<ProfileSnapshot>,
        servers: Vec<ServerMeta>,
        delta: &SnapshotDelta,
    ) -> bool {
        if delta.from_generation != self.snap.generation
            || delta.to_generation != snap.generation
            || delta.scope_changed()
        {
            return false;
        }
        if servers.len() != self.servers.len()
            || !servers.iter().zip(&self.servers).all(|(a, b)| a.id == b.id)
        {
            return false;
        }
        // Classify every touched actor by its endpoint states — the old
        // state read from the retained frame, the new one from the
        // incoming snapshot; scope is unchanged, so the old server mask
        // applies to both — and batch the group edits a change needs:
        // removals keyed by OLD membership, insertions by NEW. Batches
        // accumulate in flat `(group key, id)` vectors sorted and walked as
        // runs, so no per-group map or vector is allocated.
        let mut ty_rm: Vec<(ActorTypeId, ActorId)> = Vec::new();
        let mut srv_rm: Vec<(ServerId, ActorId)> = Vec::new();
        let mut st_rm: Vec<((ServerId, ActorTypeId), ActorId)> = Vec::new();
        let mut ty_ins: Vec<(ActorTypeId, ActorId)> = Vec::new();
        let mut srv_ins: Vec<(ServerId, ActorId)> = Vec::new();
        let mut st_ins: Vec<((ServerId, ActorTypeId), ActorId)> = Vec::new();
        for id in delta.touched_actors() {
            let old: EndpointState = self.lookup(id).map(|a| (a.server, a.type_id));
            let new: EndpointState = snap
                .actor(id)
                .filter(|a| self.scope_has(a.server))
                .map(|a| (a.server, a.type_id));
            if old == new {
                continue;
            }
            if let Some((srv, ty)) = old {
                ty_rm.push((ty, id));
                srv_rm.push((srv, id));
                st_rm.push(((srv, ty), id));
            }
            if let Some((srv, ty)) = new {
                ty_ins.push((ty, id));
                srv_ins.push((srv, id));
                st_ins.push(((srv, ty), id));
            }
        }
        // Group the batches into id-ascending runs, then splice each run
        // out of (or into) its group: positions by binary search, then one
        // block-memmove pass per *affected* group, so O(touched · log group)
        // probe work plus one linear copy. Removals go first; emptied groups
        // disappear and insertions create absent ones, keeping the map keys
        // exactly the non-empty groups a rebuild would produce.
        ty_rm.sort_unstable();
        srv_rm.sort_unstable();
        st_rm.sort_unstable();
        ty_ins.sort_unstable();
        srv_ins.sort_unstable();
        st_ins.sort_unstable();
        let mut pos: Vec<usize> = Vec::new();
        Self::remove_ids_runs(&mut self.by_type, &ty_rm, &mut pos);
        Self::remove_ids_runs(&mut self.by_server, &srv_rm, &mut pos);
        Self::remove_ids_runs(&mut self.by_server_type, &st_rm, &mut pos);
        Self::insert_ids_runs(&mut self.by_type, &ty_ins, &mut pos);
        Self::insert_ids_runs(&mut self.by_server, &srv_ins, &mut pos);
        Self::insert_ids_runs(&mut self.by_server_type, &st_ins, &mut pos);
        // Swap in the new generation: every row now resolves through its
        // pages, and the cpu-sorted copies of the old one go. The server
        // mask is untouched — the scope ids were verified identical above.
        self.snap = snap;
        self.servers = servers;
        self.cpu_sorted = CpuSorted::default();
        true
    }

    /// Compacts `v` by removing the elements at `positions` (strictly
    /// ascending) with one forward block-memmove pass.
    fn splice_out(v: &mut Vec<ActorId>, positions: &[usize]) {
        let mut w = positions[0];
        for (k, &p) in positions.iter().enumerate() {
            let next = positions.get(k + 1).copied().unwrap_or(v.len());
            v.copy_within(p + 1..next, w);
            w += next - p - 1;
        }
        v.truncate(w);
    }

    /// Grows `v` by inserting `item(j)` at lower-bound position
    /// `positions[j]` (non-decreasing, relative to the pre-insert vector)
    /// with one backward block-memmove pass: each retained element shifts
    /// right at most once and the prefix below the first position never
    /// moves.
    fn splice_in(v: &mut Vec<ActorId>, item: impl Fn(usize) -> ActorId, positions: &[usize]) {
        debug_assert!(positions.windows(2).all(|w| w[0] <= w[1]));
        let old_len = v.len();
        v.resize(old_len + positions.len(), ActorId(u64::MAX));
        let mut src_end = old_len;
        for j in (0..positions.len()).rev() {
            let p = positions[j];
            v.copy_within(p..src_end, p + j + 1);
            v[p + j] = item(j);
            src_end = p;
        }
    }

    /// Walks `list` (sorted so equal group keys are adjacent) as runs,
    /// invoking `f` once per `(key, run)`.
    fn runs<K: PartialEq + Copy, V>(list: &[(K, V)], mut f: impl FnMut(K, &[(K, V)])) {
        let mut i = 0;
        while i < list.len() {
            let k = list[i].0;
            let mut j = i + 1;
            while j < list.len() && list[j].0 == k {
                j += 1;
            }
            f(k, &list[i..j]);
            i = j;
        }
    }

    /// Splices each run of `rm` (ids ascending per run, all present) out of
    /// its id-ordered group; emptied groups leave the map.
    fn remove_ids_runs<K: Ord + Copy>(
        map: &mut BTreeMap<K, Vec<ActorId>>,
        rm: &[(K, ActorId)],
        pos: &mut Vec<usize>,
    ) {
        Self::runs(rm, |k, run| {
            let Some(group) = map.get_mut(&k) else {
                debug_assert!(false, "removal from a group that does not exist");
                return;
            };
            pos.clear();
            for &(_, id) in run {
                let p = group.partition_point(|&x| x.0 < id.0);
                debug_assert!(
                    group.get(p) == Some(&id),
                    "a batched removal named an id absent from its group"
                );
                pos.push(p);
            }
            Self::splice_out(group, pos);
            if group.is_empty() {
                map.remove(&k);
            }
        });
    }

    /// Splices each run of `ins` (ids ascending per run, none present) into
    /// its id-ordered group, creating absent groups.
    fn insert_ids_runs<K: Ord + Copy>(
        map: &mut BTreeMap<K, Vec<ActorId>>,
        ins: &[(K, ActorId)],
        pos: &mut Vec<usize>,
    ) {
        Self::runs(ins, |k, run| {
            let group = map.entry(k).or_default();
            pos.clear();
            for &(_, id) in run {
                pos.push(group.partition_point(|&x| x.0 < id.0));
            }
            Self::splice_in(group, |j| run[j].1, pos);
        });
    }

    /// Returns the snapshot generation this frame was built from.
    pub fn generation(&self) -> u64 {
        self.snap.generation
    }

    /// Returns the stats row of `id`, if the actor is in the frame: in the
    /// snapshot and hosted on one of the frame's servers.
    pub(crate) fn lookup(&self, id: ActorId) -> Option<&ActorWindowStats> {
        self.snap.actor(id).filter(|a| self.scope_has(a.server))
    }

    /// Returns the metadata of every frame server.
    pub fn servers(&self) -> &[ServerMeta] {
        &self.servers
    }

    /// Returns the metadata of one frame server.
    pub fn server(&self, id: ServerId) -> Option<&ServerMeta> {
        self.server_idx.get(&id).map(|&i| &self.servers[i])
    }

    /// Resolves an EPL type name against the application's registry.
    pub fn type_id(&self, name: &str) -> Option<ActorTypeId> {
        self.type_names.get(name).copied()
    }

    /// Resolves a function name against the application's registry.
    pub fn fn_id(&self, name: &str) -> Option<FnId> {
        self.fn_names.get(name).copied()
    }

    /// Binds a type pattern to a selector over the frame's registry.
    pub fn type_sel(&self, pattern: &AType) -> TypeSel {
        match pattern {
            AType::Any => TypeSel::Any,
            AType::Named(name) => match self.type_id(name) {
                Some(t) => TypeSel::Id(t),
                None => TypeSel::Unknown,
            },
        }
    }

    /// The `(cpu_share, id)`-ascending copy of a selector's group, sorting
    /// its family on the first query against this generation.
    fn cpu_group(&self, sel: TypeSel, on_server: Option<ServerId>) -> Option<&CpuGroup> {
        let sorted = &self.cpu_sorted;
        match (sel, on_server) {
            (TypeSel::Unknown, _) => None,
            (TypeSel::Any, None) => Some(sorted.all.get_or_init(|| {
                sort_by_cpu(self.snap.actors().filter(|a| self.scope_has(a.server)))
            })),
            (TypeSel::Any, Some(s)) => sorted
                .by_server
                .get_or_init(|| self.sort_family(&self.by_server))
                .get(&s),
            (TypeSel::Id(t), None) => sorted
                .by_type
                .get_or_init(|| self.sort_family(&self.by_type))
                .get(&t),
            (TypeSel::Id(t), Some(s)) => sorted
                .by_server_type
                .get_or_init(|| self.sort_family(&self.by_server_type))
                .get(&(s, t)),
        }
    }

    /// Sorts every group of an id-ordered family by `(cpu_share, id)`.
    fn sort_family<K: Ord + Copy>(
        &self,
        family: &BTreeMap<K, Vec<ActorId>>,
    ) -> BTreeMap<K, CpuGroup> {
        family
            .iter()
            .map(|(&k, ids)| (k, sort_by_cpu(ids.iter().filter_map(|&id| self.lookup(id)))))
            .collect()
    }

    /// Asserts this frame's indexes are identical — contents *and* order —
    /// to `oracle`'s (a frame freshly rebuilt from the same snapshot and
    /// scope). Used by the churn property tests and the maintenance bench.
    pub fn assert_same_indexes(&self, oracle: &EvalFrame) {
        assert_eq!(self.snap.generation, oracle.snap.generation, "generation");
        assert_eq!(self.servers, oracle.servers, "server metadata");
        assert_eq!(self.server_idx, oracle.server_idx, "server index");
        assert_eq!(self.by_type, oracle.by_type, "by_type");
        assert_eq!(self.by_server, oracle.by_server, "by_server");
        assert_eq!(self.by_server_type, oracle.by_server_type, "by_server_type");
    }
}

/// A scoped, immutable view over one profiling snapshot.
///
/// A context narrows a frame to the servers one consumer manages; all
/// candidate enumeration stays index-driven on the shared frame, filtered
/// by scope where the scope is partial.
pub struct EvalCtx<'a> {
    frame: &'a EvalFrame,
    /// Servers in scope, in scope order.
    pub servers: Vec<ServerMeta>,
    /// `None` when the scope covers the whole frame.
    scope: Option<BTreeMap<ServerId, ()>>,
    /// In-scope actor rows, in id order; built on the first
    /// [`EvalCtx::actors`] call, since most rounds never need the list.
    actors: OnceCell<Vec<&'a ActorWindowStats>>,
    /// Actor rows handed out so far; see [`EvalCtx::rows_examined`].
    rows: Cell<u64>,
}

impl<'a> EvalCtx<'a> {
    /// Borrows the round's shared frame, narrowed to `scope` servers.
    /// Servers absent from the frame (not running at build time) are
    /// skipped.
    pub fn scoped(frame: &'a EvalFrame, scope: &[ServerId]) -> Self {
        let servers = scope
            .iter()
            .filter_map(|&sid| frame.server(sid))
            .copied()
            .collect();
        Self::over(frame, servers)
    }

    /// Builds a context from wire-carried LEM report rows — the QREPLY
    /// candidates of one GEM query, already merged into scope order.
    ///
    /// Each row decodes bit-for-bit into the `ServerMeta` the
    /// shared-snapshot path computes, so a context built this way is
    /// interchangeable with [`EvalCtx::scoped`] over the same scope: same
    /// servers in the same order, same in-scope actor rows. The EMR
    /// debug-asserts that equivalence every round; it is what keeps
    /// decision digests byte-identical with the control plane on the
    /// wire.
    pub fn for_reports(frame: &'a EvalFrame, reports: &[ServerReport]) -> Self {
        Self::over(frame, reports.iter().map(ServerMeta::from_report).collect())
    }

    fn over(frame: &'a EvalFrame, servers: Vec<ServerMeta>) -> Self {
        let scope = (servers.len() != frame.servers.len())
            .then(|| servers.iter().map(|s| (s.id, ())).collect());
        EvalCtx {
            frame,
            servers,
            scope,
            actors: OnceCell::new(),
            rows: Cell::new(0),
        }
    }

    /// How many actor rows this context has handed its callers: every row
    /// returned by [`EvalCtx::actors`], [`EvalCtx::actors_matching`] and
    /// the index selections, plus every [`EvalCtx::actor`] hit. A
    /// deterministic measure of evaluator work: the indexed solver and the
    /// naive walker read the same rows through the same accessors.
    pub fn rows_examined(&self) -> u64 {
        self.rows.get()
    }

    fn hand_out(&self, rows: usize) {
        self.rows.set(self.rows.get() + rows as u64);
    }

    pub(crate) fn frame(&self) -> &'a EvalFrame {
        self.frame
    }

    fn in_scope(&self, sid: ServerId) -> bool {
        match &self.scope {
            Some(set) => set.contains_key(&sid),
            None => self.frame.scope_has(sid),
        }
    }

    /// Returns the window length in seconds.
    pub fn window_secs(&self) -> f64 {
        self.frame.snap.window.as_secs_f64().max(1e-9)
    }

    /// Returns every in-scope actor, in id order.
    pub fn actors(&self) -> &[&'a ActorWindowStats] {
        let rows = self.in_scope_rows();
        self.hand_out(rows.len());
        rows
    }

    fn in_scope_rows(&self) -> &[&'a ActorWindowStats] {
        self.actors.get_or_init(|| {
            self.frame
                .snap
                .actors()
                .filter(|a| self.in_scope(a.server))
                .collect()
        })
    }

    /// Returns the stats of one actor, if in scope.
    pub fn actor(&self, id: ActorId) -> Option<&'a ActorWindowStats> {
        let a = self.frame.lookup(id)?;
        if self.in_scope(a.server) {
            self.hand_out(1);
            Some(a)
        } else {
            None
        }
    }

    /// Returns the server metadata for `id`, if in scope.
    pub fn server(&self, id: ServerId) -> Option<&ServerMeta> {
        self.servers.iter().find(|s| s.id == id)
    }

    /// Resolves an EPL type name against the application's registry.
    pub fn type_id(&self, name: &str) -> Option<ActorTypeId> {
        self.frame.type_id(name)
    }

    /// Resolves a function name against the application's registry.
    pub fn fn_id(&self, name: &str) -> Option<FnId> {
        self.frame.fn_id(name)
    }

    /// Returns whether an actor's type matches an EPL type pattern.
    pub fn matches_type(&self, actor: &ActorWindowStats, pattern: &AType) -> bool {
        self.type_sel(pattern).matches(actor)
    }

    /// Binds a type pattern to a selector over this context's registry.
    pub fn type_sel(&self, pattern: &AType) -> TypeSel {
        self.frame.type_sel(pattern)
    }

    /// Returns the in-scope actors matching a type pattern, optionally
    /// restricted to one server, in id order.
    pub fn actors_matching(
        &self,
        pattern: &AType,
        on_server: Option<ServerId>,
    ) -> Vec<&'a ActorWindowStats> {
        self.select(self.type_sel(pattern), on_server)
    }

    /// Index-driven candidate enumeration: in-scope actors matching `sel`,
    /// optionally on one server, in id order.
    pub(crate) fn select(
        &self,
        sel: TypeSel,
        on_server: Option<ServerId>,
    ) -> Vec<&'a ActorWindowStats> {
        let frame = self.frame;
        let rows_of = |group: Option<&'a Vec<ActorId>>| {
            group
                .into_iter()
                .flatten()
                .filter_map(move |&id| frame.lookup(id))
        };
        let rows: Vec<_> = match (sel, on_server) {
            (TypeSel::Unknown, _) => Vec::new(),
            (_, Some(s)) if !self.in_scope(s) => Vec::new(),
            (TypeSel::Any, None) => self.in_scope_rows().to_vec(),
            (TypeSel::Any, Some(s)) => rows_of(frame.by_server.get(&s)).collect(),
            (TypeSel::Id(t), Some(s)) => rows_of(frame.by_server_type.get(&(s, t))).collect(),
            // A type group spans the frame; a partial scope filters it.
            (TypeSel::Id(t), None) => match &self.scope {
                None => rows_of(frame.by_type.get(&t)).collect(),
                Some(set) => rows_of(frame.by_type.get(&t))
                    .filter(|a| set.contains_key(&a.server))
                    .collect(),
            },
        };
        self.hand_out(rows.len());
        rows
    }

    /// Threshold-pruned enumeration for `actor.cpu.perc comp val`
    /// conditions: candidates whose `cpu_share * 100` satisfies `comp`
    /// against `val`, selected by `partition_point` over the frame's
    /// cpu-sorted copy of the group, which the first such query against a
    /// generation sorts. The comparison applied is bit-identical to the
    /// per-candidate check, so the result set matches a full scan exactly;
    /// output order is unspecified (callers dedupe).
    pub(crate) fn select_cpu_threshold(
        &self,
        sel: TypeSel,
        on_server: Option<ServerId>,
        comp: Comp,
        val: f64,
    ) -> Vec<&'a ActorWindowStats> {
        if let Some(s) = on_server {
            if !self.in_scope(s) {
                return Vec::new();
            }
        }
        let frame = self.frame;
        let Some(group) = frame.cpu_group(sel, on_server) else {
            return Vec::new();
        };
        // The sort keys are each actor's `cpu_share`, so thresholding on
        // them matches the per-candidate check exactly.
        let pass = |&(key, _): &(f64, ActorId)| comp.eval(key * 100.0, val);
        // `cpu_share` ascends along the group and every `Comp` is a
        // half-line, so passing candidates form a prefix (Lt/Le) or a
        // suffix (Gt/Ge).
        let hits = match comp {
            Comp::Gt | Comp::Ge => &group[group.partition_point(|e| !pass(e))..],
            Comp::Lt | Comp::Le => &group[..group.partition_point(pass)],
        };
        let needs_scope_filter = on_server.is_none() && self.scope.is_some();
        let rows: Vec<_> = hits
            .iter()
            .filter_map(|&(_, id)| frame.lookup(id))
            .filter(|a| !needs_scope_filter || self.in_scope(a.server))
            .collect();
        self.hand_out(rows.len());
        rows
    }

    /// Returns an actor's utilization fraction of its server for `res`.
    pub fn actor_usage(&self, actor: &ActorWindowStats, res: Res) -> f64 {
        match res {
            Res::Cpu => actor.cpu_share,
            Res::Mem => {
                let cap = self
                    .server(actor.server)
                    .map(|s| s.mem_bytes)
                    .unwrap_or(u64::MAX);
                if cap == 0 {
                    0.0
                } else {
                    actor.state_size as f64 / cap as f64
                }
            }
            Res::Net => {
                let bps = self
                    .server(actor.server)
                    .map(|s| s.net_bps)
                    .unwrap_or(f64::INFINITY);
                let recv: u64 = actor.counters.calls.values().map(|s| s.bytes).sum();
                let bits = (actor.counters.bytes_sent + recv) as f64 * 8.0;
                if bps <= 0.0 {
                    0.0
                } else {
                    bits / (bps * self.window_secs())
                }
            }
        }
    }
}
