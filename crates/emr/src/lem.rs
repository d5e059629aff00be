//! Local Elasticity Manager planning (Alg. 1): interaction rules.
//!
//! LEMs own the `[r-i]` behaviors: `pin` marks actors immovable,
//! `colocate` pulls interacting actors onto one server, `separate` pushes
//! coexisting heavy actors apart. Planning is pure: it reads an [`EvalCtx`]
//! and produces [`Action`]s; the EMR applies them after conflict resolution
//! and admission control.
//!
//! [`plan`] solves every rule and walks every pair each round. The EMR
//! runs [`RetainedLem`] instead, which produces the same [`LemPlan`] but
//! keeps the pairs of *pair-only* rules across rounds: rules whose
//! condition is structural (only `in ref` and `true` steps) and whose
//! behaviors are all `colocate` or `separate` over partners the condition
//! binds in every environment.
//!
//! - Such a rule keeps its pair list, an id-indexed adjacency and the set
//!   of pairs whose current placement can fire while no actor was added or
//!   removed, no reference map changed, the scope and the rule's bound type
//!   selectors are the same and, under a partial scope (a server draining),
//!   no actor moved. Under those conditions a fresh solve returns the same
//!   environments, so the same pairs.
//! - A pair outside the triggered set, neither of whose partners has a
//!   planned destination, is one [`plan`] returns from without effect, so
//!   the pass visits just the other pairs, in the same order.
//!
//! Every other rule is solved and planned every round, as in [`plan`].

use std::collections::{BTreeMap, BTreeSet};

use plasma_actor::ids::ActorId;
use plasma_actor::stats::{ActorWindowStats, SnapshotDelta};
use plasma_cluster::ServerId;
use plasma_epl::ast::Behavior;
use plasma_epl::plan::{CondPlan, StepCond};

use crate::action::{Action, ActionKind, RuleStat};
use crate::eval::{expand_behavior_ref, solve_bound, BehaviorRef, BoundPolicy, BoundRule, Env};
use crate::view::{EvalCtx, TypeSel};

/// The outcome of one LEM planning pass.
#[derive(Debug, Default)]
pub struct LemPlan {
    /// Proposed colocate/separate migrations.
    pub actions: Vec<Action>,
    /// Actors to pin.
    pub pins: Vec<ActorId>,
    /// Per-rule evaluation tallies, in evaluation order (for tracing).
    pub rule_stats: Vec<RuleStat>,
    /// Pairs handed to the per-pair planner.
    pub pairs_planned: u64,
    /// Whether a pair-only rule reused the pairs retained from an earlier
    /// pass instead of being solved again.
    pub reused_envs: bool,
}

/// Plans interaction-rule actions over the whole snapshot.
///
/// `pending_dst` holds this round's already-planned resource migrations
/// (reserve/balance), so a `colocate` partner follows its companion to the
/// *new* server rather than chasing the old one — this is what makes the
/// Metadata Server rule (`reserve(fo, cpu); colocate(fo, fi);`) move the
/// files along with the folder.
pub fn plan(
    policy: &BoundPolicy<'_>,
    ctx: &EvalCtx<'_>,
    pending_dst: &BTreeMap<ActorId, ServerId>,
    upper_bound: f64,
    reserved_servers: &BTreeSet<ServerId>,
) -> LemPlan {
    let mut round = Round::new(ctx, pending_dst, upper_bound, reserved_servers);
    for bound in &policy.rules {
        if bound.rule.has_interaction_behavior() {
            round.plan_envs(bound, &solve_bound(bound, ctx));
        }
    }
    round.finish()
}

/// LEM state kept across decision rounds, so that a pass costs what changed
/// rather than what exists (see the module docs). Its [`RetainedLem::plan`]
/// returns exactly what [`plan`] returns on the same inputs.
#[derive(Default)]
pub struct RetainedLem {
    /// Frame generation and scope of the last pass.
    last: Option<(u64, Vec<ServerId>)>,
    /// The retained pairs of each pair-only rule, indexed like
    /// `BoundPolicy::rules`; `None` for every other rule.
    rules: Vec<Option<RetainedRule>>,
}

/// One pair-only rule's pairs, with the bound type selectors they were
/// solved under.
struct RetainedRule {
    sels: Vec<TypeSel>,
    index: PairIndex,
}

impl RetainedLem {
    /// Plans like [`plan`], reusing what earlier passes solved.
    ///
    /// `change` is the delta the frame under `ctx` was advanced by since
    /// the previous pass, or `None` when the frame was rebuilt (which drops
    /// everything retained).
    pub fn plan(
        &mut self,
        policy: &BoundPolicy<'_>,
        ctx: &EvalCtx<'_>,
        pending_dst: &BTreeMap<ActorId, ServerId>,
        upper_bound: f64,
        reserved_servers: &BTreeSet<ServerId>,
        change: Option<&SnapshotDelta>,
    ) -> LemPlan {
        let frame = ctx.frame();
        let scope: Vec<ServerId> = ctx.servers.iter().map(|s| s.id).collect();
        // Under a partial scope a move can carry an actor into or out of
        // it, which changes what a structural condition matches.
        let partial = ctx.servers.len() != frame.servers().len();
        let unchanged = change.filter(|d| {
            self.last.as_ref().is_some_and(|(generation, last_scope)| {
                *generation == d.from_generation && *last_scope == scope
            }) && d.added.is_empty()
                && d.removed.is_empty()
                && d.refs_changed.is_empty()
                && (!partial || d.moved.is_empty())
        });
        self.last = Some((frame.generation(), scope));
        self.rules.resize_with(policy.rules.len(), || None);
        let mut round = Round::new(ctx, pending_dst, upper_bound, reserved_servers);
        let mut reused_envs = false;
        for (bound, slot) in policy.rules.iter().zip(&mut self.rules) {
            if !bound.rule.has_interaction_behavior() {
                continue;
            }
            let Some(behaviors) = pair_behaviors(bound) else {
                round.plan_envs(bound, &solve_bound(bound, ctx));
                continue;
            };
            let kept = match (slot.take(), unchanged) {
                (Some(mut kept), Some(delta)) if kept.sels == bound.type_sels() => {
                    reused_envs = true;
                    kept.index.refresh(&delta.moved, ctx);
                    kept
                }
                _ => RetainedRule {
                    sels: bound.type_sels().to_vec(),
                    index: PairIndex::build(behaviors, &solve_bound(bound, ctx), ctx),
                },
            };
            round.plan_index(bound.rule.index, &kept.index);
            *slot = Some(kept);
        }
        let mut plan = round.finish();
        plan.reused_envs = reused_envs;
        plan
    }
}

/// The pair behaviors of a pair-only rule, each with the variable slots of
/// its two partners, or `None` when the rule is solved every round: its
/// condition compares a statistic, it pins, or a `colocate`/`separate`
/// names a partner some environment may leave unbound.
fn pair_behaviors(bound: &BoundRule<'_>) -> Option<Vec<(PairRule, [usize; 2])>> {
    let bound_slots = bound_slots(&bound.rule.plan.cond)?;
    let partner = |r: BehaviorRef| r.slot.filter(|s| bound_slots.contains(s));
    let mut behaviors = Vec::new();
    for (cb, refs) in bound.behaviors() {
        if let Behavior::Pin(_) = cb.behavior {
            return None;
        }
        if let Some(mode) = PairMode::of(&cb.behavior) {
            let pair = PairRule {
                rule: bound.rule.index,
                priority: cb.priority,
                mode,
            };
            behaviors.push((pair, [partner(refs[0])?, partner(refs[1])?]));
        }
    }
    Some(behaviors)
}

/// The variable slots every environment of a structural condition binds,
/// or `None` when the condition compares a statistic. Its environments are
/// then a function of the in-scope actors, their types and their reference
/// maps.
fn bound_slots(cond: &CondPlan) -> Option<BTreeSet<usize>> {
    let mut slots = BTreeSet::new();
    for step in &cond.steps {
        match step {
            StepCond::True => {}
            StepCond::InRef { member, owner, .. } => {
                slots.extend(member.slot.into_iter().chain(owner.slot));
            }
            StepCond::Or(branches) => {
                let mut common: Option<BTreeSet<usize>> = None;
                for branch in branches {
                    let branch = bound_slots(branch)?;
                    common = Some(match common {
                        Some(c) => c.intersection(&branch).copied().collect(),
                        None => branch,
                    });
                }
                slots.extend(common.unwrap_or_default());
            }
            StepCond::Compare { .. } => return None,
        }
    }
    Some(slots)
}

/// The pairs of a pair-only rule, in planning order (environment-major,
/// then behavior order), with what a pass needs to visit only the pairs
/// that can act.
struct PairIndex {
    /// The rule's pair behaviors; pair `k` plans for `behaviors[k % len]`.
    behaviors: Vec<PairRule>,
    /// How many environments the rule matched.
    matches: u64,
    /// Both partners of every pair.
    pairs: Vec<(ActorId, ActorId)>,
    /// Dense adjacency indexed by actor id: the pairs naming actor `i` are
    /// `adj[start[i]..start[i + 1]]`, ascending.
    start: Vec<u32>,
    adj: Vec<u32>,
    /// Pairs whose current placement can fire: colocate partners apart,
    /// separate partners together.
    triggered: BTreeSet<u32>,
}

impl PairIndex {
    /// Indexes the pairs `behaviors` name under each of `envs`.
    fn build(behaviors: Vec<(PairRule, [usize; 2])>, envs: &[Env], ctx: &EvalCtx<'_>) -> Self {
        let partner = |env: &Env, slot: usize| {
            env.var(slot)
                .expect("a pair-only rule's condition binds both partners")
        };
        let pairs: Vec<(ActorId, ActorId)> = envs
            .iter()
            .flat_map(|env| {
                behaviors
                    .iter()
                    .map(move |&(_, [a, b])| (partner(env, a), partner(env, b)))
            })
            .collect();
        let behaviors = behaviors.into_iter().map(|(pair, _)| pair).collect();
        let width = pairs
            .iter()
            .map(|&(a, b)| a.0.max(b.0) as usize + 1)
            .max()
            .unwrap_or(0);
        // A pair naming one actor twice never acts, so it needs no edges.
        let linked = || pairs.iter().enumerate().filter(|(_, (a, b))| a != b);
        let mut start = vec![0u32; width + 1];
        for (_, &(a, b)) in linked() {
            start[a.0 as usize + 1] += 1;
            start[b.0 as usize + 1] += 1;
        }
        for i in 1..start.len() {
            start[i] += start[i - 1];
        }
        let mut next = start.clone();
        let mut adj = vec![0u32; start[width] as usize];
        for (k, &(a, b)) in linked() {
            for x in [a, b] {
                let slot = &mut next[x.0 as usize];
                adj[*slot as usize] = k as u32;
                *slot += 1;
            }
        }
        let mut index = PairIndex {
            behaviors,
            matches: envs.len() as u64,
            pairs,
            start,
            adj,
            triggered: BTreeSet::new(),
        };
        index.triggered = (0..index.pairs.len() as u32)
            .filter(|&k| index.can_fire(k, ctx))
            .collect();
        index
    }

    fn behavior(&self, k: u32) -> &PairRule {
        &self.behaviors[k as usize % self.behaviors.len()]
    }

    /// The pairs naming `actor`, ascending.
    fn pairs_of(&self, actor: ActorId) -> &[u32] {
        let i = actor.0 as usize;
        match (self.start.get(i), self.start.get(i + 1)) {
            (Some(&lo), Some(&hi)) => &self.adj[lo as usize..hi as usize],
            _ => &[],
        }
    }

    /// Whether pair `k`'s partners, where they are now, are placed the way
    /// its behavior repairs. A pair naming one actor twice, or an actor
    /// outside the scope, never fires.
    fn can_fire(&self, k: u32, ctx: &EvalCtx<'_>) -> bool {
        let (a, b) = self.pairs[k as usize];
        let together = match (ctx.actor(a), ctx.actor(b)) {
            (Some(x), Some(y)) if a != b => x.server == y.server,
            _ => return false,
        };
        match self.behavior(k).mode {
            PairMode::Colocate => !together,
            PairMode::Separate => together,
        }
    }

    /// Re-derives the triggered pairs of every actor in `moved`.
    fn refresh(&mut self, moved: &[ActorId], ctx: &EvalCtx<'_>) {
        let mut triggered = std::mem::take(&mut self.triggered);
        for &actor in moved {
            for &k in self.pairs_of(actor) {
                if self.can_fire(k, ctx) {
                    triggered.insert(k);
                } else {
                    triggered.remove(&k);
                }
            }
        }
        self.triggered = triggered;
    }
}

#[derive(Clone, Copy)]
enum PairMode {
    Colocate,
    Separate,
}

impl PairMode {
    /// The pair mode of a `colocate` or `separate` behavior.
    fn of(behavior: &Behavior) -> Option<Self> {
        match behavior {
            Behavior::Colocate(..) => Some(PairMode::Colocate),
            Behavior::Separate(..) => Some(PairMode::Separate),
            Behavior::Pin(_) | Behavior::Balance { .. } | Behavior::Reserve { .. } => None,
        }
    }
}

/// The `colocate`/`separate` behavior a pair is planned for.
struct PairRule {
    rule: usize,
    priority: u32,
    mode: PairMode,
}

/// The LEM pass's state within one round.
struct Round<'a, 'c> {
    ctx: &'a EvalCtx<'c>,
    upper_bound: f64,
    reserved_servers: &'a BTreeSet<ServerId>,
    /// Actors pinned by this round's `pin` behaviors so far.
    pins: BTreeSet<ActorId>,
    /// Where actors will be once this round's actions (resource ones and
    /// our own) are applied.
    future: BTreeMap<ActorId, ServerId>,
    /// Planned arrivals per server, so consecutive `separate` pairs fan
    /// out to distinct targets.
    incoming: BTreeMap<ServerId, usize>,
    actions: Vec<Action>,
    rule_stats: Vec<RuleStat>,
    pairs_planned: u64,
}

impl<'a, 'c> Round<'a, 'c> {
    fn new(
        ctx: &'a EvalCtx<'c>,
        pending_dst: &BTreeMap<ActorId, ServerId>,
        upper_bound: f64,
        reserved_servers: &'a BTreeSet<ServerId>,
    ) -> Self {
        let mut incoming = BTreeMap::new();
        for dst in pending_dst.values() {
            *incoming.entry(*dst).or_insert(0) += 1;
        }
        Round {
            ctx,
            upper_bound,
            reserved_servers,
            pins: BTreeSet::new(),
            future: pending_dst.clone(),
            incoming,
            actions: Vec::new(),
            rule_stats: Vec::new(),
            pairs_planned: 0,
        }
    }

    fn finish(self) -> LemPlan {
        LemPlan {
            actions: self.actions,
            pins: self.pins.into_iter().collect(),
            rule_stats: self.rule_stats,
            pairs_planned: self.pairs_planned,
            reused_envs: false,
        }
    }

    fn push_rule_stat(&mut self, rule: usize, matches: u64, actions_before: usize) {
        self.rule_stats.push(RuleStat {
            rule,
            matches,
            actions: (self.actions.len() - actions_before) as u64,
        });
    }

    /// Plans every behavior of `bound` under each of its environments.
    fn plan_envs(&mut self, bound: &BoundRule<'_>, envs: &[Env]) {
        let rule = bound.rule;
        let actions_before = self.actions.len();
        for env in envs {
            for (cb, refs) in bound.behaviors() {
                if let Behavior::Pin(_) = cb.behavior {
                    self.pins
                        .extend(expand_behavior_ref(refs[0], env, self.ctx));
                }
                let Some(mode) = PairMode::of(&cb.behavior) else {
                    continue;
                };
                let pair = PairRule {
                    rule: rule.index,
                    priority: cb.priority,
                    mode,
                };
                self.plan_pair(&pair, env, refs[0], refs[1]);
            }
        }
        self.push_rule_stat(rule.index, envs.len() as u64, actions_before);
    }

    /// Plans a pair-only rule from its index: in pair order, the triggered
    /// pairs and the pairs naming an actor with a planned destination —
    /// the pending moves, and each mover as it is planned, for the pairs
    /// after it. [`Round::plan_one`] returns from every other pair without
    /// effect, so the actions match the full loop's.
    fn plan_index(&mut self, rule: usize, index: &PairIndex) {
        let actions_before = self.actions.len();
        let mut queue = index.triggered.clone();
        for &actor in self.future.keys() {
            queue.extend(index.pairs_of(actor));
        }
        while let Some(k) = queue.pop_first() {
            let (a, b) = index.pairs[k as usize];
            let planned = self.actions.len();
            self.plan_one(index.behavior(k), a, b);
            if let Some(action) = self.actions.get(planned) {
                queue.extend(index.pairs_of(action.actor).iter().filter(|&&j| j > k));
            }
        }
        self.push_rule_stat(rule, index.matches, actions_before);
    }

    /// Plans the pairs one environment names for a pair behavior.
    fn plan_pair(&mut self, pair: &PairRule, env: &Env, a: BehaviorRef, b: BehaviorRef) {
        // Both partners bound: the environment names exactly that pair.
        if let (Some(ax), Some(bx)) = (a.bound(env), b.bound(env)) {
            self.plan_one(pair, ax, bx);
            return;
        }
        let axs = expand_behavior_ref(a, env, self.ctx);
        let bxs = expand_behavior_ref(b, env, self.ctx);
        let pairs: Vec<(ActorId, ActorId)> = if axs.len() == 1 {
            bxs.iter().map(|&b| (axs[0], b)).collect()
        } else if bxs.len() == 1 {
            axs.iter().map(|&a| (a, bxs[0])).collect()
        } else if matches!(pair.mode, PairMode::Separate) {
            // `separate(Leaf(a), Leaf(b))` with both sides unbound means
            // "spread these actors out": pair up co-resident actors.
            let mut all: Vec<ActorId> = axs.iter().chain(bxs.iter()).copied().collect();
            all.sort_unstable();
            all.dedup();
            let mut by_server: BTreeMap<ServerId, Vec<ActorId>> = BTreeMap::new();
            for id in all {
                if let Some(stats) = self.ctx.actor(id) {
                    by_server.entry(stats.server).or_default().push(id);
                }
            }
            by_server
                .into_values()
                .filter(|group| group.len() > 1)
                .flat_map(|group| {
                    // Keep the first resident; every other one pairs with it.
                    let anchor = group[0];
                    group[1..]
                        .iter()
                        .map(move |&m| (anchor, m))
                        .collect::<Vec<_>>()
                })
                .collect()
        } else {
            // Both sides ambiguous: colocate has no single anchor.
            return;
        };
        for (ax, bx) in pairs {
            self.plan_one(pair, ax, bx);
        }
    }

    /// Plans one pair; partners outside the context's scope are skipped.
    fn plan_one(&mut self, pair: &PairRule, ax: ActorId, bx: ActorId) {
        self.pairs_planned += 1;
        if ax == bx {
            return;
        }
        let ctx = self.ctx;
        let (Some(a), Some(b)) = (ctx.actor(ax), ctx.actor(bx)) else {
            return;
        };
        let (sa, sb) = (a.server, b.server);
        // Where each partner will be after this round's planned actions.
        let fa = self.future.get(&ax).copied().unwrap_or(sa);
        let fb = self.future.get(&bx).copied().unwrap_or(sb);
        let is_pinned = |s: &ActorWindowStats| self.pins.contains(&s.actor) || s.pinned;
        let (mover, target, mover_home, kind) = match pair.mode {
            PairMode::Colocate => {
                if fa == fb {
                    return;
                }
                // Decide the mover. A partner that is already being migrated
                // by a resource action (or is pinned) anchors the pair;
                // otherwise the smaller state moves.
                let (mover, target, mover_home) = if self.future.contains_key(&ax) {
                    (b, fa, sb)
                } else if self.future.contains_key(&bx) {
                    (a, fb, sa)
                } else if is_pinned(a) {
                    (b, fa, sb)
                } else if is_pinned(b) || a.state_size <= b.state_size {
                    (a, fb, sa)
                } else {
                    (b, fa, sb)
                };
                if is_pinned(mover) || mover_home == target {
                    return;
                }
                (mover, target, mover_home, ActionKind::Colocate)
            }
            PairMode::Separate => {
                if fa != fb {
                    return;
                }
                let mover = if is_pinned(b) { a } else { b };
                if is_pinned(mover) {
                    return;
                }
                let mover_home = mover.server;
                // Target: spread across servers - fewest planned arrivals
                // first, then least CPU - excluding the anchor's server and
                // reserved servers.
                let target = ctx
                    .servers
                    .iter()
                    .filter(|s| s.id != fa && !self.reserved_servers.contains(&s.id))
                    .filter(|s| s.cpu < self.upper_bound)
                    .min_by(|x, y| {
                        let ix = self.incoming.get(&x.id).copied().unwrap_or(0);
                        let iy = self.incoming.get(&y.id).copied().unwrap_or(0);
                        ix.cmp(&iy)
                            .then(x.cpu.partial_cmp(&y.cpu).expect("finite usage"))
                    })
                    .map(|s| s.id);
                let Some(target) = target else { return };
                (mover, target, mover_home, ActionKind::Separate)
            }
        };
        self.future.insert(mover.actor, target);
        *self.incoming.entry(target).or_insert(0) += 1;
        self.actions.push(Action {
            actor: mover.actor,
            src: mover_home,
            dst: target,
            kind,
            priority: pair.priority,
            rule: pair.rule,
            trace: None,
        });
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use plasma_actor::ids::ActorTypeId;
    use plasma_actor::stats::{ActorCounters, ProfileSnapshot};
    use plasma_epl::{compile, ActorSchema};
    use plasma_sim::{SimDuration, SimTime};

    use super::*;
    use crate::view::{EvalFrame, ServerMeta};

    /// Owners 0 (s0) and 3 (s2) hold `kids`: 0 -> [1 on s0, 2 on s1, 5 on
    /// s2], 3 -> [4 on s2]. Owners outweigh their kids.
    fn frame() -> EvalFrame {
        let rows: [(u64, u32, u64, &[u64]); 6] = [
            (0, 0, 100, &[1, 2, 5]),
            (1, 0, 10, &[]),
            (2, 1, 10, &[]),
            (3, 2, 100, &[4]),
            (4, 2, 10, &[]),
            (5, 2, 10, &[]),
        ];
        let actors = rows.iter().map(|&(id, server, state_size, kids)| {
            let mut refs = BTreeMap::new();
            if !kids.is_empty() {
                refs.insert(
                    "kids".to_string(),
                    kids.iter().map(|&k| ActorId(k)).collect(),
                );
            }
            ActorWindowStats {
                actor: ActorId(id),
                type_id: ActorTypeId(0),
                server: ServerId(server),
                state_size,
                pinned: false,
                cpu_share: 0.01,
                counters: ActorCounters::default(),
                refs: refs.into(),
            }
        });
        let snap = ProfileSnapshot::from_rows(
            1,
            SimTime::from_secs(1),
            SimDuration::from_secs(1),
            actors,
            Vec::new(),
        );
        let servers = (0..3)
            .map(|i| ServerMeta {
                id: ServerId(i),
                total_speed: 1.0,
                vcpus: 1,
                mem_bytes: 1 << 30,
                net_bps: 1e9,
                cpu: 0.1 * (i + 1) as f64,
                mem: 0.0,
                net: 0.0,
                actor_count: 2,
            })
            .collect();
        let types = [("P".to_string(), ActorTypeId(0))].into();
        EvalFrame::from_parts(Arc::new(snap), servers, types, BTreeMap::new())
    }

    /// Solves `behavior` (over two bound variables) on the whole frame,
    /// then plans every environment's pair in a context narrowed to
    /// `scope`, returning `(actor, src, dst, kind)` per action.
    fn plan_pairs(behavior: &str, scope: &[u32]) -> Vec<(u64, u32, u32, ActionKind)> {
        let mut schema = ActorSchema::new();
        schema.actor_type("P").prop("kids");
        let src = format!("P(b) in ref(P(a).kids) => {behavior};");
        let policy = compile(&src, &schema).expect("test policy compiles");
        let frame = frame();
        let all: Vec<ServerId> = frame.servers().iter().map(|s| s.id).collect();
        let scope: Vec<ServerId> = scope.iter().map(|&s| ServerId(s)).collect();
        let ctx = EvalCtx::scoped(&frame, &scope);
        let bound = BoundPolicy::bind(&policy, &frame);
        let rule = &bound.rules[0];
        let envs = solve_bound(rule, &EvalCtx::scoped(&frame, &all));
        assert_eq!(envs.len(), 4, "every (owner, kid) pair is an environment");
        let reserved = BTreeSet::new();
        let mut round = Round::new(&ctx, &BTreeMap::new(), 0.8, &reserved);
        for env in &envs {
            for (_, refs) in rule.behaviors() {
                assert!(refs.iter().all(|r| r.bound(env).is_some()));
            }
        }
        round.plan_envs(rule, &envs);
        round
            .actions
            .iter()
            .map(|a| (a.actor.0, a.src.0, a.dst.0, a.kind))
            .collect()
    }

    #[test]
    fn only_structural_pair_rules_keep_their_pairs() {
        let mut schema = ActorSchema::new();
        schema.actor_type("P").prop("kids").prop("peers");
        let frame = frame();
        let cases = [
            ("P(b) in ref(P(a).kids) => colocate(a, b);", true),
            (
                "P(b) in ref(P(a).kids) => separate(a, b); colocate(b, a);",
                true,
            ),
            (
                "P(b) in ref(P(a).kids) or P(b) in ref(P(a).peers) => colocate(a, b);",
                true,
            ),
            // The second branch leaves `b` unbound.
            (
                "P(b) in ref(P(a).kids) or P(a) in ref(P(c).peers) => colocate(a, b);",
                false,
            ),
            ("P(b) in ref(P(a).kids) => pin(a); colocate(a, b);", false),
            ("P(b) in ref(P(a).kids) => colocate(a, P(c));", false),
            ("true => separate(P(a), P(b));", false),
            (
                "P(a).mem.perc >= 0 and P(b) in ref(a.kids) => colocate(a, b);",
                false,
            ),
        ];
        for (src, pair_only) in cases {
            let policy = compile(src, &schema).unwrap_or_else(|e| panic!("{src}: {e:?}"));
            let bound = BoundPolicy::bind(&policy, &frame);
            assert_eq!(
                pair_behaviors(&bound.rules[0]).is_some(),
                pair_only,
                "{src}"
            );
        }
    }

    #[test]
    fn bound_pair_with_one_partner_out_of_scope_is_skipped() {
        // Kid 5 (s2) follows owner 0 (s0) when s2 is in scope, and stays
        // put when it is not. Kid 2 moves either way.
        assert_eq!(
            plan_pairs("colocate(a, b)", &[0, 1, 2]),
            vec![
                (2, 1, 0, ActionKind::Colocate),
                (5, 2, 0, ActionKind::Colocate)
            ]
        );
        assert_eq!(
            plan_pairs("colocate(a, b)", &[0, 1]),
            vec![(2, 1, 0, ActionKind::Colocate)]
        );
        // Owner 0 out of scope, kid 2 in it.
        assert_eq!(plan_pairs("colocate(a, b)", &[1]), vec![]);
    }

    #[test]
    fn bound_pair_with_both_partners_out_of_scope_is_skipped() {
        // Only s1 in scope: pairs (0, 1), (3, 4) and (0, 5) lie wholly
        // outside it.
        assert_eq!(plan_pairs("colocate(a, b)", &[1]), vec![]);
        assert_eq!(plan_pairs("separate(a, b)", &[1]), vec![]);
    }

    #[test]
    fn bound_pair_already_colocated_plans_nothing() {
        // (0, 1) shares s0 and (3, 4) shares s2: neither pair moves.
        let planned = plan_pairs("colocate(a, b)", &[0, 1, 2]);
        assert!(planned.iter().all(|&(actor, ..)| actor != 1 && actor != 4));
        assert_eq!(planned.len(), 2);
    }

    #[test]
    fn bound_separate_pair_on_one_server_moves_the_second_partner() {
        // Scope {s0, s1}: only (0, 1) shares a server; kid 1 moves to the
        // one other in-scope server.
        assert_eq!(
            plan_pairs("separate(a, b)", &[0, 1]),
            vec![(1, 0, 1, ActionKind::Separate)]
        );
        // Whole frame: (3, 4) shares s2 as well; kid 4 goes to s0, which
        // has fewer planned arrivals than s1 after the first move.
        assert_eq!(
            plan_pairs("separate(a, b)", &[0, 1, 2]),
            vec![
                (1, 0, 1, ActionKind::Separate),
                (4, 2, 0, ActionKind::Separate)
            ]
        );
    }
}
