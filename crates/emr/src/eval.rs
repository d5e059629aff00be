//! The condition evaluator: computes variable bindings satisfying a rule.
//!
//! Evaluation works over *environments*: partial assignments of the rule's
//! implicit variables (plus the implicit "the server" of `server.*`
//! conditions). Conjunction threads environments left to right, extending
//! them as variables bind; disjunction unions the environments produced by
//! each branch.
//!
//! Scoping semantics (derived from the paper's examples):
//!
//! - `server.res.perc` binds or filters the environment's server.
//! - Actor variables in `Compare` conditions are restricted to the bound
//!   server when one is bound (e.g. "this folder receives more than 40% of
//!   client requests among all Folder actors *on this server*").
//! - `in ref(...)` conditions are *not* server-restricted: references cross
//!   servers, which is exactly what `colocate` repairs.
//! - Variables that first appear in a behavior (e.g.
//!   `reserve(VideoStream(v), cpu)`) expand at instantiation over actors on
//!   the environment's server, or over all in-scope actors when no server
//!   is bound.
//!
//! The solver drives off the rule's scheduled [`plan`](plasma_epl::plan)
//! rather than the raw AST: conjuncts arrive in selectivity order, actor
//! types and function names are bound to registry ids once per round (see
//! [`BoundPolicy`]), and candidate enumeration runs on the
//! [`EvalCtx`] indexes — including `partition_point` pruning for CPU
//! threshold predicates. The pre-plan evaluator survives in [`naive`] as
//! the test oracle; both produce identical environment sets, which the
//! oracle's property tests pin, and the `eval-engine` scenario compares the
//! actor rows each one reads.

use std::cmp::Ordering;
use std::fmt;

use plasma_actor::ids::{ActorId, FnId};
use plasma_actor::message::CallerKind;
use plasma_actor::stats::ActorWindowStats;
use plasma_cluster::ServerId;
use plasma_epl::analyze::{CompiledBehavior, CompiledPolicy, CompiledRule};
use plasma_epl::ast::{ActorRef, Behavior, Comp, Res, Stat};
use plasma_epl::plan::{CallerPlan, CondPlan, FeatPlan, FnSym, RefPlan, StepCond, TypePat};

use crate::view::{EvalCtx, EvalFrame, TypeSel};

/// Variable slots an environment stores inline. Every shipped policy binds
/// at most three variables per rule; environments of a rule with more
/// spill their slots to the heap.
const INLINE_VARS: usize = 3;

/// The variable slots of one environment.
#[derive(Clone)]
enum Slots {
    Inline {
        len: u8,
        vars: [Option<ActorId>; INLINE_VARS],
    },
    Spilled(Box<[Option<ActorId>]>),
}

/// A (partial) satisfying assignment for one rule.
///
/// Environments order by `(server, vars)`, comparing the variable slots
/// lexicographically; that order is what the LEM and GEM enumerate them
/// in, so it feeds action order. A rule's slots live inline (no heap
/// allocation per environment) unless it has more than three variables.
#[derive(Clone)]
pub struct Env {
    /// The server bound by `server.*` conditions, if any.
    pub server: Option<ServerId>,
    slots: Slots,
}

impl Env {
    /// Creates an empty environment for a rule with `nvars` variables.
    pub fn empty(nvars: usize) -> Self {
        let slots = if nvars <= INLINE_VARS {
            Slots::Inline {
                len: nvars as u8,
                vars: [None; INLINE_VARS],
            }
        } else {
            Slots::Spilled(vec![None; nvars].into_boxed_slice())
        };
        Env {
            server: None,
            slots,
        }
    }

    /// Variable slots (indexed like `CompiledRule::vars`).
    pub fn vars(&self) -> &[Option<ActorId>] {
        match &self.slots {
            Slots::Inline { len, vars } => &vars[..*len as usize],
            Slots::Spilled(vars) => vars,
        }
    }

    /// Returns the actor bound to `slot`, if any.
    pub fn var(&self, slot: usize) -> Option<ActorId> {
        self.vars().get(slot).copied().flatten()
    }

    /// Binds `slot` to `actor`.
    fn bind(&mut self, slot: usize, actor: ActorId) {
        let vars = match &mut self.slots {
            Slots::Inline { len, vars } => &mut vars[..*len as usize],
            Slots::Spilled(vars) => vars,
        };
        vars[slot] = Some(actor);
    }

    /// Returns a copy with `slot`, if any, bound to `actor`.
    fn with(&self, slot: Option<usize>, actor: ActorId) -> Env {
        let mut env = self.clone();
        if let Some(s) = slot {
            env.bind(s, actor);
        }
        env
    }
}

impl PartialEq for Env {
    fn eq(&self, other: &Self) -> bool {
        self.server == other.server && self.vars() == other.vars()
    }
}

impl Eq for Env {}

impl Ord for Env {
    fn cmp(&self, other: &Self) -> Ordering {
        self.server
            .cmp(&other.server)
            .then_with(|| self.vars().cmp(other.vars()))
    }
}

impl PartialOrd for Env {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Debug for Env {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Env")
            .field("server", &self.server)
            .field("vars", &self.vars())
            .finish()
    }
}

/// A behavior argument resolved at bind time: the variable slot it names,
/// if any, and the type selector it expands over when unbound.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BehaviorRef {
    /// Variable slot in the rule's environment, if the reference is named.
    pub slot: Option<usize>,
    /// The reference's declared type, bound against the frame's registry.
    pub sel: TypeSel,
}

impl BehaviorRef {
    /// Returns the actor `env` binds this reference to, if any.
    pub fn bound(self, env: &Env) -> Option<ActorId> {
        self.slot.and_then(|s| env.var(s))
    }
}

/// A compiled rule with its plan's symbol tables resolved against one
/// frame's registry: every type symbol becomes a [`TypeSel`] and every
/// function symbol an optional [`FnId`]. Binding happens once per decision
/// round; evaluation then never touches a string.
pub struct BoundRule<'r> {
    /// The underlying compiled rule (behaviors, variable table, AST).
    pub rule: &'r CompiledRule,
    types: Vec<TypeSel>,
    fns: Vec<Option<FnId>>,
    /// Each behavior's actor arguments in argument order, indexed like
    /// `rule.behaviors`.
    behavior_refs: Vec<Vec<BehaviorRef>>,
}

impl<'r> BoundRule<'r> {
    /// Resolves `rule`'s plan symbols and behavior arguments against
    /// `frame`'s name tables.
    pub fn bind(rule: &'r CompiledRule, frame: &EvalFrame) -> Self {
        let types = rule
            .plan
            .type_syms
            .iter()
            .map(|name| match frame.type_id(name) {
                Some(t) => TypeSel::Id(t),
                None => TypeSel::Unknown,
            })
            .collect();
        let fns = rule
            .plan
            .fn_syms
            .iter()
            .map(|name| frame.fn_id(name))
            .collect();
        let bind_ref = |aref: &ActorRef| BehaviorRef {
            slot: match aref {
                ActorRef::Decl(_, v) | ActorRef::Var(v) => rule.var_slot(v),
                ActorRef::Type(_) => None,
            },
            sel: frame.type_sel(&rule.ref_type(aref)),
        };
        let behavior_refs = rule
            .behaviors
            .iter()
            .map(|cb| match &cb.behavior {
                Behavior::Pin(a) | Behavior::Reserve { actor: a, .. } => vec![bind_ref(a)],
                Behavior::Colocate(a, b) | Behavior::Separate(a, b) => {
                    vec![bind_ref(a), bind_ref(b)]
                }
                Behavior::Balance { .. } => Vec::new(),
            })
            .collect();
        BoundRule {
            rule,
            types,
            fns,
            behavior_refs,
        }
    }

    /// The selectors the rule's condition plan binds its type symbols to,
    /// indexed like the plan's `type_syms`. They change when a named type
    /// registers after an earlier bind.
    pub(crate) fn type_sels(&self) -> &[TypeSel] {
        &self.types
    }

    /// The rule's behaviors, each with its actor arguments resolved.
    pub fn behaviors(&self) -> impl Iterator<Item = (&'r CompiledBehavior, &[BehaviorRef])> {
        self.rule
            .behaviors
            .iter()
            .zip(self.behavior_refs.iter().map(Vec::as_slice))
    }

    fn sel(&self, pat: TypePat) -> TypeSel {
        match pat {
            TypePat::Any => TypeSel::Any,
            TypePat::Sym(i) => self.types[i as usize],
        }
    }

    fn fnid(&self, sym: FnSym) -> Option<FnId> {
        self.fns[sym as usize]
    }
}

/// A whole policy bound against one frame (see [`BoundRule`]).
pub struct BoundPolicy<'r> {
    /// One bound rule per policy rule, in policy order.
    pub rules: Vec<BoundRule<'r>>,
}

impl<'r> BoundPolicy<'r> {
    /// Binds every rule of `policy` against `frame`'s name tables.
    pub fn bind(policy: &'r CompiledPolicy, frame: &EvalFrame) -> Self {
        BoundPolicy {
            rules: policy
                .rules
                .iter()
                .map(|r| BoundRule::bind(r, frame))
                .collect(),
        }
    }
}

/// Computes all satisfying environments of `rule` within `ctx`.
///
/// Convenience wrapper that binds the rule against the context's frame on
/// the fly; round-based callers bind once via [`BoundPolicy`] and use
/// [`solve_bound`].
pub fn solve(rule: &CompiledRule, ctx: &EvalCtx<'_>) -> Vec<Env> {
    solve_bound(&BoundRule::bind(rule, ctx.frame()), ctx)
}

/// Computes all satisfying environments of a pre-bound rule within `ctx`.
///
/// The result is sorted by `(server, vars)` and free of duplicates.
pub fn solve_bound(rule: &BoundRule<'_>, ctx: &EvalCtx<'_>) -> Vec<Env> {
    let plan = &rule.rule.plan;
    let start = vec![Env::empty(plan.nvars)];
    // The start list holds one environment and every plan step keeps its
    // list deduplicated, so the result needs no final dedupe.
    let result = solve_plan(&plan.cond, start, rule, ctx);
    debug_assert!(result.windows(2).all(|w| w[0] < w[1]));
    result
}

/// Sorts `envs` by `(server, vars)` and drops duplicates: the order and
/// the set a `BTreeSet` round trip gives.
fn dedupe(envs: &mut Vec<Env>) {
    envs.sort_unstable();
    envs.dedup();
}

fn solve_plan(
    plan: &CondPlan,
    mut envs: Vec<Env>,
    rule: &BoundRule<'_>,
    ctx: &EvalCtx<'_>,
) -> Vec<Env> {
    for step in &plan.steps {
        if envs.is_empty() {
            return envs;
        }
        envs = solve_step(step, envs, rule, ctx);
    }
    envs
}

fn solve_step(
    step: &StepCond,
    mut envs: Vec<Env>,
    rule: &BoundRule<'_>,
    ctx: &EvalCtx<'_>,
) -> Vec<Env> {
    match step {
        StepCond::True => envs,
        StepCond::Or(branches) => {
            let mut out = Vec::new();
            let last = branches.len().saturating_sub(1);
            for (i, branch) in branches.iter().enumerate() {
                let input = if i == last {
                    std::mem::take(&mut envs)
                } else {
                    envs.clone()
                };
                out.extend(solve_plan(branch, input, rule, ctx));
            }
            dedupe(&mut out);
            out
        }
        StepCond::Compare {
            feat,
            stat,
            comp,
            val,
        } => solve_compare(feat, *stat, *comp, *val, envs, rule, ctx),
        StepCond::InRef {
            member,
            owner,
            prop,
        } => solve_inref(*member, *owner, prop, envs, rule, ctx),
    }
}

/// Enumerates candidate actors for a lowered reference under an
/// environment: the binding itself when the slot is already bound,
/// otherwise the context's index group for the reference's type selector
/// (restricted to the environment's server when requested), in id order.
fn plan_candidates<'c>(
    refp: RefPlan,
    env: &Env,
    rule: &BoundRule<'_>,
    ctx: &EvalCtx<'c>,
    restrict_to_server: bool,
) -> Vec<&'c ActorWindowStats> {
    if let Some(actor) = refp.slot.and_then(|s| env.var(s)) {
        return ctx.actor(actor).into_iter().collect();
    }
    let on_server = if restrict_to_server { env.server } else { None };
    ctx.select(rule.sel(refp.ty), on_server)
}

/// Extends `out` with a copy of `env` bound to each of `matches` in turn.
/// With no slot to bind, any match leaves `env` unchanged, so one copy
/// suffices — the per-step dedupe collapses duplicates anyway.
fn push_bindings(
    out: &mut Vec<Env>,
    env: &Env,
    slot: Option<usize>,
    matches: impl IntoIterator<Item = ActorId>,
) {
    let mut matches = matches.into_iter();
    if slot.is_some() {
        out.extend(matches.map(|actor| env.with(slot, actor)));
    } else if matches.next().is_some() {
        out.push(env.clone());
    }
}

fn solve_compare(
    feat: &FeatPlan,
    stat: Stat,
    comp: Comp,
    val: f64,
    envs: Vec<Env>,
    rule: &BoundRule<'_>,
    ctx: &EvalCtx<'_>,
) -> Vec<Env> {
    let mut out = Vec::new();
    match feat {
        FeatPlan::ServerRes(res) => {
            for env in envs {
                match env.server {
                    Some(sid) => {
                        let passes = ctx
                            .server(sid)
                            .is_some_and(|meta| comp.eval(meta.usage(*res) * 100.0, val));
                        if passes {
                            out.push(env);
                        }
                    }
                    None => {
                        for meta in &ctx.servers {
                            if comp.eval(meta.usage(*res) * 100.0, val) {
                                let mut e = env.clone();
                                e.server = Some(meta.id);
                                out.push(e);
                            }
                        }
                    }
                }
            }
        }
        FeatPlan::ActorRes(refp, res) => {
            for env in envs {
                // Bound slot: evaluate the binding directly (no server
                // restriction applies to an existing binding).
                if let Some(bound) = refp.slot.and_then(|s| env.var(s)) {
                    let Some(actor) = ctx.actor(bound) else {
                        continue;
                    };
                    let passes = match stat {
                        Stat::Perc => comp.eval(ctx.actor_usage(actor, *res) * 100.0, val),
                        Stat::Size => comp.eval(actor.state_size as f64, val),
                        Stat::Count => false,
                    };
                    if passes {
                        out.push(env);
                    }
                    continue;
                }
                let sel = rule.sel(refp.ty);
                // `actor.cpu.perc comp val` compares `cpu_share * 100`
                // directly, so the sorted index answers it exactly.
                if *res == Res::Cpu && stat == Stat::Perc {
                    let hits = ctx.select_cpu_threshold(sel, env.server, comp, val);
                    push_bindings(&mut out, &env, refp.slot, hits.iter().map(|a| a.actor));
                } else {
                    let hits = ctx
                        .select(sel, env.server)
                        .into_iter()
                        .filter(|actor| match stat {
                            Stat::Perc => comp.eval(ctx.actor_usage(actor, *res) * 100.0, val),
                            Stat::Size => comp.eval(actor.state_size as f64, val),
                            Stat::Count => false,
                        });
                    push_bindings(&mut out, &env, refp.slot, hits.map(|a| a.actor));
                }
            }
        }
        FeatPlan::Call {
            caller,
            callee,
            fname,
        } => {
            // A function never called this window simply has zero stats.
            let fnid = rule.fnid(*fname);
            for env in envs {
                let callee_cands = plan_candidates(*callee, &env, rule, ctx, true);
                match caller {
                    CallerPlan::Client => {
                        let matches = callee_cands.iter().filter(|cs| {
                            let stat_val = fnid
                                .map(|f| {
                                    call_stat_value(ctx, cs, CallerKind::Client, None, f, stat)
                                })
                                .unwrap_or(0.0);
                            comp.eval(stat_val, val)
                        });
                        push_bindings(&mut out, &env, callee.slot, matches.map(|cs| cs.actor));
                    }
                    CallerPlan::Actor(caller_ref) => {
                        for callee_stats in &callee_cands {
                            let env2 = env.with(callee.slot, callee_stats.actor);
                            let caller_bound = caller_ref.slot.and_then(|s| env2.var(s));
                            // An unrecorded caller always reads a stat of
                            // exactly 0 (count, size, and perc alike). When
                            // zero fails the comparison, only callers this
                            // callee recorded can pass, so iterate the
                            // callee's counter keys instead of every
                            // caller-type candidate in scope.
                            let matches: Vec<ActorId> = match fnid {
                                Some(f) if caller_bound.is_none() && !comp.eval(0.0, val) => {
                                    let caller_sel = rule.sel(caller_ref.ty);
                                    let mut seen: Vec<ActorId> = callee_stats
                                        .counters
                                        .calls
                                        .keys()
                                        .filter(|k| k.fname == f)
                                        .filter_map(|k| k.caller)
                                        .collect();
                                    seen.sort_unstable();
                                    seen.dedup();
                                    seen.into_iter()
                                        .filter(|&cid| {
                                            ctx.actor(cid).is_some_and(|cs| {
                                                caller_sel.matches(cs) && {
                                                    let kind = CallerKind::Actor(cs.type_id);
                                                    let v = call_stat_value(
                                                        ctx,
                                                        callee_stats,
                                                        kind,
                                                        Some(cid),
                                                        f,
                                                        stat,
                                                    );
                                                    comp.eval(v, val)
                                                }
                                            })
                                        })
                                        .collect()
                                }
                                _ => plan_candidates(*caller_ref, &env2, rule, ctx, false)
                                    .iter()
                                    .filter(|caller_stats| {
                                        let kind = CallerKind::Actor(caller_stats.type_id);
                                        let stat_val = fnid
                                            .map(|f| {
                                                call_stat_value(
                                                    ctx,
                                                    callee_stats,
                                                    kind,
                                                    Some(caller_stats.actor),
                                                    f,
                                                    stat,
                                                )
                                            })
                                            .unwrap_or(0.0);
                                        comp.eval(stat_val, val)
                                    })
                                    .map(|caller_stats| caller_stats.actor)
                                    .collect(),
                            };
                            push_bindings(&mut out, &env2, caller_ref.slot, matches);
                        }
                    }
                }
            }
        }
    }
    dedupe(&mut out);
    out
}

/// Computes a call statistic for one callee.
///
/// - `count`: messages per minute (the paper's "per time unit, e.g. 1 min").
/// - `size`: bytes received.
/// - `perc`: this callee's share of such calls among actors of the same
///   type on the same server (the `(server, type)` index group).
fn call_stat_value(
    ctx: &EvalCtx<'_>,
    callee: &ActorWindowStats,
    kind: CallerKind,
    caller: Option<ActorId>,
    fnid: FnId,
    stat: Stat,
) -> f64 {
    let own = match caller {
        Some(c) => callee.counters.calls_from_actor(c, fnid),
        None => callee.counters.calls_from_kind(kind, fnid),
    };
    match stat {
        Stat::Count => own.count as f64 * 60.0 / ctx.window_secs(),
        Stat::Size => own.bytes as f64,
        Stat::Perc => {
            let total: u64 = ctx
                .select(TypeSel::Id(callee.type_id), Some(callee.server))
                .iter()
                .map(|peer| peer.counters.calls_from_kind(kind, fnid).count)
                .sum();
            if total == 0 {
                0.0
            } else {
                own.count as f64 * 100.0 / total as f64
            }
        }
    }
}

fn solve_inref(
    member: RefPlan,
    owner: RefPlan,
    prop: &str,
    envs: Vec<Env>,
    rule: &BoundRule<'_>,
    ctx: &EvalCtx<'_>,
) -> Vec<Env> {
    let mut out = Vec::new();
    let member_sel = rule.sel(member.ty);
    for env in &envs {
        for owner_stats in plan_candidates(owner, env, rule, ctx, false) {
            let Some(refs) = owner_stats.refs.get(prop) else {
                continue;
            };
            let env2 = env.with(owner.slot, owner_stats.actor);
            // Fast path: iterate the owner's reference list rather than all
            // actors of the member type.
            if let Some(bound) = member.slot.and_then(|s| env2.var(s)) {
                if refs.contains(&bound) {
                    out.push(env2);
                }
                continue;
            }
            let matches = refs
                .iter()
                .copied()
                .filter(|&m| ctx.actor(m).is_some_and(|ms| member_sel.matches(ms)));
            push_bindings(&mut out, &env2, member.slot, matches);
        }
    }
    dedupe(&mut out);
    out
}

/// Expands a behavior-side actor reference under a satisfying environment:
/// the bound actor if the variable is bound, otherwise all actors of the
/// type on the environment's server (or in scope when no server is bound),
/// in id order.
pub fn expand_behavior_ref(aref: BehaviorRef, env: &Env, ctx: &EvalCtx<'_>) -> Vec<ActorId> {
    if let Some(actor) = aref.bound(env) {
        return ctx.actor(actor).into_iter().map(|a| a.actor).collect();
    }
    ctx.select(aref.sel, env.server)
        .into_iter()
        .map(|a| a.actor)
        .collect()
}

/// The pre-plan evaluator, retained as the semantic oracle.
///
/// This walks the rule's raw AST condition left to right, resolves names
/// through string lookups per predicate, and enumerates candidates by
/// scanning the full in-scope actor list — no plans, no symbol binding, no
/// indexes. Property tests assert its environment sets match
/// [`solve`] exactly, and the `eval-engine` scenario gates the indexed
/// solver's [`EvalCtx::rows_examined`](crate::view::EvalCtx::rows_examined)
/// against this walker's.
pub mod naive {
    use super::{dedupe, Env};
    use plasma_actor::ids::ActorId;
    use plasma_actor::message::CallerKind;
    use plasma_actor::stats::ActorWindowStats;
    use plasma_cluster::ServerId;
    use plasma_epl::analyze::CompiledRule;
    use plasma_epl::ast::{AType, ActorRef, Caller, Comp, Cond, Feature, Stat};

    use crate::view::EvalCtx;

    /// Computes all satisfying environments of `rule` within `ctx` by
    /// direct AST interpretation.
    pub fn solve(rule: &CompiledRule, ctx: &EvalCtx<'_>) -> Vec<Env> {
        let start = vec![Env::empty(rule.vars.len())];
        let mut result = solve_cond(&rule.cond, start, rule, ctx);
        dedupe(&mut result);
        result
    }

    fn solve_cond(cond: &Cond, envs: Vec<Env>, rule: &CompiledRule, ctx: &EvalCtx<'_>) -> Vec<Env> {
        if envs.is_empty() {
            return envs;
        }
        match cond {
            Cond::True => envs,
            Cond::And(a, b) => {
                let mid = solve_cond(a, envs, rule, ctx);
                solve_cond(b, mid, rule, ctx)
            }
            Cond::Or(a, b) => {
                let mut left = solve_cond(a, envs.clone(), rule, ctx);
                let right = solve_cond(b, envs, rule, ctx);
                left.extend(right);
                dedupe(&mut left);
                left
            }
            Cond::Compare {
                feat,
                stat,
                comp,
                val,
            } => solve_compare(feat, *stat, *comp, *val, envs, rule, ctx),
            Cond::InRef {
                member,
                owner,
                prop,
            } => solve_inref(member, owner, prop, envs, rule, ctx),
        }
    }

    /// Full-scan type matching, independent of the context's indexes.
    fn actors_of_type<'c>(
        ctx: &EvalCtx<'c>,
        pattern: &AType,
        on_server: Option<ServerId>,
    ) -> Vec<&'c ActorWindowStats> {
        ctx.actors()
            .iter()
            .filter(|a| ctx.matches_type(a, pattern))
            .filter(|a| on_server.is_none_or(|s| a.server == s))
            .copied()
            .collect()
    }

    fn candidates<'c>(
        aref: &ActorRef,
        env: &Env,
        rule: &CompiledRule,
        ctx: &EvalCtx<'c>,
        restrict_to_server: bool,
    ) -> Vec<&'c ActorWindowStats> {
        let slot = match aref {
            ActorRef::Decl(_, v) | ActorRef::Var(v) => rule.var_slot(v),
            ActorRef::Type(_) => None,
        };
        if let Some(actor) = slot.and_then(|s| env.var(s)) {
            return ctx.actor(actor).into_iter().collect();
        }
        let atype = rule.ref_type(aref);
        let on_server = if restrict_to_server { env.server } else { None };
        actors_of_type(ctx, &atype, on_server)
    }

    fn bind(aref: &ActorRef, env: &Env, rule: &CompiledRule, actor: ActorId) -> Env {
        match aref {
            ActorRef::Decl(_, v) | ActorRef::Var(v) => env.with(rule.var_slot(v), actor),
            ActorRef::Type(_) => env.clone(),
        }
    }

    fn solve_compare(
        feat: &Feature,
        stat: Stat,
        comp: Comp,
        val: f64,
        envs: Vec<Env>,
        rule: &CompiledRule,
        ctx: &EvalCtx<'_>,
    ) -> Vec<Env> {
        let mut out = Vec::new();
        match feat {
            Feature::ServerRes(res) => {
                for env in envs {
                    match env.server {
                        Some(sid) => {
                            let Some(meta) = ctx.server(sid) else {
                                continue;
                            };
                            if comp.eval(meta.usage(*res) * 100.0, val) {
                                out.push(env);
                            }
                        }
                        None => {
                            for meta in &ctx.servers {
                                if comp.eval(meta.usage(*res) * 100.0, val) {
                                    let mut e = env.clone();
                                    e.server = Some(meta.id);
                                    out.push(e);
                                }
                            }
                        }
                    }
                }
            }
            Feature::ActorRes(aref, res) => {
                for env in envs {
                    for actor in candidates(aref, &env, rule, ctx, true) {
                        let value = match stat {
                            Stat::Perc => ctx.actor_usage(actor, *res) * 100.0,
                            Stat::Size => actor.state_size as f64,
                            Stat::Count => continue,
                        };
                        if comp.eval(value, val) {
                            out.push(bind(aref, &env, rule, actor.actor));
                        }
                    }
                }
            }
            Feature::Call {
                caller,
                callee,
                fname,
            } => {
                let fnid = ctx.fn_id(fname);
                for env in envs {
                    for callee_stats in candidates(callee, &env, rule, ctx, true) {
                        match caller {
                            Caller::Client => {
                                let stat_val = fnid
                                    .map(|f| {
                                        call_stat_value(
                                            ctx,
                                            callee_stats,
                                            CallerKind::Client,
                                            None,
                                            f,
                                            stat,
                                        )
                                    })
                                    .unwrap_or(0.0);
                                if comp.eval(stat_val, val) {
                                    out.push(bind(callee, &env, rule, callee_stats.actor));
                                }
                            }
                            Caller::Actor(caller_ref) => {
                                let env2 = bind(callee, &env, rule, callee_stats.actor);
                                for caller_stats in candidates(caller_ref, &env2, rule, ctx, false)
                                {
                                    let kind = CallerKind::Actor(caller_stats.type_id);
                                    let stat_val = fnid
                                        .map(|f| {
                                            call_stat_value(
                                                ctx,
                                                callee_stats,
                                                kind,
                                                Some(caller_stats.actor),
                                                f,
                                                stat,
                                            )
                                        })
                                        .unwrap_or(0.0);
                                    if comp.eval(stat_val, val) {
                                        out.push(bind(caller_ref, &env2, rule, caller_stats.actor));
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        dedupe(&mut out);
        out
    }

    fn call_stat_value(
        ctx: &EvalCtx<'_>,
        callee: &ActorWindowStats,
        kind: CallerKind,
        caller: Option<ActorId>,
        fnid: plasma_actor::ids::FnId,
        stat: Stat,
    ) -> f64 {
        let own = match caller {
            Some(c) => callee.counters.calls_from_actor(c, fnid),
            None => callee.counters.calls_from_kind(kind, fnid),
        };
        match stat {
            Stat::Count => own.count as f64 * 60.0 / ctx.window_secs(),
            Stat::Size => own.bytes as f64,
            Stat::Perc => {
                let mut total = 0u64;
                for peer in ctx.actors() {
                    if peer.server == callee.server && peer.type_id == callee.type_id {
                        total += peer.counters.calls_from_kind(kind, fnid).count;
                    }
                }
                if total == 0 {
                    0.0
                } else {
                    own.count as f64 * 100.0 / total as f64
                }
            }
        }
    }

    fn solve_inref(
        member: &ActorRef,
        owner: &ActorRef,
        prop: &str,
        envs: Vec<Env>,
        rule: &CompiledRule,
        ctx: &EvalCtx<'_>,
    ) -> Vec<Env> {
        let mut out = Vec::new();
        let member_type = rule.ref_type(member);
        for env in envs {
            for owner_stats in candidates(owner, &env, rule, ctx, false) {
                let Some(refs) = owner_stats.refs.get(prop) else {
                    continue;
                };
                let env2 = bind(owner, &env, rule, owner_stats.actor);
                let member_slot = match member {
                    ActorRef::Decl(_, v) | ActorRef::Var(v) => rule.var_slot(v),
                    ActorRef::Type(_) => None,
                };
                if let Some(bound) = member_slot.and_then(|s| env2.var(s)) {
                    if refs.contains(&bound) {
                        out.push(env2.clone());
                    }
                    continue;
                }
                for &m in refs {
                    let Some(m_stats) = ctx.actor(m) else {
                        continue;
                    };
                    if ctx.matches_type(m_stats, &member_type) {
                        out.push(bind(member, &env2, rule, m));
                    }
                }
            }
        }
        dedupe(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `actor.cpu.perc > X` is answered from the cpu-sorted index: the
    /// context hands the solver exactly the actors past the threshold,
    /// while the naive walker reads every in-scope row.
    #[test]
    fn cpu_threshold_reads_only_its_slice() {
        use std::collections::BTreeMap;
        use std::sync::Arc;

        use plasma_actor::ids::ActorTypeId;
        use plasma_actor::stats::{ActorCounters, ProfileSnapshot};
        use plasma_sim::{SimDuration, SimTime};

        use crate::view::ServerMeta;

        let servers: Vec<ServerMeta> = (0..2)
            .map(|i| ServerMeta {
                id: ServerId(i),
                total_speed: 1.0,
                vcpus: 1,
                mem_bytes: 1 << 30,
                net_bps: 1e9,
                cpu: 0.5,
                mem: 0.0,
                net: 0.0,
                actor_count: 10,
            })
            .collect();
        // Twenty actors alternating T0/T1 over two servers; actor `i` reads
        // `cpu.perc` = 5 * i, so three T0 actors (14, 16, 18) pass `> 65`.
        let actors = (0..20u64).map(|i| ActorWindowStats {
            actor: ActorId(i),
            type_id: ActorTypeId((i % 2) as u32),
            server: ServerId((i / 2 % 2) as u32),
            state_size: 0,
            pinned: false,
            cpu_share: i as f64 * 0.05,
            counters: ActorCounters::default(),
            refs: Default::default(),
        });
        let snap = ProfileSnapshot::from_rows(
            1,
            SimTime::from_secs(1),
            SimDuration::from_secs(1),
            actors,
            Vec::new(),
        );
        let types = [("T0", 0), ("T1", 1)]
            .into_iter()
            .map(|(t, i)| (t.to_string(), ActorTypeId(i)))
            .collect();
        let frame = EvalFrame::from_parts(Arc::new(snap), servers, types, BTreeMap::new());
        let mut schema = plasma_epl::ActorSchema::new();
        schema.actor_type("T0");
        schema.actor_type("T1");
        let policy = plasma_epl::compile("T0(a).cpu.perc > 65 => reserve(a, cpu);", &schema)
            .expect("rule compiles");
        let rule = &policy.rules[0];
        let scope = [ServerId(0), ServerId(1)];

        let ctx = EvalCtx::scoped(&frame, &scope);
        let envs = solve_bound(&BoundRule::bind(rule, &frame), &ctx);
        let passing: Vec<Option<ActorId>> =
            [14, 16, 18].iter().map(|&i| Some(ActorId(i))).collect();
        let bound: Vec<Option<ActorId>> = envs.iter().map(|e| e.var(0)).collect();
        assert_eq!(bound, passing);
        assert_eq!(ctx.rows_examined(), 3, "only the threshold slice is read");

        let naive_ctx = EvalCtx::scoped(&frame, &scope);
        assert_eq!(naive::solve(rule, &naive_ctx), envs);
        assert_eq!(naive_ctx.rows_examined(), 20, "the walker scans every row");
    }

    /// Inline and spilled environments order exactly like
    /// `(server, Vec<Option<ActorId>>)` pairs, the order action planning
    /// enumerates them in.
    #[test]
    fn env_order_matches_server_then_slot_vector() {
        let servers = [None, Some(ServerId(0)), Some(ServerId(1))];
        let values = [None, Some(ActorId(0)), Some(ActorId(7))];
        for nvars in [0, 2, 5] {
            let mut envs = Vec::new();
            for (i, &server) in servers.iter().cycle().take(24).enumerate() {
                let mut env = Env::empty(nvars);
                env.server = server;
                let mut vars = vec![None; nvars];
                for (slot, var) in vars.iter_mut().enumerate() {
                    *var = values[(i * 7 + slot * 5) % values.len()];
                    if let Some(actor) = *var {
                        env.bind(slot, actor);
                    }
                }
                assert_eq!(env.vars(), &vars[..]);
                envs.push((env, (server, vars)));
            }
            for (a, ka) in &envs {
                for (b, kb) in &envs {
                    assert_eq!(a.cmp(b), ka.cmp(kb), "{a:?} vs {b:?}");
                    assert_eq!(a == b, ka == kb);
                }
            }
        }
    }
}
