//! Local Elasticity Manager planning (Alg. 1): interaction rules.
//!
//! LEMs own the `[r-i]` behaviors: `pin` marks actors immovable,
//! `colocate` pulls interacting actors onto one server, `separate` pushes
//! coexisting heavy actors apart. Planning is pure: it reads an [`EvalCtx`]
//! and produces [`Action`]s; the EMR applies them after conflict resolution
//! and admission control.

use std::collections::{BTreeMap, BTreeSet};

use plasma_actor::ids::ActorId;
use plasma_actor::stats::ActorWindowStats;
use plasma_cluster::ServerId;
use plasma_epl::ast::Behavior;

use crate::action::{Action, ActionKind, RuleStat};
use crate::eval::{expand_behavior_ref, solve_bound, BehaviorRef, BoundPolicy, Env};
use crate::view::EvalCtx;

/// The outcome of one LEM planning pass.
#[derive(Debug, Default)]
pub struct LemPlan {
    /// Proposed colocate/separate migrations.
    pub actions: Vec<Action>,
    /// Actors to pin.
    pub pins: Vec<ActorId>,
    /// Per-rule evaluation tallies, in evaluation order (for tracing).
    pub rule_stats: Vec<RuleStat>,
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
    let mut round = Round {
        ctx,
        upper_bound,
        reserved_servers,
        pins: BTreeSet::new(),
        future: pending_dst.clone(),
        incoming: BTreeMap::new(),
        actions: Vec::new(),
    };
    for dst in pending_dst.values() {
        *round.incoming.entry(*dst).or_insert(0) += 1;
    }
    let mut rule_stats = Vec::new();
    for bound in &policy.rules {
        let rule = bound.rule;
        if !rule.has_interaction_behavior() {
            continue;
        }
        let envs = solve_bound(bound, ctx);
        let actions_before = round.actions.len();
        for env in &envs {
            for (cb, refs) in bound.behaviors() {
                let mode = match &cb.behavior {
                    Behavior::Pin(_) => {
                        round.pins.extend(expand_behavior_ref(refs[0], env, ctx));
                        continue;
                    }
                    Behavior::Colocate(..) => PairMode::Colocate,
                    Behavior::Separate(..) => PairMode::Separate,
                    Behavior::Balance { .. } | Behavior::Reserve { .. } => continue,
                };
                let pair = PairRule {
                    rule: rule.index,
                    priority: cb.priority,
                    mode,
                };
                round.plan_pair(&pair, env, refs[0], refs[1]);
            }
        }
        rule_stats.push(RuleStat {
            rule: rule.index,
            matches: envs.len() as u64,
            actions: (round.actions.len() - actions_before) as u64,
        });
    }
    LemPlan {
        actions: round.actions,
        pins: round.pins.into_iter().collect(),
        rule_stats,
    }
}

enum PairMode {
    Colocate,
    Separate,
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
}

impl Round<'_, '_> {
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
        let actors = rows
            .iter()
            .map(|&(id, server, state_size, kids)| {
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
            })
            .collect();
        let snap = ProfileSnapshot {
            generation: 1,
            at: SimTime::from_secs(1),
            window: SimDuration::from_secs(1),
            actors,
            servers: Vec::new(),
        };
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
        let mut round = Round {
            ctx: &ctx,
            upper_bound: 0.8,
            reserved_servers: &reserved,
            pins: BTreeSet::new(),
            future: BTreeMap::new(),
            incoming: BTreeMap::new(),
            actions: Vec::new(),
        };
        for env in &envs {
            for (cb, refs) in rule.behaviors() {
                assert!(refs.iter().all(|r| r.bound(env).is_some()));
                let mode = match cb.behavior {
                    Behavior::Colocate(..) => PairMode::Colocate,
                    _ => PairMode::Separate,
                };
                let pair = PairRule {
                    rule: 0,
                    priority: cb.priority,
                    mode,
                };
                round.plan_pair(&pair, env, refs[0], refs[1]);
            }
        }
        round
            .actions
            .iter()
            .map(|a| (a.actor.0, a.src.0, a.dst.0, a.kind))
            .collect()
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
