//! Global Elasticity Manager planning (Alg. 2): resource rules.
//!
//! Each GEM aggregates the REPORTs of its managed servers into a global
//! snapshot and applies `[r-r]` behaviors: `balance` migrates actors from
//! overloaded servers toward idle ones until every server sits inside the
//! rule's bounds, and `reserve` relocates selected actors onto dedicated
//! servers. When all of a GEM's servers are overloaded (resp. idle) it
//! votes to grow (resp. shrink) the cluster (§4.2).

use std::collections::{BTreeMap, BTreeSet};

use plasma_actor::ids::ActorId;
use plasma_cluster::ServerId;
use plasma_epl::analyze::CompiledRule;
use plasma_epl::ast::{AType, Behavior, Cond, Res};

use crate::action::{Action, ActionKind, RuleStat};
use crate::eval::{expand_behavior_ref, solve_bound, BoundPolicy};
use crate::view::{EvalCtx, TypeSel};

/// Utilization bounds extracted from a rule's condition.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Bounds {
    /// Upper watermark as a fraction (e.g. 0.8 from `perc > 80`).
    pub upper: f64,
    /// Lower watermark as a fraction.
    pub lower: f64,
}

impl Bounds {
    /// Fallback bounds when a rule names none.
    pub const DEFAULT: Bounds = Bounds {
        upper: 0.8,
        lower: 0.6,
    };
}

/// Minimum utilization gap between source and destination for a balance
/// move to be worthwhile.
const MIN_GAP: f64 = 0.10;

/// Extracts the `server.res` watermarks mentioned in a condition.
///
/// `server.cpu.perc > 80 or server.cpu.perc < 60` yields
/// `upper = 0.8, lower = 0.6`. Missing sides fall back to
/// [`Bounds::DEFAULT`]. The extraction itself (last mention wins) lives in
/// the EPL crate's verifier metadata so the GEM and the policy verifier
/// read the same watermarks from the same condition.
pub fn extract_bounds(cond: &Cond, res: Res) -> Bounds {
    let band = plasma_epl::verify::meta::server_band(cond, res);
    Bounds {
        upper: band.upper.map_or(Bounds::DEFAULT.upper, |p| p / 100.0),
        lower: band.lower.map_or(Bounds::DEFAULT.lower, |p| p / 100.0),
    }
}

/// The outcome of one GEM planning pass.
#[derive(Debug, Default)]
pub struct GemPlan {
    /// Proposed balance/reserve migrations.
    pub actions: Vec<Action>,
    /// The GEM observed every managed server overloaded (or a reserve had
    /// no viable target): vote for growing the cluster.
    pub scale_out_vote: bool,
    /// The GEM observed every managed server under the lower bound: vote
    /// for shrinking the cluster.
    pub scale_in_vote: bool,
    /// Servers that now host reserved actors (excluded as future targets).
    pub reserved: BTreeSet<ServerId>,
    /// Reserve actions that found no viable target (drives scale-out size).
    pub unplaced_reserves: usize,
    /// Per-rule evaluation tallies, in evaluation order (for tracing).
    pub rule_stats: Vec<RuleStat>,
}

/// Plans resource-rule actions over the GEM's managed scope.
/// `max_balance_moves` caps the migrations one `balance` invocation may
/// plan (the paper migrates gradually, §4.3).
pub fn plan(
    policy: &BoundPolicy<'_>,
    ctx: &EvalCtx<'_>,
    max_balance_moves: usize,
    reserved_servers: &BTreeSet<ServerId>,
) -> GemPlan {
    let mut plan = GemPlan::default();
    // Projected utilization, updated as moves are planned so one round does
    // not overshoot.
    let mut projected: BTreeMap<ServerId, [f64; 3]> = ctx
        .servers
        .iter()
        .map(|s| (s.id, [s.cpu, s.mem, s.net]))
        .collect();
    let mut moved: BTreeSet<ActorId> = BTreeSet::new();
    for bound in &policy.rules {
        let rule = bound.rule;
        if !rule.has_resource_behavior() {
            continue;
        }
        let envs = solve_bound(bound, ctx);
        let actions_before = plan.actions.len();
        if envs.is_empty() {
            plan.rule_stats.push(RuleStat {
                rule: rule.index,
                matches: 0,
                actions: 0,
            });
            continue;
        }
        for (cb, refs) in bound.behaviors() {
            match &cb.behavior {
                Behavior::Balance { types, res } => {
                    let bounds = extract_bounds(&rule.cond, *res);
                    plan_balance(
                        &mut plan,
                        ctx,
                        max_balance_moves,
                        rule,
                        types,
                        *res,
                        bounds,
                        cb.priority,
                        &mut projected,
                        &mut moved,
                        reserved_servers,
                    );
                }
                Behavior::Reserve { res, .. } => {
                    let bounds = extract_bounds(&rule.cond, *res);
                    let mut targets: BTreeSet<ActorId> = BTreeSet::new();
                    for env in &envs {
                        targets.extend(expand_behavior_ref(refs[0], env, ctx));
                    }
                    plan_reserve(
                        &mut plan,
                        ctx,
                        rule,
                        &targets,
                        *res,
                        bounds,
                        cb.priority,
                        &mut projected,
                        &mut moved,
                        reserved_servers,
                    );
                }
                _ => {}
            }
        }
        plan.rule_stats.push(RuleStat {
            rule: rule.index,
            matches: envs.len() as u64,
            actions: (plan.actions.len() - actions_before) as u64,
        });
    }
    plan
}

/// Decides whether this GEM should vote to scale the cluster.
///
/// Scale-out follows Fig. 1c's narrative: some server is overloaded *and*
/// no managed server has idle capacity left to rebalance into ("with no
/// available server to host additional workload, PLASMA has no choice but
/// to spawn a new server"). Scale-in fires when every server is under the
/// lower watermark.
fn scale_votes(ctx: &EvalCtx<'_>, bounds: Bounds) -> (bool, bool) {
    if ctx.servers.is_empty() {
        return (false, false);
    }
    let any_over = ctx.servers.iter().any(|s| s.cpu > bounds.upper);
    let none_idle = ctx.servers.iter().all(|s| s.cpu >= bounds.lower);
    let all_under = ctx.servers.iter().all(|s| s.cpu < bounds.lower);
    (any_over && none_idle, all_under)
}

#[allow(clippy::too_many_arguments)]
fn plan_balance(
    plan: &mut GemPlan,
    ctx: &EvalCtx<'_>,
    max_moves: usize,
    rule: &CompiledRule,
    types: &[AType],
    res: Res,
    bounds: Bounds,
    priority: u32,
    projected: &mut BTreeMap<ServerId, [f64; 3]>,
    moved: &mut BTreeSet<ActorId>,
    reserved_servers: &BTreeSet<ServerId>,
) {
    let ridx = res_index(res);
    let sels: Vec<TypeSel> = types.iter().map(|t| ctx.type_sel(t)).collect();
    for _ in 0..max_moves {
        // Source: the most loaded server; prefer ones above the upper bound.
        let Some(src) = ctx
            .servers
            .iter()
            .filter(|s| !reserved_servers.contains(&s.id))
            .max_by(|a, b| {
                projected[&a.id][ridx]
                    .partial_cmp(&projected[&b.id][ridx])
                    .expect("finite usage")
            })
        else {
            break;
        };
        // Destination: the least loaded non-reserved server.
        let Some(dst) = ctx
            .servers
            .iter()
            .filter(|s| s.id != src.id && !reserved_servers.contains(&s.id))
            .min_by(|a, b| {
                projected[&a.id][ridx]
                    .partial_cmp(&projected[&b.id][ridx])
                    .expect("finite usage")
            })
        else {
            break;
        };
        let src_u = projected[&src.id][ridx];
        let dst_u = projected[&dst.id][ridx];
        let triggered = src_u > bounds.upper || dst_u < bounds.lower;
        if !triggered || src_u - dst_u < MIN_GAP {
            break;
        }
        // Actor demand transfers scaled by relative server speed.
        let ratio = match res {
            Res::Cpu => src.total_speed / dst.total_speed.max(1e-9),
            Res::Mem => src.mem_bytes as f64 / dst.mem_bytes.max(1) as f64,
            Res::Net => src.net_bps / dst.net_bps.max(1e-9),
        };
        // Pick the movable actor whose share best fills *half* the gap:
        // bounding the transfer by gap/2 keeps the source at or above the
        // destination after the move, so rebalancing can never oscillate.
        let gap = src_u - dst_u;
        let movable: Vec<(ActorId, f64)> = ctx
            .select(TypeSel::Any, Some(src.id))
            .into_iter()
            .filter(|a| !a.pinned && !moved.contains(&a.actor))
            .filter(|a| sels.iter().any(|sel| sel.matches(a)))
            .map(|a| (a.actor, ctx.actor_usage(a, res)))
            .filter(|&(_, share)| share > 0.0)
            .collect();
        let candidate = movable
            .iter()
            .copied()
            .filter(|&(_, share)| share * ratio <= gap / 2.0 + 1e-9)
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite share"))
            .or_else(|| {
                // No actor fits half the gap (coarse-grained shares): when
                // the source is genuinely overloaded, move the smallest
                // movable actor that still narrows the gap, rather than
                // stalling forever.
                if src_u > bounds.upper {
                    movable
                        .iter()
                        .copied()
                        .filter(|&(_, share)| share * ratio < gap - 1e-9)
                        .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite share"))
                } else {
                    None
                }
            });
        let Some((actor, share)) = candidate else {
            break;
        };
        projected.get_mut(&src.id).expect("src projected")[ridx] -= share;
        projected.get_mut(&dst.id).expect("dst projected")[ridx] += share * ratio;
        moved.insert(actor);
        plan.actions.push(Action {
            actor,
            src: src.id,
            dst: dst.id,
            kind: ActionKind::Balance,
            priority,
            rule: rule.index,
            trace: None,
        });
    }
    // Scale votes for this rule's bounds.
    let (out, inn) = scale_votes(ctx, bounds);
    plan.scale_out_vote |= out;
    plan.scale_in_vote |= inn;
}

#[allow(clippy::too_many_arguments)]
fn plan_reserve(
    plan: &mut GemPlan,
    ctx: &EvalCtx<'_>,
    rule: &CompiledRule,
    targets: &BTreeSet<ActorId>,
    res: Res,
    bounds: Bounds,
    priority: u32,
    projected: &mut BTreeMap<ServerId, [f64; 3]>,
    moved: &mut BTreeSet<ActorId>,
    reserved_servers: &BTreeSet<ServerId>,
) {
    let ridx = res_index(res);
    for &actor in targets {
        let Some(stats) = ctx.actor(actor) else {
            continue;
        };
        if stats.pinned || moved.contains(&actor) {
            continue;
        }
        if reserved_servers.contains(&stats.server) || plan.reserved.contains(&stats.server) {
            // Already on a dedicated server.
            continue;
        }
        let share = ctx.actor_usage(stats, res);
        let src_meta = ctx.server(stats.server);
        // Prefer an empty server; otherwise the least-loaded one that can
        // absorb the actor below the lower watermark.
        let target = ctx
            .servers
            .iter()
            .filter(|s| {
                s.id != stats.server
                    && !reserved_servers.contains(&s.id)
                    && !plan.reserved.contains(&s.id)
            })
            .filter(|s| {
                let ratio = match res {
                    Res::Cpu => {
                        src_meta.map(|m| m.total_speed).unwrap_or(s.total_speed)
                            / s.total_speed.max(1e-9)
                    }
                    Res::Mem => 1.0,
                    Res::Net => 1.0,
                };
                projected[&s.id][ridx] + share * ratio < bounds.lower.max(0.3)
            })
            .min_by_key(|s| (s.actor_count, s.id));
        match target {
            Some(t) => {
                projected.get_mut(&stats.server).expect("src projected")[ridx] -= share;
                projected.get_mut(&t.id).expect("dst projected")[ridx] += share;
                moved.insert(actor);
                plan.reserved.insert(t.id);
                plan.actions.push(Action {
                    actor,
                    src: stats.server,
                    dst: t.id,
                    kind: ActionKind::Reserve,
                    priority,
                    rule: rule.index,
                    trace: None,
                });
            }
            None => {
                // No server can host the reserved actor: ask for capacity.
                plan.scale_out_vote = true;
                plan.unplaced_reserves += 1;
            }
        }
    }
}

fn res_index(res: Res) -> usize {
    match res {
        Res::Cpu => 0,
        Res::Mem => 1,
        Res::Net => 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plasma_epl::parser::parse_policy;

    #[test]
    fn bounds_extraction_both_sides() {
        let policy =
            parse_policy("server.cpu.perc > 80 or server.cpu.perc < 60 => balance({W}, cpu);")
                .unwrap();
        let b = extract_bounds(&policy.rules[0].cond, Res::Cpu);
        assert_eq!(
            b,
            Bounds {
                upper: 0.8,
                lower: 0.6
            }
        );
    }

    #[test]
    fn bounds_extraction_one_side_uses_default() {
        let policy = parse_policy("server.cpu.perc < 50 => balance({W}, cpu);").unwrap();
        let b = extract_bounds(&policy.rules[0].cond, Res::Cpu);
        assert_eq!(b.lower, 0.5);
        assert_eq!(b.upper, Bounds::DEFAULT.upper);
    }

    #[test]
    fn bounds_ignore_other_resources() {
        let policy = parse_policy("server.net.perc > 90 => balance({W}, cpu);").unwrap();
        let b = extract_bounds(&policy.rules[0].cond, Res::Cpu);
        assert_eq!(b, Bounds::DEFAULT);
    }
}
