//! Exactness of the retained LEM: over random churn on a running runtime,
//! [`RetainedLem::plan`] returns exactly what a from-scratch
//! [`lem::plan`] returns, round after round — the same actions in the same
//! order, the same pins and the same per-rule tallies.
//!
//! Each round applies a few random edits (migrations, reference adds and
//! removes — no-op ones included — actor spawns and removals, a type
//! registered late, pin flips), rolls zero to two profiling windows,
//! advances a retained frame (or rebuilds it), and plans over a scope that
//! sometimes leaves one server out, as a draining server does. GEM-pending
//! moves name pair partners, so movers chain through later pairs.

use std::collections::{BTreeMap, BTreeSet};

use plasma_actor::logic::ActorCtx;
use plasma_actor::{ActorId, ActorLogic, Message, Runtime, RuntimeConfig};
use plasma_cluster::{InstanceType, ServerId};
use plasma_emr::eval::BoundPolicy;
use plasma_emr::lem::{self, LemPlan, RetainedLem};
use plasma_emr::view::{EvalCtx, EvalFrame};
use plasma_emr::ActionKind;
use plasma_epl::{compile, ActorSchema};
use plasma_sim::rng::check_cases;
use plasma_sim::{DetRng, SimDuration};

/// `true` with probability `percent` / 100.
fn chance(rng: &mut DetRng, percent: u64) -> bool {
    rng.below(100) < percent
}

/// A uniform element of `xs`, or `None` when it is empty.
fn pick<T: Copy>(rng: &mut DetRng, xs: &[T]) -> Option<T> {
    (!xs.is_empty()).then(|| *rng.choose(xs))
}

/// An actor that is never sent anything.
struct Idle;

impl ActorLogic for Idle {
    fn on_message(&mut self, _ctx: &mut ActorCtx<'_>, _msg: &mut Message) {}
}

/// The rules a case draws its policy from: pair-only `colocate` (one with
/// an `or`) and `separate`, which keep their pairs, and `pin; colocate`
/// over a type that registers late, a `separate` whose partners the
/// condition leaves unbound and a stat comparison, which are solved every
/// round.
const RULES: [&str; 6] = [
    "T1(b) in ref(T0(a).r0) => colocate(a, b);",
    "T1(b) in ref(T0(a).r1) => separate(a, b);",
    "T0(b) in ref(T2(a).r0) => pin(a); colocate(b, a);",
    "true => separate(T1(a), T1(b));",
    "T1(b) in ref(T0(a).r0) or T1(b) in ref(T0(a).r1) => colocate(b, a);",
    "T0(a).mem.perc >= 0 and T1(b) in ref(a.r1) => colocate(b, a);",
];

const PROPS: [&str; 2] = ["r0", "r1"];
const SERVERS: usize = 4;

fn schema() -> ActorSchema {
    let mut s = ActorSchema::new();
    for t in ["T0", "T1", "T2"] {
        s.actor_type(t).prop("r0").prop("r1");
    }
    s
}

/// One case's policy: a random non-empty subset of [`RULES`], shuffled.
fn policy_src(rng: &mut DetRng) -> String {
    let mut rules: Vec<&str> = Vec::new();
    while rules.is_empty() {
        rules = RULES.iter().copied().filter(|_| chance(rng, 50)).collect();
    }
    for i in (1..rules.len()).rev() {
        rules.swap(i, rng.below(i as u64 + 1) as usize);
    }
    rules.concat()
}

/// What a plan is compared on.
type PlanKey = (
    Vec<(ActorId, ServerId, ServerId, ActionKind, u32, usize)>,
    Vec<ActorId>,
    Vec<(usize, u64, u64)>,
);

fn key(plan: &LemPlan) -> PlanKey {
    (
        plan.actions
            .iter()
            .map(|a| (a.actor, a.src, a.dst, a.kind, a.priority, a.rule))
            .collect(),
        plan.pins.clone(),
        plan.rule_stats
            .iter()
            .map(|s| (s.rule, s.matches, s.actions))
            .collect(),
    )
}

/// What one case exercised, summed by the non-vacuity check.
#[derive(Default)]
struct Seen {
    rounds: u64,
    reused: u64,
    reused_partial: u64,
    pairs_skipped: u64,
    actions: u64,
}

fn spawn(rt: &mut Runtime, rng: &mut DetRng, ty: &str) -> ActorId {
    let servers = rt.cluster().running_ids();
    let home = *rng.choose(&servers);
    let size = (1 + rng.below(8)) << 10;
    rt.spawn_actor(ty, Box::new(Idle), size, home)
}

/// A random live actor.
fn any_actor(rt: &Runtime, rng: &mut DetRng) -> Option<ActorId> {
    pick(rng, &rt.all_actors())
}

/// One random edit to the runtime.
fn churn(rt: &mut Runtime, rng: &mut DetRng) {
    let servers = rt.cluster().running_ids();
    match rng.below(10) {
        0..=2 => {
            if let (Some(a), Some(dst)) = (any_actor(rt, rng), pick(rng, &servers)) {
                let _ = rt.migrate(a, dst);
            }
        }
        3 | 4 => {
            if let (Some(owner), Some(target)) = (any_actor(rt, rng), any_actor(rt, rng)) {
                let prop = *rng.choose(&PROPS);
                rt.actor_add_ref(owner, prop, target);
            }
        }
        5 => {
            // Half the time the target is absent and the remove is a no-op.
            if let Some(owner) = any_actor(rt, rng) {
                let prop = *rng.choose(&PROPS);
                let present = rt.actor_refs(owner, prop);
                let target = match pick(rng, &present) {
                    Some(t) if chance(rng, 50) => t,
                    _ => ActorId(rng.below(rt.all_actors().len() as u64 + 4)),
                };
                rt.actor_remove_ref(owner, prop, target);
            }
        }
        6 => {
            let mut types = vec!["T0", "T1"];
            if rt.names().lookup_type("T2").is_some() {
                types.push("T2");
            }
            let ty = *rng.choose(&types);
            let id = spawn(rt, rng, ty);
            if let Some(target) = any_actor(rt, rng) {
                rt.actor_add_ref(id, "r0", target);
            }
        }
        7 => {
            if let Some(a) = any_actor(rt, rng) {
                rt.remove_actor(a);
            }
        }
        8 => {
            rt.names_mut().actor_type("T2");
        }
        _ => {
            if let Some(a) = any_actor(rt, rng) {
                rt.set_pinned(a, chance(rng, 30));
            }
        }
    }
}

/// Runs one case: `rounds` rounds of churn, each checked against the
/// from-scratch plan.
fn run_case(seed: u64, rounds: usize) -> Seen {
    let rng = &mut DetRng::new(seed);
    let src = policy_src(rng);
    let policy = compile(&src, &schema()).unwrap_or_else(|e| panic!("{src}: {e:?}"));
    let mut rt = Runtime::new(RuntimeConfig {
        seed,
        min_residency: SimDuration::ZERO,
        elasticity_period: SimDuration::from_secs(3_600),
        ..RuntimeConfig::default()
    });
    for _ in 0..SERVERS {
        rt.add_server(InstanceType::m1_small());
    }
    let n = 10 + rng.below(20);
    for _ in 0..n {
        let ty = if chance(rng, 40) { "T0" } else { "T1" };
        spawn(&mut rt, rng, ty);
    }
    // Members shared between owners and owners with several members make
    // a planned mover name later pairs.
    let actors = rt.all_actors();
    for &owner in &actors {
        for _ in 0..rng.below(5) {
            let target = *rng.choose(&actors);
            let prop = *rng.choose(&PROPS);
            rt.actor_add_ref(owner, prop, target);
        }
    }
    let window = rt.config().profile_window;
    let all: Vec<ServerId> = rt.cluster().running_ids();
    let mut scope = all.clone();
    let mut frame: Option<EvalFrame> = None;
    let mut retained = RetainedLem::default();
    let mut seen = Seen::default();
    for round in 0..rounds {
        let edits = if chance(rng, 40) { 0 } else { 1 + rng.below(3) };
        for _ in 0..edits {
            churn(&mut rt, rng);
        }
        let windows = match rng.below(10) {
            0 => 0,
            1 | 2 => 2,
            _ => 1,
        };
        rt.run_until(rt.now() + window * windows);
        if chance(rng, 8) {
            frame = None;
        }
        let advanced = frame
            .take()
            .and_then(|mut f| f.advance_delta(&rt).map(|delta| (f, delta)));
        let (f, change) = match advanced {
            Some((f, delta)) => (f, Some(delta)),
            None => (EvalFrame::new(&rt), None),
        };
        let frame_ref = frame.insert(f);
        // A scope that drops one server is what a draining server leaves
        // the LEM; it often holds for several rounds.
        if chance(rng, 20) {
            scope = all.clone();
            if chance(rng, 50) {
                scope.remove(rng.below(all.len() as u64) as usize);
            }
        }
        let ctx = EvalCtx::scoped(frame_ref, &scope);
        let bound = BoundPolicy::bind(&policy, frame_ref);
        // GEM-pending moves, mostly of actors some owner references.
        let mut pending: BTreeMap<ActorId, ServerId> = BTreeMap::new();
        for _ in 0..rng.below(3) {
            let owner = any_actor(&rt, rng);
            let named = owner.and_then(|o| {
                let prop = *rng.choose(&PROPS);
                pick(rng, &rt.actor_refs(o, prop))
            });
            if let (Some(a), Some(dst)) = (named.or(owner), pick(rng, &all)) {
                pending.insert(a, dst);
            }
        }
        let reserved: BTreeSet<ServerId> = if chance(rng, 10) {
            pick(rng, &all).into_iter().collect()
        } else {
            BTreeSet::new()
        };
        let got = retained.plan(&bound, &ctx, &pending, 0.8, &reserved, change.as_ref());
        let want = lem::plan(&bound, &ctx, &pending, 0.8, &reserved);
        assert_eq!(
            key(&got),
            key(&want),
            "seed {seed} round {round}: policy `{src}`, scope {scope:?}, pending {pending:?}"
        );
        assert!(got.pairs_planned <= want.pairs_planned);
        seen.rounds += 1;
        seen.reused += u64::from(got.reused_envs);
        seen.reused_partial += u64::from(got.reused_envs && scope.len() < all.len());
        seen.pairs_skipped += want.pairs_planned - got.pairs_planned;
        seen.actions += want.actions.len() as u64;
        // Carry out some of the plan, as the EMR would, so pairs settle
        // and the worlds hold quiet pairs as well as triggered ones.
        for action in &want.actions {
            if chance(rng, 60) {
                let _ = rt.migrate(action.actor, action.dst);
            }
        }
    }
    seen
}

#[test]
fn retained_lem_plans_what_a_fresh_pass_plans() {
    check_cases("retained_lem_plans_what_a_fresh_pass_plans", 160, |rng| {
        run_case(rng.next_u64(), 14);
    });
}

/// Guards the churn against becoming vacuous: across a fixed seed range,
/// the retained LEM must reuse retained pairs, including under a partial
/// scope, skip pairs, and the rounds must plan actions.
#[test]
fn churn_reuses_skips_and_acts() {
    let mut total = Seen::default();
    for seed in 0..60 {
        let seen = run_case(seed, 14);
        total.rounds += seen.rounds;
        total.reused += seen.reused;
        total.reused_partial += seen.reused_partial;
        total.pairs_skipped += seen.pairs_skipped;
        total.actions += seen.actions;
    }
    assert!(
        total.reused >= total.rounds / 5,
        "{} of {} rounds reused",
        total.reused,
        total.rounds
    );
    assert!(total.reused_partial >= 20, "{}", total.reused_partial);
    assert!(
        total.pairs_skipped >= total.rounds,
        "{}",
        total.pairs_skipped
    );
    assert!(total.actions >= total.rounds, "{}", total.actions);
}
