//! Property tests: the indexed plan evaluator must be observationally
//! identical to the naive AST walker ([`crate::eval::naive`]) on random
//! policies and random profiling snapshots.
//!
//! The naive evaluator is the semantic oracle: it does no condition
//! reordering, no name pre-resolution, and no candidate pruning, so any
//! divergence here points at the query-plan lowering or the index fast
//! paths. Policies are generated as *source text* over a fixed schema so
//! the whole pipeline (parse -> analyze -> plan -> bind) is exercised, not
//! just hand-built IR.

use std::collections::BTreeMap;
use std::sync::Arc;

use plasma_actor::ids::{ActorId, ActorTypeId, FnId};
use plasma_actor::message::CallerKind;
use plasma_actor::stats::{ActorCounters, ActorWindowStats, CallKey, CallStat, ProfileSnapshot};
use plasma_cluster::ServerId;
use plasma_epl::{compile, ActorSchema};
use plasma_sim::rng::check_cases;
use plasma_sim::{DetRng, SimDuration, SimTime};

use crate::eval::{naive, solve_bound, BoundRule};
use crate::view::{EvalCtx, EvalFrame, ServerMeta};

/// `true` with probability `percent` / 100.
fn chance(rng: &mut DetRng, percent: u64) -> bool {
    rng.below(100) < percent
}

const TYPES: [&str; 3] = ["T0", "T1", "T2"];
const FNS: [&str; 2] = ["f0", "f1"];
/// More names than an environment stores inline, so rules whose
/// environments spill to the heap are checked against the oracle too.
const VARS: [&str; 5] = ["a", "b", "c", "d", "e"];
const CMPS: [&str; 4] = ["<", ">", "<=", ">="];

fn schema() -> ActorSchema {
    let mut s = ActorSchema::new();
    for t in TYPES {
        s.actor_type(t).prop("r0").func("f0").func("f1");
    }
    s
}

/// Draws a variable from the name pool. Each name carries a fixed type
/// (`a: T0`, `b: T1`, `c: T2`, `d: T0`, `e: T1`) so conjuncts that reuse
/// a name produce a *join* on the shared slot rather than a type-clash
/// compile error.
fn gen_var(rng: &mut DetRng) -> (&'static str, &'static str) {
    let i = rng.below(VARS.len() as u64) as usize;
    (TYPES[i % TYPES.len()], VARS[i])
}

/// Draws a statistic plus a value within its legal range (`perc` bounds
/// must sit in `[0, 100]`; `count`/`size` are open-ended).
fn gen_stat(rng: &mut DetRng, pool: &[&'static str]) -> (&'static str, u64) {
    let stat = *rng.choose(pool);
    let val = if stat == "perc" {
        rng.below(101)
    } else {
        rng.below(3000)
    };
    (stat, val)
}

/// One random atomic predicate.
fn gen_pred(rng: &mut DetRng) -> String {
    let cmp = *rng.choose(&CMPS);
    match rng.below(5) {
        0 => {
            let res = *rng.choose(&["cpu", "mem", "net"]);
            let (stat, val) = gen_stat(rng, &["perc"]);
            format!("server.{res}.{stat} {cmp} {val}")
        }
        1 => {
            let (t, v) = gen_var(rng);
            let res = *rng.choose(&["cpu", "mem"]);
            let (stat, val) = gen_stat(rng, &["perc"]);
            format!("{t}({v}).{res}.{stat} {cmp} {val}")
        }
        2 => {
            let (t, v) = gen_var(rng);
            let f = *rng.choose(&FNS);
            let (stat, val) = gen_stat(rng, &["perc", "count", "size"]);
            format!("client.call({t}({v}).{f}).{stat} {cmp} {val}")
        }
        3 => {
            let (tc, vc) = gen_var(rng);
            let (tv, vv) = gen_var(rng);
            let f = *rng.choose(&FNS);
            let (stat, val) = gen_stat(rng, &["perc", "count", "size"]);
            format!("{tc}({vc}).call({tv}({vv}).{f}).{stat} {cmp} {val}")
        }
        _ => {
            let (tm, vm) = gen_var(rng);
            let (to, vo) = gen_var(rng);
            format!("{tm}({vm}) in ref({to}({vo}).r0)")
        }
    }
}

/// A random rule: 1-4 predicates joined by `and`, occasionally with an
/// `or` pair, always ending in a var-free behavior so solving is the only
/// thing under test.
fn gen_rule(rng: &mut DetRng) -> String {
    let n = 1 + rng.below(4);
    let mut parts = Vec::new();
    for _ in 0..n {
        if chance(rng, 25) {
            parts.push(format!("({} or {})", gen_pred(rng), gen_pred(rng)));
        } else {
            parts.push(gen_pred(rng));
        }
    }
    format!("{} => balance({{T0}}, cpu);", parts.join(" and "))
}

/// One random actor row. `n_actors` is only a hint sizing the caller-id
/// and dangling-reference pools.
fn gen_actor(rng: &mut DetRng, id: u64, n_actors: u64, n_servers: u32) -> ActorWindowStats {
    let mut calls = BTreeMap::new();
    for (f, _) in FNS.iter().enumerate() {
        if chance(rng, 60) {
            calls.insert(
                CallKey {
                    caller_kind: CallerKind::Client,
                    caller: None,
                    fname: FnId(f as u32),
                },
                CallStat {
                    count: rng.below(3000),
                    bytes: rng.below(1 << 20),
                },
            );
        }
        if chance(rng, 40) && n_actors > 1 {
            let caller = ActorId(rng.below(n_actors));
            calls.insert(
                CallKey {
                    caller_kind: CallerKind::Actor(ActorTypeId(rng.below(3) as u32)),
                    caller: Some(caller),
                    fname: FnId(f as u32),
                },
                CallStat {
                    count: rng.below(3000),
                    bytes: rng.below(1 << 20),
                },
            );
        }
    }
    let mut refs = BTreeMap::new();
    if chance(rng, 50) {
        // Reference ids may dangle past the live actor range.
        let members: Vec<ActorId> = (0..rng.below(4))
            .map(|_| ActorId(rng.below(n_actors + 2)))
            .collect();
        refs.insert("r0".to_string(), members);
    }
    ActorWindowStats {
        actor: ActorId(id),
        // Type id 3 exists in the snapshot but not in the schema.
        type_id: ActorTypeId(rng.below(4) as u32),
        server: ServerId(rng.below(n_servers as u64) as u32),
        state_size: rng.below(1 << 24),
        pinned: chance(rng, 10),
        cpu_share: rng.below(120) as f64 / 100.0,
        counters: ActorCounters {
            cpu_busy: SimDuration::ZERO,
            calls,
            bytes_sent: rng.below(1 << 20),
        },
        refs: refs.into(),
    }
}

/// Random cluster + snapshot: a few servers with arbitrary utilization,
/// up to two dozen actors with random types (including one *unregistered*
/// type id), call counters from clients and other actors, and dangling
/// `r0` references.
fn gen_world(rng: &mut DetRng) -> (ProfileSnapshot, Vec<ServerMeta>) {
    let n_servers = 1 + rng.below(4) as u32;
    let servers: Vec<ServerMeta> = (0..n_servers)
        .map(|i| ServerMeta {
            id: ServerId(i),
            total_speed: 1.0,
            vcpus: 1,
            mem_bytes: 1 << 30,
            net_bps: 1e9,
            cpu: rng.below(150) as f64 / 100.0,
            mem: rng.below(120) as f64 / 100.0,
            net: rng.below(120) as f64 / 100.0,
            actor_count: rng.below(30) as usize,
        })
        .collect();
    let n_actors = rng.below(24);
    let snap = ProfileSnapshot::from_rows(
        1,
        SimTime::from_secs(10),
        SimDuration::from_secs(1),
        (0..n_actors).map(|i| gen_actor(rng, i, n_actors, n_servers)),
        Vec::new(),
    );
    (snap, servers)
}

fn name_tables() -> (BTreeMap<String, ActorTypeId>, BTreeMap<String, FnId>) {
    let types = TYPES
        .iter()
        .enumerate()
        .map(|(i, t)| (t.to_string(), ActorTypeId(i as u32)))
        .collect();
    let fns = FNS
        .iter()
        .enumerate()
        .map(|(i, f)| (f.to_string(), FnId(i as u32)))
        .collect();
    (types, fns)
}

/// Guards the generator against becoming vacuous: across a fixed seed
/// range, most rules must compile, a healthy share of the compiled ones
/// must produce at least one matching environment, and some must have more
/// variables than an environment stores inline. (Purely deterministic —
/// each seed's generator derives everything.)
#[test]
fn generator_is_not_vacuous() {
    let (mut compiled, mut matched, mut spilled) = (0u32, 0u32, 0u32);
    let total = 400;
    for seed in 0..total {
        let mut rng = DetRng::new(seed);
        let src = gen_rule(&mut rng);
        let Ok(policy) = compile(&src, &schema()) else {
            continue;
        };
        compiled += 1;
        spilled += u32::from(policy.rules[0].vars.len() > 3);
        let (snap, servers) = gen_world(&mut rng);
        let (types, fns) = name_tables();
        let frame = EvalFrame::from_parts(Arc::new(snap), servers.clone(), types, fns);
        let scope: Vec<ServerId> = servers.iter().map(|s| s.id).collect();
        let ctx = EvalCtx::scoped(&frame, &scope);
        let bound = BoundRule::bind(&policy.rules[0], &frame);
        if !solve_bound(&bound, &ctx).is_empty() {
            matched += 1;
        }
    }
    assert!(
        compiled >= total as u32 / 2,
        "only {compiled}/{total} random rules compiled"
    );
    assert!(
        matched >= compiled / 10,
        "only {matched}/{compiled} compiled rules ever matched"
    );
    assert!(
        spilled >= compiled / 10,
        "only {spilled}/{compiled} compiled rules have more than 3 variables"
    );
}

/// For every compilable random rule, random snapshot, and every scope
/// (full and partial), the indexed evaluator's `Env` set equals the naive
/// one exactly. Both evaluators canonicalize (sort + dedupe) their output,
/// so plain equality is order-insensitive already.
#[test]
fn indexed_solver_matches_naive_oracle() {
    check_cases("indexed_solver_matches_naive_oracle", 512, |rng| {
        let src = gen_rule(rng);
        // Var/type clashes and other static errors are not this test's
        // concern; skip those draws.
        let Ok(policy) = compile(&src, &schema()) else {
            return;
        };
        let (snap, servers) = gen_world(rng);
        let (types, fns) = name_tables();
        let frame = EvalFrame::from_parts(Arc::new(snap), servers.clone(), types, fns);
        let rule = &policy.rules[0];
        let bound = BoundRule::bind(rule, &frame);
        // Full scope plus a random strict prefix of the server list.
        let full: Vec<ServerId> = servers.iter().map(|s| s.id).collect();
        let partial: Vec<ServerId> = full[..1 + rng.below(full.len() as u64) as usize].to_vec();
        for scope in [&full, &partial] {
            let ctx = EvalCtx::scoped(&frame, scope);
            let fast = solve_bound(&bound, &ctx);
            let slow = naive::solve(rule, &ctx);
            assert_eq!(fast, slow, "diverged on rule `{src}` scope {scope:?}");
        }
    });
}

/// One random churn step applied copy-on-write to `snap`, a copy of the
/// previous generation: a handful of adds (fresh, strictly increasing ids
/// that skip ahead, so rows spread over several pages), removals,
/// migrations, and `cpu_share` changes. Pages no operation touched stay
/// shared with the previous generation, as they do in the runtime.
fn churn_step(rng: &mut DetRng, snap: &mut ProfileSnapshot, n_servers: u32, next_id: &mut u64) {
    let ops = 1 + rng.below(5);
    for _ in 0..ops {
        let op = rng.below(4);
        if op == 0 {
            let a = gen_actor(rng, *next_id, *next_id + 2, n_servers);
            *next_id += 1 + rng.below(32);
            snap.insert(a);
            continue;
        }
        if snap.is_empty() {
            continue;
        }
        let nth = rng.below(snap.len() as u64) as usize;
        let id = snap.actors().nth(nth).expect("in range").actor;
        match op {
            1 => {
                snap.remove(id);
            }
            2 => {
                snap.actor_mut(id).expect("present").server =
                    ServerId(rng.below(n_servers as u64) as u32)
            }
            _ => snap.actor_mut(id).expect("present").cpu_share = rng.below(120) as f64 / 100.0,
        }
    }
}

/// Every `actor.cpu.perc` threshold selection over `frame`: `Any` and `T1`,
/// across the frame and on `server`, for `Gt` and `Le` at 50. Each list is
/// sorted, since selection order is unspecified. The first call against a
/// generation sorts all four cpu families.
fn threshold_selections(frame: &EvalFrame, server: ServerId) -> Vec<Vec<ActorId>> {
    use plasma_epl::ast::{AType, Comp};

    let full: Vec<ServerId> = frame.servers().iter().map(|s| s.id).collect();
    let ctx = EvalCtx::scoped(frame, &full);
    let mut out = Vec::new();
    for pattern in [AType::Any, AType::Named("T1".into())] {
        let sel = ctx.type_sel(&pattern);
        for on_server in [None, Some(server)] {
            for comp in [Comp::Gt, Comp::Le] {
                let mut ids: Vec<ActorId> = ctx
                    .select_cpu_threshold(sel, on_server, comp, 50.0)
                    .iter()
                    .map(|a| a.actor)
                    .collect();
                ids.sort();
                out.push(ids);
            }
        }
    }
    out
}

/// Incremental frame maintenance is equivalent to rebuilding: over a random
/// churn sequence, a retained frame advanced delta-by-delta and a second
/// frame advanced by one delta between the first and the last snapshot both
/// end up index-for-index identical — contents *and* order — to a frame
/// built from scratch off the final snapshot, and candidate enumeration
/// through the public context API agrees too. Both frames answer a
/// threshold query before every apply, so their cpu-sorted copies are built
/// on the old generation and must not survive the swap. Each generation is
/// derived from the previous one copy-on-write, so the frames swap between
/// snapshots that share pages, and every delta's page walk is checked
/// against the full row walk.
#[test]
fn patched_frame_matches_rebuild_over_churn() {
    use plasma_actor::stats::SnapshotDelta;
    use plasma_epl::ast::AType;

    /// [`SnapshotDelta::between`], checked against the full row walk.
    fn diff(from: &ProfileSnapshot, to: &ProfileSnapshot) -> SnapshotDelta {
        let delta = SnapshotDelta::between(from, to);
        assert_eq!(
            delta,
            SnapshotDelta::walk_rows(from, to),
            "page walk diverged from the row walk from generation {}",
            from.generation
        );
        delta
    }

    check_cases("patched_frame_matches_rebuild_over_churn", 256, |rng| {
        let (snap0, servers) = gen_world(rng);
        let probe = rng.choose(&servers).id;
        let (types, fns) = name_tables();
        let frame = |snap: &ProfileSnapshot| {
            EvalFrame::from_parts(
                Arc::new(snap.clone()),
                servers.clone(),
                types.clone(),
                fns.clone(),
            )
        };
        let mut stepped = frame(&snap0);
        let mut spanned = frame(&snap0);

        let mut next_id = snap0.actors().next_back().map_or(0, |a| a.actor.0 + 1);
        let mut prev = snap0.clone();
        let n_steps = 1 + rng.below(8);
        for step in 0..n_steps {
            let mut next = prev.clone();
            next.generation += 1;
            next.at = prev.at + SimDuration::from_secs(1);
            churn_step(rng, &mut next, servers.len() as u32, &mut next_id);
            let delta = diff(&prev, &next);
            threshold_selections(&stepped, probe);
            assert!(
                stepped.apply(Arc::new(next.clone()), servers.clone(), &delta),
                "per-step apply refused at step {step}"
            );
            prev = next;
        }
        let span = diff(&snap0, &prev);
        threshold_selections(&spanned, probe);
        assert!(
            spanned.apply(Arc::new(prev.clone()), servers.clone(), &span),
            "spanning apply refused"
        );
        let oracle = frame(&prev);
        stepped.assert_same_indexes(&oracle);
        spanned.assert_same_indexes(&oracle);

        // Enumeration through the public API agrees as well, including the
        // threshold-pruned path over the cpu-sorted copies.
        let full: Vec<ServerId> = servers.iter().map(|s| s.id).collect();
        let patched_ctx = EvalCtx::scoped(&stepped, &full);
        let oracle_ctx = EvalCtx::scoped(&oracle, &full);
        for pattern in [AType::Any, AType::Named("T1".into())] {
            let a: Vec<ActorId> = patched_ctx
                .actors_matching(&pattern, None)
                .iter()
                .map(|a| a.actor)
                .collect();
            let b: Vec<ActorId> = oracle_ctx
                .actors_matching(&pattern, None)
                .iter()
                .map(|a| a.actor)
                .collect();
            assert_eq!(a, b, "enumeration diverged for {pattern:?}");
        }
        let expected = threshold_selections(&oracle, probe);
        assert_eq!(
            threshold_selections(&stepped, probe),
            expected,
            "stepped threshold selections diverged"
        );
        assert_eq!(
            threshold_selections(&spanned, probe),
            expected,
            "spanned threshold selections diverged"
        );
    });
}
