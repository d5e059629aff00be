//! Property test of the paged window roll under random runtime churn.
//!
//! Each case drives a small cluster through random spawns, removals,
//! migrations, reference edits (no-ops included), pins, state-size
//! changes and messages, plus a LEM crash and a server crash whose
//! orphans are respawned, and rolls the window by hand — the forced roll
//! a `SnapshotSkew` fault injects — after every step, and sometimes
//! between a step's operations and the events they cause. Before each roll it
//! builds every page from the same entries; after it, the paged snapshot
//! must equal that build row for row, and the page-skipping delta must
//! equal the full row walk, for each roll and for the span over all of
//! them. Every draw comes from one seed per case.

use std::sync::Arc;

use plasma_chaos::{FaultPlan, RecoveryPolicy};
use plasma_cluster::{InstanceType, ServerId};
use plasma_sim::rng::check_cases;
use plasma_sim::{DetRng, SimDuration, SimTime};

use super::{assert_same_rows, Runtime, RuntimeConfig};
use crate::ids::ActorId;
use crate::logic::{ActorCtx, ActorLogic};
use crate::message::Message;
use crate::stats::{Page, ProfileSnapshot, SnapshotDelta};

/// Serves each message with a little CPU.
struct Busy;

impl ActorLogic for Busy {
    fn on_message(&mut self, ctx: &mut ActorCtx<'_>, _msg: &mut Message) {
        ctx.work(0.002);
    }
}

/// One random runtime operation on a random actor id (removed ids
/// included: every operation is a no-op on them).
fn churn_op(rng: &mut DetRng, rt: &mut Runtime) {
    let running = rt.cluster().running_ids();
    let server = |rng: &mut DetRng| ServerId(rng.below(4) as u32);
    let id = ActorId(rng.below(rt.actors.len() as u64));
    match rng.below(9) {
        0 if !running.is_empty() => {
            let on = running[rng.below(running.len() as u64) as usize];
            rt.spawn_actor("Busy", Box::new(Busy), 1 << 10, on);
        }
        1 => {
            rt.remove_actor(id);
        }
        2 => {
            let _ = rt.migrate(id, server(rng));
        }
        3 => {
            let target = ActorId(rng.below(rt.actors.len() as u64));
            rt.actor_add_ref(id, "peers", target);
            if rng.below(2) == 0 {
                rt.actor_add_ref(id, "peers", target);
            }
        }
        4 => {
            let target = ActorId(rng.below(rt.actors.len() as u64));
            rt.actor_remove_ref(id, "peers", target);
        }
        5 => rt.set_pinned(id, rng.below(2) == 0),
        6 => rt.set_actor_state_size(id, 1 << rng.below(20)),
        _ => {
            let bytes = rng.below(4096);
            rt.inject(id, "work", bytes, None);
        }
    }
}

/// Rolls the window as a `SnapshotSkew` fault does and checks the result:
/// the paged snapshot equals a build of every page from the entries as
/// they stood before the roll, and its delta from the previous snapshot
/// equals the full row walk.
fn checked_roll(rt: &mut Runtime) {
    let prev = rt.snapshot_shared();
    let fresh: Vec<Option<Arc<Page>>> = (0..rt.dirty.len())
        .map(|p| rt.build_page(p, false).0)
        .collect();
    rt.roll_window(false);
    let next = rt.snapshot_shared();
    assert_same_rows(&next.pages, &fresh, next.generation);
    assert_deltas_agree(&prev, &next);
}

/// The page-skipping delta between two snapshots equals the full row walk.
fn assert_deltas_agree(from: &ProfileSnapshot, to: &ProfileSnapshot) {
    assert_eq!(
        SnapshotDelta::between(from, to),
        SnapshotDelta::walk_rows(from, to),
        "generations {} to {}: the page walk diverged from the row walk",
        from.generation,
        to.generation
    );
}

#[test]
fn paged_rolls_match_full_builds_under_churn() {
    check_cases("paged_rolls_match_full_builds_under_churn", 48, |rng| {
        let mut rt = Runtime::new(RuntimeConfig {
            seed: rng.next_u64(),
            // No periodic roll inside the horizon: every roll is the
            // test's own, so every one is checked.
            profile_window: SimDuration::from_secs(10_000),
            min_residency: SimDuration::ZERO,
            ..RuntimeConfig::default()
        });
        let servers: Vec<ServerId> = (0..4)
            .map(|_| rt.add_server(InstanceType::m1_small()))
            .collect();
        // Up to ~16 pages, and few operations a step, so most pages stay
        // unmarked between rolls: a change that escapes the marking shows
        // as a stale row in one of them.
        for i in 0..(64 + rng.below(960)) {
            let on = servers[(i % 4) as usize];
            rt.spawn_actor("Busy", Box::new(Busy), 1 << 10, on);
        }
        checked_roll(&mut rt);
        let first = rt.snapshot_shared();
        // The crashed server either reboots before the failure detector
        // notices (orphans respawn in place) or after (on the survivors).
        let restart = SimDuration::from_secs(if rng.below(2) == 0 { 1 } else { 30 });
        rt.install_fault_plan(
            &FaultPlan::new()
                .crash_lem(SimTime::from_secs(1 + rng.below(12)), servers[0])
                .crash_server(
                    SimTime::from_secs(1 + rng.below(12)),
                    servers[1],
                    Some(restart),
                ),
            RecoveryPolicy {
                heartbeat_period: SimDuration::from_secs(1),
                heartbeat_timeout: SimDuration::from_secs(2),
                ..RecoveryPolicy::default()
            },
        );
        for step in 1..=16u64 {
            for _ in 0..(1 + rng.below(4)) {
                churn_op(rng, &mut rt);
            }
            // Rolling right after the operations leaves their migrations
            // and messages in flight across the roll, to land in the next
            // window.
            if rng.below(2) == 0 {
                checked_roll(&mut rt);
            }
            rt.run_until(SimTime::from_secs(step));
            checked_roll(&mut rt);
        }
        // Past any reboot: the crashed server's orphans are all back.
        rt.run_until(SimTime::from_secs(600));
        checked_roll(&mut rt);
        // The span over every roll of the case, crash and respawns
        // included, diffs as its endpoints' row walk does.
        assert_deltas_agree(&first, rt.snapshot());
        let chaos = rt.chaos.as_ref().expect("fault plan installed");
        assert_eq!(chaos.stats.servers_crashed, 1);
        assert!(chaos.stats.actors_recovered > 0, "orphans respawned");
        assert!(chaos.orphaned_ids.is_empty(), "no orphan left");
    });
}
