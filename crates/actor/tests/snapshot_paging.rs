//! The window roll's work gate: snapshot rows live in pages shared between
//! generations, and a roll rebuilds only the pages whose actors changed.
//! `Runtime::snapshot_rows_built` counts the rows the rolls wrote, so a
//! roll that rebuilt the whole world, or marked pages no actor changed in,
//! shows up here as an exact count rather than as a timing.

use std::collections::BTreeSet;

use plasma_actor::logic::{ActorCtx, ClientCtx};
use plasma_actor::message::Payload;
use plasma_actor::runtime::{Runtime, RuntimeConfig};
use plasma_actor::stats::{SnapshotDelta, PAGE_SLOTS};
use plasma_actor::{ActorId, ActorLogic, ClientLogic, Message};
use plasma_cluster::{InstanceType, ServerId};
use plasma_sim::{SimDuration, SimTime};

/// Serves each request with a little CPU and a reply.
struct Echo;

impl ActorLogic for Echo {
    fn on_message(&mut self, ctx: &mut ActorCtx<'_>, _msg: &mut Message) {
        ctx.work(0.001);
        ctx.reply(32);
    }
}

/// Calls one actor every 100 ms, forever.
struct Pulse {
    target: ActorId,
}

impl ClientLogic for Pulse {
    fn on_start(&mut self, ctx: &mut ClientCtx<'_>) {
        ctx.set_timer(SimDuration::ZERO, 0);
    }

    fn on_reply(&mut self, _: &mut ClientCtx<'_>, _: u64, _: SimDuration, _: Option<Payload>) {}

    fn on_timer(&mut self, ctx: &mut ClientCtx<'_>, _token: u64) {
        ctx.request(self.target, "ping", 64);
        ctx.set_timer(SimDuration::from_millis(100), 0);
    }
}

#[test]
fn rolls_rebuild_only_the_pages_of_the_called_actors() {
    const WORLD: usize = 10_240;
    let mut rt = Runtime::new(RuntimeConfig {
        seed: 20,
        // Lets the test move a called actor at any time.
        min_residency: SimDuration::ZERO,
        ..RuntimeConfig::default()
    });
    let servers: Vec<ServerId> = (0..4)
        .map(|_| rt.add_server(InstanceType::m1_small()))
        .collect();
    let ids: Vec<ActorId> = (0..WORLD)
        .map(|i| rt.spawn_actor("Echo", Box::new(Echo), 1 << 10, servers[i % 4]))
        .collect();
    // Eight called actors over six pages: two pairs share a page.
    let called: Vec<ActorId> = [0, 5, 700, 1_500, 1_510, 4_096, 9_000, 10_239]
        .into_iter()
        .map(|i| ids[i])
        .collect();
    for &target in &called {
        rt.add_client(Box::new(Pulse { target }));
    }
    let pages: BTreeSet<u64> = called.iter().map(|a| a.0 / PAGE_SLOTS as u64).collect();
    assert_eq!(pages.len(), 6);
    let bound = (pages.len() * PAGE_SLOTS) as u64;

    rt.run_until(SimTime::from_secs(1));
    assert_eq!(rt.snapshot_builds(), 1);
    assert_eq!(
        rt.snapshot_rows_built(),
        WORLD as u64,
        "the first roll builds every row"
    );
    let mut prev = rt.snapshot_shared();
    let mut built = rt.snapshot_rows_built();
    let mut moved_seen = false;
    for second in 2..=12u64 {
        match second {
            // A migration and a reference edit, both on called actors, so
            // the pages they mark are already in the bound.
            4 => rt.migrate(called[2], servers[3]).expect("movable"),
            6 => rt.actor_add_ref(called[3], "peers", called[4]),
            _ => {}
        }
        rt.run_until(SimTime::from_secs(second));
        let snap = rt.snapshot_shared();
        assert_eq!(snap.generation, prev.generation + 1);
        assert_eq!(snap.len(), WORLD);
        let step = rt.snapshot_rows_built() - built;
        assert!(
            step <= bound,
            "window {second}: the roll wrote {step} rows, more than the {bound} slots \
             of the {} pages holding the called actors",
            pages.len()
        );
        assert!(step > 0, "window {second}: the called actors' rows changed");
        for &a in &called {
            assert!(snap.actor(a).unwrap().counters.total_received() > 0);
        }
        let delta = SnapshotDelta::between(&prev, &snap);
        assert_eq!(
            delta,
            SnapshotDelta::walk_rows(&prev, &snap),
            "window {second}: the page walk diverged from the row walk"
        );
        moved_seen |= delta.moved == vec![called[2]];
        if second == 6 {
            assert_eq!(delta.refs_changed, vec![called[3]]);
        }
        built = rt.snapshot_rows_built();
        prev = snap;
    }
    assert!(moved_seen, "the migration showed up in a delta");
    assert_eq!(prev.actor(called[2]).unwrap().server, servers[3]);
}
