//! The per-message path's allocation gate: once a world is warm, delivering
//! and serving a message allocates nothing. A counting global allocator
//! tallies the allocations made on this test's thread while the event loop
//! runs; what is left per delivery is the window roll's, a few per window.
//! A dispatch that builds its own send or reply buffer again shows up as
//! about one allocation per delivery.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use plasma_actor::logic::{ActorCtx, ClientCtx};
use plasma_actor::message::Payload;
use plasma_actor::runtime::{Runtime, RuntimeConfig};
use plasma_actor::{ActorId, ActorLogic, ClientLogic, Message};
use plasma_cluster::InstanceType;
use plasma_sim::{SimDuration, SimTime};

/// Counts every allocation and reallocation made on a thread whose
/// `COUNTING` flag is set.
struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn note_allocation() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        }
    });
}

// SAFETY: every method hands its arguments unchanged to `System`, which
// keeps `GlobalAlloc`'s contract; the tally only touches const-initialised
// thread-locals without destructors, so it never allocates or re-enters.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// An E-Store root: some CPU, then the request goes on to its child.
struct Root {
    child: ActorId,
}

impl ActorLogic for Root {
    fn on_message(&mut self, ctx: &mut ActorCtx<'_>, _msg: &mut Message) {
        ctx.work(0.0018);
        ctx.send(self.child, "read", 128);
    }
}

/// An E-Store child: some CPU, then the reply to the client.
struct Child;

impl ActorLogic for Child {
    fn on_message(&mut self, ctx: &mut ActorCtx<'_>, _msg: &mut Message) {
        ctx.work(0.0012);
        ctx.reply(512);
    }
}

/// A closed-loop client: after each reply it thinks for 50 ms, then reads
/// a random root.
struct Reader {
    roots: Vec<ActorId>,
}

impl Reader {
    fn fire(&mut self, ctx: &mut ClientCtx<'_>) {
        let root = self.roots[ctx.rng().index(self.roots.len())];
        ctx.request(root, "read", 96);
    }
}

impl ClientLogic for Reader {
    fn on_start(&mut self, ctx: &mut ClientCtx<'_>) {
        self.fire(ctx);
    }

    fn on_reply(
        &mut self,
        ctx: &mut ClientCtx<'_>,
        _request: u64,
        _latency: SimDuration,
        _payload: Option<Payload>,
    ) {
        ctx.set_timer(SimDuration::from_millis(50), 0);
    }

    fn on_timer(&mut self, ctx: &mut ClientCtx<'_>, _token: u64) {
        self.fire(ctx);
    }
}

#[test]
fn a_warm_delivery_allocates_nothing() {
    // E-Store's profile window. The roll allocates per window, and debug
    // builds add a full snapshot build to every roll.
    let mut rt = Runtime::new(RuntimeConfig {
        profile_window: SimDuration::from_secs(5),
        ..RuntimeConfig::default()
    });
    let servers: Vec<_> = (0..4)
        .map(|_| rt.add_server(InstanceType::m1_small()))
        .collect();
    let roots: Vec<ActorId> = (0..64)
        .map(|i| {
            let home = servers[i % servers.len()];
            let child = rt.spawn_actor("Partition", Box::new(Child), 512 << 10, home);
            rt.spawn_actor("Partition", Box::new(Root { child }), 256 << 10, home)
        })
        .collect();
    for _ in 0..48 {
        rt.add_client(Box::new(Reader {
            roots: roots.clone(),
        }));
    }
    rt.run_until(SimTime::from_secs(20));

    let before = rt.backend_stats().deliveries;
    COUNTING.with(|on| on.set(true));
    rt.run_until(SimTime::from_secs(140));
    COUNTING.with(|on| on.set(false));
    let deliveries = rt.backend_stats().deliveries - before;
    let allocations = ALLOCATIONS.with(Cell::get);

    assert!(deliveries > 100_000, "only {deliveries} deliveries");
    let per_delivery = allocations as f64 / deliveries as f64;
    assert!(
        per_delivery < 0.1,
        "{allocations} allocations over {deliveries} deliveries ({per_delivery:.3} each)"
    );
}
