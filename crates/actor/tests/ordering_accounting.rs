//! Message-ordering and resource-accounting guarantees of the simulated
//! runtime.

use plasma_actor::logic::{ActorCtx, ClientCtx};
use plasma_actor::message::Payload;
use plasma_actor::{ActorId, ActorLogic, ClientLogic, Message, Runtime, RuntimeConfig};
use plasma_cluster::{InstanceType, ServerId};
use plasma_sim::{SimDuration, SimTime};

/// Records the sequence numbers it receives, in order.
struct Recorder {
    seen: std::sync::Arc<std::sync::Mutex<Vec<u64>>>,
}

impl ActorLogic for Recorder {
    fn on_message(&mut self, ctx: &mut ActorCtx<'_>, msg: &mut Message) {
        ctx.work(0.001);
        if let Some(seq) = msg.payload_ref::<u64>() {
            self.seen.lock().unwrap().push(*seq);
        }
        ctx.reply(8);
    }
}

struct SeqClient {
    target: ActorId,
    next: u64,
    max: u64,
}

impl ClientLogic for SeqClient {
    fn on_start(&mut self, ctx: &mut ClientCtx<'_>) {
        ctx.request_with(self.target, "rec", 16, Box::new(self.next));
        self.next += 1;
    }
    fn on_reply(&mut self, ctx: &mut ClientCtx<'_>, _r: u64, _l: SimDuration, _p: Option<Payload>) {
        if self.next < self.max {
            ctx.request_with(self.target, "rec", 16, Box::new(self.next));
            self.next += 1;
        }
    }
}

#[test]
fn per_sender_fifo_without_migration() {
    let seen = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
    let mut rt = Runtime::new(RuntimeConfig {
        seed: 1,
        ..RuntimeConfig::default()
    });
    let s = rt.add_server(InstanceType::m1_small());
    let rec = rt.spawn_actor("Recorder", Box::new(Recorder { seen: seen.clone() }), 64, s);
    rt.add_client(Box::new(SeqClient {
        target: rec,
        next: 0,
        max: 200,
    }));
    rt.run_until(SimTime::from_secs(60));
    let seen = seen.lock().unwrap();
    assert_eq!(seen.len(), 200);
    assert!(
        seen.windows(2).all(|w| w[0] < w[1]),
        "closed-loop sequence must arrive in order"
    );
}

#[test]
fn per_sender_fifo_survives_migration() {
    let seen = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
    let mut rt = Runtime::new(RuntimeConfig {
        seed: 2,
        min_residency: SimDuration::ZERO,
        ..RuntimeConfig::default()
    });
    let s0 = rt.add_server(InstanceType::m1_small());
    let s1 = rt.add_server(InstanceType::m1_small());
    let rec = rt.spawn_actor(
        "Recorder",
        Box::new(Recorder { seen: seen.clone() }),
        1 << 20,
        s0,
    );
    rt.add_client(Box::new(SeqClient {
        target: rec,
        next: 0,
        max: 300,
    }));
    for round in 0..20u64 {
        rt.run_until(SimTime::from_millis(500 * (round + 1)));
        let dst = if round % 2 == 0 { s1 } else { s0 };
        let _ = rt.migrate(rec, dst);
    }
    rt.run_until(SimTime::from_secs(120));
    let seen = seen.lock().unwrap();
    assert_eq!(seen.len(), 300, "every closed-loop request served");
    assert!(
        seen.windows(2).all(|w| w[0] < w[1]),
        "mailbox travels with the actor, preserving order"
    );
    assert!(rt.report().migrations.len() >= 10);
}

#[test]
fn memory_accounting_follows_migration_and_removal() {
    let mut rt = Runtime::new(RuntimeConfig {
        seed: 3,
        min_residency: SimDuration::ZERO,
        ..RuntimeConfig::default()
    });
    let s0 = rt.add_server(InstanceType::m1_small());
    let s1 = rt.add_server(InstanceType::m1_small());
    let size = 64 << 20;
    let a = rt.spawn_actor(
        "A",
        Box::new(Recorder {
            seen: Default::default(),
        }),
        size,
        s0,
    );
    let mem = |rt: &Runtime, s: ServerId| rt.cluster().server(s).mem_used();
    assert_eq!(mem(&rt, s0), size);
    assert_eq!(mem(&rt, s1), 0);
    rt.migrate(a, s1).unwrap();
    rt.run_until(SimTime::from_secs(20));
    assert_eq!(mem(&rt, s0), 0, "source released the state");
    assert_eq!(mem(&rt, s1), size, "destination holds the state");
    rt.remove_actor(a);
    rt.run_until(SimTime::from_secs(21));
    assert_eq!(mem(&rt, s1), 0, "removal releases the state");
}

#[test]
fn state_size_changes_update_server_memory() {
    struct Grower;
    impl ActorLogic for Grower {
        fn on_message(&mut self, ctx: &mut ActorCtx<'_>, _msg: &mut Message) {
            ctx.set_state_size(10 << 20);
            ctx.reply(8);
        }
    }
    let mut rt = Runtime::new(RuntimeConfig {
        seed: 4,
        ..RuntimeConfig::default()
    });
    let s = rt.add_server(InstanceType::m1_small());
    let g = rt.spawn_actor("G", Box::new(Grower), 1 << 20, s);
    assert_eq!(rt.cluster().server(s).mem_used(), 1 << 20);
    rt.inject(g, "grow", 8, None);
    rt.run_until(SimTime::from_secs(1));
    assert_eq!(rt.cluster().server(s).mem_used(), 10 << 20);
}

#[test]
fn profiling_counters_reset_every_window() {
    struct Echo;
    impl ActorLogic for Echo {
        fn on_message(&mut self, ctx: &mut ActorCtx<'_>, _msg: &mut Message) {
            ctx.work(0.001);
            ctx.reply(8);
        }
    }
    struct Steady {
        target: ActorId,
    }
    impl ClientLogic for Steady {
        fn on_start(&mut self, ctx: &mut ClientCtx<'_>) {
            ctx.set_timer(SimDuration::ZERO, 0);
        }
        fn on_reply(
            &mut self,
            _ctx: &mut ClientCtx<'_>,
            _r: u64,
            _l: SimDuration,
            _p: Option<Payload>,
        ) {
        }
        fn on_timer(&mut self, ctx: &mut ClientCtx<'_>, _t: u64) {
            ctx.request(self.target, "hit", 16);
            ctx.set_timer(SimDuration::from_millis(100), 0);
        }
    }
    let mut rt = Runtime::new(RuntimeConfig {
        seed: 5,
        ..RuntimeConfig::default()
    });
    let s = rt.add_server(InstanceType::m1_small());
    let e = rt.spawn_actor("Echo", Box::new(Echo), 64, s);
    rt.add_client(Box::new(Steady { target: e }));
    rt.run_until(SimTime::from_secs(10));
    // Steady 10 req/s with a 1 s profiling window: each snapshot must hold
    // roughly one window's worth, not the cumulative total.
    let received = rt.snapshot().actor(e).unwrap().counters.total_received();
    assert!(
        (8..=12).contains(&received),
        "window shows ~10 requests, got {received}"
    );
    assert!(rt.report().replies >= 95, "but ~100 were served in total");
}

#[test]
fn network_bytes_accounted_on_both_nics() {
    struct Fwd {
        peer: ActorId,
    }
    impl ActorLogic for Fwd {
        fn on_message(&mut self, ctx: &mut ActorCtx<'_>, msg: &mut Message) {
            if msg.corr.is_some() && msg.fname == ctx.fn_id("in") {
                ctx.send(self.peer, "out", 1_000_000);
            } else {
                ctx.reply(8);
            }
        }
    }
    let mut rt = Runtime::new(RuntimeConfig {
        seed: 6,
        ..RuntimeConfig::default()
    });
    let s0 = rt.add_server(InstanceType::m1_small());
    let s1 = rt.add_server(InstanceType::m1_small());
    // Ids are sequential: sink first, then fwd.
    let sink = rt.spawn_actor("Sink", Box::new(Fwd { peer: ActorId(0) }), 64, s1);
    let fwd = rt.spawn_actor("Fwd", Box::new(Fwd { peer: sink }), 64, s0);
    rt.add_client(Box::new(Steady2 { target: fwd }));
    rt.run_until(SimTime::from_millis(2500));
    // 1 MB/s crossing s0 -> s1: both NICs see ~8 Mbps = 3.2% of 250 Mbps.
    let u0 = rt.snapshot().server(s0).unwrap().usage.net();
    let u1 = rt.snapshot().server(s1).unwrap().usage.net();
    assert!(u0 > 0.02 && u1 > 0.02, "both NICs charged: {u0} {u1}");
}

struct Steady2 {
    target: ActorId,
}
impl ClientLogic for Steady2 {
    fn on_start(&mut self, ctx: &mut ClientCtx<'_>) {
        ctx.set_timer(SimDuration::ZERO, 0);
    }
    fn on_reply(
        &mut self,
        _ctx: &mut ClientCtx<'_>,
        _r: u64,
        _l: SimDuration,
        _p: Option<Payload>,
    ) {
    }
    fn on_timer(&mut self, ctx: &mut ClientCtx<'_>, _t: u64) {
        ctx.request(self.target, "in", 64);
        ctx.set_timer(SimDuration::from_millis(1000), 0);
    }
}

/// Sends one message to each of `to`, in order, from a single service.
struct FanOut {
    to: Vec<ActorId>,
}

impl ActorLogic for FanOut {
    fn on_message(&mut self, ctx: &mut ActorCtx<'_>, _msg: &mut Message) {
        for &a in &self.to {
            ctx.send_detached(a, "go", 64);
        }
    }
}

/// Records when each of its services starts, and which actor ran it.
struct StartLog {
    log: std::sync::Arc<std::sync::Mutex<Vec<(SimTime, ActorId)>>>,
}

impl ActorLogic for StartLog {
    fn on_message(&mut self, ctx: &mut ActorCtx<'_>, _msg: &mut Message) {
        ctx.work(0.01);
        self.log.lock().unwrap().push((ctx.now(), ctx.me()));
    }
}

#[test]
fn same_tick_deliveries_start_in_send_order_one_per_free_lane() {
    const K: usize = 7;
    let log = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
    let mut rt = Runtime::new(RuntimeConfig {
        seed: 3,
        ..RuntimeConfig::default()
    });
    let s = rt.add_server(InstanceType::m5_large());
    let receivers: Vec<ActorId> = (0..K)
        .map(|_| rt.spawn_actor("StartLog", Box::new(StartLog { log: log.clone() }), 64, s))
        .collect();
    let fan = rt.spawn_actor(
        "FanOut",
        Box::new(FanOut {
            to: receivers.clone(),
        }),
        64,
        s,
    );
    rt.inject(fan, "go", 64, None);
    rt.run_until(SimTime::from_secs(10));
    let log = log.lock().unwrap();
    // All K local deliveries land on one tick; the receivers start in the
    // order they were sent ...
    let order: Vec<ActorId> = log.iter().map(|&(_, a)| a).collect();
    assert_eq!(order, receivers, "receivers start in send order");
    // ... two at a time on the m5.large's two lanes: receivers 2k and
    // 2k+1 start together, one service after the pair before them.
    let (first, service) = (log[0].0, log[2].0.saturating_since(log[0].0));
    assert!(service > SimDuration::ZERO);
    for (i, &(started, actor)) in log.iter().enumerate() {
        assert_eq!(
            started,
            first + service * (i / 2) as u64,
            "receiver {i} ({actor:?}) started off its lane slot"
        );
    }
}
