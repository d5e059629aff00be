//! Whole-system conservation and sanity invariants, property-tested over
//! random topologies and workloads.

use plasma::prelude::*;
use plasma_sim::rng::check_cases;
use plasma_sim::SimTime;

struct Echo {
    work: f64,
    fanout: Option<ActorId>,
}

impl ActorLogic for Echo {
    fn on_message(&mut self, ctx: &mut ActorCtx<'_>, msg: &mut Message) {
        ctx.work(self.work);
        if let Some(peer) = self.fanout {
            if msg.corr.is_some() {
                ctx.send(peer, "relay", 64);
                return;
            }
        }
        if msg.corr.is_some() {
            ctx.reply(32);
        }
    }
}

struct Loop {
    target: ActorId,
    remaining: u64,
}

impl ClientLogic for Loop {
    fn on_start(&mut self, ctx: &mut ClientCtx<'_>) {
        if self.remaining > 0 {
            self.remaining -= 1;
            ctx.request(self.target, "run", 64);
        }
    }
    fn on_reply(&mut self, ctx: &mut ClientCtx<'_>, _r: u64, _l: SimDuration, _p: Option<Payload>) {
        if self.remaining > 0 {
            self.remaining -= 1;
            ctx.request(self.target, "run", 64);
        }
    }
}

/// No request is ever lost: every issued request is answered, across
/// arbitrary topologies, worker costs, and periodic migrations.
#[test]
fn requests_conserved_under_migration() {
    check_cases("requests_conserved_under_migration", 24, |rng| {
        let seed = rng.below(500);
        let servers = 2 + rng.index(3);
        let chains = 1 + rng.index(4);
        let work_us = 100 + rng.below(4_900);
        let requests = 10 + rng.below(50);
        let mut rt = Runtime::new(RuntimeConfig {
            seed,
            min_residency: SimDuration::ZERO,
            ..RuntimeConfig::default()
        });
        let server_ids: Vec<ServerId> = (0..servers)
            .map(|_| rt.add_server(InstanceType::m1_small()))
            .collect();
        let mut heads = Vec::new();
        for i in 0..chains {
            let tail = rt.spawn_actor(
                "Tail",
                Box::new(Echo {
                    work: work_us as f64 / 1e6,
                    fanout: None,
                }),
                1 << 16,
                server_ids[i % servers],
            );
            let head = rt.spawn_actor(
                "Head",
                Box::new(Echo {
                    work: work_us as f64 / 2e6,
                    fanout: Some(tail),
                }),
                1 << 16,
                server_ids[(i + 1) % servers],
            );
            rt.add_client(Box::new(Loop {
                target: head,
                remaining: requests,
            }));
            heads.push((head, tail));
        }
        // Stir the pot: migrate actors round-robin every simulated second.
        for round in 0..10u64 {
            rt.run_until(SimTime::from_secs(round + 1));
            for (k, &(head, tail)) in heads.iter().enumerate() {
                let dst = server_ids[(round as usize + k) % servers];
                let _ = rt.migrate(head, dst);
                let _ = rt.migrate(tail, dst);
            }
        }
        rt.run_until(SimTime::from_secs(400));
        let report = rt.report();
        assert_eq!(report.requests, requests * chains as u64);
        assert_eq!(report.replies, report.requests, "every request answered");
        assert_eq!(report.dropped_messages, 0);
        assert_eq!(report.orphan_replies, 0);
    });
}

/// Each actor is resident on exactly one running server, and per-server
/// actor counts are consistent with per-actor server records.
#[test]
fn placement_is_a_partition() {
    check_cases("placement_is_a_partition", 24, |rng| {
        let seed = rng.below(500);
        let servers = 1 + rng.index(5);
        let actors = 1 + rng.index(39);
        let mut rt = Runtime::new(RuntimeConfig {
            seed,
            ..RuntimeConfig::default()
        });
        let server_ids: Vec<ServerId> = (0..servers)
            .map(|_| rt.add_server(InstanceType::m1_small()))
            .collect();
        let ids: Vec<ActorId> = (0..actors)
            .map(|_| {
                let s = *rng.choose(&server_ids);
                rt.spawn_actor(
                    "A",
                    Box::new(Echo {
                        work: 0.0,
                        fanout: None,
                    }),
                    64,
                    s,
                )
            })
            .collect();
        rt.run_until(SimTime::from_secs(5));
        let mut total = 0usize;
        for &s in &server_ids {
            let on_s = rt.actors_on(s);
            total += on_s.len();
            for a in on_s {
                assert_eq!(rt.actor_server(a), s);
            }
        }
        assert_eq!(total, ids.len());
    });
}

/// Server utilization snapshots stay within [0, 1] whatever the load.
#[test]
fn utilization_bounded() {
    check_cases("utilization_bounded", 24, |rng| {
        let seed = rng.below(500);
        let load_us = 100 + rng.below(49_900);
        let clients = 1 + rng.index(11);
        let mut rt = Runtime::new(RuntimeConfig {
            seed,
            ..RuntimeConfig::default()
        });
        let s = rt.add_server(InstanceType::m1_small());
        let a = rt.spawn_actor(
            "A",
            Box::new(Echo {
                work: load_us as f64 / 1e6,
                fanout: None,
            }),
            64,
            s,
        );
        for _ in 0..clients {
            rt.add_client(Box::new(Loop {
                target: a,
                remaining: u64::MAX,
            }));
        }
        rt.run_until(SimTime::from_secs(10));
        let snap = rt.snapshot();
        let usage = snap.server(s).unwrap().usage;
        assert!((0.0..=1.0).contains(&usage.cpu()));
        assert!((0.0..=1.0).contains(&usage.mem()));
        assert!((0.0..=1.0).contains(&usage.net()));
        for actor in snap.actors() {
            assert!((0.0..=1.0).contains(&actor.cpu_share));
        }
    });
}

/// Deterministic replay of a `utilization_bounded` counterexample
/// (`seed = 0, load_us = 6915, clients = 3`). Three closed-loop clients
/// against one ~6.9 ms/request actor saturate an `m1_small`, so the snapshot
/// must report *exactly* full CPU — the boundary of the `[0, 1]` invariant,
/// where an unclamped utilization sum historically overshot. Pinned as its
/// own test because the seeded cases need not draw this input again.
#[test]
fn utilization_bounded_regression_saturated_server() {
    let mut rt = Runtime::new(RuntimeConfig {
        seed: 0,
        ..RuntimeConfig::default()
    });
    let s = rt.add_server(InstanceType::m1_small());
    let a = rt.spawn_actor(
        "A",
        Box::new(Echo {
            work: 6915.0 / 1e6,
            fanout: None,
        }),
        64,
        s,
    );
    for _ in 0..3 {
        rt.add_client(Box::new(Loop {
            target: a,
            remaining: u64::MAX,
        }));
    }
    rt.run_until(SimTime::from_secs(10));
    let snap = rt.snapshot();
    let usage = snap.server(s).unwrap().usage;
    assert_eq!(
        usage.cpu(),
        1.0,
        "saturated server reports exactly full CPU"
    );
    assert!((0.0..=1.0).contains(&usage.mem()));
    assert!((0.0..=1.0).contains(&usage.net()));
    for actor in snap.actors() {
        assert!((0.0..=1.0).contains(&actor.cpu_share));
    }
}
