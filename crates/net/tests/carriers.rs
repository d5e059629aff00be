//! The carrier suite. Both real carriers are `plasma-net`'s worker loop,
//! hosted by `plasma-server` processes (net) or by threads of this process
//! (live); every test body runs against both hosts, and against the
//! audit-only `SimBackend` where logical counters are compared. Carriers
//! must keep exactly-once window/round semantics, carry the control plane,
//! and shut down cleanly. The PID and orphan checks apply to processes
//! only.

mod common;

use std::path::PathBuf;

use common::{running, sigkill};
use plasma_backend::{
    BackendKind, ControlQuery, Delivery, Execution, ExecutionBackend, ServerReport, SimBackend,
};
use plasma_net::{Frame, NetBackend, NetConfig};

/// The two hosts of the real carrier.
const HOSTS: [BackendKind; 2] = [BackendKind::Net, BackendKind::Live];

fn launch(host: BackendKind, groups: u32) -> NetBackend {
    let b = match host {
        BackendKind::Net => NetBackend::launch(NetConfig {
            groups,
            worker_bin: Some(PathBuf::from(env!("CARGO_BIN_EXE_plasma-server"))),
        }),
        _ => NetBackend::launch_threads(groups),
    }
    .expect("launch workers");
    assert_eq!(b.kind(), host);
    assert_eq!(b.stats().workers_spawned, u64::from(groups));
    b
}

/// Sim plus both real hosts with two groups each.
fn every_carrier() -> Vec<Box<dyn ExecutionBackend>> {
    let mut all: Vec<Box<dyn ExecutionBackend>> = vec![Box::new(SimBackend::new())];
    for host in HOSTS {
        all.push(Box::new(launch(host, 2)));
    }
    all
}

fn deliver(b: &mut dyn ExecutionBackend, server: u32, actor: u64, remote: bool) {
    b.transmit(Delivery {
        server,
        actor,
        bytes: 32,
        remote,
    });
}

/// The same event stream on every carrier: each verifies the window
/// exactly once and agrees with sim on every logical counter.
#[test]
fn carriers_agree_on_logical_counters() {
    let mut counts = Vec::new();
    for mut b in every_carrier() {
        let kind = b.kind();
        for i in 0..10u64 {
            deliver(b.as_mut(), (i % 2) as u32, i, i % 2 == 1);
            b.execute(Execution {
                server: (i % 2) as u32,
                actor: i,
                service_ns: 1_000,
            });
        }
        assert!(
            b.window_close(1),
            "{kind:?} window must verify exactly-once carriage"
        );
        assert!(b.round_barrier(1), "{kind:?} round must be acked");
        if kind != BackendKind::Sim {
            let s = b.stats();
            assert_eq!(s.window_mismatches, 0);
            assert!(s.frames_sent > 0 && s.frames_received > 0, "{kind:?}");
            assert!(
                s.wire_bytes_sent > 0 && s.wire_bytes_received > 0,
                "{kind:?}"
            );
            assert!(s.max_inflight_frames > 0, "{kind:?}");
        }
        let s = b.stats();
        counts.push((s.deliveries, s.executions));
    }
    assert!(counts.iter().all(|c| *c == counts[0]), "{counts:?}");
}

/// A worker counts what its connection carried, whichever servers the
/// frames name: a window over any server ids balances, and so does an
/// empty one.
#[test]
fn windows_balance_per_connection() {
    for host in HOSTS {
        let mut b = launch(host, 2);
        for (i, server) in [0, 1, 9, 1_000_003].into_iter().enumerate() {
            deliver(&mut b, server, i as u64, server % 2 == 1);
            b.execute(Execution {
                server,
                actor: i as u64,
                service_ns: 250,
            });
        }
        assert!(b.window_close(1), "{host:?}: any server ids must balance");
        assert!(b.window_close(2), "{host:?}: an empty window must balance");
        let s = b.stats();
        assert_eq!((s.deliveries, s.executions), (4, 4), "{host:?}");
        assert_eq!(s.window_mismatches, 0, "{host:?}");
        b.shutdown();
    }
}

/// A window of ~1.2 MB of data frames, so each connection writes its
/// 64 KiB output buffer to the socket many times between barriers: the
/// window balances, the carrier counts every frame and byte it wrote
/// exactly, and the next, empty window balances too.
#[test]
fn a_window_past_the_output_buffer_balances_with_exact_counts() {
    const N: u64 = 20_000;
    const DELAY_NS: u64 = 5_000;
    let len = |f: Frame| f.encode_vec().len() as u64;
    for host in HOSTS {
        let mut b = launch(host, 2);
        b.link_delay(DELAY_NS);
        let (mut data_bytes, mut remote) = (0, 0);
        for i in 0..N {
            let server = (i % 7) as u32;
            let delivery = Delivery {
                server,
                actor: i,
                bytes: 64 + i % 512,
                remote: i % 3 == 0,
            };
            let execution = Execution {
                server,
                actor: i,
                service_ns: 1_000 + i,
            };
            b.transmit(delivery);
            b.execute(execution);
            let delay_ns = if delivery.remote { DELAY_NS } else { 0 };
            data_bytes += len(Frame::Deliver { delivery, delay_ns });
            data_bytes += len(Frame::Execute { execution });
            remote += u64::from(delivery.remote);
        }
        let marks = |generation| 2 * len(Frame::WindowMark { generation });
        assert!(data_bytes > 16 * 64 * 1024, "{data_bytes} bytes");

        assert!(b.window_close(1), "{host:?}: the window must balance");
        let s = b.stats();
        assert_eq!((s.deliveries, s.executions), (N, N), "{host:?}");
        // Every data frame plus one mark per group.
        assert_eq!(s.frames_sent, 2 * N + 2, "{host:?}");
        assert_eq!(s.max_inflight_frames, 2 * N + 2, "{host:?}");
        assert_eq!(s.wire_bytes_sent, data_bytes + marks(1), "{host:?}");
        assert_eq!(s.channel_samples, remote, "{host:?}");
        assert_eq!(s.channel_ns_total, remote * DELAY_NS, "{host:?}");

        assert!(b.window_close(2), "{host:?}: an empty window must balance");
        let s = b.stats();
        assert_eq!(s.frames_sent, 2 * N + 4, "{host:?}");
        assert_eq!(s.max_inflight_frames, 2 * N + 2, "{host:?}");
        assert_eq!(
            s.wire_bytes_sent,
            data_bytes + marks(1) + marks(2),
            "{host:?}"
        );
        assert_eq!(s.window_mismatches, 0, "{host:?}");
        b.shutdown();
    }
}

/// GEM control traffic rides the same per-group connections as carriage:
/// reports published to workers come back bit-for-bit as query candidates,
/// the window barrier still balances with control frames in flight, and
/// the control counters account every REPORT, QUERY and QREPLY frame
/// exactly. Sim answers the same query with one merged reply holding the
/// same candidates and puts no byte on a wire.
#[test]
fn control_queries_return_published_rows_and_balance_windows() {
    let mk = |server: u32, cpu: f64| ServerReport {
        server,
        vcpus: 2,
        actor_count: 3,
        mem_bytes: 1 << 30,
        total_speed_bits: 2.0f64.to_bits(),
        net_bps_bits: 1e9f64.to_bits(),
        cpu_bits: cpu.to_bits(),
        mem_bits: 0.25f64.to_bits(),
        net_bits: 0.1f64.to_bits(),
    };
    let r0 = mk(0, 0.9);
    let r1 = mk(1, 0.2);
    let q = ControlQuery {
        gem: 0,
        round: 1,
        generation: 7,
        scope: vec![1, 0],
    };
    for mut b in every_carrier() {
        let kind = b.kind();
        b.publish_report(7, &r0);
        b.publish_report(7, &r1);
        let replies = b.query(&q).expect("every asked carrier answers");
        if kind == BackendKind::Sim {
            assert_eq!(replies.len(), 1, "sim answers with one merged reply");
        } else {
            assert_eq!(replies.len(), 2, "{kind:?}: one reply per group");
            // Group 0 holds server 0, group 1 server 1; each answers from
            // its own holdings.
            assert_eq!(replies[0].candidates, vec![r0], "{kind:?}");
            assert_eq!(replies[1].candidates, vec![r1], "{kind:?}");
        }
        // Reassembling candidates in scope order across the replies
        // recovers exactly what was published — the bit-parity property
        // the EMR's merge step relies on.
        let mut merged = Vec::new();
        for &s in &q.scope {
            for rep in &replies {
                if let Some(c) = rep.candidates.iter().find(|c| c.server == s) {
                    merged.push(*c);
                }
            }
        }
        assert_eq!(merged, vec![r1, r0], "{kind:?}");
        assert!(b.window_close(1), "{kind:?}: control carriage must balance");
        let s = b.stats();
        assert_eq!(s.control_queries, 1, "{kind:?}");
        if kind == BackendKind::Sim {
            assert_eq!((s.control_replies, s.control_wire_bytes), (1, 0));
        } else {
            assert_eq!(s.control_replies, 2, "{kind:?}");
            // Two reports, one query to each group and one reply from each.
            let frame_len = |f: Frame| f.encode_vec().len() as u64;
            let reports: u64 = [r0, r1]
                .into_iter()
                .map(|report| {
                    frame_len(Frame::Report {
                        generation: 7,
                        report,
                    })
                })
                .sum();
            let queries = 2 * frame_len(Frame::Query { query: q.clone() });
            let qreplies: u64 = replies
                .into_iter()
                .map(|reply| frame_len(Frame::QReply { reply }))
                .sum();
            assert_eq!(
                s.control_wire_bytes,
                reports + queries + qreplies,
                "{kind:?}: every control frame is accounted once, both directions"
            );
        }
    }
}

/// Injected link delay is stamped onto remote deliveries and accounted as
/// deterministic transport latency — same numbers every run, either host.
#[test]
fn link_delay_accounts_deterministic_transport_latency() {
    for host in HOSTS {
        let collect = || {
            let mut b = launch(host, 2);
            b.link_delay(5_000);
            for i in 0..4u64 {
                // Only remote deliveries ride the degraded link.
                deliver(&mut b, (i % 2) as u32, i, i % 2 == 1);
            }
            b.link_delay(0);
            deliver(&mut b, 0, 9, true);
            assert!(b.window_close(1));
            let s = b.stats();
            b.shutdown();
            (s.channel_samples, s.channel_ns_total, s.channel_ns_max)
        };
        let a = collect();
        assert_eq!(a, (2, 10_000, 5_000), "{host:?}");
        assert_eq!(a, collect(), "{host:?}: delay accounting must repeat");
    }
}

/// Net groups are separate processes, none of them this one, and live
/// groups are threads of this process. Shutdown reaps every worker and is
/// idempotent; process workers are gone afterwards (the `net-parity` CI
/// job checks the same property fleet-wide with pgrep after the parity
/// run).
#[test]
fn shutdown_leaves_no_orphan_workers() {
    for host in HOSTS {
        let mut b = launch(host, 3);
        let pids = b.worker_pids();
        assert_eq!(pids.len(), 3);
        let me = std::process::id();
        if host == BackendKind::Net {
            assert!(pids[0] != pids[1] && pids[1] != pids[2] && pids[0] != pids[2]);
            assert!(
                pids.iter().all(|&p| p != me),
                "groups must be separate processes"
            );
        } else {
            assert!(pids.iter().all(|&p| p == me), "live groups are threads");
        }
        assert!(b.window_close(1));
        b.shutdown();
        b.shutdown();
        if host == BackendKind::Net {
            for pid in pids {
                assert!(!running(pid), "worker {pid} still running after shutdown");
            }
        }
    }
}

/// Dropping the backend without an explicit shutdown still reaps workers.
#[test]
fn drop_shuts_down_workers() {
    for host in HOSTS {
        let pids = {
            let mut b = launch(host, 2);
            deliver(&mut b, 0, 1, false);
            b.worker_pids()
        };
        if host == BackendKind::Net {
            for pid in pids {
                assert!(!running(pid), "worker {pid} survived Drop");
            }
        }
    }
}

/// A SIGKILLed worker process fails the next window barrier instead of
/// letting it pass with the dead group's carriage missing.
#[cfg(target_os = "linux")]
#[test]
fn killed_worker_fails_the_next_window() {
    let mut b = launch(BackendKind::Net, 2);
    deliver(&mut b, 1, 1, false);
    assert!(b.window_close(1));
    sigkill(b.worker_pids()[1]);
    deliver(&mut b, 0, 2, false);
    deliver(&mut b, 1, 3, false);
    assert!(!b.window_close(2), "a dead group must fail the barrier");
    assert_eq!(b.stats().window_mismatches, 1);
    b.shutdown();
}

/// A SIGKILLed worker process fails the next query instead of leaving the
/// GEM with the surviving groups' rows only.
#[cfg(target_os = "linux")]
#[test]
fn killed_worker_fails_the_next_query() {
    let mut b = launch(BackendKind::Net, 2);
    for server in [0, 1] {
        b.publish_report(
            1,
            &ServerReport {
                server,
                ..ServerReport::default()
            },
        );
    }
    assert!(b.window_close(1));
    sigkill(b.worker_pids()[1]);
    let query = ControlQuery {
        gem: 0,
        round: 1,
        generation: 1,
        scope: vec![0, 1],
    };
    assert_eq!(b.query(&query), None, "a dead group must fail the query");
    b.shutdown();
}
