//! A run whose carrier lost its workers stops with a named panic instead
//! of finishing with silently different numbers. This is its own test
//! binary so that the only child processes of this process are the
//! workers of the one runtime under test.
#![cfg(target_os = "linux")]

mod common;

use std::panic::{catch_unwind, AssertUnwindSafe};

use plasma_actor::runtime::{Runtime, RuntimeConfig};
use plasma_actor::{BackendKind, ControlQuery};
use plasma_cluster::InstanceType;
use plasma_sim::{SimDuration, SimTime};

/// PIDs of this process's live child processes, from `/proc`.
fn children() -> Vec<u32> {
    let me = std::process::id();
    let mut pids = Vec::new();
    for entry in std::fs::read_dir("/proc").expect("read /proc") {
        let Ok(pid) = entry
            .expect("/proc entry")
            .file_name()
            .to_string_lossy()
            .parse()
        else {
            continue;
        };
        let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else {
            continue;
        };
        // Fields after the parenthesized command name: state, ppid, ...
        let rest = &stat[stat.rfind(')').expect("stat has a comm") + 2..];
        let ppid: u32 = rest
            .split(' ')
            .nth(1)
            .and_then(|p| p.parse().ok())
            .unwrap_or(0);
        if ppid == me && common::running(pid) {
            pids.push(pid);
        }
    }
    pids
}

/// Kills every worker of a net runtime after `run_until(kill_at)` and
/// returns the panic that `then` stops with.
fn lost_carrier_panic(cfg: RuntimeConfig, kill_at: SimTime, then: fn(&mut Runtime)) -> String {
    let mut rt = Runtime::new(RuntimeConfig {
        backend: BackendKind::Net,
        ..cfg
    });
    rt.add_server(InstanceType::m1_small());
    rt.add_server(InstanceType::m1_small());
    rt.run_until(kill_at);
    let workers = children();
    assert!(!workers.is_empty(), "the net runtime spawned no workers");
    for pid in workers {
        common::sigkill(pid);
    }
    let err = catch_unwind(AssertUnwindSafe(|| then(&mut rt)))
        .expect_err("a run without its carrier must not go on");
    err.downcast_ref::<String>()
        .expect("formatted panic message")
        .clone()
}

/// Workers killed before the first window fail that window; workers killed
/// between the first window and the first round fail the round, naming the
/// window as the last barrier that balanced, and fail a GEM query sent
/// before that round.
#[test]
fn killed_workers_stop_the_run_with_a_named_panic() {
    std::env::set_var("PLASMA_SERVER_BIN", env!("CARGO_BIN_EXE_plasma-server"));
    let first_round = RuntimeConfig {
        profile_window: SimDuration::from_secs(2),
        elasticity_period: SimDuration::from_secs(3),
        ..RuntimeConfig::default()
    };
    let finish: fn(&mut Runtime) = |rt| rt.run_until(SimTime::from_secs(5));
    let query: fn(&mut Runtime) = |rt| {
        rt.control_query(ControlQuery {
            gem: 0,
            round: 7,
            generation: rt.snapshot().generation,
            scope: vec![0, 1],
        });
    };
    let cases = [
        (
            RuntimeConfig::default(),
            SimTime::ZERO,
            finish,
            "net carrier lost: window generation 1 did not balance (last matched barrier: none)",
        ),
        (
            first_round.clone(),
            SimTime::from_millis(2_500),
            finish,
            "net carrier lost: round 1 did not balance (last matched barrier: window generation 1)",
        ),
        (
            first_round,
            SimTime::from_millis(2_500),
            query,
            "net carrier lost: query round 7 did not balance (last matched barrier: window generation 1)",
        ),
    ];
    for (cfg, kill_at, then, expected) in cases {
        // Each case's runtime is dropped inside the call, so the next case
        // counts only its own workers as children.
        assert_eq!(lost_carrier_panic(cfg, kill_at, then), expected);
    }
}
