//! A run whose carrier lost its workers stops with a named panic instead
//! of finishing with silently different numbers. This is its own test
//! binary so that the only child processes of this process are the
//! workers of the one runtime under test.
#![cfg(target_os = "linux")]

mod common;

use std::panic::{catch_unwind, AssertUnwindSafe};

use plasma_actor::runtime::{Runtime, RuntimeConfig};
use plasma_actor::BackendKind;
use plasma_cluster::InstanceType;
use plasma_sim::SimTime;

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

#[test]
fn killed_workers_stop_the_run_with_a_named_panic() {
    std::env::set_var("PLASMA_SERVER_BIN", env!("CARGO_BIN_EXE_plasma-server"));
    let mut rt = Runtime::new(RuntimeConfig {
        backend: BackendKind::Net,
        ..RuntimeConfig::default()
    });
    rt.add_server(InstanceType::m1_small());
    rt.add_server(InstanceType::m1_small());
    let workers = children();
    assert!(!workers.is_empty(), "the net runtime spawned no workers");
    for pid in workers {
        common::sigkill(pid);
    }
    let err = catch_unwind(AssertUnwindSafe(|| rt.run_until(SimTime::from_secs(5))))
        .expect_err("a run without its carrier must not finish");
    let msg = err
        .downcast_ref::<String>()
        .expect("formatted panic message");
    assert_eq!(
        msg,
        "net carrier lost: window generation 1 did not balance (last matched barrier: none)"
    );
}
