//! Determinism and end-to-end gate tests for the plasma-eval harness.
//!
//! The CI regression gate depends on two same-seed runs of a scenario
//! serializing to byte-identical JSON; these tests pin that property on the
//! fast scenarios and exercise the run -> serialize -> parse -> compare
//! path the `plasma-eval` binary is built from.

use std::path::PathBuf;
use std::str::FromStr;

use plasma_apps::common::EvalScale;
use plasma_bench::eval::{compare, run_scenario, CompareOptions, ScenarioResult};

fn baseline_dir(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../baselines")
        .join(name)
}

#[test]
fn same_seed_runs_serialize_byte_identically() {
    for name in ["chatroom", "estore"] {
        let a = run_scenario(name, EvalScale::Smoke, None).unwrap();
        let b = run_scenario(name, EvalScale::Smoke, None).unwrap();
        assert_eq!(
            a.to_pretty_string(),
            b.to_pretty_string(),
            "scenario `{name}` is not byte-deterministic"
        );
    }
}

#[test]
fn different_seeds_change_the_seed_stamp() {
    let a = run_scenario("chatroom", EvalScale::Smoke, Some(1)).unwrap();
    let b = run_scenario("chatroom", EvalScale::Smoke, Some(2)).unwrap();
    assert_eq!(a.seed, 1);
    assert_eq!(b.seed, 2);
    assert_ne!(a.to_pretty_string(), b.to_pretty_string());
}

#[test]
fn run_round_trips_and_self_compares_clean() {
    let result = run_scenario("estore", EvalScale::Smoke, None).unwrap();
    let parsed = ScenarioResult::from_str(&result.to_pretty_string()).unwrap();
    assert_eq!(parsed, result);
    let report = compare(
        std::slice::from_ref(&result),
        std::slice::from_ref(&parsed),
        CompareOptions::default(),
    );
    assert!(
        report.passed(),
        "self-comparison must pass:\n{}",
        report.render(0.10)
    );
}

#[test]
fn chaos_scenarios_serialize_byte_identically() {
    for name in ["chatroom-chaos", "estore-chaos", "halo-chaos"] {
        let a = run_scenario(name, EvalScale::Smoke, None).unwrap();
        let b = run_scenario(name, EvalScale::Smoke, None).unwrap();
        assert_eq!(
            a.to_pretty_string(),
            b.to_pretty_string(),
            "scenario `{name}` is not byte-deterministic"
        );
    }
}

/// The empty fault plan is the identity: the fault-free scenarios must
/// reproduce the checked-in baselines byte for byte even though their
/// configs now carry (empty) chaos knobs.
#[test]
fn fault_free_scenarios_match_checked_in_baselines() {
    let dir = baseline_dir("smoke");
    for name in ["chatroom", "estore"] {
        let current = run_scenario(name, EvalScale::Smoke, None)
            .unwrap()
            .to_pretty_string();
        let baseline = std::fs::read_to_string(dir.join(format!("BENCH_{name}.json")))
            .expect("baseline file exists");
        assert_eq!(
            current, baseline,
            "fault-free `{name}` diverged from baselines/smoke"
        );
    }
}

/// The chaos scenarios must reproduce their checked-in baselines byte for
/// byte — the property the `chaos-smoke` CI gate builds on.
#[test]
fn chaos_scenarios_match_checked_in_baselines() {
    let dir = baseline_dir("smoke-chaos");
    for name in ["chatroom-chaos", "estore-chaos", "halo-chaos"] {
        let current = run_scenario(name, EvalScale::Smoke, None)
            .unwrap()
            .to_pretty_string();
        let baseline = std::fs::read_to_string(dir.join(format!("BENCH_{name}.json")))
            .expect("baseline file exists");
        assert_eq!(
            current, baseline,
            "chaos scenario `{name}` diverged from baselines/smoke-chaos"
        );
    }
}

/// The `full` eval-engine scale is a checked-in baseline. It has no
/// runtime, so it is cheap enough to pin byte-for-byte in the suite as
/// well as in CI.
#[test]
fn full_scale_eval_engine_matches_checked_in_baseline() {
    let r = run_scenario("eval-engine", EvalScale::Full, None).unwrap();
    let baseline = std::fs::read_to_string(baseline_dir("full").join("BENCH_eval-engine.json"))
        .expect("baselines/full checked in");
    assert_eq!(
        r.to_pretty_string(),
        baseline,
        "full-scale eval-engine diverged from baselines/full"
    );
}

#[test]
fn chatroom_chaos_recovers_everything_it_breaks() {
    let r = run_scenario("chatroom-chaos", EvalScale::Smoke, None).unwrap();
    let metric = |name: &str| r.metric(name).unwrap().value;
    assert_eq!(metric("servers_crashed"), 2.0);
    assert_eq!(metric("servers_restarted"), 1.0);
    assert!(metric("actors_lost") > 0.0);
    assert_eq!(metric("recovered_fraction"), 1.0, "no actor stays orphaned");
    assert!(metric("detections") >= 1.0, "heartbeat sweep fired");
    assert!(metric("time_to_detect_s_max") > 0.0);
    assert!(metric("unavailability_s_max") > 0.0);
    assert!(
        metric("replies") > 0.0,
        "traffic kept flowing through faults"
    );
}

#[test]
fn estore_chaos_exercises_abort_and_retry() {
    let r = run_scenario("estore-chaos", EvalScale::Smoke, None).unwrap();
    let metric = |name: &str| r.metric(name).unwrap().value;
    assert!(
        metric("migrations_aborted") > 0.0,
        "abort window caught transfers"
    );
    assert!(
        metric("migration_retries") > 0.0,
        "retry-with-backoff engaged"
    );
    assert!(
        metric("messages_lost") > 0.0,
        "degraded links dropped traffic"
    );
    assert!(
        metric("migrations_completed") > 0.0,
        "retries eventually landed"
    );
}

#[test]
fn halo_chaos_partitions_and_kills_a_gem() {
    let r = run_scenario("halo-chaos", EvalScale::Smoke, None).unwrap();
    let metric = |name: &str| r.metric(name).unwrap().value;
    assert_eq!(metric("faults_injected"), 2.0);
    assert!(
        metric("messages_lost") > 0.0,
        "partition severed live traffic"
    );
    assert_eq!(metric("servers_crashed"), 0.0, "partition is not a crash");
    assert!(
        metric("throughput_rps") > 0.0,
        "service survives the GEM loss"
    );
}
