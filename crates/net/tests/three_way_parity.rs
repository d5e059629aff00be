//! Three-way parity: a same-seed scenario must serialize to byte-identical
//! normalized BENCH JSON — and an identical decision digest — under sim,
//! live, and net. This is the crate-level twin of the `net-parity` CI job
//! (which runs the same gate through `plasma-eval parity`).

use plasma_actor::BackendKind;
use plasma_apps::common::EvalScale;
use plasma_bench::eval::{normalize_for_parity, run_scenario_on, ScenarioResult};
use std::sync::Once;

/// Points worker discovery at the binary cargo built for this test run,
/// so the runtime's `NetConfig::default()` resolves it regardless of which
/// target directory layout the test executes from.
fn ensure_worker_bin() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        std::env::set_var("PLASMA_SERVER_BIN", env!("CARGO_BIN_EXE_plasma-server"));
    });
}

/// The `plasma-eval parity` normalization (carrier-dependent counters
/// zeroed), serialized.
fn normalized(mut r: ScenarioResult) -> String {
    normalize_for_parity(&mut r);
    r.to_pretty_string()
}

fn run(name: &str, backend: BackendKind) -> ScenarioResult {
    run_scenario_on(name, EvalScale::Smoke, None, backend).expect("known scenario")
}

/// Scenarios whose smoke presets decide (nonzero decision sequences, where
/// a carriage bug could reorder or drop a grow/shrink/migrate), one of
/// them with chaos link degradation on the injected-delay path.
const DECIDING: &[&str] = &["pagerank", "estore", "media", "estore-chaos"];
/// Scenarios that do not migrate at smoke scale: their (empty) decision
/// sequences and BENCH bytes must agree too.
const QUIET: &[&str] = &["chatroom", "halo"];

#[test]
fn net_and_live_replay_sim_byte_for_byte() {
    ensure_worker_bin();
    for name in DECIDING.iter().chain(QUIET) {
        let sim = run(name, BackendKind::Sim);
        let digest = sim.metric("decision_digest").expect("present").value;
        if DECIDING.contains(name) {
            let decisions = sim.metric("decisions_total").expect("present").value;
            assert!(decisions > 0.0, "`{name}` smoke preset must decide");
        }
        let sim_text = normalized(sim);
        for backend in [BackendKind::Net, BackendKind::Live] {
            let r = run(name, backend);
            assert_eq!(
                r.metric("decision_digest").expect("present").value,
                digest,
                "`{name}`: {backend:?} decision sequence diverged from sim"
            );
            // Digest parity must hold *while* the control plane actually
            // rode the wire — a run that answered no queries proves nothing.
            if DECIDING.contains(name) {
                assert!(
                    r.metric("control_queries").expect("present").value > 0.0,
                    "`{name}`: {backend:?} run carried no control queries"
                );
                assert!(
                    r.metric("control_wire_bytes").expect("present").value > 0.0,
                    "`{name}`: {backend:?} run carried no control bytes"
                );
            }
            assert_eq!(
                normalized(r),
                sim_text,
                "`{name}`: normalized BENCH diverged sim vs {backend:?}"
            );
        }
    }
}

/// Same seed, two runs on a real carrier: the raw BENCH bytes repeat,
/// the digest and the carrier counters included, even though worker
/// scheduling differs. The `backend_*` and `control_*` counters follow
/// from the logical event sequence alone, not from when a worker reads.
#[test]
fn carried_runs_are_deterministic_across_repeats() {
    ensure_worker_bin();
    for (name, backend) in [
        ("estore", BackendKind::Net),
        ("estore", BackendKind::Live),
        ("media", BackendKind::Live),
    ] {
        assert_eq!(
            run(name, backend).to_pretty_string(),
            run(name, backend).to_pretty_string(),
            "`{name}`: {backend:?} BENCH bytes not stable across repeats"
        );
    }
}

/// The carrier counters a run reports: `backend_*` and `control_*`.
fn carrier_counters(r: &ScenarioResult) -> Vec<(String, f64)> {
    r.metrics
        .iter()
        .filter(|(name, _)| name.starts_with("backend_") || name.starts_with("control_"))
        .map(|(name, m)| (name.clone(), m.value))
        .collect()
}

/// Net- and live-backed runs report the transport counters, and report
/// the same ones: the two hosts carry the same frames over the same
/// connections — checked at the runtime level through the same path
/// `plasma-eval run --backend` takes.
#[test]
fn carried_runs_report_transport_scalars() {
    ensure_worker_bin();
    let mut counters = Vec::new();
    for backend in [BackendKind::Net, BackendKind::Live] {
        let r = run("estore", backend);
        let frames = r.metric("backend_frames_sent").expect("present").value;
        let bytes = r.metric("backend_wire_bytes_sent").expect("present").value;
        assert!(frames > 0.0, "{backend:?} run must ship frames");
        assert!(bytes > frames, "frames are multi-byte");
        assert!(r.metric("backend_frames_received").unwrap().value > 0.0);
        assert!(r.metric("backend_max_inflight").unwrap().value > 0.0);
        counters.push(carrier_counters(&r));
    }
    assert!(!counters[0].is_empty());
    assert_eq!(counters[0], counters[1], "net and live carrier counters");
    // Under sim the same metrics exist and are identically zero.
    let s = run("estore", BackendKind::Sim);
    assert_eq!(s.metric("backend_frames_sent").unwrap().value, 0.0);
    assert_eq!(s.metric("backend_wire_bytes_sent").unwrap().value, 0.0);
}
