//! Guards the checked-in paper-figure baselines (`baselines/figures/`).
//!
//! Every `claim_*` scalar must be 1, so a verdict that flips cannot be
//! blessed by regenerating its baseline: EXPERIMENTS.md rewords a verdict
//! that no longer holds instead. No `higher` gate may sit at 0.0, where
//! `compare` can never see it regress (these metrics never go below 0).

use std::str::FromStr;

use plasma_bench::eval::{run_figure, Direction, ScenarioResult, FIGURES};

const FIGURES_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../baselines/figures");

fn baseline(name: &str) -> (String, ScenarioResult) {
    let path = format!("{FIGURES_DIR}/BENCH_{name}.json");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let result = ScenarioResult::from_str(&text).expect("baseline parses");
    (text, result)
}

#[test]
fn every_claim_holds_and_every_higher_gate_can_fire() {
    let files = std::fs::read_dir(FIGURES_DIR).unwrap().count();
    assert_eq!(files, FIGURES.len(), "one baseline per figure scenario");
    for spec in FIGURES {
        let (_, result) = baseline(spec.name);
        assert_eq!(result.scenario, spec.name);
        let mut claims = 0;
        for (name, m) in &result.metrics {
            if name.starts_with("claim_") {
                claims += 1;
                assert_eq!(m.direction, Direction::Exact, "{}/{name}", spec.name);
                assert_eq!(m.value, 1.0, "{}/{name}: verdict does not hold", spec.name);
            }
            if m.direction == Direction::Higher {
                assert!(m.value > 0.0, "{}/{name}: higher gate at 0.0", spec.name);
            }
        }
        assert!(claims > 0, "{} records no verdict", spec.name);
    }
}

#[test]
fn table1_reproduces_its_baseline_byte_for_byte() {
    // The one figure that runs no simulation, so cheap enough for a debug
    // build; CI compares all ten in release.
    let (text, _) = baseline("table1");
    assert_eq!(run_figure("table1").unwrap().to_pretty_string(), text);
}
