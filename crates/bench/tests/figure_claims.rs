//! Guards the checked-in baselines (`baselines/*/`).
//!
//! Every `claim_*` scalar must be 1, and every paper figure records at
//! least one, so a verdict that flips cannot be blessed by regenerating its
//! baseline: EXPERIMENTS.md rewords a verdict that no longer holds instead.
//! No `higher` gate may sit at 0.0, where `compare` can never see it
//! regress (these metrics never go below 0).

use std::path::Path;
use std::str::FromStr;

use plasma_bench::eval::{run_figure, Direction, ScenarioResult, FIGURES};

const BASELINES_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../baselines");

fn read(path: &Path) -> (String, ScenarioResult) {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
    let result = ScenarioResult::from_str(&text).expect("baseline parses");
    (text, result)
}

fn baseline(name: &str) -> (String, ScenarioResult) {
    read(&Path::new(BASELINES_DIR).join(format!("figures/BENCH_{name}.json")))
}

#[test]
fn every_claim_holds_and_every_higher_gate_can_fire() {
    let figures = Path::new(BASELINES_DIR).join("figures");
    let files = std::fs::read_dir(figures).unwrap().count();
    assert_eq!(files, FIGURES.len(), "one baseline per figure scenario");
    for spec in FIGURES {
        let (_, result) = baseline(spec.name);
        assert_eq!(result.scenario, spec.name);
        let has_claim = result.metrics.iter().any(|(n, _)| n.starts_with("claim_"));
        assert!(has_claim, "{} records no verdict", spec.name);
    }
    let mut checked = 0;
    for dir in std::fs::read_dir(BASELINES_DIR).unwrap() {
        for file in std::fs::read_dir(dir.unwrap().path()).unwrap() {
            let path = file.unwrap().path();
            let (_, result) = read(&path);
            for (name, m) in &result.metrics {
                if name.starts_with("claim_") {
                    assert_eq!(m.direction, Direction::Exact, "{path:?} {name}");
                    assert_eq!(m.value, 1.0, "{path:?} {name}: verdict does not hold");
                }
                if m.direction == Direction::Higher {
                    assert!(m.value > 0.0, "{path:?} {name}: higher gate at 0.0");
                }
            }
            checked += 1;
        }
    }
    assert!(checked > FIGURES.len(), "only {checked} baselines read");
}

#[test]
fn table1_reproduces_its_baseline_byte_for_byte() {
    // The one figure that runs no simulation, so cheap enough for a debug
    // build; CI compares all ten in release.
    let (text, _) = baseline("table1");
    assert_eq!(run_figure("table1").unwrap().to_pretty_string(), text);
}
