//! plasma-eval: the deterministic paper-evaluation harness.
//!
//! Drives the §5 application scenarios through the simulator under fixed
//! seeds ([`runner`]) and reproduces the paper's tables and figures
//! ([`figures`]), folds each run into a byte-stable
//! `BENCH_<scenario>.json` result ([`result`]), and gates changes with a
//! directional regression comparator ([`mod@compare`]). The `plasma-eval`
//! binary in this crate is a thin CLI over these modules.

pub mod compare;
pub mod figures;
pub mod result;
pub mod runner;
pub mod synth;

pub use compare::{compare, CompareOptions, CompareReport, DiffKind, MetricDiff};
pub use figures::{run_figure, FIGURES};
pub use result::{Direction, MetricValue, ScenarioResult, SCHEMA_VERSION};
pub use runner::{
    normalize_for_parity, render_summary, run_scenario, run_scenario_on, spec, ScenarioSpec,
    SCENARIOS,
};
