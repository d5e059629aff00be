//! The regression comparator behind `plasma-eval compare`.
//!
//! Diffs two result sets (baseline vs current) metric by metric. A
//! directional metric regresses when it moves against its direction by more
//! than the configured relative threshold (default 10%); an exact metric
//! (the decision digest) regresses on any difference; informational
//! metrics are reported but never gate. Scenarios missing from the current
//! set fail the comparison (a silently dropped benchmark is itself a
//! regression), and so do gated metrics missing from a compared scenario
//! and `higher` gates whose baseline is 0.0 (no value can fall below it,
//! so the gate could never fire); scenarios and metrics new in the current
//! set, and informational metrics that disappeared, are reported as
//! notes.

use std::collections::BTreeMap;

use super::result::{Direction, ScenarioResult};

/// Comparator configuration.
#[derive(Clone, Copy, Debug)]
pub struct CompareOptions {
    /// Relative regression threshold (0.10 = 10%).
    pub threshold: f64,
}

impl Default for CompareOptions {
    fn default() -> Self {
        CompareOptions { threshold: 0.10 }
    }
}

/// Classification of one metric diff.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DiffKind {
    /// Moved against its direction past the threshold, or an exact metric
    /// moved at all — fails the gate.
    Regressed,
    /// Moved with its direction past the threshold.
    Improved,
    /// Within the threshold band (or informational).
    Unchanged,
    /// A gated (`lower`, `higher` or `exact`) baseline metric absent from
    /// the current set — fails the gate.
    Dropped,
    /// A `higher` gate whose baseline is 0.0, which no value can fall
    /// below — fails the gate until the baseline is made `info` or fixed.
    Dead,
    /// An informational baseline metric absent from the current set.
    OnlyInBaseline,
    /// Present in the current set only.
    OnlyInCurrent,
}

/// One metric's baseline/current pair and verdict.
#[derive(Clone, Debug)]
pub struct MetricDiff {
    /// Scenario the metric belongs to.
    pub scenario: String,
    /// Metric name.
    pub metric: String,
    /// Baseline value, when present.
    pub baseline: Option<f64>,
    /// Current value, when present.
    pub current: Option<f64>,
    /// Relative change `(current - baseline) / |baseline|` (0 when either
    /// side is absent).
    pub rel_change: f64,
    /// Verdict for this metric.
    pub kind: DiffKind,
}

/// The full comparison outcome.
#[derive(Clone, Debug, Default)]
pub struct CompareReport {
    /// Per-metric diffs in scenario, then metric order.
    pub diffs: Vec<MetricDiff>,
    /// Scenarios present in the baseline but absent from the current set.
    pub missing_scenarios: Vec<String>,
    /// Scenarios present in the current set but absent from the baseline.
    pub new_scenarios: Vec<String>,
    /// Scenarios whose scale or seed differ between the two sets; comparing
    /// a smoke run against a full baseline is meaningless, so this fails.
    pub identity_mismatches: Vec<String>,
    /// Scenarios compared metric-by-metric.
    pub scenarios_compared: usize,
}

impl CompareReport {
    /// Number of regressed, dropped or dead gated metrics.
    pub fn regressions(&self) -> usize {
        self.diffs
            .iter()
            .filter(|d| {
                matches!(
                    d.kind,
                    DiffKind::Regressed | DiffKind::Dropped | DiffKind::Dead
                )
            })
            .count()
    }

    /// Whether the gate passes: no regressions, no dropped or dead gated
    /// metrics, no dropped scenarios, no identity mismatches.
    pub fn passed(&self) -> bool {
        self.regressions() == 0
            && self.missing_scenarios.is_empty()
            && self.identity_mismatches.is_empty()
    }

    /// Renders the human-readable comparison table.
    pub fn render(&self, threshold: f64) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "comparing {} scenario(s), regression threshold {:.0}%\n",
            self.scenarios_compared,
            threshold * 100.0
        ));
        for d in &self.diffs {
            let line = match d.kind {
                DiffKind::Regressed => format!(
                    "  REGRESSED {}/{}: {:.6} -> {:.6} ({:+.1}%)\n",
                    d.scenario,
                    d.metric,
                    d.baseline.unwrap_or(0.0),
                    d.current.unwrap_or(0.0),
                    d.rel_change * 100.0
                ),
                DiffKind::Improved => format!(
                    "  improved  {}/{}: {:.6} -> {:.6} ({:+.1}%)\n",
                    d.scenario,
                    d.metric,
                    d.baseline.unwrap_or(0.0),
                    d.current.unwrap_or(0.0),
                    d.rel_change * 100.0
                ),
                DiffKind::Dropped => format!(
                    "  DROPPED   {}/{}: gated metric absent from current results\n",
                    d.scenario, d.metric
                ),
                DiffKind::Dead => format!(
                    "  DEAD      {}/{}: higher gate on a 0.0 baseline can never fire\n",
                    d.scenario, d.metric
                ),
                DiffKind::OnlyInBaseline => format!(
                    "  note      {}/{}: present in baseline only\n",
                    d.scenario, d.metric
                ),
                DiffKind::OnlyInCurrent => format!(
                    "  note      {}/{}: new metric (not in baseline)\n",
                    d.scenario, d.metric
                ),
                DiffKind::Unchanged => String::new(),
            };
            out.push_str(&line);
        }
        for s in &self.missing_scenarios {
            out.push_str(&format!(
                "  MISSING   scenario `{s}` absent from current results\n"
            ));
        }
        for s in &self.new_scenarios {
            out.push_str(&format!(
                "  note      scenario `{s}` is new (not in baseline)\n"
            ));
        }
        for s in &self.identity_mismatches {
            out.push_str(&format!("  MISMATCH  {s}\n"));
        }
        out.push_str(&format!(
            "result: {} ({} regression(s), {} missing scenario(s))\n",
            if self.passed() { "PASS" } else { "FAIL" },
            self.regressions(),
            self.missing_scenarios.len()
        ));
        out
    }
}

/// Classifies one metric pair under `threshold`.
fn classify(direction: Direction, baseline: f64, current: f64, threshold: f64) -> (f64, DiffKind) {
    let rel = (current - baseline) / baseline.abs().max(1e-9);
    if direction == Direction::Higher && baseline == 0.0 {
        return (rel, DiffKind::Dead);
    }
    if direction == Direction::Exact {
        let kind = if current == baseline {
            DiffKind::Unchanged
        } else {
            DiffKind::Regressed
        };
        return (rel, kind);
    }
    // Both effectively zero: equal by definition (avoids 0-vs-1e-12 blowups).
    if baseline.abs() < 1e-9 && current.abs() < 1e-9 {
        return (0.0, DiffKind::Unchanged);
    }
    let kind = match direction {
        Direction::Info | Direction::Exact => DiffKind::Unchanged,
        Direction::Lower => {
            if rel > threshold {
                DiffKind::Regressed
            } else if rel < -threshold {
                DiffKind::Improved
            } else {
                DiffKind::Unchanged
            }
        }
        Direction::Higher => {
            if rel < -threshold {
                DiffKind::Regressed
            } else if rel > threshold {
                DiffKind::Improved
            } else {
                DiffKind::Unchanged
            }
        }
    };
    (rel, kind)
}

/// Compares `current` against `baseline`.
pub fn compare(
    baseline: &[ScenarioResult],
    current: &[ScenarioResult],
    opts: CompareOptions,
) -> CompareReport {
    let base: BTreeMap<&str, &ScenarioResult> =
        baseline.iter().map(|r| (r.scenario.as_str(), r)).collect();
    let cur: BTreeMap<&str, &ScenarioResult> =
        current.iter().map(|r| (r.scenario.as_str(), r)).collect();
    let mut report = CompareReport::default();
    for (&name, b) in &base {
        let Some(c) = cur.get(name) else {
            report.missing_scenarios.push(name.to_string());
            continue;
        };
        if b.scale != c.scale || b.seed != c.seed {
            report.identity_mismatches.push(format!(
                "scenario `{name}`: baseline is scale={}/seed={}, current is scale={}/seed={}",
                b.scale, b.seed, c.scale, c.seed
            ));
            continue;
        }
        report.scenarios_compared += 1;
        for (metric, bm) in &b.metrics {
            match c.metric(metric) {
                None => report.diffs.push(MetricDiff {
                    scenario: name.to_string(),
                    metric: metric.clone(),
                    baseline: Some(bm.value),
                    current: None,
                    rel_change: 0.0,
                    kind: if bm.direction == Direction::Info {
                        DiffKind::OnlyInBaseline
                    } else {
                        DiffKind::Dropped
                    },
                }),
                Some(cm) => {
                    // The baseline's recorded direction governs the gate, so
                    // an edited current file cannot soften its own rules.
                    let (rel, kind) = classify(bm.direction, bm.value, cm.value, opts.threshold);
                    report.diffs.push(MetricDiff {
                        scenario: name.to_string(),
                        metric: metric.clone(),
                        baseline: Some(bm.value),
                        current: Some(cm.value),
                        rel_change: rel,
                        kind,
                    });
                }
            }
        }
        for (metric, cm) in &c.metrics {
            if b.metric(metric).is_none() {
                report.diffs.push(MetricDiff {
                    scenario: name.to_string(),
                    metric: metric.clone(),
                    baseline: None,
                    current: Some(cm.value),
                    rel_change: 0.0,
                    kind: DiffKind::OnlyInCurrent,
                });
            }
        }
    }
    for &name in cur.keys() {
        if !base.contains_key(name) {
            report.new_scenarios.push(name.to_string());
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(scenario: &str, metrics: &[(&str, f64, Direction)]) -> ScenarioResult {
        let mut r = ScenarioResult::new(scenario, "5.0", "smoke", 7);
        for &(name, value, direction) in metrics {
            r.push(name, value, direction);
        }
        r
    }

    #[test]
    fn identical_inputs_pass() {
        let a = vec![
            result("estore", &[("tail_ms", 10.0, Direction::Lower)]),
            result("halo", &[("colocated_fraction", 0.9, Direction::Higher)]),
        ];
        let report = compare(&a, &a.clone(), CompareOptions::default());
        assert!(report.passed());
        assert_eq!(report.regressions(), 0);
        assert_eq!(report.scenarios_compared, 2);
    }

    #[test]
    fn injected_regression_past_threshold_fails() {
        let base = vec![result("estore", &[("tail_ms", 10.0, Direction::Lower)])];
        let cur = vec![result("estore", &[("tail_ms", 11.5, Direction::Lower)])];
        let report = compare(&base, &cur, CompareOptions::default());
        assert!(!report.passed());
        assert_eq!(report.regressions(), 1);
        assert!(report.render(0.10).contains("REGRESSED estore/tail_ms"));
    }

    #[test]
    fn higher_is_better_direction_gates_drops() {
        let base = vec![result(
            "halo",
            &[("colocated_fraction", 1.0, Direction::Higher)],
        )];
        let cur = vec![result(
            "halo",
            &[("colocated_fraction", 0.5, Direction::Higher)],
        )];
        assert!(!compare(&base, &cur, CompareOptions::default()).passed());
        // An increase on higher-is-better is an improvement, not a failure.
        assert!(compare(&cur, &base, CompareOptions::default()).passed());
    }

    #[test]
    fn within_threshold_changes_pass() {
        let base = vec![result("estore", &[("tail_ms", 10.0, Direction::Lower)])];
        let cur = vec![result("estore", &[("tail_ms", 10.9, Direction::Lower)])];
        assert!(compare(&base, &cur, CompareOptions::default()).passed());
    }

    #[test]
    fn info_metrics_never_gate() {
        let base = vec![result("media", &[("peak_servers", 4.0, Direction::Info)])];
        let cur = vec![result("media", &[("peak_servers", 400.0, Direction::Info)])];
        assert!(compare(&base, &cur, CompareOptions::default()).passed());
    }

    #[test]
    fn exact_metrics_fail_on_any_difference() {
        let digest = |v| {
            vec![result(
                "estore",
                &[("decision_digest", v, Direction::Exact)],
            )]
        };
        let report = compare(
            &digest(3528993624.0),
            &digest(3528993625.0),
            CompareOptions::default(),
        );
        assert!(
            !report.passed(),
            "a 3e-10 relative move is far inside the threshold"
        );
        assert_eq!(report.regressions(), 1);
        assert!(report
            .render(0.10)
            .contains("REGRESSED estore/decision_digest"));
        // Near zero too, where the threshold rules treat both sides as equal.
        assert!(!compare(&digest(0.0), &digest(1.0), CompareOptions::default()).passed());
    }

    #[test]
    fn equal_exact_metrics_pass() {
        let base = vec![result(
            "estore",
            &[("decision_digest", 3528993624.0, Direction::Exact)],
        )];
        let report = compare(&base, &base.clone(), CompareOptions::default());
        assert!(report.passed());
        assert_eq!(report.regressions(), 0);
    }

    #[test]
    fn missing_scenario_is_reported_and_fails() {
        let base = vec![
            result("estore", &[("tail_ms", 10.0, Direction::Lower)]),
            result("halo", &[("mean_latency_ms", 17.0, Direction::Lower)]),
        ];
        let cur = vec![result("estore", &[("tail_ms", 10.0, Direction::Lower)])];
        let report = compare(&base, &cur, CompareOptions::default());
        assert!(!report.passed());
        assert_eq!(report.missing_scenarios, vec!["halo".to_string()]);
        assert!(report.render(0.10).contains("MISSING"));
    }

    #[test]
    fn new_scenario_is_a_note_not_a_failure() {
        let base = vec![result("estore", &[("tail_ms", 10.0, Direction::Lower)])];
        let cur = vec![
            result("estore", &[("tail_ms", 10.0, Direction::Lower)]),
            result("brand_new", &[("x", 1.0, Direction::Lower)]),
        ];
        let report = compare(&base, &cur, CompareOptions::default());
        assert!(report.passed());
        assert_eq!(report.new_scenarios, vec!["brand_new".to_string()]);
    }

    #[test]
    fn info_metric_drift_is_a_note() {
        let base = vec![result("estore", &[("old_metric", 1.0, Direction::Info)])];
        let cur = vec![result("estore", &[("new_metric", 2.0, Direction::Lower)])];
        let report = compare(&base, &cur, CompareOptions::default());
        assert!(report.passed(), "info metric drift is reported, not fatal");
        assert!(report
            .diffs
            .iter()
            .any(|d| d.kind == DiffKind::OnlyInBaseline));
        assert!(report
            .diffs
            .iter()
            .any(|d| d.kind == DiffKind::OnlyInCurrent));
    }

    #[test]
    fn dropped_gated_metrics_fail() {
        for direction in [Direction::Lower, Direction::Higher, Direction::Exact] {
            let base = vec![result(
                "estore",
                &[
                    ("tail_ms", 10.0, Direction::Lower),
                    ("gated", 1.0, direction),
                ],
            )];
            let cur = vec![result("estore", &[("tail_ms", 10.0, Direction::Lower)])];
            let report = compare(&base, &cur, CompareOptions::default());
            assert!(!report.passed(), "{direction:?} metric dropped silently");
            assert_eq!(report.regressions(), 1);
            assert!(report.render(0.10).contains("DROPPED   estore/gated"));
        }
    }

    #[test]
    fn scale_mismatch_fails() {
        let base = vec![result("estore", &[("tail_ms", 10.0, Direction::Lower)])];
        let mut cur = base.clone();
        cur[0].scale = "full".to_string();
        let report = compare(&base, &cur, CompareOptions::default());
        assert!(!report.passed());
        assert_eq!(report.identity_mismatches.len(), 1);
    }

    #[test]
    fn zero_baselines_do_not_explode() {
        let base = vec![result("x", &[("m", 0.0, Direction::Lower)])];
        let cur = vec![result("x", &[("m", 0.0, Direction::Lower)])];
        assert!(compare(&base, &cur, CompareOptions::default()).passed());
        // 0 -> large is still caught.
        let bad = vec![result("x", &[("m", 5.0, Direction::Lower)])];
        assert!(!compare(&base, &bad, CompareOptions::default()).passed());
    }

    #[test]
    fn higher_gates_at_zero_are_dead() {
        let base = vec![result("x", &[("m", 0.0, Direction::Higher)])];
        for current in [0.0, 5.0] {
            let cur = vec![result("x", &[("m", current, Direction::Higher)])];
            let report = compare(&base, &cur, CompareOptions::default());
            assert!(!report.passed(), "current {current}");
            assert_eq!(report.regressions(), 1);
            assert!(report
                .render(0.10)
                .contains("DEAD      x/m: higher gate on a 0.0 baseline can never fire"));
        }
        // The same metric as `info` passes.
        let info = vec![result("x", &[("m", 0.0, Direction::Info)])];
        assert!(compare(&info, &info.clone(), CompareOptions::default()).passed());
    }

    #[test]
    fn custom_threshold_is_respected() {
        let base = vec![result("estore", &[("tail_ms", 10.0, Direction::Lower)])];
        let cur = vec![result("estore", &[("tail_ms", 10.5, Direction::Lower)])];
        assert!(compare(&base, &cur, CompareOptions { threshold: 0.10 }).passed());
        assert!(!compare(&base, &cur, CompareOptions { threshold: 0.02 }).passed());
    }
}
