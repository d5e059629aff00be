//! The machine-readable result model behind `BENCH_<scenario>.json`.
//!
//! A [`ScenarioResult`] is an ordered list of named metrics plus the run
//! identity (scenario, paper section, scale, seed). Serialization preserves
//! metric insertion order and rounds values to microscale precision, so two
//! same-seed runs of the deterministic simulator produce byte-identical
//! files — the property CI's regression gate and the determinism tests rely
//! on.

use plasma_trace::json;

/// Version stamp written into every result file; bump when the metric
/// schema changes incompatibly.
pub const SCHEMA_VERSION: u64 = 1;

/// Whether smaller or larger values of a metric are better, whether it must
/// not move at all, or whether it is purely informational (never gated on).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Lower is better (latencies, makespans, rebalance times).
    Lower,
    /// Higher is better (throughput, balance scores).
    Higher,
    /// Diagnostic only; the comparator reports but never fails on it.
    Info,
    /// Any difference from the baseline fails (decision digests).
    Exact,
}

impl Direction {
    /// The canonical serialized name.
    pub fn as_str(self) -> &'static str {
        match self {
            Direction::Lower => "lower",
            Direction::Higher => "higher",
            Direction::Info => "info",
            Direction::Exact => "exact",
        }
    }

    /// Parses a serialized direction name.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "lower" => Some(Direction::Lower),
            "higher" => Some(Direction::Higher),
            "info" => Some(Direction::Info),
            "exact" => Some(Direction::Exact),
            _ => None,
        }
    }
}

/// One measured metric: a value plus its regression direction.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MetricValue {
    /// The measured value, rounded to 1e-6 at insertion.
    pub value: f64,
    /// Regression direction.
    pub direction: Direction,
}

/// The results of one scenario run.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioResult {
    /// Scenario name (`chatroom`, `pagerank`, ...).
    pub scenario: String,
    /// The paper section the scenario reproduces (e.g. `"5.5"`).
    pub paper_section: String,
    /// Workload scale the run used (`smoke` / `full`).
    pub scale: String,
    /// RNG seed the run used.
    pub seed: u64,
    /// Named metrics in insertion order (serialization order).
    pub metrics: Vec<(String, MetricValue)>,
}

/// Rounds to 1e-6 and normalizes `-0.0`; non-finite values clamp to 0 so
/// the JSON never contains `null` numbers.
fn round6(v: f64) -> f64 {
    if !v.is_finite() {
        return 0.0;
    }
    let r = (v * 1e6).round() / 1e6;
    if r == 0.0 {
        0.0
    } else {
        r
    }
}

impl ScenarioResult {
    /// Creates an empty result for a scenario run.
    pub fn new(scenario: &str, paper_section: &str, scale: &str, seed: u64) -> Self {
        ScenarioResult {
            scenario: scenario.to_string(),
            paper_section: paper_section.to_string(),
            scale: scale.to_string(),
            seed,
            metrics: Vec::new(),
        }
    }

    /// Appends a metric (value rounded for byte-stable serialization).
    pub fn push(&mut self, name: &str, value: f64, direction: Direction) {
        self.metrics.push((
            name.to_string(),
            MetricValue {
                value: round6(value),
                direction,
            },
        ));
    }

    /// Returns the named metric, if present.
    pub fn metric(&self, name: &str) -> Option<MetricValue> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, m)| m)
    }

    /// The canonical output file name, `BENCH_<scenario>.json`.
    pub fn file_name(&self) -> String {
        format!("BENCH_{}.json", self.scenario)
    }

    /// Serializes to the canonical on-disk representation: two-space
    /// indented JSON in fixed key order, values in Rust's shortest
    /// round-trip float form, and a trailing newline.
    pub fn to_pretty_string(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, m)| {
                format!(
                    "    {}: {{\n      \"value\": {:?},\n      \"direction\": \"{}\"\n    }}",
                    json::quote(name),
                    m.value,
                    m.direction.as_str()
                )
            })
            .collect();
        let metrics = if metrics.is_empty() {
            "{}".to_string()
        } else {
            format!("{{\n{}\n  }}", metrics.join(",\n"))
        };
        format!(
            "{{\n  \"schema_version\": {SCHEMA_VERSION},\n  \"scenario\": {},\n  \
             \"paper_section\": {},\n  \"scale\": {},\n  \"seed\": {},\n  \"metrics\": {metrics}\n}}\n",
            json::quote(&self.scenario),
            json::quote(&self.paper_section),
            json::quote(&self.scale),
            self.seed
        )
    }
}

impl std::str::FromStr for ScenarioResult {
    type Err = String;

    /// Parses a result from JSON text.
    fn from_str(text: &str) -> Result<Self, String> {
        let v = json::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
        let field = |name: &str| v.get(name).ok_or_else(|| format!("missing field `{name}`"));
        let version = field("schema_version")?
            .as_u64()
            .ok_or("schema_version must be an integer")?;
        if version != SCHEMA_VERSION {
            return Err(format!(
                "unsupported schema_version {version} (expected {SCHEMA_VERSION})"
            ));
        }
        let as_string = |name: &str| -> Result<String, String> {
            Ok(field(name)?
                .as_str()
                .ok_or_else(|| format!("`{name}` must be a string"))?
                .to_string())
        };
        let mut result = ScenarioResult {
            scenario: as_string("scenario")?,
            paper_section: as_string("paper_section")?,
            scale: as_string("scale")?,
            seed: field("seed")?.as_u64().ok_or("`seed` must be an integer")?,
            metrics: Vec::new(),
        };
        let metrics = field("metrics")?
            .as_object()
            .ok_or("`metrics` must be an object")?;
        for (name, entry) in metrics {
            let value = entry
                .get("value")
                .and_then(json::Value::as_f64)
                .ok_or_else(|| format!("metric `{name}` has no numeric `value`"))?;
            let direction = entry
                .get("direction")
                .and_then(json::Value::as_str)
                .and_then(Direction::parse)
                .ok_or_else(|| format!("metric `{name}` has no valid `direction`"))?;
            result
                .metrics
                .push((name.clone(), MetricValue { value, direction }));
        }
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::str::FromStr;

    fn sample() -> ScenarioResult {
        let mut r = ScenarioResult::new("estore", "5.5", "smoke", 17);
        r.push("tail_ms", 12.345678912, Direction::Lower);
        r.push("balance_score", 0.75, Direction::Higher);
        r.push("migrations_completed", 9.0, Direction::Info);
        r.push("decision_digest", 3528993624.0, Direction::Exact);
        r
    }

    #[test]
    fn round_trips_through_json() {
        let r = sample();
        let parsed = ScenarioResult::from_str(&r.to_pretty_string()).unwrap();
        // `push` already rounded, so the round trip is exact.
        assert_eq!(parsed, r);
    }

    #[test]
    fn serialization_is_byte_stable() {
        assert_eq!(sample().to_pretty_string(), sample().to_pretty_string());
    }

    #[test]
    fn values_round_to_microscale_and_reject_non_finite() {
        let mut r = ScenarioResult::new("x", "0", "smoke", 1);
        r.push("a", 1.000000049, Direction::Lower);
        r.push("b", f64::NAN, Direction::Lower);
        r.push("c", -0.0, Direction::Lower);
        assert_eq!(r.metric("a").unwrap().value, 1.0);
        assert_eq!(r.metric("b").unwrap().value, 0.0);
        assert!(r.metric("c").unwrap().value.to_bits() == 0.0f64.to_bits());
    }

    #[test]
    fn rejects_wrong_schema_version() {
        let text = sample()
            .to_pretty_string()
            .replace("\"schema_version\": 1", "\"schema_version\": 999");
        assert!(ScenarioResult::from_str(&text)
            .unwrap_err()
            .contains("schema_version"));
    }

    #[test]
    fn file_name_is_canonical() {
        assert_eq!(sample().file_name(), "BENCH_estore.json");
    }
}
