//! Behavioral verification of compiled policies against an abstract cluster.
//!
//! The conflict detector ([`crate::conflict`]) warns about rule *pairs* that
//! look contradictory; this module goes further and model-checks the
//! compiled rule set against two small abstract cluster models, in the
//! spirit of Naskos et al., *Cloud elasticity using probabilistic model
//! checking*:
//!
//! - a **scaling model** — server count `n` between configurable bounds and
//!   a conserved total load `W` (integer percent-of-one-server units),
//!   checked for grow→shrink→grow cycles on unchanged load
//!   ([`Property::Oscillation`]) and for states where grow and shrink rules
//!   fire together ([`Property::Conflict`]);
//! - a **migration model** — three servers with discretized load quanta, a
//!   tracked actor pair, and per-rule environment guards for actor-level
//!   predicates, stepped deterministically through the EMR's round
//!   semantics (pin → resource moves → priority resolution → interaction
//!   moves) and checked for actors returning to a server they left within
//!   `k` rounds ([`Property::Thrash`]) and rules firing conflicting actions
//!   on the same actor in one round ([`Property::Conflict`]).
//!
//! Rules whose condition is never satisfiable anywhere in either model are
//! reported as [`Property::Vacuity`].
//!
//! Findings carry a round-by-round counterexample trace whose event names
//! reuse the trace subsystem's vocabulary (`RuleFired`, `ScaleVote`,
//! `ServerBoot`, `ServerDrain`, `MigrationStart`, …) so a reader of
//! `plasma-trace` output recognizes the shapes.
//!
//! # Examples
//!
//! ```
//! use plasma_epl::{compile, schema::ActorSchema};
//! use plasma_epl::verify::{verify, Property, VerifyConfig};
//!
//! let mut schema = ActorSchema::new();
//! schema.actor_type("Worker").func("run");
//! // A tight band: grow at >70, shrink at <65. After growing from n to
//! // n+1 servers the same load sits under the lower watermark, so the
//! // cluster ping-pongs.
//! let policy = compile(
//!     "server.cpu.perc > 70 or server.cpu.perc < 65 => balance({Worker}, cpu);",
//!     &schema,
//! )
//! .unwrap();
//! let verdict = verify(&policy, &VerifyConfig::default());
//! assert!(verdict
//!     .findings
//!     .iter()
//!     .any(|f| f.property == Property::Oscillation));
//! assert!(verdict.gating());
//! ```

pub mod meta;
mod migration;
mod scaling;

use std::fmt;

use crate::analyze::CompiledPolicy;
use crate::error::Severity;

/// Bounds of the abstract cluster models.
#[derive(Clone, Copy, Debug)]
pub struct VerifyConfig {
    /// Smallest deployment the scaling model considers. The default of 3
    /// encodes a deployment floor: a band like 80/60 is provably
    /// oscillation-free only from 3 servers up (`U·n ≥ L·(n+1)`), and real
    /// deployments of the paper's applications start above one server.
    pub min_servers: usize,
    /// Largest deployment the scaling model considers.
    pub max_servers: usize,
    /// Load quanta per server in the migration model (a server saturates at
    /// `quanta` units; the tracked actor is one unit).
    pub quanta: u32,
    /// A migration back to a server left within this many rounds is thrash.
    pub thrash_window: usize,
    /// Rounds each migration orbit is walked before giving up.
    pub horizon: usize,
}

impl Default for VerifyConfig {
    fn default() -> Self {
        VerifyConfig {
            min_servers: 3,
            max_servers: 6,
            quanta: 5,
            thrash_window: 8,
            horizon: 64,
        }
    }
}

/// The temporal property a finding violates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Property {
    /// Grow→shrink→grow cycle on unchanged abstract load.
    Oscillation,
    /// An actor migrated back to a server it left within the window.
    Thrash,
    /// Two rules fired conflicting actions on the same scope in one round.
    Conflict,
    /// The rule's condition is unsatisfiable in the abstract model.
    Vacuity,
}

impl Property {
    /// Stable lowercase name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            Property::Oscillation => "oscillation",
            Property::Thrash => "thrash",
            Property::Conflict => "conflict",
            Property::Vacuity => "vacuity",
        }
    }
}

/// One round of a counterexample, named in the trace subsystem's vocabulary.
#[derive(Clone, Debug)]
pub struct TraceStep {
    /// Abstract round number, starting at 1.
    pub round: usize,
    /// Event name (`RuleFired`, `ScaleVote`, `MigrationStart`, …).
    pub event: String,
    /// Human-readable detail for this step.
    pub detail: String,
}

/// A verifier diagnostic with its counterexample.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Which property the rule set violates.
    pub property: Property,
    /// Warning gates CI; Note is informational (mirrors the conflict
    /// detector's severities).
    pub severity: Severity,
    /// 0-based indices of the rules involved.
    pub rules: Vec<usize>,
    /// Human-readable description.
    pub message: String,
    /// Round-by-round counterexample (empty for vacuity findings).
    pub trace: Vec<TraceStep>,
}

impl Finding {
    /// Whether this finding should fail a CI gate.
    pub fn gating(&self) -> bool {
        match self.property {
            Property::Oscillation | Property::Thrash => true,
            Property::Conflict => self.severity == Severity::Warning,
            Property::Vacuity => false,
        }
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let tag = match self.severity {
            Severity::Warning => "warning",
            Severity::Note => "note",
        };
        let rules: Vec<String> = self.rules.iter().map(|r| (r + 1).to_string()).collect();
        writeln!(
            f,
            "{}: {tag} (rules {}): {}",
            self.property.name(),
            rules.join(", "),
            self.message
        )?;
        for step in &self.trace {
            writeln!(
                f,
                "  round {:>2}  {:<16} {}",
                step.round, step.event, step.detail
            )?;
        }
        Ok(())
    }
}

/// The verifier's overall answer for one policy.
#[derive(Clone, Debug, Default)]
pub struct Verdict {
    /// All findings, gating or not.
    pub findings: Vec<Finding>,
    /// Abstract states visited across both models (for reporting).
    pub states_explored: usize,
    /// Model reductions applied (instance/environment caps), if any.
    pub notes: Vec<String>,
}

impl Verdict {
    /// Whether any finding should fail a CI gate.
    pub fn gating(&self) -> bool {
        self.findings.iter().any(Finding::gating)
    }

    /// Findings for one property, in discovery order.
    pub fn of(&self, property: Property) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(move |f| f.property == property)
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.findings.is_empty() {
            return writeln!(f, "ok: no findings ({} states)", self.states_explored);
        }
        for finding in &self.findings {
            finding.fmt(f)?;
        }
        Ok(())
    }
}

/// Model-checks a compiled policy against the abstract cluster models.
pub fn verify(policy: &CompiledPolicy, config: &VerifyConfig) -> Verdict {
    let mut verdict = Verdict::default();
    // `fired[i]` means rule i's condition held in some reachable abstract
    // state of either model; rules that never fire anywhere are vacuous.
    let mut fired = vec![false; policy.rules.len()];
    scaling::check(policy, config, &mut verdict, &mut fired);
    migration::check(policy, config, &mut verdict, &mut fired);
    for (i, rule) in policy.rules.iter().enumerate() {
        if !fired[i] {
            verdict.findings.push(Finding {
                property: Property::Vacuity,
                severity: Severity::Note,
                rules: vec![rule.index],
                message: "condition is unsatisfiable in the abstract model; \
                          the rule can never fire"
                    .to_string(),
                trace: Vec::new(),
            });
        }
    }
    verdict
}
