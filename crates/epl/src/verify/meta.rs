//! Threshold and predicate metadata extracted from rule conditions.
//!
//! The abstract cluster model (and the EMR's GEM planner, which delegates
//! here) needs to know, per rule, which `server.<res>.perc` watermarks the
//! condition states and whether the condition also involves actor-level
//! predicates the model cannot evaluate numerically. Watermarks follow the
//! same last-mention-wins convention the GEM has always used: in
//! `server.cpu.perc > 80 or server.cpu.perc > 90` the `90` wins.

use crate::ast::{Comp, Cond, Feature, Res, Stat};

/// The `server.<res>.perc` watermarks a condition states, in percent.
///
/// `server.cpu.perc > 80 or server.cpu.perc < 60` yields
/// `upper = Some(80.0), lower = Some(60.0)`. Sides the condition does not
/// mention stay `None`; callers substitute their own defaults.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Band {
    /// Upper watermark (`>` / `>=` comparisons), percent.
    pub upper: Option<f64>,
    /// Lower watermark (`<` / `<=` comparisons), percent.
    pub lower: Option<f64>,
}

impl Band {
    /// Upper watermark with a fallback, percent.
    pub fn upper_or(&self, default: f64) -> f64 {
        self.upper.unwrap_or(default)
    }

    /// Lower watermark with a fallback, percent.
    pub fn lower_or(&self, default: f64) -> f64 {
        self.lower.unwrap_or(default)
    }
}

/// Extracts the `server.<res>.perc` watermarks mentioned in a condition.
pub fn server_band(cond: &Cond, res: Res) -> Band {
    let mut band = Band::default();
    collect(cond, res, &mut band);
    band
}

fn collect(cond: &Cond, res: Res, band: &mut Band) {
    match cond {
        Cond::And(a, b) | Cond::Or(a, b) => {
            collect(a, res, band);
            collect(b, res, band);
        }
        Cond::Compare {
            feat: Feature::ServerRes(r),
            stat: Stat::Perc,
            comp,
            val,
        } if *r == res => match comp {
            Comp::Gt | Comp::Ge => band.upper = Some(*val),
            Comp::Lt | Comp::Le => band.lower = Some(*val),
        },
        _ => {}
    }
}

/// Returns whether a condition involves any predicate *other* than a
/// `server.<res>.perc` comparison: actor resource usage, call statistics,
/// or reference membership. The abstract model treats these as one opaque
/// environment guard per rule (the nondeterministic workload can make them
/// true or false, but holds them fixed along an orbit).
pub fn has_guard_predicates(cond: &Cond) -> bool {
    match cond {
        Cond::True => false,
        Cond::And(a, b) | Cond::Or(a, b) => has_guard_predicates(a) || has_guard_predicates(b),
        Cond::Compare {
            feat: Feature::ServerRes(_),
            stat: Stat::Perc,
            ..
        } => false,
        Cond::Compare { .. } | Cond::InRef { .. } => true,
    }
}

/// Evaluates a condition against the abstract state: `util_pct` stands in
/// for every `server.<res>.perc` reading and `guard` for every actor-level
/// predicate (see [`has_guard_predicates`]).
pub fn eval_cond(cond: &Cond, util_pct: f64, guard: bool) -> bool {
    match cond {
        Cond::True => true,
        Cond::And(a, b) => eval_cond(a, util_pct, guard) && eval_cond(b, util_pct, guard),
        Cond::Or(a, b) => eval_cond(a, util_pct, guard) || eval_cond(b, util_pct, guard),
        Cond::Compare {
            feat: Feature::ServerRes(_),
            stat: Stat::Perc,
            comp,
            val,
        } => comp.eval(util_pct, *val),
        Cond::Compare { .. } | Cond::InRef { .. } => guard,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_policy;

    fn cond(src: &str) -> Cond {
        let policy = parse_policy(&format!("{src} => pin(any);")).unwrap();
        policy.rules[0].cond.clone()
    }

    #[test]
    fn band_extraction_matches_gem_convention() {
        let c = cond("server.cpu.perc > 80 or server.cpu.perc < 60");
        assert_eq!(
            server_band(&c, Res::Cpu),
            Band {
                upper: Some(80.0),
                lower: Some(60.0),
            }
        );
        assert_eq!(server_band(&c, Res::Mem), Band::default());
    }

    #[test]
    fn last_mention_wins() {
        let c = cond("server.cpu.perc > 80 and server.cpu.perc >= 90");
        assert_eq!(server_band(&c, Res::Cpu).upper, Some(90.0));
    }

    #[test]
    fn guard_predicates_detected() {
        assert!(!has_guard_predicates(&cond("server.cpu.perc > 80")));
        assert!(!has_guard_predicates(&Cond::True));
        let c = cond("server.cpu.perc > 80 and client.call(Worker(w).run).perc > 40");
        assert!(has_guard_predicates(&c));
    }

    #[test]
    fn eval_uses_util_and_guard() {
        let c = cond("server.cpu.perc > 80 and client.call(Worker(w).run).perc > 40");
        assert!(eval_cond(&c, 85.0, true));
        assert!(!eval_cond(&c, 85.0, false));
        assert!(!eval_cond(&c, 50.0, true));
        let contradiction = cond("server.cpu.perc > 80 and server.cpu.perc < 60");
        for u in 0..=150 {
            assert!(!eval_cond(&contradiction, u as f64, true));
        }
    }
}
