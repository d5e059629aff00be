//! The Table-1 application inventory: every app's policy, schema, and rule
//! count, checked against the paper's table.

use plasma_epl::{compile, ActorSchema, CompiledPolicy};

/// One row of Table 1.
#[derive(Debug)]
pub struct AppEntry {
    /// Application name as in the paper.
    pub name: &'static str,
    /// Paper section / source reference.
    pub source: &'static str,
    /// The EPL policy, verbatim.
    pub policy: &'static str,
    /// The actor schema it compiles against.
    pub schema: ActorSchema,
    /// Number of rules the paper lists for this application.
    pub paper_rule_count: usize,
}

/// Returns all Table-1 applications with their policies.
pub fn applications() -> Vec<AppEntry> {
    vec![
        AppEntry {
            name: "Metadata Server",
            source: "§3.3, §5.3",
            policy: crate::metadata::policy(),
            schema: crate::metadata::schema(),
            paper_rule_count: 1,
        },
        AppEntry {
            name: "PageRank",
            source: "§2.1, §5.4",
            policy: crate::pagerank::policy(),
            schema: crate::pagerank::schema(),
            paper_rule_count: 1,
        },
        AppEntry {
            name: "E-Store",
            source: "§3.3, §5.5",
            policy: crate::estore::policy(),
            schema: crate::estore::schema(),
            paper_rule_count: 3,
        },
        AppEntry {
            name: "Media Service",
            source: "§3.3, §5.6",
            policy: crate::media::policy(),
            schema: crate::media::schema(),
            paper_rule_count: 6,
        },
        AppEntry {
            name: "Halo Presence Service",
            source: "§3.3, §5.7",
            policy: crate::halo::resource_policy(),
            schema: crate::halo::schema(),
            paper_rule_count: 2,
        },
        AppEntry {
            name: "B+ tree",
            source: "Table 1",
            policy: crate::bptree::policy(),
            schema: crate::bptree::schema(),
            paper_rule_count: 2,
        },
        AppEntry {
            name: "Piccolo",
            source: "Table 1",
            policy: crate::piccolo::policy(),
            schema: crate::piccolo::schema(),
            paper_rule_count: 2,
        },
        AppEntry {
            name: "zExpander",
            source: "Table 1",
            policy: crate::zexpander::policy(),
            schema: crate::zexpander::schema(),
            paper_rule_count: 1,
        },
        AppEntry {
            name: "Cassandra",
            source: "Table 1",
            policy: crate::cassandra::policy(),
            schema: crate::cassandra::schema(),
            paper_rule_count: 1,
        },
    ]
}

/// Compiles one entry's policy (panics on error; used by the `table1`
/// scenario).
pub fn compile_entry(entry: &AppEntry) -> CompiledPolicy {
    compile(entry.policy, &entry.schema)
        .unwrap_or_else(|e| panic!("{} policy failed to compile: {e}", entry.name))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_table1_policy_compiles() {
        for entry in applications() {
            let compiled = compile_entry(&entry);
            assert!(!compiled.rules.is_empty(), "{} has no rules", entry.name);
        }
    }

    #[test]
    fn rule_counts_match_the_paper() {
        for entry in applications() {
            let compiled = compile_entry(&entry);
            assert_eq!(
                compiled.rules.len(),
                entry.paper_rule_count,
                "{}: paper lists {} rules",
                entry.name,
                entry.paper_rule_count
            );
        }
    }

    #[test]
    fn policies_have_no_hard_conflicts() {
        use plasma_epl::error::Severity;
        for entry in applications() {
            let compiled = compile_entry(&entry);
            let hard: Vec<_> = compiled
                .warnings
                .iter()
                .filter(|w| w.severity == Severity::Warning)
                .collect();
            assert!(
                hard.is_empty(),
                "{} has hard conflicts: {hard:?}",
                entry.name
            );
        }
    }
}
