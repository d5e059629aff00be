//! Control-plane carriage types: the GEM↔LEM REPORT and QUERY/QREPLY
//! traffic.
//!
//! PLASMA's elasticity protocol is a message-passing control plane: LEMs
//! REPORT per-server load profiles, GEMs QUERY the LEMs in their scope and
//! collect QREPLY candidate rows. This module defines those messages as
//! carriage structs so [`ExecutionBackend::publish_report`] and
//! [`ExecutionBackend::query`] can route them over whatever medium the
//! backend provides — in-process audit under sim, TCP frames to worker
//! threads (live) or worker processes (net) — while the *decision logic*,
//! the scale vote included, stays in the EMR. The coordinator enacts each
//! decision itself, so no decision message crosses the carrier.
//!
//! # Determinism contract
//!
//! A [`ServerReport`] is a byte-exact copy of the coordinator's snapshot
//! row for one server: every `f64` travels as its raw IEEE-754 bit
//! pattern ([`f64::to_bits`]), never re-derived or re-rounded by the
//! carrier. A query reply therefore reconstructs, bit for bit, the same
//! server rows the GEM would have read from the shared snapshot — which
//! is what keeps decision digests identical across sim, live, and net
//! carriages (the N-way parity gate).
//!
//! [`ExecutionBackend::publish_report`]: crate::ExecutionBackend::publish_report
//! [`ExecutionBackend::query`]: crate::ExecutionBackend::query

use std::collections::BTreeMap;

/// One server's load-profile row as published by its LEM.
///
/// Fractions and capacities that are `f64` on the coordinator travel as
/// raw bit patterns (`*_bits` fields), making the struct `Eq`/hashable
/// and the wire codec canonical: re-encoding a decoded report reproduces
/// the input bytes exactly.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerReport {
    /// The reporting server.
    pub server: u32,
    /// Number of vCPU lanes.
    pub vcpus: u32,
    /// Resident actor count.
    pub actor_count: u64,
    /// Memory capacity in bytes.
    pub mem_bytes: u64,
    /// Total compute throughput (work units/s), as `f64` bits.
    pub total_speed_bits: u64,
    /// NIC bandwidth (bits/s), as `f64` bits.
    pub net_bps_bits: u64,
    /// CPU utilization fraction over the last window, as `f64` bits.
    pub cpu_bits: u64,
    /// Memory utilization fraction, as `f64` bits.
    pub mem_bits: u64,
    /// Network utilization fraction, as `f64` bits.
    pub net_bits: u64,
}

/// A GEM's per-round query to the LEMs in its scope.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ControlQuery {
    /// The querying GEM's index.
    pub gem: u32,
    /// The elasticity round (the plan id).
    pub round: u64,
    /// The snapshot generation the GEM plans against. Replies only carry
    /// candidates whose published report matches this generation.
    pub generation: u64,
    /// Servers in the GEM's scope, in the GEM's assignment order.
    pub scope: Vec<u32>,
}

/// A carrier-side answer to a [`ControlQuery`]: the candidate rows it
/// holds for the queried scope.
///
/// Under live and net each worker answers for its own server group, so a
/// GEM's full candidate set is the merge of every group's reply.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ControlReply {
    /// Echo of the querying GEM's index.
    pub gem: u32,
    /// Echo of the round.
    pub round: u64,
    /// Echo of the snapshot generation.
    pub generation: u64,
    /// Candidate rows held for the queried scope, in scope order.
    pub candidates: Vec<ServerReport>,
}

/// Answers a query from a held report set: the pure evaluation every
/// carrier shares (the sim backend calls it inline; each `plasma-net`
/// worker calls it against the reports its group holds).
///
/// Candidates are the held rows named by `query.scope`, **in scope
/// order** — the same order `EvalCtx::scoped` materializes server rows
/// in, which is what lets the GEM reassemble a byte-identical evaluation
/// context from merged replies. Held rows from a different generation
/// than the query's are skipped (a reply never mixes generations).
pub fn answer_query(
    held_generation: u64,
    held: &BTreeMap<u32, ServerReport>,
    query: &ControlQuery,
) -> ControlReply {
    let candidates: Vec<ServerReport> = if held_generation == query.generation {
        query
            .scope
            .iter()
            .filter_map(|s| held.get(s))
            .copied()
            .collect()
    } else {
        Vec::new()
    };
    ControlReply {
        gem: query.gem,
        round: query.round,
        generation: query.generation,
        candidates,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(server: u32, cpu: f64) -> ServerReport {
        ServerReport {
            server,
            vcpus: 2,
            actor_count: 3,
            mem_bytes: 1 << 30,
            total_speed_bits: 1000.0_f64.to_bits(),
            net_bps_bits: 1e9_f64.to_bits(),
            cpu_bits: cpu.to_bits(),
            mem_bits: 0.1_f64.to_bits(),
            net_bits: 0.2_f64.to_bits(),
        }
    }

    #[test]
    fn answer_preserves_scope_order_and_generation() {
        let mut held = BTreeMap::new();
        held.insert(2, report(2, 0.5));
        held.insert(7, report(7, 0.9));
        let query = ControlQuery {
            gem: 1,
            round: 4,
            generation: 9,
            // Scope order is not id order; server 5 is not held.
            scope: vec![7, 5, 2],
        };
        let reply = answer_query(9, &held, &query);
        assert_eq!(
            reply
                .candidates
                .iter()
                .map(|c| c.server)
                .collect::<Vec<_>>(),
            vec![7, 2],
            "candidates follow scope order, holes skipped"
        );
        assert_eq!((reply.gem, reply.round, reply.generation), (1, 4, 9));

        // A stale held generation yields no candidates.
        let stale = answer_query(8, &held, &query);
        assert!(stale.candidates.is_empty());
    }
}
