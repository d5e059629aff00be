//! Baseline elasticity managers from the paper's evaluation.
//!
//! - [`OrleansBalance`] — §2.1/§5.4: "Orleans balances workload by
//!   equalizing the number of actors on each server"; it is not
//!   resource-aware, which is exactly why PLASMA beats it on PageRank.
//! - [`FrequencyColocate`] — §5.7's *default rule*: colocate actors that
//!   frequently interact, learned purely from observed message counts.
//! - [`HeavyToIdle`] — §5.3's *def-rule*: migrate the heaviest actors of a
//!   hot server to an idle server, without application knowledge.

use std::collections::BTreeMap;

use plasma_actor::ids::{ActorId, ActorTypeId};
use plasma_actor::{ElasticityController, Runtime};
use plasma_cluster::ServerId;

/// Orleans-style elasticity: equalize per-server actor counts.
#[derive(Debug, Default)]
pub struct OrleansBalance {
    /// Optional restriction to one actor type (e.g. only PageRank workers).
    pub only_type: Option<ActorTypeId>,
    /// Migrations issued.
    pub migrations: u64,
}

impl OrleansBalance {
    /// Creates the baseline, optionally restricted to one actor type name
    /// (resolved lazily).
    pub fn new() -> Self {
        OrleansBalance::default()
    }
}

impl ElasticityController for OrleansBalance {
    fn on_elasticity_tick(&mut self, rt: &mut Runtime) {
        let servers = rt.cluster().running_ids();
        if servers.len() < 2 {
            return;
        }
        loop {
            let counts: Vec<(ServerId, usize)> = servers
                .iter()
                .map(|&s| {
                    let n = rt
                        .actors_on(s)
                        .into_iter()
                        .filter(|&a| self.only_type.is_none_or(|t| rt.actor_type(a) == t))
                        .count();
                    (s, n)
                })
                .collect();
            let (max_s, max_n) = *counts.iter().max_by_key(|&&(_, n)| n).expect("non-empty");
            let (min_s, min_n) = *counts.iter().min_by_key(|&&(_, n)| n).expect("non-empty");
            if max_n <= min_n + 1 {
                break;
            }
            let candidate = rt
                .actors_on(max_s)
                .into_iter()
                .filter(|&a| self.only_type.is_none_or(|t| rt.actor_type(a) == t))
                .find(|&a| !rt.is_pinned(a));
            let Some(actor) = candidate else { break };
            if rt.migrate(actor, min_s).is_err() {
                break;
            }
            self.migrations += 1;
        }
    }

    fn place_new_actor(
        &mut self,
        rt: &Runtime,
        _type_id: ActorTypeId,
        _creator: Option<ServerId>,
    ) -> Option<ServerId> {
        // Place on the server with the fewest actors (count equalization).
        rt.cluster()
            .running_ids()
            .into_iter()
            .min_by_key(|&s| rt.actor_count_on(s))
    }
}

/// The frequency-based "default rule": colocate actors that exchanged more
/// than `min_count` messages in the last window.
///
/// The paper (§5.7) points out the weakness this reproduces: placement of a
/// *new* actor is random, and only after it has visibly chatted for an
/// elasticity period does it get moved next to its partner — producing the
/// latency spikes of Fig. 11a.
#[derive(Debug)]
pub struct FrequencyColocate {
    /// Minimum observed messages per window for a pair to count as
    /// "frequently interacting".
    pub min_count: u64,
    /// Migrations issued.
    pub migrations: u64,
    /// Round-robin counter for random initial placement.
    counter: usize,
}

impl FrequencyColocate {
    /// Creates the baseline with the given frequency threshold.
    pub fn new(min_count: u64) -> Self {
        FrequencyColocate {
            min_count,
            migrations: 0,
            counter: 0,
        }
    }
}

impl ElasticityController for FrequencyColocate {
    fn on_elasticity_tick(&mut self, rt: &mut Runtime) {
        // Find, per actor, its most frequent caller; if remote, move the
        // callee next to the caller.
        let snapshot = rt.snapshot_shared();
        let mut moves: Vec<(ActorId, ServerId)> = Vec::new();
        for stats in snapshot.actors() {
            let mut per_caller: BTreeMap<ActorId, u64> = BTreeMap::new();
            for (key, stat) in &stats.counters.calls {
                if let Some(caller) = key.caller {
                    *per_caller.entry(caller).or_insert(0) += stat.count;
                }
            }
            let Some((&caller, &count)) = per_caller.iter().max_by_key(|&(_, &c)| c) else {
                continue;
            };
            if count < self.min_count {
                continue;
            }
            let Some(caller_stats) = snapshot.actor(caller) else {
                continue;
            };
            if caller_stats.server != stats.server {
                moves.push((stats.actor, caller_stats.server));
            }
        }
        for (actor, dst) in moves {
            if rt.migrate(actor, dst).is_ok() {
                self.migrations += 1;
            }
        }
    }

    fn place_new_actor(
        &mut self,
        rt: &Runtime,
        _type_id: ActorTypeId,
        _creator: Option<ServerId>,
    ) -> Option<ServerId> {
        // Random placement: the default rule has no application knowledge.
        let servers = rt.cluster().running_ids();
        if servers.is_empty() {
            return None;
        }
        self.counter = self.counter.wrapping_add(1);
        Some(servers[(self.counter * 7) % servers.len()])
    }
}

/// The "def-rule" of §5.3: when a server is hot, migrate its heaviest
/// actors to the idlest server — with no knowledge that folders drag their
/// files along.
#[derive(Debug)]
pub struct HeavyToIdle {
    /// CPU fraction above which a server counts as hot.
    pub hot_threshold: f64,
    /// Actors migrated per hot server per round.
    pub moves_per_round: usize,
    /// Migrations issued.
    pub migrations: u64,
}

impl HeavyToIdle {
    /// Creates the baseline with the given hot threshold.
    pub fn new(hot_threshold: f64) -> Self {
        HeavyToIdle {
            hot_threshold,
            moves_per_round: 1,
            migrations: 0,
        }
    }
}

impl ElasticityController for HeavyToIdle {
    fn on_elasticity_tick(&mut self, rt: &mut Runtime) {
        let snapshot = rt.snapshot_shared();
        let servers = rt.cluster().running_ids();
        if servers.len() < 2 {
            return;
        }
        let usage = |sid: ServerId| snapshot.server(sid).map(|s| s.usage.cpu()).unwrap_or(0.0);
        let mut hot: Vec<ServerId> = servers
            .iter()
            .copied()
            .filter(|&s| usage(s) > self.hot_threshold)
            .collect();
        hot.sort_by(|a, b| usage(*b).partial_cmp(&usage(*a)).expect("finite"));
        for src in hot {
            let Some(dst) = servers
                .iter()
                .copied()
                .filter(|&s| s != src)
                .min_by(|a, b| usage(*a).partial_cmp(&usage(*b)).expect("finite"))
            else {
                continue;
            };
            // Heaviest actors by observed CPU share.
            let mut actors: Vec<(ActorId, f64)> = snapshot
                .actors_on(src)
                .map(|a| (a.actor, a.cpu_share))
                .collect();
            actors.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));
            for (actor, _) in actors.into_iter().take(self.moves_per_round) {
                if rt.migrate(actor, dst).is_ok() {
                    self.migrations += 1;
                }
            }
        }
    }
}
