//! Property tests for the GEM server-partitioning scheme (§4.3 shuffling
//! fault tolerance): no matter which GEMs crash, the survivors always cover
//! every running server exactly once.

use plasma_cluster::ServerId;
use plasma_emr::{EmrConfig, PlasmaEmr};
use plasma_epl::{compile, ActorSchema};
use plasma_sim::rng::check_cases;

fn worker_schema() -> ActorSchema {
    let mut s = ActorSchema::new();
    s.actor_type("Worker").func("run");
    s
}

fn emr_with_gems(num_gems: usize) -> PlasmaEmr {
    let compiled = compile(
        "server.cpu.perc > 80 => balance({Worker}, cpu);",
        &worker_schema(),
    )
    .unwrap();
    PlasmaEmr::new(
        compiled,
        EmrConfig {
            num_gems,
            ..EmrConfig::default()
        },
    )
}

/// After any sequence of `fail_gem` calls that leaves at least one GEM
/// alive, every running server maps to exactly one live GEM: it appears in
/// exactly one partition of `gem_assignment`, and `gem_for_server` agrees
/// with that partition.
#[test]
fn every_server_maps_to_exactly_one_live_gem() {
    check_cases("every_server_maps_to_exactly_one_live_gem", 64, |rng| {
        let num_gems = 1 + rng.index(7);
        let num_servers = rng.index(40);
        let failures: Vec<usize> = (0..rng.below(16)).map(|_| rng.index(8)).collect();
        let mut emr = emr_with_gems(num_gems);
        for g in failures {
            // Leave at least one GEM alive; out-of-range ids are a no-op
            // at assignment time but exercise the bookkeeping anyway.
            if emr.alive_gems() > 1 || g >= num_gems {
                emr.fail_gem(g);
            }
        }
        assert!(emr.alive_gems() >= 1);

        let servers: Vec<ServerId> = (0..num_servers as u32).map(ServerId).collect();
        let assignment = emr.gem_assignment(&servers);
        assert_eq!(assignment.len(), emr.alive_gems());

        for &sid in &servers {
            let owners = assignment
                .iter()
                .filter(|group| group.contains(&sid))
                .count();
            assert_eq!(owners, 1, "server {sid:?} owned by {owners} live GEMs");
            let idx = emr.gem_for_server(&servers, sid);
            assert!(idx.is_some(), "gem_for_server must find {sid:?}");
            assert!(assignment[idx.unwrap()].contains(&sid));
        }

        // No phantom servers: the partitions cover exactly the input set.
        let total: usize = assignment.iter().map(Vec::len).sum();
        assert_eq!(total, servers.len());

        // A server outside the scope maps to no GEM.
        let outside = ServerId(num_servers as u32 + 1);
        assert_eq!(emr.gem_for_server(&servers, outside), None);
    });
}

/// With every GEM dead the assignment is empty and lookups return None (the
/// data plane keeps running; only resource rules stop).
#[test]
fn all_gems_dead_yields_empty_assignment() {
    check_cases("all_gems_dead_yields_empty_assignment", 64, |rng| {
        let num_gems = 1 + rng.index(5);
        let num_servers = 1 + rng.index(19);
        let mut emr = emr_with_gems(num_gems);
        for g in 0..num_gems {
            emr.fail_gem(g);
        }
        assert_eq!(emr.alive_gems(), 0);
        let servers: Vec<ServerId> = (0..num_servers as u32).map(ServerId).collect();
        assert!(emr.gem_assignment(&servers).is_empty());
        assert_eq!(emr.gem_for_server(&servers, ServerId(0)), None);
    });
}
