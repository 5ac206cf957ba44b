//! Offline cluster smoke: a seeded mini-storm over real `recon serve`
//! child processes — one SIGKILL + restart, one drain-driven checkpoint
//! migration — gated on 0 lost / 0 mismatched / byte-identical. This is
//! the test CI's `cluster-smoke` job runs.

use std::path::PathBuf;

use recon_cluster::{run_cluster_storm, ClusterStormConfig};

#[test]
fn mini_storm_survives_a_kill_and_proves_a_cross_node_resume() {
    let config = ClusterStormConfig {
        seed: 11,
        nodes: 3,
        clients: 2,
        requests: 3,
        node_workers: 1,
        watch_fuel: 6_000_000,
        node_exe: PathBuf::from(env!("CARGO_BIN_EXE_recon")),
        out: None,
    };
    let report = run_cluster_storm(&config).expect("cluster storm runs");

    assert_eq!(report.lost, 0, "no request may go unanswered: {report:?}");
    assert_eq!(report.mismatches, 0, "no response may differ: {report:?}");
    assert_eq!(report.kills, 1, "{report:?}");
    assert_eq!(report.restarts, 1, "{report:?}");
    assert!(
        report.migrated >= 1,
        "drain must ship a checkpoint: {report:?}"
    );
    assert!(
        report.successor_migrations_in >= 1 && report.successor_resumes >= 1,
        "the ring successor must accept and resume the migrated checkpoint: {report:?}"
    );
    assert!(
        report.migrated_byte_identical,
        "the cross-node resume must be byte-identical: {report:?}"
    );
    assert!(report.pass(), "{report:?}");
}
