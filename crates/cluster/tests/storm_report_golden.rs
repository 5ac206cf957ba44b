//! Schema stability for `BENCH_cluster.json`: the cluster storm's
//! report renders byte-for-byte as the committed document.

use recon_cluster::ClusterStormReport;

/// The committed report (`recon chaos --nodes 3 --seed 42`).
const COMMITTED: &str = include_str!("../../../BENCH_cluster.json");

#[test]
fn cluster_storm_report_golden() {
    let report = ClusterStormReport {
        seed: 42,
        nodes: 3,
        clients: 3,
        requests_per_client: 4,
        ok: 10,
        deadline: 3,
        mismatches: 0,
        lost: 0,
        retries: 0,
        kills: 1,
        restarts: 1,
        kill_orphan_resumed: true,
        migrated: 1,
        successor_migrations_in: 1,
        successor_resumes: 1,
        migrated_byte_identical: true,
        reroutes: 4,
        gateway_reroutes: 5,
        replications: 6,
        wall_seconds: 1.253486,
    };
    // Byte-for-byte golden: any schema change must regenerate the file.
    assert_eq!(report.to_json(), COMMITTED);
    assert!(report.pass());

    let path =
        std::env::temp_dir().join(format!("recon-{}-cluster-golden.json", std::process::id()));
    let path = path.to_string_lossy().into_owned();
    report.write_json(&path).expect("write BENCH_cluster.json");
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(text, COMMITTED);
}
