//! Schema stability for `BENCH_cluster.json`: the cluster storm's
//! report renders byte-for-byte as the committed document.

use recon_cluster::storm::ThroughputPoint;
use recon_cluster::ClusterStormReport;

#[test]
fn cluster_storm_report_golden() {
    // The committed `BENCH_cluster.json` (seed 42, 3 nodes).
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
        reroutes: 2,
        gateway_reroutes: 3,
        replications: 8,
        throughput: vec![
            ThroughputPoint {
                nodes: 1,
                jobs: 960,
                wall_seconds: 23.931199,
                rps: 40.11,
            },
            ThroughputPoint {
                nodes: 3,
                jobs: 960,
                wall_seconds: 9.752830,
                rps: 98.43,
            },
        ],
        speedup: 2.454,
        wall_seconds: 49.403328,
    };
    // Byte-for-byte golden: any schema change must update this test.
    let golden = "{\n  \"seed\": 42,\n  \"nodes\": 3,\n  \"clients\": 3,\n  \"requests_per_client\": 4,\n  \"ok\": 10,\n  \"deadline\": 3,\n  \"mismatches\": 0,\n  \"lost\": 0,\n  \"retries\": 0,\n  \"kills\": 1,\n  \"restarts\": 1,\n  \"kill_orphan_resumed\": true,\n  \"migrated\": 1,\n  \"successor_migrations_in\": 1,\n  \"successor_resumes\": 1,\n  \"migrated_byte_identical\": true,\n  \"reroutes\": 2,\n  \"gateway_reroutes\": 3,\n  \"replications\": 8,\n  \"throughput\": [\n    {\"nodes\": 1, \"jobs\": 960, \"wall_seconds\": 23.931199, \"rps\": 40.11},\n    {\"nodes\": 3, \"jobs\": 960, \"wall_seconds\": 9.752830, \"rps\": 98.43}\n  ],\n  \"speedup\": 2.454,\n  \"pass\": true,\n  \"wall_seconds\": 49.403328\n}\n";
    assert_eq!(report.to_json(), golden);
    assert!(report.pass());

    let path =
        std::env::temp_dir().join(format!("recon-{}-cluster-golden.json", std::process::id()));
    let path = path.to_string_lossy().into_owned();
    report.write_json(&path).expect("write BENCH_cluster.json");
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(text, golden);
}
