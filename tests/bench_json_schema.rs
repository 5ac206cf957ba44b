//! Schema stability for the JSON reports the repo writes:
//! `BENCH_runner.json` (`BatchResults::write_json`) and
//! `BENCH_chaos.json` (`ChaosStormReport`).
//! Simulation speed is recorded by `examples/benchmark`, whose own
//! tests pin its metric names and units. All reports here
//! are parsed back with the serving layer's own JSON reader, so the
//! documents stay valid JSON with a fixed field set — and the runner's
//! timings stay deterministic across worker counts.

use recon_secure::SecureConfig;
use recon_serve::{json, ChaosStormReport};
use recon_sim::{run_batch, Experiment};
use recon_workloads::{find, Scale, Suite};

fn tmp_path(name: &str) -> String {
    std::env::temp_dir()
        .join(format!("recon-{}-{name}", std::process::id()))
        .to_string_lossy()
        .into_owned()
}

/// `(bench, scheme, cycles)` rows — everything in a timing that must
/// not depend on the worker count.
fn timing_rows(doc: &json::Json) -> Vec<(String, String, u64)> {
    let json::Json::Arr(rows) = doc.get("job_timings").expect("job_timings present") else {
        panic!("job_timings is an array");
    };
    rows.iter()
        .map(|r| {
            (
                r.get("bench")
                    .and_then(json::Json::as_str)
                    .unwrap()
                    .to_string(),
                r.get("scheme")
                    .and_then(json::Json::as_str)
                    .unwrap()
                    .to_string(),
                r.get("cycles").and_then(json::Json::as_u64).unwrap(),
            )
        })
        .collect()
}

#[test]
fn batch_results_json_schema_and_determinism_across_jobs() {
    let exp = Experiment::default();
    let benches = vec![
        find(Suite::Spec2017, "mcf", Scale::Quick).unwrap(),
        find(Suite::Spec2017, "deepsjeng", Scale::Quick).unwrap(),
    ];
    let configs = [SecureConfig::unsafe_baseline(), SecureConfig::stt_recon()];

    let mut rows_by_jobs = Vec::new();
    for jobs in [1usize, 4] {
        let batch = run_batch(&exp, &benches, &configs, jobs);
        let path = tmp_path(&format!("runner-{jobs}.json"));
        batch.write_json(&path).expect("write BENCH_runner.json");
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();

        let doc = json::parse(&text).expect("BENCH_runner.json is valid JSON");
        // The golden schema: exactly these top-level keys, in order.
        assert_eq!(
            doc.keys(),
            vec![
                "jobs",
                "unique_jobs",
                "failed_jobs",
                "wall_seconds",
                "serial_seconds",
                "speedup",
                "job_timings"
            ]
        );
        assert_eq!(
            doc.get("jobs").and_then(json::Json::as_u64),
            Some(jobs as u64)
        );
        assert_eq!(doc.get("unique_jobs").and_then(json::Json::as_u64), Some(4));
        assert_eq!(doc.get("failed_jobs").and_then(json::Json::as_u64), Some(0));
        assert!(
            doc.get("wall_seconds")
                .and_then(json::Json::as_f64)
                .unwrap()
                >= 0.0
        );
        let rows = timing_rows(&doc);
        assert_eq!(rows.len(), 4);
        for (_, _, cycles) in &rows {
            assert!(*cycles > 0);
        }
        rows_by_jobs.push(rows);
    }
    assert_eq!(
        rows_by_jobs[0], rows_by_jobs[1],
        "timing rows (bench, scheme, cycles) are identical for --jobs 1 and --jobs 4"
    );
}

#[test]
fn chaos_storm_report_golden() {
    // The committed `BENCH_chaos.json` (seed 42, 6 clients x 8 requests).
    let injected = [
        ("worker-panic", 2),
        ("latency", 6),
        ("drop-request", 7),
        ("drop-response", 3),
        ("truncate-http", 1),
        ("garbage", 4),
        ("queue-burst", 5),
        ("ckpt-torn", 3),
    ];
    let report = ChaosStormReport {
        seed: 42,
        clients: 6,
        requests_per_client: 8,
        faults: "all=80,max-latency-ms=2".to_string(),
        ok: 36,
        deadline: 12,
        mismatches: 0,
        lost: 0,
        retries: 18,
        reconnects: 15,
        injected: injected
            .iter()
            .map(|&(site, n)| (site.to_string(), n))
            .collect(),
        injected_total: 31,
        worker_restarts: 2,
        jobs_rejected: 0,
        cache_hits: 5,
        cache_misses: 49,
        singleflight_joined: 0,
        checkpoints_written: 93,
        checkpoints_resumed: 0,
        checkpoints_dropped_corrupt: 0,
        wall_seconds: 1.830947,
    };
    // Byte-for-byte golden: any schema change must update this test.
    let golden = "{\n  \"seed\": 42,\n  \"clients\": 6,\n  \"requests_per_client\": 8,\n  \"faults\": \"all=80,max-latency-ms=2\",\n  \"ok\": 36,\n  \"deadline\": 12,\n  \"mismatches\": 0,\n  \"lost\": 0,\n  \"retries\": 18,\n  \"reconnects\": 15,\n  \"injected\": {\n    \"worker-panic\": 2,\n    \"latency\": 6,\n    \"drop-request\": 7,\n    \"drop-response\": 3,\n    \"truncate-http\": 1,\n    \"garbage\": 4,\n    \"queue-burst\": 5,\n    \"ckpt-torn\": 3\n  },\n  \"injected_total\": 31,\n  \"worker_restarts\": 2,\n  \"jobs_rejected\": 0,\n  \"cache_hits\": 5,\n  \"cache_misses\": 49,\n  \"singleflight_joined\": 0,\n  \"checkpoints_written\": 93,\n  \"checkpoints_resumed\": 0,\n  \"checkpoints_dropped_corrupt\": 0,\n  \"wall_seconds\": 1.830947\n}\n";
    assert_eq!(report.to_json(), golden);
    assert!(report.pass());

    let path = tmp_path("chaos-golden.json");
    report.write_json(&path).expect("write BENCH_chaos.json");
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(text, golden);
}
