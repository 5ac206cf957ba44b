//! The corpus suite end-to-end: every embedded real program runs in the
//! detailed simulator under every scheme, passes its own self-check,
//! and lands on its golden digest — and the result is invisible to the
//! performance machinery (worker counts, functional fast-forward,
//! checkpoint/restore).

use recon::ReconConfig;
use recon_asm::corpus::{self, DIGEST_ADDR, STATUS_ADDR, STATUS_PASS};
use recon_cpu::CoreConfig;
use recon_mem::MemConfig;
use recon_secure::SecureConfig;
use recon_sim::{Budget, Experiment, System};
use recon_workloads::{find, Benchmark, Scale, Suite};

fn corpus_benchmarks() -> Vec<Benchmark> {
    corpus::names()
        .into_iter()
        .map(|name| find(Suite::Corpus, name, Scale::Quick).expect("corpus benchmark exists"))
        .collect()
}

fn system_for(b: &Benchmark, scheme: SecureConfig) -> System {
    System::new(
        &b.workload,
        CoreConfig::paper(),
        MemConfig::scaled(),
        scheme,
        ReconConfig::default(),
    )
}

/// Every corpus program, under every scheme, halts, writes the passing
/// status word, and computes its golden digest — the schemes change
/// timing, never answers.
#[test]
fn corpus_programs_self_check_under_every_scheme() {
    for b in corpus_benchmarks() {
        let golden = corpus::find(b.name).expect("corpus entry").golden_digest;
        for scheme in SecureConfig::ALL {
            let mut sys = system_for(&b, scheme);
            let r = sys.run(200_000_000);
            assert!(r.completed, "{} under {scheme}: completes", b.name);
            assert_eq!(
                sys.data().peek(STATUS_ADDR),
                STATUS_PASS,
                "{} under {scheme}: self-check failed (digest {:#x})",
                b.name,
                sys.data().peek(DIGEST_ADDR)
            );
            assert_eq!(
                sys.data().peek(DIGEST_ADDR),
                golden,
                "{} under {scheme}: digest drifted from golden",
                b.name
            );
        }
    }
}

/// The suite runner over the corpus is a pure speedup: serial and
/// 4-worker runs produce identical per-scheme results, and repeated
/// detailed runs are byte-identical.
#[test]
fn corpus_suite_results_are_identical_across_worker_counts() {
    let exp = Experiment::default();
    let benches = corpus_benchmarks();
    let (serial, _) = exp.run_matrices(&benches, 1);
    let (parallel, batch) = exp.run_matrices(&benches, 4);
    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s.name, p.name, "benchmark order must be deterministic");
        assert_eq!(s.baseline, p.baseline, "{}: baseline diverges", s.name);
        assert_eq!(s.nda, p.nda, "{}: nda diverges", s.name);
        assert_eq!(s.nda_recon, p.nda_recon, "{}: nda+recon diverges", s.name);
        assert_eq!(s.stt, p.stt, "{}: stt diverges", s.name);
        assert_eq!(s.stt_recon, p.stt_recon, "{}: stt+recon diverges", s.name);
    }
    assert_eq!(batch.job_count(), 5 * benches.len());
}

/// Functional fast-forward on a corpus program: the warmed run still
/// self-checks with the golden digest under every scheme, and its
/// detailed region is byte-identical to a replica restored from a
/// snapshot taken at the mode switch.
#[test]
fn quicksort_fast_forward_matches_snapshot_restore_replica() {
    let b = find(Suite::Corpus, "quicksort", Scale::Quick).expect("benchmark exists");
    let golden = corpus::QUICKSORT_DIGEST;
    const FF: u64 = 5_000;
    for scheme in SecureConfig::ALL {
        let mut warm = system_for(&b, scheme);
        let executed = warm.fast_forward(FF);
        assert_eq!(executed, FF, "warmup shorter than the program");
        let snap = warm.snapshot_bytes();
        let warm_result = warm.run(200_000_000);
        assert!(warm_result.completed, "{scheme}: warm run completes");
        assert_eq!(
            warm.data().peek(STATUS_ADDR),
            STATUS_PASS,
            "{scheme}: warmed quicksort self-check"
        );
        assert_eq!(
            warm.data().peek(DIGEST_ADDR),
            golden,
            "{scheme}: warmed quicksort digest"
        );

        let mut replica = system_for(&b, scheme);
        replica.restore_bytes(&snap).expect("snapshot restores");
        let replica_result = replica.run(200_000_000);
        assert_eq!(
            warm_result, replica_result,
            "{scheme}: detailed region after fast-forward must be \
             byte-identical to the snapshot/restore replica"
        );
    }
}

/// `Budget::fast_forward` (the `--fast-forward` flag's path through the
/// suite runner) is exactly `System::fast_forward` on corpus programs,
/// and the digest is warmup-invariant.
#[test]
fn corpus_fast_forward_budget_equals_explicit_fast_forward() {
    let b = find(Suite::Corpus, "quicksort", Scale::Quick).expect("benchmark exists");
    const FF: u64 = 8_000;
    for scheme in [SecureConfig::unsafe_baseline(), SecureConfig::stt_recon()] {
        let mut explicit = system_for(&b, scheme);
        explicit.fast_forward(FF);
        let explicit_result = explicit.run(200_000_000);

        let mut budgeted = system_for(&b, scheme);
        let budget = Budget {
            fast_forward: Some(FF),
            ..Budget::default()
        };
        let budgeted_result = budgeted
            .run_budgeted(200_000_000, &budget)
            .expect("budgeted run completes");
        assert_eq!(budgeted.fast_forwarded(), FF);
        assert_eq!(
            explicit_result, budgeted_result,
            "{scheme}: Budget::fast_forward is exactly System::fast_forward"
        );
        assert_eq!(
            budgeted.data().peek(DIGEST_ADDR),
            corpus::QUICKSORT_DIGEST,
            "{scheme}: digest is warmup-invariant"
        );
    }
}
