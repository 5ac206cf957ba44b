//! Checkpoint/resume determinism: a run restored from any checkpoint
//! and continued must be indistinguishable — equal statistics and
//! byte-identical later snapshots — from the same run left
//! uninterrupted, for every scheme in the paper's matrix on several
//! workloads.

use recon::ReconConfig;
use recon_cpu::CoreConfig;
use recon_mem::MemConfig;
use recon_secure::SecureConfig;
use recon_sim::{Budget, System, SystemResult};
use recon_workloads::gen::parallel::{generate, ParKind, ParallelParams};
use recon_workloads::Workload;

const MAX_CYCLES: u64 = 10_000_000;
const CADENCE: u64 = 400;

fn workloads() -> Vec<(&'static str, Workload)> {
    [
        ("shared-chase", ParKind::SharedChase),
        ("data-parallel", ParKind::DataParallel { rotate: true }),
        ("producer-consumer", ParKind::ProducerConsumer),
    ]
    .into_iter()
    .map(|(name, kind)| {
        (
            name,
            generate(ParallelParams {
                kind,
                slots: 64,
                cond_lines: 4,
                passes: 2,
                seed: 1,
            }),
        )
    })
    .collect()
}

fn fresh(w: &Workload, secure: SecureConfig) -> System {
    System::new(
        w,
        CoreConfig::tiny(),
        MemConfig::scaled(),
        secure,
        ReconConfig::default(),
    )
}

fn ckpt_budget() -> Budget {
    Budget {
        checkpoint_every_cycles: Some(CADENCE),
        ..Budget::default()
    }
}

/// Runs to completion with checkpointing on, collecting every snapshot.
fn run_full(w: &Workload, secure: SecureConfig) -> (SystemResult, Vec<(u64, Vec<u8>)>) {
    let mut sys = fresh(w, secure);
    let mut snaps = Vec::new();
    let r = sys
        .run_budgeted_checkpointed(MAX_CYCLES, &ckpt_budget(), |cycle, bytes| {
            snaps.push((cycle, bytes.to_vec()));
        })
        .expect("workload completes");
    (r, snaps)
}

#[test]
fn resume_equals_uninterrupted_for_every_scheme_and_workload() {
    for (name, w) in &workloads() {
        for secure in SecureConfig::ALL {
            let (full, snaps) = run_full(w, secure);
            assert!(
                snaps.len() >= 2,
                "{name}/{secure}: want >=2 checkpoints, got {}",
                snaps.len()
            );

            // Resume from the middle checkpoint, as a kill would.
            let (cycle, bytes) = &snaps[snaps.len() / 2];
            let mut sys = fresh(w, secure);
            sys.restore_bytes(bytes)
                .unwrap_or_else(|e| panic!("{name}/{secure}: restore failed: {e}"));
            assert_eq!(sys.cycle(), *cycle, "{name}/{secure}");

            let mut resumed_snaps = Vec::new();
            let resumed = sys
                .run_budgeted_checkpointed(MAX_CYCLES, &ckpt_budget(), |c, b| {
                    resumed_snaps.push((c, b.to_vec()));
                })
                .expect("resumed run completes");

            assert_eq!(
                resumed, full,
                "{name}/{secure}: resumed result must equal the uninterrupted run"
            );

            // Every later checkpoint the resumed run emits must be
            // byte-identical to the uninterrupted run's at that cycle.
            for (c, b) in &resumed_snaps {
                let original = snaps
                    .iter()
                    .find(|(oc, _)| oc == c)
                    .unwrap_or_else(|| panic!("{name}/{secure}: no original snapshot at {c}"));
                assert_eq!(
                    &original.1, b,
                    "{name}/{secure}: snapshot at cycle {c} diverged"
                );
            }
            assert_eq!(
                resumed_snaps.len(),
                snaps.len() - snaps.len() / 2 - 1,
                "{name}/{secure}: resumed run must hit the same later boundaries"
            );
        }
    }
}

#[test]
fn resume_from_every_checkpoint_reaches_the_same_result() {
    // One scheme, every checkpoint: the guarantee holds wherever the
    // kill lands, not just in the middle.
    let (_, w) = &workloads()[0];
    let secure = SecureConfig::stt_recon();
    let (full, snaps) = run_full(w, secure);
    for (cycle, bytes) in &snaps {
        let mut sys = fresh(w, secure);
        sys.restore_bytes(bytes).expect("restore");
        let r = sys
            .run_budgeted_checkpointed(MAX_CYCLES, &ckpt_budget(), |_, _| {})
            .expect("completes");
        assert_eq!(r, full, "resume from cycle {cycle} diverged");
    }
}

#[test]
fn restored_fuel_is_preserved_across_resume() {
    // A fuel-capped run checkpointed mid-flight must, after resume with
    // `fuel: None`, stop at exactly the same commit count as the
    // uninterrupted capped run: remaining fuel rides in the snapshot.
    let (_, w) = &workloads()[0];
    let secure = SecureConfig::stt();
    let budget = Budget {
        fuel: Some(1_200),
        checkpoint_every_cycles: Some(CADENCE),
        ..Budget::default()
    };
    let mut sys = fresh(w, secure);
    let mut snaps = Vec::new();
    let full = sys
        .run_budgeted_checkpointed(MAX_CYCLES, &budget, |c, b| snaps.push((c, b.to_vec())))
        .expect_err("fuel must run out")
        .into_partial();
    assert!(!snaps.is_empty(), "need a checkpoint before fuel ran out");

    let (_, bytes) = &snaps[snaps.len() / 2];
    let mut sys = fresh(w, secure);
    sys.restore_bytes(bytes).expect("restore");
    let resume_budget = Budget {
        fuel: None, // keep the restored per-core remaining fuel
        checkpoint_every_cycles: Some(CADENCE),
        ..Budget::default()
    };
    let resumed = sys
        .run_budgeted_checkpointed(MAX_CYCLES, &resume_budget, |_, _| {})
        .expect_err("fuel still runs out")
        .into_partial();
    assert_eq!(resumed, full);
}

#[test]
fn snapshots_reject_corruption_and_truncation() {
    let (_, w) = &workloads()[0];
    let secure = SecureConfig::nda();
    let (_, snaps) = run_full(w, secure);
    let bytes = &snaps[0].1;

    // Truncations at section-sized strides (every prefix would be slow
    // on a multi-KB snapshot; strides still cross every section).
    for cut in (0..bytes.len()).step_by(127) {
        let mut sys = fresh(w, secure);
        assert!(
            sys.restore_bytes(&bytes[..cut]).is_err(),
            "truncated snapshot of {cut} bytes must not restore"
        );
    }
    // Trailing garbage is rejected too.
    let mut extended = bytes.clone();
    extended.push(0);
    let mut sys = fresh(w, secure);
    assert!(sys.restore_bytes(&extended).is_err());
}
