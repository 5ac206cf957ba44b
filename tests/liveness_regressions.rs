//! Liveness regressions: the watchdog must stay silent on hard-but-
//! legal pipeline patterns (structural hazards held for many cycles)
//! under every scheme, and must fire — with named forensics — on the
//! one known deadlock, PR 8's AMO/empty-SQ issue gate, reintroduced
//! behind the `amo_empty_sq_bug` test hook.

use recon::ReconConfig;
use recon_cpu::CoreConfig;
use recon_isa::reg::names::*;
use recon_isa::{AluKind, Inst, MemImage, Program};
use recon_mem::MemConfig;
use recon_secure::SecureConfig;
use recon_sim::{Budget, SimError, System};
use recon_workloads::Workload;

const DATA_BASE: u64 = 0x2000;
const MAX_CYCLES: u64 = 2_000_000;

fn program(code: Vec<Inst>) -> Program {
    let p = Program {
        code,
        entry: 0,
        image: MemImage::new(),
    };
    p.validate().expect("test program must be well-formed");
    p
}

fn system(p: &Program, core: CoreConfig, secure: SecureConfig) -> System {
    System::new(
        &Workload::single(p.clone()),
        core,
        MemConfig::default(),
        secure,
        ReconConfig::default(),
    )
}

/// Runs `p` with the watchdog at its default window (Budget::default
/// leaves `watchdog_cycles` unset) and asserts clean completion.
fn completes_under_all_schemes(p: &Program, label: &str) {
    for secure in SecureConfig::ALL {
        let mut sys = system(p, CoreConfig::tiny(), secure);
        let r = sys
            .run_budgeted(MAX_CYCLES, &Budget::default())
            .unwrap_or_else(|e| panic!("{label} under {secure}: {e}"));
        assert!(r.completed, "{label} under {secure} must halt");
    }
}

// ---------------------------------------------------------------------
// Near-deadlock patterns that MUST complete (watchdog default-on).
// ---------------------------------------------------------------------

/// Pattern 1: the store queue is full when its oldest entry reaches the
/// ROB head — 4x the tiny core's 8 SQ entries, back to back.
#[test]
fn sq_full_at_head_completes_under_all_schemes() {
    let mut code = vec![Inst::LoadImm {
        dst: R1,
        imm: DATA_BASE,
    }];
    for k in 0..32i64 {
        code.push(Inst::Store {
            val: R1,
            base: R1,
            offset: 8 * k,
        });
    }
    code.push(Inst::Halt);
    completes_under_all_schemes(&program(code), "sq-full burst");
}

/// Pattern 2: load-queue / miss saturation — 4x the tiny core's 8 LQ
/// entries, each load touching a distinct cache line so misses pile up.
#[test]
fn lq_miss_saturation_completes_under_all_schemes() {
    let mut code = vec![Inst::LoadImm {
        dst: R1,
        imm: DATA_BASE,
    }];
    for k in 0..32usize {
        let dst = recon_isa::ArchReg::new(2 + (k % 8));
        code.push(Inst::Load {
            dst,
            base: R1,
            offset: 64 * k as i64,
        });
    }
    code.push(Inst::Halt);
    completes_under_all_schemes(&program(code), "lq miss burst");
}

/// Pattern 3: a serializing AMO chain, each AMO with a store fetched
/// into its shadow — exactly the shape that deadlocked under the PR 8
/// gate, legal and completing on trunk.
#[test]
fn amo_chain_with_shadow_stores_completes_under_all_schemes() {
    let mut code = vec![
        Inst::LoadImm {
            dst: R1,
            imm: DATA_BASE,
        },
        Inst::AluImm {
            kind: AluKind::Add,
            dst: R3,
            a: R0,
            imm: 1,
        },
    ];
    for k in 0..16i64 {
        code.push(Inst::AmoAdd {
            dst: R2,
            base: R1,
            offset: 0,
            add: R3,
        });
        code.push(Inst::Store {
            val: R2,
            base: R1,
            offset: 8 + 8 * (k % 4),
        });
    }
    code.push(Inst::Halt);
    let p = program(code);
    completes_under_all_schemes(&p, "amo chain");

    // The chain is architecturally visible: 16 increments of +1.
    let mut sys = system(&p, CoreConfig::tiny(), SecureConfig::stt_recon());
    sys.run_budgeted(MAX_CYCLES, &Budget::default()).unwrap();
    assert_eq!(sys.data().peek(DATA_BASE), 16);
}

// ---------------------------------------------------------------------
// The reintroduced PR 8 bug: watchdog fires with named forensics.
// ---------------------------------------------------------------------

/// The minimal deadlock: a store fetched into the AMO's shadow sits in
/// the SQ, and the historical gate refuses to issue the AMO until the
/// SQ is empty — which it never will be.
fn amo_shadow_store() -> Program {
    program(vec![
        Inst::LoadImm {
            dst: R1,
            imm: DATA_BASE,
        },
        Inst::AmoAdd {
            dst: R2,
            base: R1,
            offset: 8,
            add: R1,
        },
        Inst::Store {
            val: R1,
            base: R1,
            offset: 0,
        },
        Inst::Halt,
    ])
}

#[test]
fn amo_bug_hook_stalls_within_the_window_with_forensics() {
    const WINDOW: u64 = 10_000;
    let buggy = CoreConfig {
        amo_empty_sq_bug: true,
        ..CoreConfig::tiny()
    };
    let p = amo_shadow_store();
    for secure in SecureConfig::ALL {
        let mut sys = system(&p, buggy, secure);
        let budget = Budget {
            watchdog_cycles: Some(WINDOW),
            ..Budget::default()
        };
        match sys.run_budgeted(MAX_CYCLES, &budget) {
            Err(SimError::Stalled { report, .. }) => {
                // Fires within one window of the last commit: commits
                // stop almost immediately, so well before 2*WINDOW.
                assert!(
                    report.cycle < 2 * WINDOW,
                    "under {secure}: watchdog fired late, cycle {}",
                    report.cycle
                );
                assert_eq!(report.window, WINDOW);
                let text = report.to_string();
                assert!(
                    text.contains("amoadd"),
                    "under {secure}: forensics must name the AMO at the ROB head:\n{text}"
                );
                assert!(
                    text.contains("LIVENESS STALL"),
                    "under {secure}: report header missing:\n{text}"
                );
            }
            other => panic!("under {secure}: expected a stall, got {other:?}"),
        }
    }
}

/// The same program completes everywhere once the gate is fixed — the
/// regression the hook exists to guard.
#[test]
fn amo_shadow_store_completes_on_trunk() {
    completes_under_all_schemes(&amo_shadow_store(), "amo shadow store");
}

#[test]
fn watchdog_can_be_disabled_and_deadline_fires_instead() {
    let buggy = CoreConfig {
        amo_empty_sq_bug: true,
        ..CoreConfig::tiny()
    };
    let mut sys = system(&amo_shadow_store(), buggy, SecureConfig::unsafe_baseline());
    let budget = Budget {
        watchdog_cycles: Some(0), // 0 = watchdog off
        ..Budget::default()
    };
    match sys.run_budgeted(30_000, &budget) {
        Err(SimError::DeadlineExceeded { .. }) => {}
        other => panic!("expected the cycle deadline (watchdog off), got {other:?}"),
    }
}

// ---------------------------------------------------------------------
// Fuzz acceptance: the campaign finds the injected bug and shrinks it.
// ---------------------------------------------------------------------

#[test]
fn fuzz_finds_and_shrinks_the_injected_amo_bug() {
    let dir = std::env::temp_dir().join(format!("recon-fuzz-accept-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let report = recon_fuzz::run_fuzz(&recon_fuzz::FuzzConfig {
        seed: 42,
        count: 8,
        quick: true,
        oracle: recon_fuzz::OracleConfig {
            core: CoreConfig {
                amo_empty_sq_bug: true,
                ..CoreConfig::tiny()
            },
            watchdog_cycles: 5_000,
            skip_snapshot: true,
            ..recon_fuzz::OracleConfig::default()
        },
        out_dir: Some(dir.clone()),
        ..recon_fuzz::FuzzConfig::default()
    });
    assert!(
        !report.failures.is_empty(),
        "the injected bug must surface within 8 programs"
    );
    for f in &report.failures {
        assert_eq!(f.kind, "stall");
        assert!(
            f.shrunk_len <= 12,
            "program {} shrunk to only {} instructions",
            f.index,
            f.shrunk_len
        );
        let path = f.repro_path.as_ref().expect("repro written");
        let text = std::fs::read_to_string(path).unwrap();
        let back = recon_asm::assemble(&text).expect("repro must re-assemble");
        assert_eq!(back.program.code, f.program.code);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
