//! The fast paths must be invisible: pre-decoded streams, the packed
//! reveal-mask arrays, and functional fast-forward are performance
//! features, so every one of them has to produce byte-identical results
//! to the path it replaces.
//!
//! Three angles:
//!
//! 1. the pre-decoded interpreter vs the per-step accessor-decode
//!    reference, instruction for instruction, on real workloads;
//! 2. the detailed simulator (which now fetches from the pre-decoded
//!    stream and merges masks through the packed arrays) must be
//!    deterministic across repeated runs for all five schemes;
//! 3. a fast-forwarded run's detailed region vs a replica restored from
//!    a snapshot taken at the mode switch, and the functional engine's
//!    architectural state vs a detailed run frozen at the same commit
//!    count.

use recon::ReconConfig;
use recon_cpu::CoreConfig;
use recon_isa::{
    run_collect, run_decoded, ArchState, DataMem, DecodedProgram, MemEffect, SparseMem,
};
use recon_mem::MemConfig;
use recon_secure::SecureConfig;
use recon_sim::{Budget, System};
use recon_workloads::{find, Benchmark, Scale, Suite};

fn single_thread_picks() -> Vec<Benchmark> {
    [
        (Suite::Spec2017, "mcf"),
        (Suite::Spec2006, "milc"),
        (Suite::Spec2017, "xalancbmk"),
    ]
    .into_iter()
    .map(|(suite, name)| find(suite, name, Scale::Quick).expect("benchmark exists"))
    .collect()
}

fn system_for(b: &Benchmark, scheme: SecureConfig) -> System {
    let mem = if b.workload.num_threads() > 1 {
        MemConfig::scaled_multicore()
    } else {
        MemConfig::scaled()
    };
    System::new(
        &b.workload,
        CoreConfig::paper(),
        mem,
        scheme,
        ReconConfig::default(),
    )
}

#[test]
fn decoded_interpreter_matches_per_step_decode() {
    for b in single_thread_picks() {
        let program = &b.workload.program;

        // Reference: per-step accessor decode, trace materialized.
        let (trace, ref_state) = run_collect(program, usize::MAX).expect("reference run");
        assert!(ref_state.halted, "{}: reference run halts", b.name);

        // Fast path: decode once, interpret the dense stream.
        let decoded = DecodedProgram::decode(program);
        let mut mem = SparseMem::from_image(&program.image);
        let mut st = ArchState::at_entry(program);
        let steps = run_decoded(&decoded, &mut st, &mut mem, u64::MAX).expect("decoded run");

        assert_eq!(steps, trace.len() as u64, "{}: step counts", b.name);
        assert_eq!(st, ref_state, "{}: final architectural state", b.name);

        // Every address the reference run stored to must hold the same
        // value under the fast path.
        let mut ref_mem = SparseMem::from_image(&program.image);
        for r in &trace {
            if let MemEffect::Store { addr, value } = r.mem {
                ref_mem.write(addr, value);
            }
        }
        for r in &trace {
            if let MemEffect::Store { addr, .. } = r.mem {
                assert_eq!(
                    mem.read(addr),
                    ref_mem.read(addr),
                    "{}: memory at {addr:#x}",
                    b.name
                );
            }
        }
    }
}

#[test]
fn detailed_runs_are_deterministic_for_every_scheme() {
    let mut picks = single_thread_picks();
    picks.push(find(Suite::Parsec, "canneal", Scale::Quick).expect("benchmark exists"));
    for b in &picks {
        for scheme in SecureConfig::ALL {
            let first = system_for(b, scheme).run(200_000_000);
            let second = system_for(b, scheme).run(200_000_000);
            assert!(first.completed, "{} under {scheme}: completes", b.name);
            assert_eq!(
                first, second,
                "{} under {scheme}: repeated detailed runs must be byte-identical",
                b.name
            );
        }
    }
}

#[test]
fn fast_forward_detailed_region_matches_snapshot_restore_replica() {
    let b = find(Suite::Spec2017, "mcf", Scale::Quick).expect("benchmark exists");
    const FF: u64 = 50_000;
    for scheme in SecureConfig::ALL {
        let mut warm = system_for(&b, scheme);
        let executed = warm.fast_forward(FF);
        assert_eq!(executed, FF, "warmup shorter than the program");
        let snap = warm.snapshot_bytes();
        let warm_result = warm.run(200_000_000);
        assert!(warm_result.completed, "{scheme}: warm run completes");

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

#[test]
fn fast_forward_budget_equals_explicit_fast_forward() {
    let b = find(Suite::Spec2017, "mcf", Scale::Quick).expect("benchmark exists");
    const FF: u64 = 40_000;
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
    }
}

#[test]
fn functional_engine_reaches_the_detailed_architectural_state() {
    let b = find(Suite::Spec2017, "mcf", Scale::Quick).expect("benchmark exists");
    const FF: u64 = 30_000;
    let program = &b.workload.program;

    // Functional run to halt: the committed-instruction count and the
    // final data memory are the architectural ground truth.
    let decoded = DecodedProgram::decode(program);
    let mut func_mem = SparseMem::from_image(&program.image);
    let mut st = ArchState::at_entry(program);
    let total = run_decoded(&decoded, &mut st, &mut func_mem, u64::MAX).expect("functional run");
    assert!(st.halted);

    // Every address the program ever stores to (from the reference
    // interpreter's trace) — the addresses where final memory is
    // observable.
    let (trace, _) = run_collect(program, usize::MAX).expect("reference run");
    let stores: Vec<u64> = trace
        .iter()
        .filter_map(|r| match r.mem {
            MemEffect::Store { addr, .. } => Some(addr),
            _ => None,
        })
        .collect();

    for scheme in [SecureConfig::unsafe_baseline(), SecureConfig::stt_recon()] {
        // Cold detailed run: commits exactly the functional count and
        // leaves the same memory behind.
        let mut cold = system_for(&b, scheme);
        let cold_result = cold.run(200_000_000);
        assert!(cold_result.completed);
        assert_eq!(
            cold_result.committed(),
            total,
            "{scheme}: detailed and functional instruction counts"
        );

        // Warm run: the functional prefix plus the detailed tail must
        // cover the same program, and end in the same memory.
        let mut warm = system_for(&b, scheme);
        assert_eq!(warm.fast_forward(FF), FF);
        let warm_result = warm.run(200_000_000);
        assert!(warm_result.completed);
        assert_eq!(
            warm_result.committed() + FF,
            total,
            "{scheme}: warm tail picks up exactly where the warmup stopped"
        );

        for &addr in &stores {
            let expect = func_mem.peek(addr);
            assert_eq!(
                cold.data().peek(addr),
                expect,
                "{scheme}: cold-run memory at {addr:#x}"
            );
            assert_eq!(
                warm.data().peek(addr),
                expect,
                "{scheme}: warm-run memory at {addr:#x}"
            );
        }
    }
}
