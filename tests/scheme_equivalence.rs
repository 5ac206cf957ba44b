//! Randomized integration tests: security schemes are *timing*
//! mechanisms — they must never change architectural results.
//!
//! Random workload-generator instances are executed on the golden
//! functional model and on the out-of-order core under every scheme;
//! final memory and accumulator state must agree everywhere. The
//! parameters are drawn from the repo's own `SplitMix64`, and every
//! failure prints the seed and parameters of its case.

use recon_repro::cpu::CoreConfig;
use recon_repro::isa::rng::{Rng as _, SplitMix64};
use recon_repro::isa::{reg::names::*, DataMem, Program, SparseMem};
use recon_repro::mem::MemConfig;
use recon_repro::recon::ReconConfig;
use recon_repro::secure::SecureConfig;
use recon_repro::sim::System;
use recon_repro::workloads::gen::{branchy, btree, gadget, hash, list, stream};
use recon_repro::workloads::Workload;

const ALL_SCHEMES: [fn() -> SecureConfig; 5] = [
    SecureConfig::unsafe_baseline,
    SecureConfig::nda,
    SecureConfig::nda_recon,
    SecureConfig::stt,
    SecureConfig::stt_recon,
];

/// Runs `program` on the OoO core under `secure`; returns (R5, memory).
fn run_oo(program: &Program, secure: SecureConfig) -> (u64, SparseMem) {
    let w = Workload::single(program.clone());
    let mut sys = System::new(
        &w,
        CoreConfig::tiny(),
        MemConfig::scaled(),
        secure,
        ReconConfig::default(),
    );
    let r = sys.run(50_000_000);
    assert!(r.completed, "must finish under {secure}");
    let sum = sys.cores()[0].arch_read(R5);
    (sum, sys.data().clone())
}

fn golden(program: &Program) -> (u64, SparseMem) {
    let mut mem = SparseMem::from_image(&program.image);
    let mut state = recon_repro::isa::ArchState::at_entry(program);
    for _ in 0..50_000_000u64 {
        if state.halted {
            break;
        }
        recon_repro::isa::exec::step(program, &mut state, &mut mem).expect("golden run ok");
    }
    assert!(state.halted);
    (state.read(R5), mem)
}

/// Cases per property.
const CASES: u64 = 6;

/// Runs `body` once per case with a generator seeded from `salt` and
/// the case number.
fn cases(salt: u64, mut body: impl FnMut(&mut SplitMix64)) {
    for case in 0..CASES {
        body(&mut SplitMix64::new(salt + case));
    }
}

/// `case` names the generator, seed and parameters in every failure.
fn assert_equivalent(program: &Program, case: &str) {
    let (gold_sum, gold_mem) = golden(program);
    for mk in ALL_SCHEMES {
        let secure = mk();
        let (sum, mut mem) = run_oo(program, secure);
        assert_eq!(sum, gold_sum, "{case}: accumulator differs under {secure}");
        // Every image word must match the golden final state.
        for (addr, _) in program.image.iter() {
            assert_eq!(
                mem.read(addr),
                gold_mem.peek(addr),
                "{case}: word {addr:#x} differs under {secure}"
            );
        }
    }
}

#[test]
fn gadget_programs_are_scheme_invariant() {
    cases(0x9ad9_0000, |rng| {
        let params = gadget::GadgetParams {
            slots: 1 << (4 + rng.below(3)),
            cond_lines: 16,
            passes: 2,
            stores_per_16: rng.below(3) as u8,
            indirect_per_16: rng.below(5) as u8,
            cyclic: rng.below(2) == 1,
            seed: rng.below(1000),
            ..Default::default()
        };
        let p = gadget::generate(params);
        assert_equivalent(&p, &format!("gadget {params:?}"));
    });
}

#[test]
fn hash_programs_are_scheme_invariant() {
    cases(0x4a54_0000, |rng| {
        let params = hash::HashParams {
            buckets: 32,
            lookups: 96,
            keys: 64,
            cond_lines: 8,
            seed: rng.below(1000),
        };
        let p = hash::generate(params);
        assert_equivalent(&p, &format!("hash {params:?}"));
    });
}

#[test]
fn list_programs_are_scheme_invariant() {
    cases(0x1157_0000, |rng| {
        let params = list::ListParams {
            nodes: 64,
            chains: 1 + rng.below(4),
            visits: 40,
            cond_lines: 8,
            payload_slots: 16,
            seed: rng.below(1000),
        };
        let p = list::generate(params);
        assert_equivalent(&p, &format!("list {params:?}"));
    });
}

#[test]
fn btree_programs_are_scheme_invariant() {
    cases(0xb7ee_0000, |rng| {
        let params = btree::BtreeParams {
            height: 5,
            searches: 32,
            seed: rng.below(1000),
        };
        let p = btree::generate(params);
        assert_equivalent(&p, &format!("btree {params:?}"));
    });
}

#[test]
fn branchy_and_stream_are_scheme_invariant() {
    cases(0xb5a7_0000, |rng| {
        let params = branchy::BranchyParams {
            values: 64,
            iterations: 128,
            seed: rng.below(1000),
        };
        let b = branchy::generate(params);
        assert_equivalent(&b, &format!("branchy {params:?}"));
        let params = stream::StreamParams {
            elements: 64,
            passes: 2,
            writes: true,
            stride_words: 1,
        };
        let s = stream::generate(params);
        assert_equivalent(&s, &format!("stream {params:?}"));
    });
}
