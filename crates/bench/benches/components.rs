//! Dependency-free microbenchmarks of the reproduction's substrates:
//! LPT throughput, reveal-mask operations, cache-array accesses, branch
//! prediction, the DIFT analyzer, and the two hot-path comparisons that
//! motivated the memory rewrite — the paged functional store against
//! the word-granular SipHash map it replaced, and an FxHash-keyed
//! directory map against the SipHash default. Simulated MIPS and
//! coherent-hierarchy access times are measured, with their spread, by
//! `examples/benchmark` (`sim_mips`, `mem.read_*_ns`).
//!
//! Run with `cargo bench --bench components`. Each benchmark is timed
//! with `std::time::Instant` over a calibrated iteration count; results
//! print as ns/op. No external harness.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

use recon::{LoadPairTable, RevealMask};
use recon_cpu::bpred::BranchPredictor;
use recon_isa::hash::FxHashMap;
use recon_isa::rng::{Rng, SplitMix64};
use recon_isa::{DataMem, SparseMem};
use recon_mem::{CacheArray, CacheGeometry, Mesi};
use recon_workloads::gen::gadget::{generate, GadgetParams};

/// Times `f` over enough iterations for a stable reading and returns
/// nanoseconds per iteration. `f` must fold its work into `black_box`.
fn time_ns<F: FnMut()>(name: &str, mut f: F) -> f64 {
    // Warm up and calibrate: grow the batch until it runs >= 20 ms.
    let mut batch: u64 = 64;
    loop {
        let start = Instant::now();
        for _ in 0..batch {
            f();
        }
        let elapsed = start.elapsed();
        if elapsed.as_millis() >= 20 || batch >= 1 << 28 {
            let ns = elapsed.as_nanos() as f64 / batch as f64;
            println!("{name:<44} {ns:>12.1} ns/op   ({batch} iters)");
            return ns;
        }
        batch *= 4;
    }
}

fn bench_lpt() {
    let mut lpt = LoadPairTable::full(256);
    let mut preg = 0u32;
    time_ns("lpt/commit_load_pair", || {
        preg = (preg + 1) % 255;
        lpt.commit_load(preg, None, 0x1000 + u64::from(preg) * 8, false);
        black_box(lpt.commit_load(preg + 1, Some(preg), 0x2000, false));
    });
}

fn bench_mask() {
    let mut m = RevealMask::all_concealed();
    let other = RevealMask::from_bits(0b1010_1010);
    time_ns("mask/reveal_conceal_merge", || {
        m.reveal(3);
        m.merge_or(other);
        m.conceal(3);
        black_box(m.count_revealed());
    });
}

fn bench_cache_array() {
    let mut arr = CacheArray::new(CacheGeometry::new(64 * 1024, 8));
    let mut addr = 0u64;
    time_ns("cache/fill_touch", || {
        addr = addr.wrapping_add(64) & 0xF_FFFF;
        arr.fill(addr, Mesi::Shared, RevealMask::all_concealed());
        black_box(arr.touch(addr));
    });
}

fn bench_bpred() {
    let mut bp = BranchPredictor::new(12);
    let mut pc = 0usize;
    time_ns("bpred/predict_update", || {
        pc = (pc + 7) & 0xFFF;
        let (taken, tok) = bp.predict(pc);
        bp.update(tok, !taken);
        black_box(taken);
    });
}

fn bench_dift() {
    let program = generate(GadgetParams {
        slots: 64,
        cond_lines: 8,
        passes: 2,
        ..Default::default()
    });
    time_ns("dift/analyze_gadget_program", || {
        black_box(recon_dift::analyze_program(&program, 1_000_000).unwrap());
    });
}

/// The seed's functional memory: one SipHash lookup per word reference.
/// Kept here as the comparison baseline for the paged rewrite.
#[derive(Default)]
struct WordMapMem {
    words: HashMap<u64, u64>,
}

impl DataMem for WordMapMem {
    fn read(&mut self, addr: u64) -> u64 {
        self.words.get(&addr).copied().unwrap_or(0)
    }
    fn write(&mut self, addr: u64, value: u64) {
        self.words.insert(addr, value);
    }
}

/// Builds a random pointer-chase cycle over `words` 8-byte words inside
/// a `words * 8`-byte footprint, stored into `mem` via the trait.
fn build_chase<M: DataMem>(mem: &mut M, words: u64, seed: u64) -> u64 {
    let mut order: Vec<u64> = (0..words).collect();
    let mut rng = SplitMix64::new(seed);
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below_usize(i + 1));
    }
    for w in 0..order.len() {
        let next = order[(w + 1) % order.len()];
        mem.write(order[w] * 8, next * 8);
    }
    order[0] * 8
}

fn chase_ns<M: DataMem>(name: &str, mem: &mut M, start: u64) -> f64 {
    let mut p = start;
    time_ns(name, || {
        for _ in 0..64 {
            p = mem.read(p);
        }
        black_box(p);
    }) / 64.0
}

/// The tentpole comparison: paged flat store vs the seed's word-granular
/// SipHash map, on a dependent pointer chase (worst case for both — no
/// spatial locality, every read waits on the previous one).
fn bench_paged_vs_word_map() -> (f64, f64) {
    const WORDS: u64 = 1 << 16; // 512 KiB footprint, 128 pages

    let mut old = WordMapMem::default();
    let start_old = build_chase(&mut old, WORDS, 7);
    let old_ns = chase_ns("memcmp/word_siphash_map_chase", &mut old, start_old);

    let mut paged = SparseMem::new();
    let start_new = build_chase(&mut paged, WORDS, 7);
    let new_ns = chase_ns("memcmp/paged_flat_store_chase", &mut paged, start_new);

    (old_ns, new_ns)
}

/// Directory-map comparison: FxHash vs SipHash on the line-granular
/// lookup pattern the MESI directory performs.
fn bench_dir_hash() -> (f64, f64) {
    const LINES: u64 = 1 << 14;

    let mut sip: HashMap<u64, u64> = HashMap::new();
    let mut fx: FxHashMap<u64, u64> = FxHashMap::default();
    for l in 0..LINES {
        sip.insert(l * 64, l);
        fx.insert(l * 64, l);
    }
    let mut addr = 0u64;
    let sip_ns = time_ns("dircmp/siphash_line_lookup", || {
        addr = addr.wrapping_add(64) & ((LINES - 1) * 64);
        black_box(sip.get(&addr));
    });
    let mut addr = 0u64;
    let fx_ns = time_ns("dircmp/fxhash_line_lookup", || {
        addr = addr.wrapping_add(64) & ((LINES - 1) * 64);
        black_box(fx.get(&addr));
    });
    (sip_ns, fx_ns)
}

fn main() {
    println!("component microbenches (Instant-based, no harness)\n");
    bench_lpt();
    bench_mask();
    bench_cache_array();
    bench_bpred();
    bench_dift();

    println!();
    let (old_ns, new_ns) = bench_paged_vs_word_map();
    println!(
        "memcmp: paged flat store is {:.2}x the SipHash word map on a dependent chase",
        old_ns / new_ns
    );
    let (sip_ns, fx_ns) = bench_dir_hash();
    println!(
        "dircmp: FxHash directory lookups are {:.2}x SipHash",
        sip_ns / fx_ns
    );
}
