//! Randomized property tests of program images and functional memory.
//! `MemImage` keeps one address-sorted word vector, and
//! `SparseMem::from_image` builds pages from its runs; both are checked
//! here against a `BTreeMap` model and against word-by-word writes.
//! Driven by the repo's own `SplitMix64`, so a failure replays from the
//! seed it prints.

use std::collections::BTreeMap;

use recon_isa::rng::{Rng as _, SplitMix64};
use recon_isa::{Asm, DataMem, MemImage, SnapWriter, SparseMem};

const PAGE_BYTES: u64 = 4096;

/// An aligned address from one of four pools: a few words (so writes
/// overwrite), either side of a page boundary, a wide low range, and
/// pages far apart in the address space.
fn addr(rng: &mut SplitMix64) -> u64 {
    match rng.below(4) {
        0 => 8 * rng.below(16),
        1 => {
            let boundary = PAGE_BYTES * (1 + rng.below(4));
            if rng.below(2) == 0 {
                boundary - 8
            } else {
                boundary
            }
        }
        2 => 8 * rng.below(1 << 16),
        _ => {
            let far = [
                0x7fff_0000_0000,
                0x0010_0000_0000,
                u64::MAX - PAGE_BYTES + 1,
            ];
            far[rng.below_usize(far.len())] + 8 * rng.below(512)
        }
    }
}

/// A random write sequence in arbitrary order; zero values included,
/// since a defined zero word is still a defined word.
fn writes(rng: &mut SplitMix64) -> Vec<(u64, u64)> {
    let n = rng.below_usize(300);
    (0..n)
        .map(|_| {
            let value = if rng.below(4) == 0 { 0 } else { rng.next_u64() };
            (addr(rng), value)
        })
        .collect()
}

fn model_of(writes: &[(u64, u64)]) -> BTreeMap<u64, u64> {
    writes.iter().copied().collect()
}

/// `get`, `iter` and `len` all agree with the model.
fn assert_matches(img: &MemImage, model: &BTreeMap<u64, u64>, what: &str, seed: u64) {
    assert_eq!(img.len(), model.len(), "seed {seed} ({what}): len");
    assert_eq!(img.is_empty(), model.is_empty(), "seed {seed} ({what})");
    let listed: Vec<(u64, u64)> = img.iter().collect();
    let expected: Vec<(u64, u64)> = model.iter().map(|(&a, &v)| (a, v)).collect();
    assert_eq!(listed, expected, "seed {seed} ({what}): iter");
    for (&a, &v) in model {
        assert_eq!(img.get(a), Some(v), "seed {seed} ({what}): get {a:#x}");
        for probe in [a.wrapping_add(8), a.wrapping_sub(8)] {
            assert_eq!(
                img.get(probe),
                model.get(&probe).copied(),
                "seed {seed} ({what}): get {probe:#x}"
            );
        }
    }
}

fn snap_bytes(mem: &SparseMem) -> Vec<u8> {
    let mut w = SnapWriter::new();
    mem.save_snap(&mut w);
    w.into_bytes()
}

#[test]
fn set_in_any_order_matches_a_map_model() {
    for seed in 0..48u64 {
        let mut rng = SplitMix64::new(0x1a9e_0000 + seed);
        let mut w = writes(&mut rng);
        if seed % 2 == 1 {
            // Ascending, with repeated addresses back to back: the
            // append path, and overwrites of the last word.
            w.sort_by_key(|&(a, _)| a);
        }
        let mut img = MemImage::new();
        for &(a, v) in &w {
            img.set(a, v);
        }
        assert_matches(&img, &model_of(&w), "set", seed);
    }
}

#[test]
fn extend_and_collect_keep_the_last_write() {
    for seed in 0..48u64 {
        let mut rng = SplitMix64::new(0xe7e0_0000 + seed);
        let w = writes(&mut rng);
        let collected: MemImage = w.iter().copied().collect();
        assert_matches(&collected, &model_of(&w), "collect", seed);

        // Extending an image with set words: later pairs overwrite both
        // the image's own words and earlier pairs.
        let split = rng.below_usize(w.len() + 1);
        let mut extended = MemImage::new();
        for &(a, v) in &w[..split] {
            extended.set(a, v);
        }
        extended.extend(w[split..].iter().copied());
        assert_matches(&extended, &model_of(&w), "extend", seed);
        assert_eq!(extended, collected, "seed {seed}: equality");
    }
}

#[test]
fn assembler_data_keeps_the_last_write() {
    for seed in 0..48u64 {
        let mut rng = SplitMix64::new(0xda7a_0000 + seed);
        let w = writes(&mut rng);
        let mut a = Asm::new();
        for &(addr, value) in &w {
            a.data(addr, value);
        }
        a.halt();
        let p = a.assemble().expect("aligned image assembles");
        assert_matches(&p.image, &model_of(&w), "Asm::data", seed);
    }
}

#[test]
fn from_image_equals_word_by_word_writes() {
    for seed in 0..48u64 {
        let mut rng = SplitMix64::new(0x5a9e_0000 + seed);
        let w = writes(&mut rng);
        let img: MemImage = w.iter().copied().collect();
        let built = SparseMem::from_image(&img);
        // The same writes, in their original order, overwrites included.
        let mut written = SparseMem::new();
        for &(a, v) in &w {
            written.write(a, v);
        }
        assert_eq!(built, written, "seed {seed}: ==");
        assert_eq!(
            built.resident_pages(),
            written.resident_pages(),
            "seed {seed}: resident pages"
        );
        assert_eq!(
            snap_bytes(&built),
            snap_bytes(&written),
            "seed {seed}: bytes"
        );
        for (a, v) in img.iter() {
            assert_eq!(built.peek(a), v, "seed {seed}: peek {a:#x}");
        }
    }
}
