//! Randomized property tests of program images and functional memory.
//! `MemImage` lays its words out by page, a bitmap of each page's
//! defined words and the values in address order, and the memories
//! `SparseMem::from_image` builds read the image's pages in place and
//! build each only to write it; both are checked here against a
//! `BTreeMap` model and against an eager memory written word by word.
//! Driven by the repo's own `SplitMix64`, so a failure replays from the
//! seed it prints.

use std::collections::BTreeMap;

use recon_isa::rng::{Rng as _, SplitMix64};
use recon_isa::{Asm, DataMem, MemImage, SnapReader, SnapWriter, SparseMem};

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
    mem.clone().codec(&mut w).expect("writing cannot fail");
    w.into_bytes()
}

/// `into` after reading a snapshot of `mem`; the snapshot must be read
/// whole and re-encode to the same bytes.
fn restored(mem: &SparseMem, mut into: SparseMem, what: &str) -> SparseMem {
    let bytes = snap_bytes(mem);
    let mut r = SnapReader::new(&bytes);
    into.codec(&mut r).expect(what);
    assert!(r.is_exhausted(), "{what}: trailing bytes");
    assert_eq!(snap_bytes(&into), bytes, "{what}: re-encoded");
    into
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
        // A snapshot is relative to the memory's image: each restores
        // into a memory of its own image, equal to the other memory.
        let what = format!("seed {seed}: restored");
        assert_eq!(
            restored(&built, SparseMem::from_image(&img), &what),
            written
        );
        assert_eq!(restored(&written, SparseMem::new(), &what), built);
        for (a, v) in img.iter() {
            assert_eq!(built.peek(a), v, "seed {seed}: peek {a:#x}");
        }
    }
}

/// A memory built from an image, with the word model and the eager
/// reference (a fresh memory given the image word by word) it must
/// match after every step.
struct Checked {
    mem: SparseMem,
    model: BTreeMap<u64, u64>,
    eager: SparseMem,
}

impl Checked {
    fn new(img: &MemImage) -> Self {
        let mut eager = SparseMem::new();
        for (a, v) in img.iter() {
            eager.write(a, v);
        }
        Checked {
            mem: SparseMem::from_image(img),
            model: img.iter().collect(),
            eager,
        }
    }

    /// Random reads, each checked against the model.
    fn reads(&mut self, rng: &mut SplitMix64, what: &str, seed: u64) {
        for _ in 0..rng.below(200) {
            let a = self.pick(rng);
            let expected = self.model.get(&a).copied().unwrap_or(0);
            assert_eq!(
                self.mem.read(a),
                expected,
                "seed {seed} ({what}): read {a:#x}"
            );
        }
    }

    /// Random writes, applied to the memory, the model and the eager
    /// reference alike.
    fn writes(&mut self, rng: &mut SplitMix64) {
        for _ in 0..rng.below(200) {
            let (a, v) = (self.pick(rng), rng.next_u64());
            self.mem.write(a, v);
            self.eager.write(a, v);
            self.model.insert(a, v);
        }
    }

    /// An address the model defines, or one from the general pools.
    fn pick(&self, rng: &mut SplitMix64) -> u64 {
        if !self.model.is_empty() && rng.below(2) == 0 {
            let nth = rng.below_usize(self.model.len());
            *self.model.keys().nth(nth).expect("in range")
        } else {
            addr(rng)
        }
    }

    /// `==` both ways, `resident_pages`, snapshot round trips and `peek`
    /// agree with the eager reference and the model.
    fn check(&self, what: &str, seed: u64) {
        let (mem, eager) = (&self.mem, &self.eager);
        assert!(mem == eager, "seed {seed} ({what}): ==");
        assert!(eager == mem, "seed {seed} ({what}): == reversed");
        assert_eq!(
            mem.resident_pages(),
            eager.resident_pages(),
            "seed {seed} ({what}): resident pages"
        );
        // A restore keeps the restoring memory's image (here a clone's,
        // with all else reset) and adds the pages that differ from it.
        let round = format!("seed {seed} ({what}): restored");
        assert!(restored(mem, mem.clone(), &round) == *eager, "{round}");
        assert!(restored(eager, SparseMem::new(), &round) == *mem, "{round}");
        for (&a, &v) in &self.model {
            assert_eq!(mem.peek(a), v, "seed {seed} ({what}): peek {a:#x}");
            let next = a.wrapping_add(8);
            let expected = self.model.get(&next).copied().unwrap_or(0);
            assert_eq!(
                mem.peek(next),
                expected,
                "seed {seed} ({what}): peek {next:#x}"
            );
        }
    }
}

fn image(rng: &mut SplitMix64) -> MemImage {
    writes(rng).into_iter().collect()
}

#[test]
fn shared_memory_matches_an_eager_model_before_and_after_access() {
    for seed in 0..48u64 {
        let mut rng = SplitMix64::new(0x0c0e_0000 + seed);
        let img = image(&mut rng);
        let mut m = Checked::new(&img);
        m.check("untouched", seed);
        m.reads(&mut rng, "reads", seed);
        m.check("after reads", seed);
        m.writes(&mut rng);
        m.check("after writes", seed);
        m.reads(&mut rng, "reads after writes", seed);
        m.check("after reads and writes", seed);
    }
}

#[test]
fn memories_of_one_image_copy_on_write() {
    for seed in 0..48u64 {
        let mut rng = SplitMix64::new(0xc0c0_0000 + seed);
        let img = image(&mut rng);
        let mut a = Checked::new(&img);
        let mut b = Checked::new(&img);
        let mut untouched = Checked::new(&img);
        // Interleaved, so that each memory writes pages the other has
        // read, written or not touched yet.
        for round in 0..3 {
            a.reads(&mut rng, "a reads", seed);
            b.writes(&mut rng);
            a.writes(&mut rng);
            b.reads(&mut rng, "b reads", seed);
            a.check(&format!("a, round {round}"), seed);
            b.check(&format!("b, round {round}"), seed);
        }
        untouched.check("untouched", seed);
        // A memory built after the others wrote sees the image alone.
        Checked::new(&img).check("built later", seed);
        // A memory outlives its image.
        drop(img);
        untouched.reads(&mut rng, "after the image dropped", seed);
        untouched.writes(&mut rng);
        untouched.check("after the image dropped", seed);
    }
}

#[test]
fn clones_and_restored_snapshots_are_independent_memories() {
    for seed in 0..48u64 {
        let mut rng = SplitMix64::new(0xc1_0e00_0000 + seed);
        let img = image(&mut rng);
        let mut m = Checked::new(&img);
        m.reads(&mut rng, "reads", seed);
        if seed % 2 == 1 {
            m.writes(&mut rng);
        }
        let mut clone = Checked {
            mem: m.mem.clone(),
            model: m.model.clone(),
            eager: m.eager.clone(),
        };
        clone.check("clone", seed);

        let bytes = snap_bytes(&m.mem);
        let mut r = SnapReader::new(&bytes);
        let mut restored = SparseMem::from_image(&img);
        restored.codec(&mut r).expect("round trip");
        assert!(r.is_exhausted(), "seed {seed}: trailing bytes");
        let mut restored = Checked {
            mem: restored,
            model: m.model.clone(),
            eager: m.eager.clone(),
        };
        restored.check("restored", seed);

        for c in [&mut m, &mut clone, &mut restored] {
            c.writes(&mut rng);
            c.reads(&mut rng, "diverged", seed);
        }
        m.check("original, diverged", seed);
        clone.check("clone, diverged", seed);
        restored.check("restored, diverged", seed);
    }
}

#[test]
fn memories_of_one_image_written_on_two_threads() {
    for seed in 0..16u64 {
        let mut rng = SplitMix64::new(0x7e0d_0000 + seed);
        let img = image(&mut rng);
        let thread_seeds = [rng.next_u64(), rng.next_u64()];
        let done: Vec<Checked> = std::thread::scope(|s| {
            let img = &img;
            let runs: Vec<_> = thread_seeds
                .iter()
                .map(|&ts| {
                    s.spawn(move || {
                        let mut rng = SplitMix64::new(ts);
                        let mut m = Checked::new(img);
                        for _ in 0..4 {
                            m.reads(&mut rng, "thread reads", seed);
                            m.writes(&mut rng);
                        }
                        m
                    })
                })
                .collect();
            runs.into_iter()
                .map(|run| run.join().expect("thread panicked"))
                .collect()
        });
        for (i, m) in done.iter().enumerate() {
            m.check(&format!("thread {i}"), seed);
        }
        Checked::new(&img).check("after both threads", seed);
    }
}

#[test]
fn memories_of_different_images_compare_by_contents() {
    for seed in 0..48u64 {
        let mut rng = SplitMix64::new(0xd1ff_0000 + seed);
        let w = writes(&mut rng);
        let img: MemImage = w.iter().copied().collect();
        // Equal words, built apart: a layout of its own.
        let twin: MemImage = w.iter().copied().collect();
        let mine = SparseMem::from_image(&img);
        assert!(mine == SparseMem::from_image(&twin), "seed {seed}: twin");
        // Same pages and words, one value changed.
        let Some((a, v)) = img.iter().nth(rng.below_usize(img.len().max(1))) else {
            continue;
        };
        let mut altered = img.clone();
        altered.set(a, v ^ 1);
        let theirs = SparseMem::from_image(&altered);
        assert!(mine != theirs, "seed {seed}: altered {a:#x}");
        assert!(theirs != mine, "seed {seed}: altered {a:#x}, reversed");
        assert_eq!(SparseMem::from_image(&img).peek(a), v, "seed {seed}");
    }
}

/// Builds `w` (writes in program order) through every path an image is
/// built by, `set`, collect, `extend` and `Asm::data`, and checks each
/// against the model, and a memory built from it against an eager one.
fn check_every_path(w: &[(u64, u64)], what: &str) {
    let model = model_of(w);
    let mut set = MemImage::new();
    for &(a, v) in w {
        set.set(a, v);
    }
    assert_matches(&set, &model, &format!("{what}, set"), 0);
    let collected: MemImage = w.iter().copied().collect();
    assert_matches(&collected, &model, &format!("{what}, collect"), 0);
    let mut extended: MemImage = w[..w.len() / 2].iter().copied().collect();
    extended.extend(w[w.len() / 2..].iter().copied());
    assert_matches(&extended, &model, &format!("{what}, extend"), 0);
    let mut a = Asm::new();
    for &(addr, value) in w {
        a.data(addr, value);
    }
    a.halt();
    let assembled = a.assemble().expect("aligned image assembles").image;
    assert_matches(&assembled, &model, &format!("{what}, Asm::data"), 0);
    assert!(set == collected && extended == collected && assembled == collected);
    let mut m = Checked::new(&assembled);
    m.check(what, 0);
    for (&a, &v) in &model {
        assert_eq!(m.mem.read(a), v, "{what}: read {a:#x}");
    }
    m.check(&format!("{what}, after reads"), 0);
}

/// Writes of `value`, `value + 1`, ... to `n` consecutive words from
/// `base`.
fn run(base: u64, n: u64, value: u64) -> impl DoubleEndedIterator<Item = (u64, u64)> {
    (0..n).map(move |i| (base + 8 * i, value + i))
}

#[test]
fn page_edges_and_address_extremes() {
    let top = 0xFFFF_FFFF_FFFF_FFF8;
    let cases: [(&str, Vec<(u64, u64)>); 6] = [
        ("page boundary", vec![(0x0FF8, 1), (0x1000, 2)]),
        ("page boundary, reversed", vec![(0x1000, 2), (0x0FF8, 1)]),
        (
            "extremes",
            vec![(0, 3), (0x1000, 0), (top - 8, 5), (top, 4)],
        ),
        (
            "extremes, reversed",
            vec![(top, 4), (top - 8, 5), (0x1000, 0), (0, 3)],
        ),
        ("one full page", run(0x3000, 512, 100).collect()),
        (
            "one full page and its neighbours, reversed",
            run(0x2FF8, 514, 100).rev().collect(),
        ),
    ];
    for (what, w) in cases {
        check_every_path(&w, what);
    }
    // Every word of a page, each defined twice: the second pass
    // overwrites the first.
    let twice: Vec<_> = run(0x3000, 512, 1).chain(run(0x3000, 512, 1000)).collect();
    check_every_path(&twice, "one full page, twice");
    let img: MemImage = twice.into_iter().collect();
    assert_eq!((img.get(0x3000), img.get(0x3FF8)), (Some(1000), Some(1511)));
    assert_eq!((img.get(0x2FF8), img.get(0x4000)), (None, None));
}

#[test]
fn assembler_data_in_any_order_keeps_the_last_write() {
    // Two 700-word arrays far apart, each across page boundaries.
    let (xs, ys) = (0x1_0e00, 0x8_0000);
    let ascending: Vec<_> = run(xs, 700, 1).chain(run(ys, 700, 5000)).collect();
    let descending: Vec<_> = ascending.iter().rev().copied().collect();
    let interleaved: Vec<_> = run(xs, 700, 1)
        .zip(run(ys, 700, 5000))
        .flat_map(|(x, y)| [x, y])
        .collect();
    let orders = [
        ("ascending", ascending),
        ("descending", descending),
        ("interleaved", interleaved),
    ];
    for (what, w) in &orders {
        check_every_path(w, what);
        // Each word rewritten straight after its first write.
        let doubled: Vec<_> = w.iter().flat_map(|&(a, v)| [(a, v), (a, !v)]).collect();
        check_every_path(&doubled, &format!("{what}, each word twice"));
        // A second pass over every third word in the same order, and a
        // third over every sixth: later passes land below the last
        // word, so they are buffered and must win over the first.
        let rewrites =
            |step: usize, flip: u64| w.iter().step_by(step).map(move |&(a, v)| (a, v ^ flip));
        let passes: Vec<_> = w
            .iter()
            .copied()
            .chain(rewrites(3, 0xff))
            .chain(rewrites(6, 0xff00))
            .collect();
        check_every_path(&passes, &format!("{what}, three passes"));
    }
}
