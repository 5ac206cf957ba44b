//! Secret-parameterized attack gadgets in the simulator's ISA.
//!
//! Each gadget builds the *same* program and memory image for any
//! secret except for one slot holding the secret value — an address
//! inside the probe array — so any observable difference between two
//! secrets is a genuine transmission. The secrets map to different
//! cache sets ([`SECRET_A`] is probe line 5, [`SECRET_B`] line 11), so
//! a transmitting access perturbs set occupancy, miss traffic, and —
//! cross-core — directory state differently per secret.

use recon_cpu::{CoreConfig, MdpMode};
use recon_isa::asm::Asm;
use recon_isa::reg::names::*;
use recon_mem::MemConfig;
use recon_workloads::{ThreadSpec, Workload};

/// Base of the probe region the transmitters touch.
pub const PROBE: u64 = 0x40_0000;
/// First secret: probe line 5 (L1 set 1 under the scaled geometry).
pub const SECRET_A: u64 = PROBE + 5 * 64;
/// Second secret: probe line 11 (L1 set 3 under the scaled geometry).
pub const SECRET_B: u64 = PROBE + 11 * 64;

/// Base of the victim array whose out-of-bounds slot holds the secret.
const ARRAY: u64 = 0x10_0000;
/// The out-of-bounds slot: `array[16]`, i.e. byte offset 128 (line 2).
const SECRET_SLOT: u64 = ARRAY + 128;

/// Which attack program a [`Gadget`] builds.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum GadgetKind {
    /// Spectre v1: a trained bounds check is speculatively bypassed and
    /// the out-of-bounds value indexes the probe array.
    SpectreV1,
    /// Spectre v4: a load speculatively bypasses an older store with an
    /// unresolved address and transmits the stale (secret) value.
    StoreBypass,
    /// Cross-core: the transmit lands in lines a second core owns in M
    /// state, so the leak is visible as directory/downgrade traffic.
    CrossCore,
    /// Control: a committed direct load pair discloses the secret
    /// architecturally *before* the speculative access — the classic
    /// case where ReCon may lift the defense.
    AlreadyLeaked,
    /// The spectre-v1 gadget spliced into the corpus `quicksort` host
    /// program at its `;@gadget` marker: the bypass runs inside a
    /// realistically warmed-up machine (trained predictors, populated
    /// caches, live store sets) instead of a minimal snippet.
    EmbeddedSpectreV1,
    /// The store-bypass gadget spliced into the corpus `memref` host —
    /// the pointer chase leaves the memory-dependence predictor and
    /// cache hierarchy in a realistic state before the v4 bypass.
    EmbeddedStoreBypass,
}

/// A named, secret-parameterized attack program.
#[derive(Clone, Copy, Debug)]
pub struct Gadget {
    /// Stable name (CLI `--gadget` value).
    pub name: &'static str,
    /// One-line description for reports.
    pub description: &'static str,
    /// Whether the gadget *speculatively* transmits the secret — i.e.
    /// whether `unsafe` is expected to LEAK on it.
    pub transmit: bool,
    /// Which program to build.
    pub kind: GadgetKind,
}

/// All verify gadgets, in matrix order.
#[must_use]
pub fn all() -> Vec<Gadget> {
    vec![
        Gadget {
            name: "spectre-v1",
            description: "bounds-check bypass, same-core probe transmit",
            transmit: true,
            kind: GadgetKind::SpectreV1,
        },
        Gadget {
            name: "store-bypass",
            description: "v4 store-bypass of a stale secret, same-core transmit",
            transmit: true,
            kind: GadgetKind::StoreBypass,
        },
        Gadget {
            name: "cross-core",
            description: "speculative transmit into another core's M-state lines",
            transmit: true,
            kind: GadgetKind::CrossCore,
        },
        Gadget {
            name: "already-leaked",
            description: "committed load pair leaks first; speculation adds nothing",
            transmit: false,
            kind: GadgetKind::AlreadyLeaked,
        },
    ]
}

/// The embedded-gadget variants (`recon verify --embedded`): the same
/// transmitters spliced into corpus host programs at their `;@gadget`
/// markers, so the two-trace differ judges them inside real surrounding
/// code — tens of thousands of committed host instructions of control
/// flow, trained predictors, and warm caches — rather than in
/// isolation.
#[must_use]
pub fn embedded() -> Vec<Gadget> {
    vec![
        Gadget {
            name: "spectre-v1@quicksort",
            description: "bounds-check bypass spliced after a full quicksort run",
            transmit: true,
            kind: GadgetKind::EmbeddedSpectreV1,
        },
        Gadget {
            name: "store-bypass@memref",
            description: "v4 store-bypass spliced after a full pointer-chase run",
            transmit: true,
            kind: GadgetKind::EmbeddedStoreBypass,
        },
    ]
}

/// Base and embedded gadgets, base-first.
#[must_use]
pub fn all_with_embedded() -> Vec<Gadget> {
    let mut v = all();
    v.extend(embedded());
    v
}

/// Looks a gadget up by its CLI name (base and embedded sets).
#[must_use]
pub fn find(name: &str) -> Option<Gadget> {
    all_with_embedded()
        .into_iter()
        .find(|g| g.name.eq_ignore_ascii_case(name))
}

impl Gadget {
    /// Core configuration the gadget needs (`store-bypass` requires
    /// memory-dependence speculation to bypass the store at all).
    #[must_use]
    pub fn core_config(&self) -> CoreConfig {
        let mut cfg = CoreConfig::paper();
        if matches!(
            self.kind,
            GadgetKind::StoreBypass | GadgetKind::EmbeddedStoreBypass
        ) {
            cfg.mdp = MdpMode::Predictor;
        }
        cfg
    }

    /// Memory configuration (multicore geometry for the cross-core
    /// gadget, the standard scaled hierarchy otherwise).
    #[must_use]
    pub fn mem_config(&self) -> MemConfig {
        if self.kind == GadgetKind::CrossCore {
            MemConfig::scaled_multicore()
        } else {
            MemConfig::scaled()
        }
    }

    /// Builds the workload with `secret` in the secret slot. The code
    /// and the rest of the image are identical for any secret.
    #[must_use]
    pub fn build(&self, secret: u64) -> Workload {
        match self.kind {
            GadgetKind::SpectreV1 => spectre_v1(secret),
            GadgetKind::StoreBypass => store_bypass(secret),
            GadgetKind::CrossCore => cross_core(secret),
            GadgetKind::AlreadyLeaked => already_leaked(secret),
            GadgetKind::EmbeddedSpectreV1 => embedded_in("quicksort", &spectre_v1_text(secret)),
            GadgetKind::EmbeddedStoreBypass => embedded_in("memref", &store_bypass_text(secret)),
        }
    }
}

/// Seeds the image slots common to every gadget: the probe words both
/// secrets point at exist (identically) in both variants, so only the
/// secret slot differs between a secret-A and a secret-B image.
fn common_data(a: &mut Asm, secret: u64) {
    a.data(SECRET_A, 1);
    a.data(SECRET_B, 1);
    a.data(PROBE, 0);
    a.data(SECRET_SLOT, secret);
}

/// Spectre v1. A six-iteration loop bounds-checks `x < len` and, in
/// bounds, transmits `probe[array[x]]`. The length sits behind a
/// two-deep cold pointer chase (~230 cycles), holding the window open;
/// the first five iterations train the branch, the last runs `x = 16`
/// out of bounds: predicted taken, architecturally not taken, so the
/// secret-dependent probe access happens only on the wrong path.
fn spectre_v1(secret: u64) -> Workload {
    const LENP: u64 = 0x20_0000; // per-iteration pointer to the length
    const LEN2: u64 = 0x28_0000; // per-iteration length slots (value 4)
    const XV: u64 = 0x30_0000; // per-iteration index values
    const N: u64 = 6;

    let mut a = Asm::new();
    common_data(&mut a, secret);
    for j in 0..4 {
        a.data(ARRAY + j * 8, PROBE); // in-bounds entries: benign probe
    }
    for i in 0..N {
        a.data(LENP + i * 64, LEN2 + i * 64);
        a.data(LEN2 + i * 64, 4);
        let x = if i == N - 1 { 16 } else { i % 4 };
        a.data(XV + i * 8, x);
    }

    a.li(R20, ARRAY)
        .li(R21, XV)
        .li(R22, LENP)
        .load(R1, R21, 0) // warm the index line
        .load(R1, R20, 0) // warm the in-bounds array line
        .li(R10, 0)
        .li(R11, N);
    let loop_top = a.here();
    let endit = a.new_label();
    let body = a.new_label();
    a.muli(R3, R10, 64)
        .add(R3, R3, R22)
        .load(R4, R3, 0) // pointer to the length (cold)
        .load(R4, R4, 0) // the length itself (cold): slow bound
        .muli(R5, R10, 8)
        .add(R5, R5, R21)
        .load(R6, R5, 0) // x (warm)
        .bltu(R6, R4, body)
        .jump(endit);
    a.bind(body);
    a.loadidx(R7, R20, R6) // array[x]; x=16 reads the secret slot
        .load(R8, R7, 0); // transmit: probe[secret]
    a.bind(endit);
    a.addi(R10, R10, 1).bltu_to(R10, R11, loop_top).halt();
    Workload::single(a.assemble().expect("spectre-v1 assembles"))
}

/// Spectre v4. The store's target address arrives late (cold pointer
/// load); the younger load to the same address issues first under
/// memory-dependence speculation, reads the stale secret from a warm
/// line, and transmits it — all long before the violation squash.
/// After recovery the load forwards the store's benign value, so the
/// architectural results are secret-independent.
fn store_bypass(secret: u64) -> Workload {
    const WARM: u64 = 0x60_0000; // same line as the secret word
    const P: u64 = 0x60_0008; // the contested address
    const PTRSLOT: u64 = 0x50_0000; // cold slot holding P

    let mut a = Asm::new();
    common_data(&mut a, secret);
    a.data(WARM, 0);
    a.data(P, secret);
    a.data(PTRSLOT, P);

    a.li(R1, WARM)
        .load(R2, R1, 0) // warm the secret's line
        .li(R3, PTRSLOT)
        .load(R4, R3, 0) // store address, resolves ~116 cycles later
        .li(R5, PROBE)
        .store(R5, R4, 0) // [P] <- benign probe base
        .load(R7, R1, 8) // bypassing load of [P]: stale secret
        .load(R8, R7, 0) // transmit: probe[secret]
        .halt();
    Workload::single(a.assemble().expect("store-bypass assembles"))
}

/// Cross-core transmit. Core 1 (the attacker) first takes the probe
/// lines into M state, then halts; core 0 (the victim) burns a delay
/// loop so ownership settles, then runs an untrained-branch bounds
/// bypass whose transmit lands in one of the attacker's M lines — the
/// leak shows up as a secret-dependent directory downgrade.
fn cross_core(secret: u64) -> Workload {
    const VLENP: u64 = 0x70_0000;
    const VLEN2: u64 = 0x78_0000;
    const DELAY: u64 = 6000;
    const PROBE_LINES: u64 = 17; // covers both secrets' lines (5, 11)

    let mut a = Asm::new();
    common_data(&mut a, secret);
    a.data(VLENP, VLEN2);
    a.data(VLEN2, 4);

    // Victim (entry 0): delay, then the speculative gadget. A fresh
    // two-bit counter predicts taken, so no training loop is needed.
    a.li(R2, DELAY);
    let vloop = a.here();
    a.subi(R2, R2, 1).bne_to(R2, R0, vloop);
    let vbody = a.new_label();
    let vend = a.new_label();
    a.li(R20, ARRAY)
        .li(R2, VLENP)
        .load(R3, R2, 0)
        .load(R4, R3, 0) // len = 4 behind a cold chase
        .li(R6, 16)
        .bltu(R6, R4, vbody)
        .jump(vend);
    a.bind(vbody);
    a.loadidx(R7, R20, R6) // the secret slot
        .load(R8, R7, 0); // transmit into an attacker-owned line
    a.bind(vend);
    a.halt();

    // Attacker (second thread): own the probe region in M state.
    let attacker_entry = a.here();
    a.li(R1, PROBE).li(R2, PROBE_LINES).li(R3, 0);
    let aloop = a.here();
    a.muli(R4, R3, 64)
        .add(R4, R4, R1)
        .store(R0, R4, 0)
        .addi(R3, R3, 1)
        .bltu_to(R3, R2, aloop)
        .halt();

    let program = a.assemble().expect("cross-core assembles");
    Workload {
        program,
        threads: vec![
            ThreadSpec {
                entry: 0,
                seeds: Vec::new(),
            },
            ThreadSpec {
                entry: attacker_entry,
                seeds: Vec::new(),
            },
        ],
    }
}

/// Already-leaked control. A committed chain of direct load pairs
/// (`r2 = [slot]; r3 = [r2]; r4 = [r3 + 7]`) discloses the secret
/// architecturally up front — and, under ReCon, the first pair reveals
/// the slot while the second reveals the probed word. The loop then
/// redoes the same access pattern *speculatively* (under slow-resolving
/// but always-taken branches) and commits it. STT/NDA guard the slot
/// load and delay the transmit every iteration; with ReCon the revealed
/// words lift the guards, making the scheme measurably faster with no
/// new observations.
fn already_leaked(secret: u64) -> Workload {
    const COND: u64 = 0x20_0000; // per-iteration cold condition lines
    const N: u64 = 4;

    let mut a = Asm::new();
    common_data(&mut a, secret);
    a.data(8, 1); // LD3's target (probe value + 7), so the chain seed is 1
    for i in 0..N {
        a.data(COND + i * 64, 1);
    }

    a.load(R28, R0, 0) // warm line 0 so LD3 below hits
        .li(R1, SECRET_SLOT)
        .load(R2, R1, 0) // LD1: the secret (commits)
        .load(R3, R2, 0) // LD2: probe[secret] (commits; reveals LD1)
        .load(R4, R3, 7); // LD3 at 1+7=8: pair with LD2 reveals the probed word
                          // Dependency chain on LD3's value (0 for either secret): the loop's
                          // base addresses become ready only after both pairs have committed
                          // and the reveals have reached the caches, so every loop access
                          // observes the already-leaked state.
    a.addi(R9, R4, 0);
    for _ in 0..20 {
        a.addi(R9, R9, 0);
    }
    a.li(R10, 0)
        .li(R11, N)
        .li(R12, COND)
        .add(R12, R12, R9) // COND + 1, dependent on the chain
        .subi(R12, R12, 1)
        .li(R13, SECRET_SLOT)
        .add(R13, R13, R9)
        .subi(R13, R13, 1);
    let loop_top = a.here();
    let body = a.new_label();
    let lend = a.new_label();
    a.muli(R4, R10, 64)
        .add(R4, R4, R12)
        .load(R5, R4, 0) // cold condition: the branch resolves late
        .bne(R5, R0, body) // always taken (and predicted taken)
        .jump(lend);
    a.bind(body);
    a.load(R7, R13, 0) // the revealed slot (warm)
        .load(R8, R7, 0); // probe[secret] — already public
    a.bind(lend);
    a.addi(R10, R10, 1).bltu_to(R10, R11, loop_top).halt();
    Workload::single(a.assemble().expect("already-leaked assembles"))
}

/// Assembles a corpus host program with `payload` spliced in at its
/// `;@gadget` marker. The host's own entry seeds (pass count 1) are
/// kept, so the gadget runs once, after the full computation and before
/// the self-check epilogue.
fn embedded_in(host: &str, payload: &str) -> Workload {
    let entry = recon_asm::corpus::find(host).expect("corpus host exists");
    let src = recon_asm::corpus::splice_gadget(entry.source, payload)
        .expect("corpus hosts carry a gadget marker");
    let p = recon_asm::assemble(&src)
        .unwrap_or_else(|e| panic!("spliced {host} does not assemble: {e}"));
    Workload::from(p)
}

/// The image slots every embedded gadget needs, as `.data` directives:
/// both probe words exist identically in either variant, so only the
/// secret slot (and, for store-bypass, the contested word) differs
/// between a secret-A and a secret-B image. Corpus data lives below
/// `0x10_0000` by convention, so none of these collide with the host.
fn common_data_text(secret: u64) -> String {
    format!(
        ".data {SECRET_A:#x} 1\n\
         .data {SECRET_B:#x} 1\n\
         .data {PROBE:#x} 0\n\
         .data {SECRET_SLOT:#x} {secret:#x}\n"
    )
}

/// Text form of [`spectre_v1`] for splicing into a corpus host. Same
/// program shape and constants; labels are `gadget_`-prefixed and the
/// registers used (`r1`–`r22`) are all dead in the host at the splice
/// point (the epilogue only reads `r24`/`r26`–`r28`).
fn spectre_v1_text(secret: u64) -> String {
    use std::fmt::Write as _;
    const LENP: u64 = 0x20_0000;
    const LEN2: u64 = 0x28_0000;
    const XV: u64 = 0x30_0000;
    const N: u64 = 6;

    let mut s = common_data_text(secret);
    for j in 0..4 {
        let _ = writeln!(s, ".data {:#x} {PROBE:#x}", ARRAY + j * 8);
    }
    for i in 0..N {
        let _ = writeln!(s, ".data {:#x} {:#x}", LENP + i * 64, LEN2 + i * 64);
        let _ = writeln!(s, ".data {:#x} 4", LEN2 + i * 64);
        let x = if i == N - 1 { 16 } else { i % 4 };
        let _ = writeln!(s, ".data {:#x} {x}", XV + i * 8);
    }
    let _ = write!(
        s,
        "    # ---- embedded spectre-v1 (recon verify --embedded) ----\n\
         \x20   li r20, {ARRAY:#x}\n\
         \x20   li r21, {XV:#x}\n\
         \x20   li r22, {LENP:#x}\n\
         \x20   ld r1, [r21]              # warm the index line\n\
         \x20   ld r1, [r20]              # warm the in-bounds array line\n\
         \x20   li r10, 0\n\
         \x20   li r11, {N}\n\
         gadget_loop:\n\
         \x20   muli r3, r10, 64\n\
         \x20   add r3, r3, r22\n\
         \x20   ld r4, [r3]               # pointer to the length (cold)\n\
         \x20   ld r4, [r4]               # the length itself: slow bound\n\
         \x20   muli r5, r10, 8\n\
         \x20   add r5, r5, r21\n\
         \x20   ld r6, [r5]               # x (warm)\n\
         \x20   bltu r6, r4, gadget_body\n\
         \x20   j gadget_end\n\
         gadget_body:\n\
         \x20   ldx r7, [r20+r6*8]        # array[x]; x=16 reads the secret\n\
         \x20   ld r8, [r7]               # transmit: probe[secret]\n\
         gadget_end:\n\
         \x20   addi r10, r10, 1\n\
         \x20   bltu r10, r11, gadget_loop\n"
    );
    s
}

/// Text form of [`store_bypass`] for splicing into a corpus host.
fn store_bypass_text(secret: u64) -> String {
    use std::fmt::Write as _;
    const WARM: u64 = 0x60_0000;
    const P: u64 = 0x60_0008;
    const PTRSLOT: u64 = 0x50_0000;

    let mut s = common_data_text(secret);
    let _ = writeln!(s, ".data {WARM:#x} 0");
    let _ = writeln!(s, ".data {P:#x} {secret:#x}");
    let _ = writeln!(s, ".data {PTRSLOT:#x} {P:#x}");
    let _ = write!(
        s,
        "    # ---- embedded store-bypass (recon verify --embedded) ----\n\
         \x20   li r1, {WARM:#x}\n\
         \x20   ld r2, [r1]               # warm the secret's line\n\
         \x20   li r3, {PTRSLOT:#x}\n\
         \x20   ld r4, [r3]               # store address, resolves late\n\
         \x20   li r5, {PROBE:#x}\n\
         \x20   st r5, [r4]               # [P] <- benign probe base\n\
         \x20   ld r7, [r1+8]             # bypassing load: stale secret\n\
         \x20   ld r8, [r7]               # transmit: probe[secret]\n"
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_gadgets_with_unique_names() {
        let g = all();
        assert_eq!(g.len(), 4);
        let mut names: Vec<_> = g.iter().map(|g| g.name).collect();
        names.dedup();
        assert_eq!(names.len(), 4);
        assert!(find("SPECTRE-V1").is_some());
        assert!(find("nope").is_none());
    }

    #[test]
    fn images_differ_only_in_the_secret_slot() {
        for g in all() {
            let wa = g.build(SECRET_A);
            let wb = g.build(SECRET_B);
            assert_eq!(wa.program.code, wb.program.code, "{}", g.name);
            let mut diff: Vec<u64> = wa
                .program
                .image
                .iter()
                .filter(|&(addr, val)| wb.program.image.get(addr) != Some(val))
                .map(|(addr, _)| addr)
                .collect();
            diff.sort_unstable();
            let expected = match g.kind {
                GadgetKind::StoreBypass => vec![SECRET_SLOT, 0x60_0008],
                _ => vec![SECRET_SLOT],
            };
            assert_eq!(diff, expected, "{}", g.name);
        }
    }

    #[test]
    fn embedded_gadgets_resolve_by_name() {
        assert_eq!(all_with_embedded().len(), all().len() + 2);
        for g in embedded() {
            assert!(g.transmit, "{} must be a transmit gadget", g.name);
            assert_eq!(find(g.name).map(|f| f.kind), Some(g.kind));
        }
        assert!(find("spectre-v1@quicksort").is_some());
        assert!(find("store-bypass@memref").is_some());
    }

    /// The spliced host + payload assembles, dwarfs the synthetic
    /// snippet, and the two secret variants still differ only in the
    /// secret state — the non-interference precondition.
    #[test]
    fn embedded_images_differ_only_in_the_secret_state() {
        for g in embedded() {
            let wa = g.build(SECRET_A);
            let wb = g.build(SECRET_B);
            assert_eq!(wa.program.code, wb.program.code, "{}", g.name);
            let host = g.name.split('@').nth(1).unwrap();
            let host_alone = recon_asm::corpus::find(host).unwrap().assemble();
            assert!(
                wa.program.code.len() > host_alone.program.code.len(),
                "{}: splicing must add the payload to the host",
                g.name
            );
            let mut diff: Vec<u64> = wa
                .program
                .image
                .iter()
                .filter(|&(addr, val)| wb.program.image.get(addr) != Some(val))
                .map(|(addr, _)| addr)
                .collect();
            diff.sort_unstable();
            let expected = match g.kind {
                GadgetKind::EmbeddedStoreBypass => vec![SECRET_SLOT, 0x60_0008],
                _ => vec![SECRET_SLOT],
            };
            assert_eq!(diff, expected, "{}", g.name);
        }
    }
}
