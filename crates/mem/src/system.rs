//! The coherent multicore memory system.
//!
//! Private L1 + L2 per core, shared LLC with an in-cache directory, MESI
//! protocol. ReCon [`RevealMask`]s are piggybacked on every coherence
//! transaction exactly per §5.3 of the paper:
//!
//! * a line fetched from memory is all-concealed;
//! * an S-copy evicted from a private cache **ORs** its mask into the
//!   directory copy (reader evictions only add reveals — concealing
//!   requires write permission — so OR never resurrects stale reveals);
//! * a Modified/Exclusive owner holds the *only coherent copy*: on
//!   downgrade or writeback its mask **overwrites** the directory copy
//!   (the stale directory copy may show revealed words the owner has
//!   since concealed);
//! * an invalidated reader's mask is **lost** (the paper's footnote 1);
//! * the requester of a GetS/GetM receives the current coherent mask with
//!   the data.
//!
//! The model is timing-directed: arrays hold tags, MESI state, and masks;
//! architectural data lives in the functional memory owned by the
//! simulator. Each access atomically applies the protocol transitions and
//! returns its latency.

use recon::{line_of, word_index, ReconConfig, RevealMask, WORDS_PER_LINE, WORD_BYTES};
use recon_isa::hash::FxHashMap;
use recon_isa::snap::{Codec, SnapError};

use crate::array::CacheArray;
use crate::config::MemConfig;
use crate::mesi::{DirState, Mesi, SharerSet};
use crate::observe::{LineState, MemEvent, MemEventKind, MemSnapshot};
use crate::stats::MemStats;

/// Which level served an access.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ServedBy {
    /// Private L1 hit.
    L1,
    /// Private L2 hit.
    L2,
    /// Shared LLC hit (no private holder elsewhere).
    Llc,
    /// Forwarded from a remote private cache that owned the line.
    RemoteCache,
    /// Fetched from memory.
    Memory,
}

/// Result of a load access.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ReadOutcome {
    /// Roundtrip latency in cycles.
    pub latency: u32,
    /// Whether the accessed word was marked *revealed* at the level that
    /// served the access — if so, the core may lift speculative defenses
    /// for the loaded value (§5.4).
    pub revealed: bool,
    /// Which level served the access.
    pub served_by: ServedBy,
}

/// Result of a performed store.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct WriteOutcome {
    /// Roundtrip latency in cycles.
    pub latency: u32,
}

/// Private two-level hierarchy of one core.
#[derive(Clone, Debug)]
struct Private {
    l1: CacheArray,
    l2: CacheArray,
}

/// The multicore memory system.
///
/// ```
/// use recon_mem::{MemorySystem, MemConfig};
/// use recon::ReconConfig;
///
/// let mut mem = MemorySystem::new(2, MemConfig::scaled(), ReconConfig::default());
/// let first = mem.read(0, 0x1000);
/// assert!(!first.revealed); // fresh lines are concealed
/// mem.reveal(0, 0x1000);    // a committed load pair revealed the word
/// assert!(mem.read(0, 0x1000).revealed);
/// ```
#[derive(Clone, Debug)]
pub struct MemorySystem {
    cfg: MemConfig,
    recon: ReconConfig,
    cores: Vec<Private>,
    llc: CacheArray,
    /// Directory entries, keyed by line address. Probed on every
    /// private-cache miss and every eviction notification — an
    /// FxHash-keyed map, not SipHash, for the same reason as the
    /// functional memory's page table.
    dir: FxHashMap<u64, DirState>,
    stats: MemStats,
    /// Cycle of the in-flight tick, stamped onto logged transactions.
    now: u64,
    /// Whether transactions are being logged (off by default).
    record: bool,
    events: Vec<MemEvent>,
    sound: Option<Soundness>,
}

/// Reveal-soundness oracle (§5.2/§5.3 monotonicity): a word's reveal
/// bit may be set only by a committed load-pair reveal, and must be
/// cleared by committed stores; losing a legitimate reveal (eviction,
/// invalidation) is always safe and never flagged.
#[derive(Clone, Debug, Default)]
struct Soundness {
    /// Word addresses with a currently-legitimate reveal (the crate's
    /// hash module exposes no set type, so a unit-valued map serves).
    legit: FxHashMap<u64, ()>,
    violations: Vec<String>,
}

impl MemorySystem {
    /// Creates a system with `num_cores` private hierarchies.
    ///
    /// # Panics
    ///
    /// Panics if `num_cores` is 0 or greater than 64.
    #[must_use]
    pub fn new(num_cores: usize, cfg: MemConfig, recon: ReconConfig) -> Self {
        assert!((1..=64).contains(&num_cores), "1..=64 cores supported");
        let cores = (0..num_cores)
            .map(|_| Private {
                l1: CacheArray::new(cfg.l1),
                l2: CacheArray::new(cfg.l2),
            })
            .collect();
        MemorySystem {
            cfg,
            recon,
            cores,
            llc: CacheArray::new(cfg.llc),
            dir: FxHashMap::default(),
            stats: MemStats::default(),
            now: 0,
            record: false,
            events: Vec::new(),
            sound: None,
        }
    }

    // ------------------------------------------------------------------
    // Observation hooks (see the `observe` module)
    // ------------------------------------------------------------------

    /// Stamps the current cycle onto subsequently logged transactions
    /// (called once per tick by the simulator).
    pub fn set_now(&mut self, cycle: u64) {
        self.now = cycle;
    }

    /// Enables or disables the cycle-stamped transaction log.
    pub fn record_transactions(&mut self, on: bool) {
        self.record = on;
    }

    /// Drains the transaction log.
    pub fn take_transactions(&mut self) -> Vec<MemEvent> {
        std::mem::take(&mut self.events)
    }

    /// Enables the reveal-soundness invariant checker. Violations are
    /// collected, not panicked, so a harness can report them all.
    pub fn enable_soundness_checks(&mut self) {
        self.sound = Some(Soundness::default());
    }

    /// Violations collected so far (empty when the checker is off).
    #[must_use]
    pub fn soundness_violations(&self) -> &[String] {
        self.sound.as_ref().map_or(&[], |s| &s.violations)
    }

    /// Final sweep of the invariant: every reveal bit anywhere in the
    /// hierarchy must correspond to a word legitimately revealed by a
    /// committed load pair (and not since concealed by a store).
    pub fn soundness_sweep(&mut self) {
        let Some(mut sound) = self.sound.take() else {
            return;
        };
        let mut sweep = |name: String, arr: &CacheArray| {
            for (line, _, mask) in arr.iter_lines() {
                for wi in 0..WORDS_PER_LINE {
                    let word = line + (wi as u64) * WORD_BYTES;
                    if mask.is_revealed(wi) && !sound.legit.contains_key(&word) {
                        sound.violations.push(format!(
                            "{name}: word {word:#x} revealed without a committed load-pair reveal"
                        ));
                    }
                }
            }
        };
        for (i, p) in self.cores.iter().enumerate() {
            sweep(format!("core{i}.L1"), &p.l1);
            sweep(format!("core{i}.L2"), &p.l2);
        }
        sweep("LLC".to_string(), &self.llc);
        self.sound = Some(sound);
    }

    /// Canonical snapshot of all tags, MESI states, reveal masks, and
    /// directory entries (sorted; equal snapshots are indistinguishable
    /// to an attacker probing occupancy).
    #[must_use]
    pub fn snapshot(&self) -> MemSnapshot {
        fn snap(arr: &CacheArray) -> Vec<LineState> {
            let geom = arr.geometry();
            let mut v: Vec<LineState> = arr
                .iter_lines()
                .map(|(line, state, mask)| LineState {
                    line,
                    set: geom.slice(line).0,
                    state,
                    mask: mask.bits(),
                })
                .collect();
            v.sort_by_key(|l| l.line);
            v
        }
        let mut dir: Vec<(u64, DirState)> = self.dir.iter().map(|(&l, &d)| (l, d)).collect();
        dir.sort_by_key(|&(l, _)| l);
        MemSnapshot {
            cores: self
                .cores
                .iter()
                .map(|p| (snap(&p.l1), snap(&p.l2)))
                .collect(),
            llc: snap(&self.llc),
            dir,
        }
    }

    #[inline]
    fn emit(&mut self, kind: MemEventKind) {
        if self.record {
            self.events.push(MemEvent {
                cycle: self.now,
                kind,
            });
        }
    }

    /// Soundness check at an observation point: a core that sees a word
    /// revealed must be seeing a legitimate reveal.
    fn check_observed_reveal(&mut self, core: usize, addr: u64, revealed: bool) {
        if let Some(s) = &mut self.sound {
            let word = addr & !(WORD_BYTES - 1);
            if revealed && !s.legit.contains_key(&word) {
                s.violations.push(format!(
                    "core{core}: load of {word:#x} observed revealed without a legitimate reveal"
                ));
            }
        }
    }

    /// Number of cores.
    #[must_use]
    pub fn num_cores(&self) -> usize {
        self.cores.len()
    }

    /// The configuration this system was built with.
    #[must_use]
    pub fn config(&self) -> MemConfig {
        self.cfg
    }

    /// The ReCon configuration this system was built with.
    #[must_use]
    pub fn recon_config(&self) -> ReconConfig {
        self.recon
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> MemStats {
        self.stats
    }

    /// Resets statistics (e.g. after warm-up).
    pub fn reset_stats(&mut self) {
        self.stats = MemStats::default();
    }

    // ------------------------------------------------------------------
    // Checkpoint serialization
    // ------------------------------------------------------------------

    /// Visits the full coherence + ReCon metadata state: every cache
    /// array (tags, MESI, reveal masks, LRU), the directory (sorted by
    /// line address for canonical bytes, including sharer vectors and
    /// master mask copies held in the LLC arrays), stats, and the
    /// transaction-log flag. The analysis-only `events` log and the
    /// soundness oracle are *not* captured — no run path enables them —
    /// and a read clears them.
    ///
    /// # Errors
    ///
    /// A read fails on a corrupt stream or a configuration mismatch
    /// (core count or cache geometry); `self` may be partially
    /// overwritten on error and must be discarded.
    pub fn codec(&mut self, c: &mut impl Codec) -> Result<(), SnapError> {
        c.tag(b"MSYS")?;
        let mut num_cores = self.cores.len() as u32;
        c.u32(&mut num_cores)?;
        if num_cores as usize != self.cores.len() {
            return Err(c.fail(format!(
                "snapshot has {num_cores} cores, system has {}",
                self.cores.len()
            )));
        }
        for p in &mut self.cores {
            p.l1.codec(c)?;
            p.l2.codec(c)?;
        }
        self.llc.codec(c)?;
        let mut dir: Vec<(u64, DirState)> = self.dir.iter().map(|(&l, &d)| (l, d)).collect();
        dir.sort_by_key(|&(l, _)| l);
        c.seq64(&mut dir, |c, (line, state)| {
            c.u64(line)?;
            let (mut kind, mut sharers, mut owner) = match *state {
                DirState::Uncached => (0, 0, 0),
                DirState::Shared(sharers) => (1, sharers.bits(), 0),
                DirState::Owned { owner } => (2, 0, owner as u32),
            };
            c.u8(&mut kind)?;
            match kind {
                0 => {}
                1 => c.u64(&mut sharers)?,
                2 => c.u32(&mut owner)?,
                other => return Err(c.fail(format!("invalid directory-state byte {other:#x}"))),
            }
            if c.reads() {
                *state = match kind {
                    0 => DirState::Uncached,
                    1 => DirState::Shared(SharerSet::from_bits(sharers)),
                    _ => DirState::Owned {
                        owner: owner as usize,
                    },
                };
            }
            Ok(())
        })?;
        if c.reads() {
            self.dir = FxHashMap::default();
            for (line, state) in dir {
                self.dir.insert(line, state);
            }
        }
        self.stats
            .counters_mut()
            .into_iter()
            .try_for_each(|v| c.u64(v))?;
        c.u64(&mut self.now)?;
        c.bool(&mut self.record)?;
        if c.reads() {
            self.events.clear();
            self.sound = None;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Demand accesses
    // ------------------------------------------------------------------

    /// A demand load by `core` at `addr`. Applies all coherence
    /// transitions and returns latency plus the word's reveal status.
    pub fn read(&mut self, core: usize, addr: u64) -> ReadOutcome {
        let wi = word_index(addr);
        let out = if let Some((_, mask)) = self.cores[core].l1.touch(addr) {
            self.stats.l1_hits += 1;
            ReadOutcome {
                latency: self.cfg.lat.l1_hit,
                revealed: self.recon.enabled && mask.is_revealed(wi),
                served_by: ServedBy::L1,
            }
        } else if let Some((state, mask)) = self.cores[core].l2.touch(addr) {
            self.stats.l2_hits += 1;
            self.fill_l1(core, addr, state, mask);
            ReadOutcome {
                latency: self.cfg.lat.l2_hit,
                revealed: self.recon.enabled && mask.is_revealed(wi),
                served_by: ServedBy::L2,
            }
        } else {
            // Private miss: GetS at the directory.
            let (latency, state, mask, served_by) = self.get_shared(core, addr);
            self.fill_l2(core, addr, state, mask);
            self.fill_l1(core, addr, state, mask);
            ReadOutcome {
                latency,
                revealed: self.recon.enabled && mask.is_revealed(wi),
                served_by,
            }
        };
        if out.revealed {
            self.stats.revealed_loads += 1;
        }
        self.emit(MemEventKind::Read {
            core,
            addr,
            latency: out.latency,
            served_by: out.served_by,
            revealed: out.revealed,
        });
        self.check_observed_reveal(core, addr, out.revealed);
        out
    }

    /// A store performed by `core` at `addr` (store-buffer drain).
    /// Acquires write permission and conceals the written word.
    pub fn write(&mut self, core: usize, addr: u64) -> WriteOutcome {
        let (latency, _) = self.acquire_for_write(core, addr);
        self.conceal_word(core, addr);
        self.stats.stores_performed += 1;
        self.emit(MemEventKind::Write {
            core,
            addr,
            latency,
        });
        WriteOutcome { latency }
    }

    /// An atomic read-modify-write by `core` at `addr`. Returns the
    /// reveal status of the word *before* the write conceals it.
    pub fn rmw(&mut self, core: usize, addr: u64) -> ReadOutcome {
        let wi = word_index(addr);
        let (latency, mask_before) = self.acquire_for_write(core, addr);
        let revealed = self.recon.enabled && mask_before.is_revealed(wi);
        self.check_observed_reveal(core, addr, revealed);
        self.conceal_word(core, addr);
        self.stats.stores_performed += 1;
        self.emit(MemEventKind::Rmw {
            core,
            addr,
            latency,
            revealed,
        });
        ReadOutcome {
            latency,
            revealed,
            served_by: ServedBy::L1,
        }
    }

    /// A reveal request from the commit stage: a load pair committed and
    /// the word at `addr` (the first load's target) is now public.
    ///
    /// Best-effort per the paper: the request sets the bit in the
    /// requesting core's L1 if the line is present, else at the deepest
    /// covered level holding the line; otherwise it is dropped (always
    /// safe — only a lost optimization).
    ///
    /// Returns `true` if a bit was set.
    pub fn reveal(&mut self, core: usize, addr: u64) -> bool {
        if !self.recon.enabled {
            return false;
        }
        let wi = word_index(addr);
        let bit = RevealMask::from_bits(1 << wi);
        let set = 'set: {
            if self.cores[core].l1.or_mask(addr, bit) {
                break 'set true;
            }
            if self.recon.levels.covers_l2() && self.cores[core].l2.or_mask(addr, bit) {
                break 'set true;
            }
            if self.recon.levels.covers_llc() {
                let line = line_of(addr);
                // Only the directory copy may be updated when no private
                // cache owns the line (an owner holds the only coherent
                // copy).
                let owned_elsewhere = matches!(
                    self.dir.get(&line), Some(DirState::Owned { owner }) if *owner != core
                );
                if !owned_elsewhere && self.llc.or_mask(addr, bit) {
                    break 'set true;
                }
            }
            false
        };
        if set {
            self.stats.reveals_set += 1;
            // The reveal came from a committed load pair: the word is now
            // legitimately public until a committed store conceals it.
            if let Some(s) = &mut self.sound {
                s.legit.insert(addr & !(WORD_BYTES - 1), ());
            }
            self.emit(MemEventKind::RevealSet { core, addr });
        } else {
            self.stats.reveals_dropped += 1;
            self.emit(MemEventKind::RevealDropped { core, addr });
        }
        set
    }

    // ------------------------------------------------------------------
    // Probes (for tests and the simulator's assertions)
    // ------------------------------------------------------------------

    /// MESI state of the line in `core`'s L1, if present.
    #[must_use]
    pub fn l1_state(&self, core: usize, addr: u64) -> Option<Mesi> {
        self.cores[core].l1.state_of(addr)
    }

    /// MESI state of the line in `core`'s L2, if present.
    #[must_use]
    pub fn l2_state(&self, core: usize, addr: u64) -> Option<Mesi> {
        self.cores[core].l2.state_of(addr)
    }

    /// Directory state of the line, if tracked.
    #[must_use]
    pub fn dir_state(&self, addr: u64) -> Option<DirState> {
        self.dir.get(&line_of(addr)).copied()
    }

    /// Whether the word would be observed revealed by `core` (without
    /// changing any state). Checks L1, then L2, then the directory.
    #[must_use]
    pub fn probe_revealed(&self, core: usize, addr: u64) -> bool {
        if !self.recon.enabled {
            return false;
        }
        let wi = word_index(addr);
        if let Some(m) = self.cores[core].l1.mask_of(addr) {
            return m.is_revealed(wi);
        }
        if let Some(m) = self.cores[core].l2.mask_of(addr) {
            return m.is_revealed(wi);
        }
        self.llc.mask_of(addr).is_some_and(|m| m.is_revealed(wi))
    }

    // ------------------------------------------------------------------
    // Invariant audit + soft-error injection
    // ------------------------------------------------------------------

    /// Full invariant sweep of the memory hierarchy. Read-only; returns
    /// every violation found (empty on healthy state).
    ///
    /// Checks, in order:
    ///
    /// * per-array structural invariants ([`CacheArray::audit`]);
    /// * **L1/L2 inclusion**: every L1-resident line is L2-resident with
    ///   the *same* MESI state (every fill/demote/invalidate path moves
    ///   the pair together), and the L2 mask is a subset of the L1 mask
    ///   (reveals land in the L1 first, merges flow downward only);
    /// * **SWMR**: at most one core holds a writable (E/M) copy, and a
    ///   writable copy is the *only* private copy of its line;
    /// * **directory consistency**: every privately held line has a
    ///   directory entry matching its holders (`Owned{owner}` names the
    ///   sole E/M holder, `Shared` lists exactly the S holders,
    ///   `Uncached` has none), every listed sharer/owner is a real core
    ///   that actually holds the line, and the in-cache directory
    ///   requires every tracked line to be LLC-resident.
    #[must_use]
    pub fn audit(&self) -> Vec<recon::AuditViolation> {
        use recon::AuditViolation;
        let mut out = Vec::new();
        for (i, p) in self.cores.iter().enumerate() {
            p.l1.audit(&format!("mem.core{i}.l1"), &mut out);
            p.l2.audit(&format!("mem.core{i}.l2"), &mut out);
        }
        self.llc.audit("mem.llc", &mut out);

        // L1/L2 pairing per core.
        for (i, p) in self.cores.iter().enumerate() {
            for (line, l1_state, l1_mask) in p.l1.iter_lines() {
                match p.l2.state_of(line) {
                    None => out.push(AuditViolation::new(
                        "l1-l2-inclusion",
                        format!("mem.core{i}"),
                        format!("line {line:#x} in L1 ({l1_state:?}) but not in L2"),
                    )),
                    Some(l2_state) => {
                        if l2_state != l1_state {
                            out.push(AuditViolation::new(
                                "l1-l2-state",
                                format!("mem.core{i}"),
                                format!("line {line:#x}: L1 {l1_state:?} vs L2 {l2_state:?}"),
                            ));
                        }
                        let l2_mask = p.l2.mask_of(line).unwrap_or_default();
                        if l2_mask.bits() & !l1_mask.bits() != 0 {
                            out.push(AuditViolation::new(
                                "l1-mask-subset",
                                format!("mem.core{i}"),
                                format!(
                                    "line {line:#x}: L2 mask {:#04x} not a subset of \
                                     L1 mask {:#04x}",
                                    l2_mask.bits(),
                                    l1_mask.bits()
                                ),
                            ));
                        }
                    }
                }
            }
        }

        // LLC residency, collected once: the census and the directory
        // walk below each probe it per line, and at paper geometry a
        // per-probe way scan (32 ways × thousands of tracked lines)
        // would dominate the whole sweep.
        let mut llc_resident: FxHashMap<u64, ()> =
            FxHashMap::with_capacity_and_hasher(self.cfg.llc.num_lines() * 2, Default::default());
        llc_resident.extend(self.llc.iter_lines().map(|(l, _, _)| (l, ())));

        // Per-line holder census (L2 is the authoritative private
        // presence; L1-only residency is already flagged above). One
        // flat sorted vector, grouped by line — this sweep runs every
        // `audit_every_cycles`, so no per-line heap traffic.
        let mut census: Vec<(u64, usize, Mesi)> = Vec::new();
        for (i, p) in self.cores.iter().enumerate() {
            for (line, state, _) in p.l2.iter_lines() {
                census.push((line, i, state));
            }
        }
        census.sort_unstable();
        let mut start = 0;
        while start < census.len() {
            let line = census[start].0;
            let mut end = start;
            while end < census.len() && census[end].0 == line {
                end += 1;
            }
            let holders = &census[start..end];
            start = end;
            let writable_count = holders.iter().filter(|(_, _, s)| s.writable()).count();
            if writable_count > 1 || (writable_count == 1 && holders.len() > 1) {
                let writable: Vec<usize> = holders
                    .iter()
                    .filter(|(_, _, s)| s.writable())
                    .map(|&(_, c, _)| c)
                    .collect();
                out.push(AuditViolation::new(
                    "swmr",
                    "mem.dir",
                    format!(
                        "line {line:#x}: writable copy on core(s) {writable:?} \
                         alongside {} private copies",
                        holders.len()
                    ),
                ));
            }
            match self.dir.get(&line).copied() {
                None => out.push(AuditViolation::new(
                    "dir-entry-missing",
                    "mem.dir",
                    format!(
                        "line {line:#x} held privately by core(s) {:?} but untracked",
                        holders.iter().map(|&(_, c, _)| c).collect::<Vec<_>>()
                    ),
                )),
                Some(DirState::Uncached) => out.push(AuditViolation::new(
                    "dir-uncached-held",
                    "mem.dir",
                    format!(
                        "line {line:#x} marked Uncached but held by core(s) {:?}",
                        holders.iter().map(|&(_, c, _)| c).collect::<Vec<_>>()
                    ),
                )),
                Some(DirState::Shared(sharers)) => {
                    for &(_, c, state) in holders {
                        if !sharers.contains(c) {
                            out.push(AuditViolation::new(
                                "dir-sharer-unlisted",
                                "mem.dir",
                                format!("line {line:#x}: core {c} holds but is not listed"),
                            ));
                        }
                        if state != Mesi::Shared {
                            out.push(AuditViolation::new(
                                "dir-shared-writable",
                                "mem.dir",
                                format!(
                                    "line {line:#x}: core {c} holds {state:?} under a \
                                     Shared directory entry"
                                ),
                            ));
                        }
                    }
                }
                Some(DirState::Owned { owner }) => {
                    for &(_, c, state) in holders {
                        if c != owner {
                            out.push(AuditViolation::new(
                                "dir-owner-exclusive",
                                "mem.dir",
                                format!(
                                    "line {line:#x}: owned by core {owner} but core {c} \
                                     holds {state:?}"
                                ),
                            ));
                        } else if !state.writable() {
                            out.push(AuditViolation::new(
                                "dir-owner-state",
                                "mem.dir",
                                format!(
                                    "line {line:#x}: owner core {owner} holds {state:?}, \
                                     expected Exclusive/Modified"
                                ),
                            ));
                        }
                    }
                }
            }
            if !llc_resident.contains_key(&line) {
                out.push(AuditViolation::new(
                    "llc-inclusion",
                    "mem.llc",
                    format!("line {line:#x} held privately but absent from the LLC"),
                ));
            }
        }

        // Directory entries themselves: tracked lines are LLC-resident
        // (in-cache directory), listed cores exist and hold the line.
        // Iterated in map order — the final sort below restores
        // deterministic reporting, and only a damaged system pays it.
        for (&line, &dstate) in &self.dir {
            if !llc_resident.contains_key(&line) {
                out.push(AuditViolation::new(
                    "dir-entry-evicted-line",
                    "mem.dir",
                    format!("line {line:#x} tracked as {dstate:?} but not LLC-resident"),
                ));
            }
            // Walk listed holders without collecting them (this runs
            // for every tracked line, every sweep).
            match dstate {
                DirState::Uncached => {}
                DirState::Shared(s) => {
                    for c in s.iter() {
                        self.audit_listed_holder(line, c, &mut out);
                    }
                }
                DirState::Owned { owner } => self.audit_listed_holder(line, owner, &mut out),
            }
            if matches!(dstate, DirState::Shared(s) if s.is_empty()) {
                out.push(AuditViolation::new(
                    "dir-empty-sharers",
                    "mem.dir",
                    format!("line {line:#x}: Shared entry with an empty sharer set"),
                ));
            }
        }
        if !out.is_empty() {
            // The directory walk above follows hash-map order; sorting
            // here keeps violation reports deterministic per seed.
            out.sort_unstable_by(|a, b| {
                (&a.site, &a.invariant, &a.detail).cmp(&(&b.site, &b.invariant, &b.detail))
            });
        }
        out
    }

    /// One directory-listed holder: must be a real core that actually
    /// holds the line privately.
    fn audit_listed_holder(&self, line: u64, c: usize, out: &mut Vec<recon::AuditViolation>) {
        use recon::AuditViolation;
        if c >= self.cores.len() {
            out.push(AuditViolation::new(
                "dir-core-range",
                "mem.dir",
                format!(
                    "line {line:#x}: lists core {c}, system has {}",
                    self.cores.len()
                ),
            ));
        } else if self.cores[c].l2.state_of(line).is_none() {
            out.push(AuditViolation::new(
                "dir-holder-absent",
                "mem.dir",
                format!("line {line:#x}: listed holder core {c} has no private copy"),
            ));
        }
    }

    /// Soft-error injection: flips one reveal-mask bit somewhere in the
    /// hierarchy (random level, random slot, random word). Returns a
    /// description of the flip.
    pub fn inject_mask_flip(&mut self, rng: &mut recon_isa::rng::SplitMix64) -> Option<String> {
        use recon_isa::rng::Rng as _;
        let arrays = self.cores.len() * 2 + 1;
        let pick = rng.next_u64() as usize % arrays;
        let (label, desc) = if pick < self.cores.len() {
            (
                format!("core{pick}.l1"),
                self.cores[pick].l1.inject_mask_bit(rng),
            )
        } else if pick < self.cores.len() * 2 {
            let c = pick - self.cores.len();
            (format!("core{c}.l2"), self.cores[c].l2.inject_mask_bit(rng))
        } else {
            ("llc".to_string(), self.llc.inject_mask_bit(rng))
        };
        desc.map(|d| format!("{label}: {d}"))
    }

    /// Soft-error injection: corrupts coherence state — either a
    /// directory entry (owner/sharer bits decay) or a cached line's
    /// MESI state field. Returns a description, or `None` when there is
    /// no coherence state to corrupt yet.
    pub fn inject_dir_flip(&mut self, rng: &mut recon_isa::rng::SplitMix64) -> Option<String> {
        use recon_isa::rng::Rng as _;
        if rng.next_u64().is_multiple_of(2) {
            // Corrupt a directory entry (deterministic pick: sorted keys).
            let mut lines: Vec<u64> = self.dir.keys().copied().collect();
            lines.sort_unstable();
            if let Some(&line) = lines.get(rng.next_u64() as usize % lines.len().max(1)) {
                let old = self.dir[&line];
                let new = match old {
                    DirState::Owned { owner } if self.cores.len() > 1 => DirState::Owned {
                        owner: (owner + 1 + rng.next_u64() as usize % (self.cores.len() - 1))
                            % self.cores.len(),
                    },
                    DirState::Owned { .. } => DirState::Uncached,
                    DirState::Shared(mut s) => {
                        let c = rng.next_u64() as usize % self.cores.len();
                        if s.contains(c) {
                            s.remove(c);
                        } else {
                            s.insert(c);
                        }
                        DirState::Shared(s)
                    }
                    DirState::Uncached => DirState::Owned {
                        owner: rng.next_u64() as usize % self.cores.len(),
                    },
                };
                self.dir.insert(line, new);
                return Some(format!("dir line {line:#x}: {old:?} -> {new:?}"));
            }
        }
        // Corrupt a MESI state field in a random array.
        let arrays = self.cores.len() * 2 + 1;
        let pick = rng.next_u64() as usize % arrays;
        let (label, desc) = if pick < self.cores.len() {
            (
                format!("core{pick}.l1"),
                self.cores[pick].l1.inject_state_flip(rng),
            )
        } else if pick < self.cores.len() * 2 {
            let c = pick - self.cores.len();
            (
                format!("core{c}.l2"),
                self.cores[c].l2.inject_state_flip(rng),
            )
        } else {
            ("llc".to_string(), self.llc.inject_state_flip(rng))
        };
        desc.map(|d| format!("{label}: {d}"))
    }

    // ------------------------------------------------------------------
    // Protocol internals
    // ------------------------------------------------------------------

    /// The authoritative mask of `core`'s private copy: the L1 copy if
    /// present (reveals and conceals are applied there first), else L2.
    fn private_auth_mask(&self, core: usize, addr: u64) -> RevealMask {
        self.cores[core]
            .l1
            .mask_of(addr)
            .or_else(|| self.cores[core].l2.mask_of(addr))
            .unwrap_or_default()
    }

    /// GetS: returns `(latency, granted state, granted mask, served_by)`.
    fn get_shared(&mut self, core: usize, addr: u64) -> (u32, Mesi, RevealMask, ServedBy) {
        let line = line_of(addr);
        if self.llc.touch(addr).is_some() {
            let dstate = self.dir.get(&line).copied().unwrap_or_default();
            match dstate {
                DirState::Owned { owner } if owner != core => {
                    // Downgrade the owner; its mask is the coherent copy.
                    let auth = self.private_auth_mask(owner, addr);
                    self.demote_to_shared(owner, addr, auth);
                    if self.recon.levels.covers_llc() {
                        self.llc.set_mask(addr, auth); // overwrite, not OR
                    }
                    let sharers = [owner, core].into_iter().collect();
                    self.dir.insert(line, DirState::Shared(sharers));
                    self.stats.llc_hits += 1;
                    self.stats.remote_forwards += 1;
                    self.emit(MemEventKind::Downgrade { owner, line });
                    // The data + mask travel cache-to-cache (an L2-level
                    // transaction): the mask arrives only if L2 is covered.
                    let granted = if self.recon.levels.covers_l2() {
                        auth
                    } else {
                        RevealMask::default()
                    };
                    (
                        self.cfg.lat.remote_fwd,
                        Mesi::Shared,
                        granted,
                        ServedBy::RemoteCache,
                    )
                }
                DirState::Owned { .. } => {
                    // Our own stale ownership cannot persist past an L2
                    // eviction (which notifies the directory); treat as a
                    // fresh exclusive grant.
                    debug_assert!(false, "directory owner with no private copy");
                    self.dir.insert(line, DirState::Owned { owner: core });
                    self.stats.llc_hits += 1;
                    let granted = self.granted_from_dir(addr);
                    (
                        self.cfg.lat.llc_hit,
                        Mesi::Exclusive,
                        granted,
                        ServedBy::Llc,
                    )
                }
                DirState::Shared(mut sharers) => {
                    sharers.insert(core);
                    self.dir.insert(line, DirState::Shared(sharers));
                    self.stats.llc_hits += 1;
                    let granted = self.granted_from_dir(addr);
                    (self.cfg.lat.llc_hit, Mesi::Shared, granted, ServedBy::Llc)
                }
                DirState::Uncached => {
                    self.dir.insert(line, DirState::Owned { owner: core });
                    self.stats.llc_hits += 1;
                    let granted = self.granted_from_dir(addr);
                    (
                        self.cfg.lat.llc_hit,
                        Mesi::Exclusive,
                        granted,
                        ServedBy::Llc,
                    )
                }
            }
        } else {
            // LLC miss: fetch from memory, all words concealed.
            self.install_llc(addr);
            self.dir.insert(line, DirState::Owned { owner: core });
            self.stats.mem_fetches += 1;
            self.emit(MemEventKind::MemFetch { line });
            (
                self.cfg.lat.mem,
                Mesi::Exclusive,
                RevealMask::default(),
                ServedBy::Memory,
            )
        }
    }

    /// Grants the directory's mask copy to a requester, respecting level
    /// coverage.
    fn granted_from_dir(&self, addr: u64) -> RevealMask {
        if self.recon.levels.covers_llc() {
            self.llc.mask_of(addr).unwrap_or_default()
        } else {
            RevealMask::default()
        }
    }

    /// Acquires write permission (GetM / upgrade) for `core` at `addr`.
    /// Returns `(latency, coherent mask before the write)` with the line
    /// installed Modified in the core's L1 and L2.
    fn acquire_for_write(&mut self, core: usize, addr: u64) -> (u32, RevealMask) {
        // Fast path: already writable in L1.
        if let Some((state, mask)) = self.cores[core].l1.touch(addr) {
            if state.writable() {
                if state == Mesi::Exclusive {
                    // Silent E -> M upgrade.
                    self.cores[core].l1.set_state(addr, Mesi::Modified);
                    self.cores[core].l2.set_state(addr, Mesi::Modified);
                }
                return (self.cfg.lat.l1_hit, mask);
            }
            // Shared in L1: upgrade at the directory.
            let own = mask;
            let (lat, dir_mask) = self.get_modified(core, addr);
            let merged = own | dir_mask;
            self.cores[core].l1.fill(addr, Mesi::Modified, merged);
            let l2_mask = self.mask_for_l2(merged);
            self.cores[core].l2.fill(addr, Mesi::Modified, l2_mask);
            return (self.cfg.lat.l1_hit + lat, merged);
        }
        if let Some((state, mask)) = self.cores[core].l2.touch(addr) {
            if state.writable() {
                self.cores[core].l2.set_state(addr, Mesi::Modified);
                self.fill_l1(core, addr, Mesi::Modified, mask);
                return (self.cfg.lat.l2_hit, mask);
            }
            let own = mask;
            let (lat, dir_mask) = self.get_modified(core, addr);
            let merged = own | dir_mask;
            let l2_mask = self.mask_for_l2(merged);
            self.cores[core].l2.fill(addr, Mesi::Modified, l2_mask);
            self.fill_l1(core, addr, Mesi::Modified, merged);
            return (self.cfg.lat.l2_hit + lat, merged);
        }
        // Full miss with intent to write.
        let (lat, dir_mask) = self.get_modified(core, addr);
        self.fill_l2(core, addr, Mesi::Modified, dir_mask);
        self.fill_l1(core, addr, Mesi::Modified, dir_mask);
        (lat, dir_mask)
    }

    /// GetM at the directory: invalidates all other holders and returns
    /// `(latency, coherent mask)`. The caller installs the line.
    fn get_modified(&mut self, core: usize, addr: u64) -> (u32, RevealMask) {
        let line = line_of(addr);
        if self.llc.touch(addr).is_some() {
            let dstate = self.dir.get(&line).copied().unwrap_or_default();
            let (lat, mask) = match dstate {
                DirState::Owned { owner } if owner != core => {
                    // Transfer ownership: the old owner's mask travels to
                    // the new writer on the invalidation (§5.3 case iii).
                    let auth = self.private_auth_mask(owner, addr);
                    self.invalidate_private(owner, addr);
                    self.stats.invalidations += 1;
                    self.stats.remote_forwards += 1;
                    self.emit(MemEventKind::Invalidate {
                        victim: owner,
                        line,
                    });
                    let granted = if self.recon.levels.covers_l2() {
                        auth
                    } else {
                        RevealMask::default()
                    };
                    (self.cfg.lat.remote_fwd + self.cfg.lat.upgrade, granted)
                }
                DirState::Owned { .. } => {
                    debug_assert!(false, "directory owner with no private copy");
                    (self.cfg.lat.llc_hit, self.granted_from_dir(addr))
                }
                DirState::Shared(sharers) => {
                    // `sharers` is a copied bitset, so the other holders
                    // can be walked directly — no per-invalidation
                    // allocation on this (hot) upgrade path.
                    let mut invalidated = false;
                    for sharer in sharers.iter().filter(|&s| s != core) {
                        // Invalidated readers lose their masks (footnote 1).
                        let lost = self.private_auth_mask(sharer, addr);
                        self.stats.mask_bits_lost_inval += u64::from(lost.count_revealed());
                        self.invalidate_private(sharer, addr);
                        self.stats.invalidations += 1;
                        self.emit(MemEventKind::Invalidate {
                            victim: sharer,
                            line,
                        });
                        invalidated = true;
                    }
                    self.stats.upgrades += 1;
                    self.emit(MemEventKind::Upgrade { core, line });
                    let lat = if invalidated {
                        self.cfg.lat.llc_hit + self.cfg.lat.upgrade
                    } else {
                        self.cfg.lat.llc_hit
                    };
                    (lat, self.granted_from_dir(addr))
                }
                DirState::Uncached => (self.cfg.lat.llc_hit, self.granted_from_dir(addr)),
            };
            self.dir.insert(line, DirState::Owned { owner: core });
            self.stats.llc_hits += 1;
            (lat, mask)
        } else {
            self.install_llc(addr);
            self.dir.insert(line, DirState::Owned { owner: core });
            self.stats.mem_fetches += 1;
            self.emit(MemEventKind::MemFetch { line });
            (self.cfg.lat.mem, RevealMask::default())
        }
    }

    /// Conceals the word at `addr` in `core`'s (Modified) private copy.
    fn conceal_word(&mut self, core: usize, addr: u64) {
        if !self.recon.enabled {
            return;
        }
        let wi = word_index(addr);
        self.cores[core].l1.update_mask(addr, |m| m.conceal(wi));
        self.cores[core].l2.update_mask(addr, |m| m.conceal(wi));
        self.stats.conceals += 1;
        // A committed store retires the word's public status: any reveal
        // bit seen for it afterwards is a soundness violation.
        if let Some(s) = &mut self.sound {
            s.legit.remove(&(addr & !(WORD_BYTES - 1)));
        }
    }

    fn mask_for_l2(&self, mask: RevealMask) -> RevealMask {
        if self.recon.levels.covers_l2() {
            mask
        } else {
            RevealMask::default()
        }
    }

    /// Downgrades `core`'s private copies of `addr` to Shared, setting
    /// them to the authoritative mask.
    fn demote_to_shared(&mut self, core: usize, addr: u64, auth: RevealMask) {
        if self.cores[core].l1.state_of(addr).is_some() {
            self.cores[core].l1.set_state(addr, Mesi::Shared);
            self.cores[core].l1.set_mask(addr, auth);
        }
        if self.cores[core].l2.state_of(addr).is_some() {
            self.cores[core].l2.set_state(addr, Mesi::Shared);
            let m = self.mask_for_l2(auth);
            self.cores[core].l2.set_mask(addr, m);
        }
    }

    /// Drops `core`'s private copies of `addr` (invalidation).
    fn invalidate_private(&mut self, core: usize, addr: u64) {
        self.cores[core].l1.invalidate(addr);
        self.cores[core].l2.invalidate(addr);
    }

    /// Installs a line in the LLC, back-invalidating the victim from all
    /// private caches (in-cache directory: losing the LLC line loses the
    /// directory entry and all reveal metadata).
    fn install_llc(&mut self, addr: u64) {
        if let Some(ev) = self.llc.fill(addr, Mesi::Shared, RevealMask::default()) {
            let victim_line = line_of(ev.addr);
            let lost_dir = ev.mask.count_revealed();
            let mut lost = u64::from(lost_dir);
            for core in 0..self.cores.len() {
                if self.cores[core].l1.state_of(ev.addr).is_some()
                    || self.cores[core].l2.state_of(ev.addr).is_some()
                {
                    lost += u64::from(self.private_auth_mask(core, ev.addr).count_revealed());
                    self.invalidate_private(core, ev.addr);
                    self.stats.invalidations += 1;
                    self.emit(MemEventKind::Invalidate {
                        victim: core,
                        line: victim_line,
                    });
                }
            }
            self.stats.mask_bits_lost_evict += lost;
            self.dir.remove(&victim_line);
            self.emit(MemEventKind::LlcEvict { line: victim_line });
        }
    }

    /// Fills `core`'s L1, folding the victim's mask into the L2 copy.
    fn fill_l1(&mut self, core: usize, addr: u64, state: Mesi, mask: RevealMask) {
        if let Some(ev) = self.cores[core].l1.fill(addr, state, mask) {
            if self.recon.levels.covers_l2() {
                let merged = if ev.state == Mesi::Modified {
                    self.cores[core].l2.set_mask(ev.addr, ev.mask) // owner writeback overwrites
                } else {
                    self.cores[core].l2.or_mask(ev.addr, ev.mask) // reader eviction ORs (packed)
                };
                if merged {
                    self.stats.mask_merges += 1;
                } else {
                    self.stats.mask_bits_lost_evict += u64::from(ev.mask.count_revealed());
                }
            } else {
                self.stats.mask_bits_lost_evict += u64::from(ev.mask.count_revealed());
            }
        }
    }

    /// Fills `core`'s L2 (enforcing inclusion on the victim) and notifies
    /// the directory of the victim's departure.
    fn fill_l2(&mut self, core: usize, addr: u64, state: Mesi, mask: RevealMask) {
        let l2_mask = self.mask_for_l2(mask);
        if let Some(ev) = self.cores[core].l2.fill(addr, state, l2_mask) {
            // Inclusion: the victim may still be in the L1; its L1 mask is
            // the freshest copy.
            let auth = match self.cores[core].l1.invalidate(ev.addr) {
                Some((_, l1_mask)) => l1_mask,
                None => ev.mask,
            };
            self.notify_dir_evict(core, ev.addr, ev.state, auth);
        }
    }

    /// A private cache evicted its copy: update sharer set and fold the
    /// mask into the directory per the §5.3 rules.
    fn notify_dir_evict(&mut self, core: usize, addr: u64, state: Mesi, mask: RevealMask) {
        let line = line_of(addr);
        let Some(dstate) = self.dir.get(&line).copied() else {
            // The LLC already evicted the line (back-invalidation raced
            // ahead); the metadata is gone.
            self.stats.mask_bits_lost_evict += u64::from(mask.count_revealed());
            return;
        };
        let next = match dstate {
            DirState::Owned { owner } if owner == core => DirState::Uncached,
            DirState::Shared(mut sharers) => {
                sharers.remove(core);
                if sharers.is_empty() {
                    DirState::Uncached
                } else {
                    DirState::Shared(sharers)
                }
            }
            other => other,
        };
        self.dir.insert(line, next);
        if self.recon.levels.covers_llc() {
            let updated = if state.owns_mask() {
                self.llc.set_mask(addr, mask) // writer writeback overwrites
            } else {
                self.llc.or_mask(addr, mask) // reader eviction ORs (packed)
            };
            if updated {
                self.stats.mask_merges += 1;
            }
        } else {
            self.stats.mask_bits_lost_evict += u64::from(mask.count_revealed());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recon::ReconLevels;
    use recon_isa::snap::{SnapReader, SnapWriter};

    fn sys(cores: usize) -> MemorySystem {
        MemorySystem::new(cores, MemConfig::scaled(), ReconConfig::default())
    }

    #[test]
    fn cold_read_comes_from_memory_exclusive() {
        let mut m = sys(1);
        let r = m.read(0, 0x1000);
        assert_eq!(r.served_by, ServedBy::Memory);
        assert!(!r.revealed);
        assert_eq!(m.l1_state(0, 0x1000), Some(Mesi::Exclusive));
        assert_eq!(m.dir_state(0x1000), Some(DirState::Owned { owner: 0 }));
    }

    #[test]
    fn second_read_hits_l1() {
        let mut m = sys(1);
        m.read(0, 0x1000);
        let r = m.read(0, 0x1000);
        assert_eq!(r.served_by, ServedBy::L1);
        assert_eq!(r.latency, 2);
    }

    #[test]
    fn reveal_then_read_reports_revealed() {
        let mut m = sys(1);
        m.read(0, 0x1008);
        assert!(m.reveal(0, 0x1008));
        let r = m.read(0, 0x1008);
        assert!(r.revealed);
        // A different word in the same line stays concealed.
        assert!(!m.read(0, 0x1010).revealed);
    }

    #[test]
    fn store_conceals_word() {
        let mut m = sys(1);
        m.read(0, 0x1008);
        m.reveal(0, 0x1008);
        assert!(m.read(0, 0x1008).revealed);
        m.write(0, 0x1008);
        assert!(!m.read(0, 0x1008).revealed, "performed store conceals");
        assert_eq!(m.l1_state(0, 0x1008), Some(Mesi::Modified));
    }

    #[test]
    fn store_to_exclusive_is_silent_upgrade() {
        let mut m = sys(1);
        m.read(0, 0x2000);
        assert_eq!(m.l1_state(0, 0x2000), Some(Mesi::Exclusive));
        let w = m.write(0, 0x2000);
        assert_eq!(w.latency, 2, "no directory transaction");
        assert_eq!(m.l1_state(0, 0x2000), Some(Mesi::Modified));
    }

    #[test]
    fn sharing_downgrades_owner_and_carries_mask() {
        let mut m = sys(2);
        m.read(0, 0x3000);
        m.reveal(0, 0x3000); // core 0 reveals locally in its L1
        let r = m.read(1, 0x3000); // core 1 reads: owner downgraded
        assert_eq!(r.served_by, ServedBy::RemoteCache);
        assert!(r.revealed, "the reveal travelled with the c2c forward");
        assert_eq!(m.l1_state(0, 0x3000), Some(Mesi::Shared));
        assert_eq!(m.l1_state(1, 0x3000), Some(Mesi::Shared));
        assert!(matches!(m.dir_state(0x3000), Some(DirState::Shared(s)) if s.len() == 2));
    }

    #[test]
    fn writer_invalidates_sharers_and_their_masks_are_lost() {
        let mut m = sys(2);
        m.read(0, 0x3000);
        m.read(1, 0x3000);
        m.reveal(1, 0x3008); // core 1's private reveal (same line)
        m.write(0, 0x3000); // core 0 upgrades: invalidates core 1
        assert_eq!(m.l1_state(1, 0x3000), None);
        assert_eq!(m.dir_state(0x3000), Some(DirState::Owned { owner: 0 }));
        assert!(m.stats().mask_bits_lost_inval >= 1);
        // Core 1 rereads: the word it revealed is concealed again (its
        // mask copy was lost with the invalidation, and the writer's copy
        // never had the bit).
        assert!(!m.read(1, 0x3008).revealed);
    }

    #[test]
    fn ownership_transfer_carries_mask_to_next_writer() {
        let mut m = sys(2);
        m.write(0, 0x4000); // core 0 owns M
        m.reveal(0, 0x4008);
        m.write(1, 0x4000); // core 1 takes ownership
                            // Mask travelled writer -> writer: core 1 sees word 1 revealed.
        assert!(m.read(1, 0x4008).revealed);
        assert_eq!(m.l1_state(0, 0x4000), None);
    }

    #[test]
    fn concealed_overwrite_wins_over_stale_directory() {
        let mut m = sys(2);
        // Core 0 reveals and the directory learns via core 1's read.
        m.read(0, 0x5008);
        m.reveal(0, 0x5008);
        m.read(1, 0x5008); // downgrade: dir mask = revealed
                           // Core 0 now writes the word: conceals in its private copy.
        m.write(0, 0x5008);
        // Core 1 rereads: must see concealed (owner's copy authoritative).
        assert!(!m.read(1, 0x5008).revealed);
    }

    #[test]
    fn reveal_requests_can_be_dropped() {
        let mut m = sys(1);
        assert!(!m.reveal(0, 0x6000), "line not cached anywhere");
        assert_eq!(m.stats().reveals_dropped, 1);
    }

    #[test]
    fn disabled_recon_never_reveals() {
        let mut m = MemorySystem::new(1, MemConfig::scaled(), ReconConfig::disabled());
        m.read(0, 0x1000);
        assert!(!m.reveal(0, 0x1000));
        assert!(!m.read(0, 0x1000).revealed);
    }

    #[test]
    fn l1_only_coverage_loses_mask_on_l1_eviction() {
        let cfg = ReconConfig {
            levels: ReconLevels::L1Only,
            ..ReconConfig::default()
        };
        let mut m = MemorySystem::new(1, MemConfig::scaled(), cfg);
        m.read(0, 0x0);
        m.reveal(0, 0x0);
        assert!(m.read(0, 0x0).revealed);
        // Thrash the L1 set: scaled L1 is 2 KiB 8-way = 4 sets; lines
        // mapping to set 0 are 256 B apart.
        for i in 1..=8u64 {
            m.read(0, i * 256);
        }
        assert_eq!(m.l1_state(0, 0x0), None, "line evicted from L1");
        // With L1-only coverage the reveal is gone after refill.
        assert!(!m.read(0, 0x0).revealed);
        assert!(m.stats().mask_bits_lost_evict >= 1);
    }

    #[test]
    fn full_coverage_preserves_mask_across_l1_eviction() {
        let mut m = sys(1);
        m.read(0, 0x0);
        m.reveal(0, 0x0);
        for i in 1..=8u64 {
            m.read(0, i * 256);
        }
        assert_eq!(m.l1_state(0, 0x0), None, "line evicted from L1");
        assert!(m.read(0, 0x0).revealed, "mask preserved in the L2");
    }

    #[test]
    fn rmw_returns_pre_state_and_conceals() {
        let mut m = sys(1);
        m.read(0, 0x7008);
        m.reveal(0, 0x7008);
        let r = m.rmw(0, 0x7008);
        assert!(r.revealed, "pre-write state was revealed");
        assert!(!m.read(0, 0x7008).revealed, "rmw concealed the word");
    }

    #[test]
    fn stats_accumulate() {
        let mut m = sys(1);
        m.read(0, 0x0);
        m.read(0, 0x0);
        m.write(0, 0x40);
        let s = m.stats();
        assert_eq!(s.l1_hits, 1);
        assert_eq!(s.mem_fetches, 2);
        assert_eq!(s.stores_performed, 1);
        m.reset_stats();
        assert_eq!(m.stats().total_loads(), 0);
    }

    #[test]
    fn directory_or_merge_across_consecutive_evictions() {
        // Two cores reveal different words of the same line; both evict;
        // the directory accumulates both via OR (§5.3).
        let mut m = sys(2);
        m.read(0, 0x0);
        m.read(1, 0x0);
        m.reveal(0, 0x0); // word 0 by core 0
        m.reveal(1, 0x8); // word 1 by core 1
                          // Evict from both cores' private caches: thrash their L2 sets.
                          // Scaled L2 is 64 KiB 16-way = 64 sets; same-set stride = 4 KiB.
        for i in 1..=16u64 {
            m.read(0, i * 4096);
            m.read(1, i * 4096);
        }
        assert_eq!(m.l2_state(0, 0x0), None);
        assert_eq!(m.l2_state(1, 0x0), None);
        // A third read finds both reveals accumulated in the directory.
        let r0 = m.read(0, 0x0);
        assert!(r0.revealed);
        assert!(m.read(0, 0x8).revealed);
    }

    fn snapshot(m: &mut MemorySystem) -> Vec<u8> {
        let mut w = SnapWriter::new();
        m.codec(&mut w).unwrap();
        w.into_bytes()
    }

    #[test]
    fn a_core_count_mismatch_is_refused() {
        let e = sys(1)
            .codec(&mut SnapReader::new(&snapshot(&mut sys(2))))
            .unwrap_err();
        assert!(e.what.contains("snapshot has 2 cores, system has 1"), "{e}");
    }

    #[test]
    fn directory_byte_3_is_refused() {
        let mut m = sys(1);
        m.read(0, 0x1000);
        assert_eq!(m.dir.len(), 1, "one directory entry");
        let mut bytes = snapshot(&mut m);
        // The entry's state byte follows the `MSYS` tag, the core count,
        // every array, the directory length and the entry's line. An
        // array stores its tag, clock, dimensions and slot count, then
        // 23 bytes for each slot ever filled: here, each resident line.
        let array = |a: &CacheArray| 4 + 8 + 4 + 4 + 4 + a.occupancy() * 23;
        let c = &m.cores[0];
        let at = 8 + array(&c.l1) + array(&c.l2) + array(&m.llc) + 8 + 8;
        assert_eq!(bytes[at], 2, "the entry is owned");
        bytes[at] = 3;
        let e = sys(1).codec(&mut SnapReader::new(&bytes)).unwrap_err();
        assert!(e.what.contains("invalid directory-state byte 0x3"), "{e}");
    }
}
