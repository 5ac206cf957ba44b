//! The Load-Pair Table (LPT) — ReCon's commit-stage detector of
//! direct-dependence load pairs (§5.1 of the paper).
//!
//! The LPT is indexed by *physical* register id. Each entry holds an
//! active bit and the memory address accessed by the committed load that
//! last wrote that physical register. When a load commits:
//!
//! 1. it looks up its address-source register; if the entry is active, a
//!    load pair is detected and the address stored there (the *first*
//!    load's address) is **revealed**;
//! 2. it installs its own accessed address into its destination
//!    register's entry and sets the active bit (unless the word it loaded
//!    was already revealed — installing then is pointless);
//! 3. any *non-load* instruction that commits clears the active bit of
//!    its destination register.
//!
//! Detection at commit, via physical registers, sidesteps the aliasing of
//! multiple in-flight dynamic instances of the same load pair (§5.1).
//!
//! Smaller-than-full tables (§6.6) are supported: entries are indexed by
//! `preg % entries` and tagged with the full physical register id so a
//! conflict can never reveal a wrong address — a conflict only *loses* a
//! reveal opportunity, which is always safe.

use core::fmt;

use recon_isa::snap::{Codec, SnapError};

/// One LPT entry: active bit, owning physical register (tag), and the
/// address accessed by the load that wrote that register.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
struct Entry {
    active: bool,
    tag: u32,
    addr: u64,
}

/// Statistics accumulated by a [`LoadPairTable`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct LptStats {
    /// Committed loads processed.
    pub loads_committed: u64,
    /// Load pairs detected (reveals requested).
    pub pairs_detected: u64,
    /// Lookups that found an entry whose tag did not match (lost
    /// opportunities due to a reduced table size).
    pub tag_conflicts: u64,
    /// Entries invalidated by non-load writers.
    pub deactivations: u64,
    /// Installs skipped because the loaded word was already revealed.
    pub installs_skipped_revealed: u64,
}

impl LptStats {
    /// Every counter, in declaration order — the order snapshots and
    /// result records store them in.
    pub fn counters_mut(&mut self) -> [&mut u64; 5] {
        [
            &mut self.loads_committed,
            &mut self.pairs_detected,
            &mut self.tag_conflicts,
            &mut self.deactivations,
            &mut self.installs_skipped_revealed,
        ]
    }
}

/// The Load-Pair Table.
///
/// ```
/// use recon::LoadPairTable;
///
/// let mut lpt = LoadPairTable::full(180); // Intel Skylake: 180 pregs
///
/// // LD1: `load p7, [0x100]` commits (no pair: p3 not active).
/// assert_eq!(lpt.commit_load(7, Some(3), 0x100, false), None);
/// // LD2: `load p9, [p7]` commits — direct dependence on LD1:
/// // the pair is detected and LD1's address 0x100 is revealed.
/// assert_eq!(lpt.commit_load(9, Some(7), 0x2000, false), Some(0x100));
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct LoadPairTable {
    entries: Vec<Entry>,
    stats: LptStats,
}

impl LoadPairTable {
    /// A full-size LPT: one entry per physical register; no conflicts.
    ///
    /// # Panics
    ///
    /// Panics if `num_pregs` is zero.
    #[must_use]
    pub fn full(num_pregs: usize) -> Self {
        Self::with_entries(num_pregs)
    }

    /// An LPT with an arbitrary number of entries, indexed by
    /// `preg % entries` and tagged with the physical register id (the
    /// §6.6 reduced configuration). With `entries >= num_pregs` this is
    /// equivalent to [`LoadPairTable::full`].
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero.
    #[must_use]
    pub fn with_entries(entries: usize) -> Self {
        assert!(entries > 0, "LPT must have at least one entry");
        LoadPairTable {
            entries: vec![Entry::default(); entries],
            stats: LptStats::default(),
        }
    }

    /// Number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table has zero entries (never true — construction
    /// requires at least one).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> LptStats {
        self.stats
    }

    fn slot(&self, preg: u32) -> usize {
        preg as usize % self.entries.len()
    }

    /// Read-only probe of the entry under `preg`: the address installed
    /// by a committed producer load, if the entry is active and its tag
    /// matches. Used by stall forensics; bumps no statistics.
    #[must_use]
    pub fn peek(&self, preg: u32) -> Option<u64> {
        let e = self.entries[self.slot(preg)];
        (e.active && e.tag == preg).then_some(e.addr)
    }

    /// Looks up `preg`; returns the stored address if active and the tag
    /// matches.
    fn lookup(&mut self, preg: u32) -> Option<u64> {
        let e = self.entries[self.slot(preg)];
        if !e.active {
            return None;
        }
        if e.tag != preg {
            self.stats.tag_conflicts += 1;
            return None;
        }
        Some(e.addr)
    }

    /// Processes a committing **load**.
    ///
    /// * `dst_preg` — the load's destination physical register.
    /// * `addr_src_preg` — the physical register that supplied the load's
    ///   base address (`None` for an immediate-only address).
    /// * `load_addr` — the (word-aligned) address this load accessed.
    /// * `dst_word_revealed` — whether the word this load read was
    ///   already marked revealed in the cache (install is skipped then,
    ///   per §5.1: "if the load address has not already been revealed").
    ///
    /// Returns `Some(first_load_addr)` when a direct-dependence load pair
    /// is detected: the caller must send a reveal request for that
    /// address to the cache hierarchy.
    pub fn commit_load(
        &mut self,
        dst_preg: u32,
        addr_src_preg: Option<u32>,
        load_addr: u64,
        dst_word_revealed: bool,
    ) -> Option<u64> {
        self.stats.loads_committed += 1;
        // 2. check the source register: was it written by a committed load?
        let pair = addr_src_preg.and_then(|src| self.lookup(src));
        if pair.is_some() {
            self.stats.pairs_detected += 1;
        }
        // 1. install this load's address under its destination register.
        if dst_word_revealed {
            // The word is already revealed: a future consumer load would
            // reveal an already-revealed address. Skip the install but
            // still deactivate any stale entry for correctness.
            self.stats.installs_skipped_revealed += 1;
            let slot = self.slot(dst_preg);
            if self.entries[slot].tag == dst_preg {
                self.entries[slot].active = false;
            }
        } else {
            let slot = self.slot(dst_preg);
            self.entries[slot] = Entry {
                active: true,
                tag: dst_preg,
                addr: load_addr,
            };
        }
        pair
    }

    /// Processes a committing **multi-source load** (§5.1.1): looks up
    /// *each* address-source operand — a pair can be detected per
    /// operand — then installs the destination. Returns the addresses
    /// to reveal (0..=2).
    pub fn commit_load_multi(
        &mut self,
        dst_preg: u32,
        addr_src_pregs: [Option<u32>; 2],
        load_addr: u64,
        dst_word_revealed: bool,
    ) -> [Option<u64>; 2] {
        self.stats.loads_committed += 1;
        let mut out = [None, None];
        for (slot, src) in addr_src_pregs.into_iter().enumerate() {
            out[slot] = src.and_then(|s| self.lookup(s));
            if out[slot].is_some() {
                self.stats.pairs_detected += 1;
            }
        }
        if dst_word_revealed {
            self.stats.installs_skipped_revealed += 1;
            let islot = self.slot(dst_preg);
            if self.entries[islot].tag == dst_preg {
                self.entries[islot].active = false;
            }
        } else {
            let islot = self.slot(dst_preg);
            self.entries[islot] = Entry {
                active: true,
                tag: dst_preg,
                addr: load_addr,
            };
        }
        out
    }

    /// Processes a committing **non-load** instruction that writes
    /// `dst_preg`: clears the active bit so the register no longer
    /// appears to hold a loaded value.
    pub fn commit_writer(&mut self, dst_preg: u32) {
        let slot = self.slot(dst_preg);
        let e = &mut self.entries[slot];
        // Clear regardless of tag: after this commit, the slot's previous
        // occupant is stale only if tags collide, and clearing a colliding
        // entry merely loses a reveal opportunity (always safe).
        if e.active && e.tag == dst_preg {
            self.stats.deactivations += 1;
            e.active = false;
        }
    }

    /// Clears every entry (e.g. on context switch / address-space change).
    pub fn flush(&mut self) {
        for e in &mut self.entries {
            e.active = false;
        }
    }

    /// Invariant sweep: every *active* entry must be internally
    /// consistent — its tag must map to the slot it sits in
    /// (`tag % entries == slot`, the only way `LoadPairTable::lookup`
    /// can ever find it), the tag must name a real physical register,
    /// and the stored address must be word-aligned (commit masks all
    /// load addresses with `& !7` before installing).
    ///
    /// Violations are appended to `out` with `site` as the location
    /// label. A clean table appends nothing.
    pub fn audit(&self, site: &str, num_pregs: usize, out: &mut Vec<crate::AuditViolation>) {
        for (slot, e) in self.entries.iter().enumerate() {
            if !e.active {
                continue;
            }
            if e.tag as usize % self.entries.len() != slot {
                out.push(crate::AuditViolation::new(
                    "lpt-slot-map",
                    format!("{site}.lpt"),
                    format!(
                        "slot {slot}: tag p{} maps to slot {} ({} entries)",
                        e.tag,
                        e.tag as usize % self.entries.len(),
                        self.entries.len()
                    ),
                ));
            }
            if e.tag as usize >= num_pregs {
                out.push(crate::AuditViolation::new(
                    "lpt-tag-range",
                    format!("{site}.lpt"),
                    format!(
                        "slot {slot}: tag p{} >= {num_pregs} physical registers",
                        e.tag
                    ),
                ));
            }
            if e.addr % crate::WORD_BYTES != 0 {
                out.push(crate::AuditViolation::new(
                    "lpt-addr-aligned",
                    format!("{site}.lpt"),
                    format!("slot {slot}: address {:#x} is not word-aligned", e.addr),
                ));
            }
        }
    }

    /// Soft-error injection hook: flips one deterministic-random bit in
    /// one entry (address bit, tag bit, or the active bit). Returns a
    /// description of the flip, or `None` for an empty table.
    ///
    /// Only the fault-injection campaign calls this; normal operation
    /// never mutates an entry outside commit.
    pub fn inject_flip(&mut self, rng: &mut recon_isa::rng::SplitMix64) -> Option<String> {
        use recon_isa::rng::Rng as _;
        if self.entries.is_empty() {
            return None;
        }
        let slot = rng.next_u64() as usize % self.entries.len();
        let e = &mut self.entries[slot];
        match rng.next_u64() % 3 {
            0 => {
                let bit = rng.next_u64() % 64;
                e.addr ^= 1u64 << bit;
                Some(format!("lpt slot {slot}: addr bit {bit} flipped"))
            }
            1 => {
                let bit = rng.next_u64() % 32;
                e.tag ^= 1u32 << bit;
                Some(format!("lpt slot {slot}: tag bit {bit} flipped"))
            }
            _ => {
                e.active = !e.active;
                Some(format!("lpt slot {slot}: active bit flipped"))
            }
        }
    }

    /// Visits the table (entries in index order plus stats).
    ///
    /// # Errors
    ///
    /// Propagates decode errors, including a zero-entry count (which
    /// construction forbids).
    pub fn codec(&mut self, c: &mut impl Codec) -> Result<(), SnapError> {
        c.tag(b"LPT1")?;
        let mut count = self.entries.len();
        c.usize(&mut count)?;
        if count == 0 {
            return Err(c.fail("LPT with zero entries"));
        }
        c.items(&mut self.entries, count, |c, e| {
            c.bool(&mut e.active)?;
            c.u32(&mut e.tag)?;
            c.u64(&mut e.addr)
        })?;
        self.stats
            .counters_mut()
            .into_iter()
            .try_for_each(|v| c.u64(v))
    }
}

impl fmt::Debug for LoadPairTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LoadPairTable")
            .field("entries", &self.entries.len())
            .field("active", &self.entries.iter().filter(|e| e.active).count())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recon_isa::snap::{SnapReader, SnapWriter};

    #[test]
    fn detects_simple_pair() {
        let mut lpt = LoadPairTable::full(64);
        assert_eq!(lpt.commit_load(5, None, 0x100, false), None);
        assert_eq!(lpt.commit_load(6, Some(5), 0x2000, false), Some(0x100));
        assert_eq!(lpt.stats().pairs_detected, 1);
        assert_eq!(lpt.stats().loads_committed, 2);
    }

    #[test]
    fn non_load_writer_breaks_pair() {
        let mut lpt = LoadPairTable::full(64);
        lpt.commit_load(5, None, 0x100, false);
        lpt.commit_writer(5); // e.g. an add writing p5 commits
        assert_eq!(lpt.commit_load(6, Some(5), 0x2000, false), None);
        assert_eq!(lpt.stats().deactivations, 1);
    }

    #[test]
    fn chained_pairs_detect_each_link() {
        // LD a -> LD b -> LD c: two pairs (a,b) and (b,c).
        let mut lpt = LoadPairTable::full(64);
        assert_eq!(lpt.commit_load(1, None, 0x10, false), None);
        assert_eq!(lpt.commit_load(2, Some(1), 0x20, false), Some(0x10));
        assert_eq!(lpt.commit_load(3, Some(2), 0x30, false), Some(0x20));
        assert_eq!(lpt.stats().pairs_detected, 2);
    }

    #[test]
    fn install_skipped_when_already_revealed() {
        let mut lpt = LoadPairTable::full(64);
        // LD1 loads a word that is already revealed: no install.
        lpt.commit_load(5, None, 0x100, true);
        assert_eq!(lpt.commit_load(6, Some(5), 0x2000, false), None);
        assert_eq!(lpt.stats().installs_skipped_revealed, 1);
    }

    #[test]
    fn revealed_install_clears_stale_entry() {
        let mut lpt = LoadPairTable::full(64);
        lpt.commit_load(5, None, 0x100, false); // installs 0x100 under p5
        lpt.commit_load(5, None, 0x200, true); // p5 rewritten, now-revealed word
                                               // A consumer of p5 must NOT reveal the stale 0x100.
        assert_eq!(lpt.commit_load(6, Some(5), 0x2000, false), None);
    }

    #[test]
    fn reduced_table_tag_conflict_is_safe() {
        // 4 entries: pregs 1 and 5 collide (1 % 4 == 5 % 4).
        let mut lpt = LoadPairTable::with_entries(4);
        lpt.commit_load(1, None, 0x100, false);
        // preg 5's lookup hits slot 1 but the tag (1) mismatches -> no
        // reveal of the wrong address.
        assert_eq!(lpt.commit_load(6, Some(5), 0x2000, false), None);
        assert_eq!(lpt.stats().tag_conflicts, 1);
    }

    #[test]
    fn reduced_table_conflict_eviction_loses_opportunity_only() {
        let mut lpt = LoadPairTable::with_entries(4);
        lpt.commit_load(1, None, 0x100, false);
        lpt.commit_load(5, None, 0x200, false); // evicts p1's entry (same slot)
                                                // Consumer of p1 finds p5's tag: conflict, no (wrong) reveal.
        assert_eq!(lpt.commit_load(6, Some(1), 0x2000, false), None);
        // Consumer of p5 still works.
        assert_eq!(lpt.commit_load(7, Some(5), 0x3000, false), Some(0x200));
    }

    #[test]
    fn writer_with_conflicting_tag_does_not_deactivate() {
        let mut lpt = LoadPairTable::with_entries(4);
        lpt.commit_load(1, None, 0x100, false);
        lpt.commit_writer(5); // collides with slot 1 but tag differs
        assert_eq!(lpt.commit_load(6, Some(1), 0x2000, false), Some(0x100));
    }

    #[test]
    fn multi_source_detects_a_pair_per_operand() {
        let mut lpt = LoadPairTable::full(64);
        lpt.commit_load(1, None, 0x100, false); // base producer
        lpt.commit_load(2, None, 0x200, false); // index producer
        let out = lpt.commit_load_multi(3, [Some(1), Some(2)], 0x3000, false);
        assert_eq!(out, [Some(0x100), Some(0x200)]);
        assert_eq!(lpt.stats().pairs_detected, 2);
    }

    #[test]
    fn multi_source_with_one_alu_operand_detects_one() {
        let mut lpt = LoadPairTable::full(64);
        lpt.commit_load(1, None, 0x100, false);
        lpt.commit_writer(2); // index came from ALU
        let out = lpt.commit_load_multi(3, [Some(1), Some(2)], 0x3000, false);
        assert_eq!(out, [Some(0x100), None]);
    }

    #[test]
    fn multi_source_installs_its_own_address() {
        let mut lpt = LoadPairTable::full(64);
        lpt.commit_load_multi(3, [None, None], 0x3000, false);
        assert_eq!(lpt.commit_load(4, Some(3), 0x4000, false), Some(0x3000));
    }

    #[test]
    fn flush_clears_everything() {
        let mut lpt = LoadPairTable::full(8);
        lpt.commit_load(1, None, 0x100, false);
        lpt.flush();
        assert_eq!(lpt.commit_load(2, Some(1), 0x200, false), None);
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_entries_panics() {
        let _ = LoadPairTable::with_entries(0);
    }

    #[test]
    fn full_table_never_conflicts() {
        let mut lpt = LoadPairTable::full(256);
        for p in 0..256u32 {
            lpt.commit_load(p, None, 0x1000 + u64::from(p) * 8, false);
        }
        for p in 0..256u32 {
            // Lookup of the source happens before the destination install,
            // so using dst == src reads the original address.
            assert_eq!(
                lpt.commit_load(p, Some(p), 0x9000, false),
                Some(0x1000 + u64::from(p) * 8),
                "preg {p}"
            );
        }
        assert_eq!(lpt.stats().tag_conflicts, 0);
    }

    #[test]
    fn a_zero_entry_table_is_refused() {
        let mut w = SnapWriter::new();
        LoadPairTable::with_entries(4).codec(&mut w).unwrap();
        let mut bytes = w.into_bytes();
        bytes[4..12].copy_from_slice(&0u64.to_le_bytes());
        let e = LoadPairTable::with_entries(4)
            .codec(&mut SnapReader::new(&bytes))
            .unwrap_err();
        assert!(e.what.contains("LPT with zero entries"), "{e}");
    }
}
