//! Generic set-associative cache array with LRU replacement.
//!
//! The array stores coherence metadata (tag, MESI state) plus the ReCon
//! [`RevealMask`]. Data values are *not* stored: the reproduction is a
//! timing-directed model where architectural data lives in a flat
//! functional memory (see `recon-sim`), as in many timing simulators.
//!
//! Every per-way field lives in a flat array indexed by slot
//! `set * ways + way`. A way's tag, MESI state and valid bit share one
//! `u64` key, so a lookup compares one word per way. Reveal masks live
//! in a dense [`MaskArray`] by slot, so array-wide mask operations
//! (occupancy-style reveal counts, any-revealed probes) run over packed
//! `u64` words instead of walking every way a byte at a time.

use recon::{MaskArray, RevealMask};
use recon_isa::snap::{Codec, SnapError};

use crate::geometry::CacheGeometry;
use crate::mesi::Mesi;

/// Key bit: the way holds a line.
const VALID: u64 = 1;
/// Key bits holding the MESI state ([`mesi_to_u8`]).
const STATE: u64 = 0b110;
/// The tag sits above the state and valid bits.
const TAG_SHIFT: u32 = 3;

/// The key of a way holding `tag` in `state`, valid or not.
fn key(tag: u64, state: Mesi, valid: bool) -> u64 {
    (tag << TAG_SHIFT) | ((state as u64) << 1) | u64::from(valid)
}

fn key_tag(key: u64) -> u64 {
    key >> TAG_SHIFT
}

/// Each [`Mesi`] state at its snapshot byte (its discriminant).
const MESI: [Mesi; 4] = [Mesi::Invalid, Mesi::Shared, Mesi::Exclusive, Mesi::Modified];

fn key_state(key: u64) -> Mesi {
    MESI[((key & STATE) >> 1) as usize]
}

fn key_valid(key: u64) -> bool {
    key & VALID != 0
}

/// A line evicted by [`CacheArray::fill`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Evicted {
    /// Line base address of the victim.
    pub addr: u64,
    /// Its MESI state at eviction.
    pub state: Mesi,
    /// Its reveal mask at eviction (to be merged or written back).
    pub mask: RevealMask,
}

/// Set-associative array of coherence + reveal metadata.
///
/// ```
/// use recon_mem::{CacheArray, CacheGeometry, Mesi};
/// use recon::RevealMask;
///
/// let mut c = CacheArray::new(CacheGeometry::new(1024, 2));
/// assert!(c.state_of(0x0).is_none());
/// c.fill(0x0, Mesi::Shared, RevealMask::all_concealed());
/// assert_eq!(c.state_of(0x0), Some(Mesi::Shared));
/// ```
#[derive(Clone, Debug)]
pub struct CacheArray {
    geom: CacheGeometry,
    /// Per slot: tag, MESI state and valid bit (see [`key`]). An invalid
    /// way keeps its stale tag and state, which snapshots record.
    keys: Vec<u64>,
    /// Per slot: the tick of the last fill or touch.
    last_use: Vec<u64>,
    masks: MaskArray,
    tick: u64,
}

impl CacheArray {
    /// Creates an empty array with the given geometry.
    #[must_use]
    pub fn new(geom: CacheGeometry) -> Self {
        let slots = geom.num_lines();
        CacheArray {
            geom,
            keys: vec![0; slots],
            last_use: vec![0; slots],
            masks: MaskArray::new(slots),
            tick: 0,
        }
    }

    /// The array's geometry.
    #[must_use]
    pub fn geometry(&self) -> CacheGeometry {
        self.geom
    }

    /// The slot of the valid way holding the line of `addr`.
    #[inline]
    fn find(&self, addr: u64) -> Option<usize> {
        let (set, tag) = self.geom.slice(addr);
        let base = set * self.geom.ways();
        let want = (tag << TAG_SHIFT) | VALID;
        self.keys[base..base + self.geom.ways()]
            .iter()
            .position(|&k| k & !STATE == want)
            .map(|way| base + way)
    }

    /// The line address of the way in `slot`.
    fn line_addr(&self, slot: usize) -> u64 {
        let set = slot / self.geom.ways();
        self.geom.unslice(set, key_tag(self.keys[slot]))
    }

    fn set_slot_state(&mut self, slot: usize, state: Mesi) {
        let k = self.keys[slot];
        self.keys[slot] = key(key_tag(k), state, key_valid(k));
    }

    /// The MESI state of the line containing `addr`, if present.
    #[must_use]
    pub fn state_of(&self, addr: u64) -> Option<Mesi> {
        self.find(addr).map(|slot| key_state(self.keys[slot]))
    }

    /// The reveal mask of the line containing `addr`, if present.
    #[must_use]
    pub fn mask_of(&self, addr: u64) -> Option<RevealMask> {
        self.find(addr).map(|slot| self.masks.get(slot))
    }

    /// Looks up the line and refreshes its LRU position. Returns
    /// `(state, mask)` on hit.
    #[inline]
    pub fn touch(&mut self, addr: u64) -> Option<(Mesi, RevealMask)> {
        let slot = self.find(addr)?;
        self.tick += 1;
        self.last_use[slot] = self.tick;
        Some((key_state(self.keys[slot]), self.masks.get(slot)))
    }

    /// Changes the state of a present line. Returns `false` if absent.
    pub fn set_state(&mut self, addr: u64, state: Mesi) -> bool {
        match self.find(addr) {
            Some(slot) => {
                self.set_slot_state(slot, state);
                true
            }
            None => false,
        }
    }

    /// Replaces the mask of a present line. Returns `false` if absent.
    pub fn set_mask(&mut self, addr: u64, mask: RevealMask) -> bool {
        match self.find(addr) {
            Some(slot) => {
                self.masks.set(slot, mask);
                true
            }
            None => false,
        }
    }

    /// Applies `f` to the mask of a present line. Returns `false` if
    /// absent.
    pub fn update_mask(&mut self, addr: u64, f: impl FnOnce(&mut RevealMask)) -> bool {
        match self.find(addr) {
            Some(slot) => {
                let mut mask = self.masks.get(slot);
                f(&mut mask);
                self.masks.set(slot, mask);
                true
            }
            None => false,
        }
    }

    /// ORs `mask` into a present line's mask via the packed batch path
    /// (the §5.3 merge rule). Returns `false` if absent.
    pub fn or_mask(&mut self, addr: u64, mask: RevealMask) -> bool {
        match self.find(addr) {
            Some(slot) => {
                self.masks.or_line(slot, mask);
                true
            }
            None => false,
        }
    }

    /// Inserts a line, evicting the LRU victim if the set is full.
    ///
    /// The caller handles the returned victim (writeback / directory
    /// notification / mask merge). Filling an already-present line just
    /// updates its state and mask. One walk of the set finds the line,
    /// the first invalid way and the LRU way together.
    pub fn fill(&mut self, addr: u64, state: Mesi, mask: RevealMask) -> Option<Evicted> {
        debug_assert!(state.readable(), "filling an Invalid line is meaningless");
        self.tick += 1;
        let tick = self.tick;
        let (set, tag) = self.geom.slice(addr);
        let base = set * self.geom.ways();
        let want = (tag << TAG_SHIFT) | VALID;
        let mut free = None;
        let mut lru = (u64::MAX, base);
        for slot in base..base + self.geom.ways() {
            let k = self.keys[slot];
            if k & !STATE == want {
                self.set_slot_state(slot, state);
                self.last_use[slot] = tick;
                self.masks.set(slot, mask);
                return None;
            }
            if !key_valid(k) {
                free = free.or(Some(slot));
            } else if self.last_use[slot] < lru.0 {
                // The first of equally old ways.
                lru = (self.last_use[slot], slot);
            }
        }
        let slot = free.unwrap_or(lru.1);
        let victim = self.keys[slot];
        let evicted = key_valid(victim).then(|| Evicted {
            addr: self.geom.unslice(set, key_tag(victim)),
            state: key_state(victim),
            mask: self.masks.get(slot),
        });
        self.keys[slot] = key(tag, state, true);
        self.last_use[slot] = tick;
        self.masks.set(slot, mask);
        evicted
    }

    /// Removes a line, returning its `(state, mask)` if it was present.
    pub fn invalidate(&mut self, addr: u64) -> Option<(Mesi, RevealMask)> {
        let slot = self.find(addr)?;
        let mask = self.masks.get(slot);
        // Conceal the slot so array-wide packed scans only see valid
        // lines' reveal bits.
        self.masks.set(slot, RevealMask::all_concealed());
        self.keys[slot] &= !VALID;
        Some((key_state(self.keys[slot]), mask))
    }

    /// Number of valid lines (for tests and occupancy stats).
    #[must_use]
    pub fn occupancy(&self) -> usize {
        self.keys.iter().filter(|&&k| key_valid(k)).count()
    }

    /// Total revealed words across all resident lines, computed by
    /// `u64` popcount over the packed mask array — no per-way walk.
    ///
    /// Invalidated slots are concealed eagerly, so the packed count
    /// equals the sum over valid lines.
    #[must_use]
    pub fn revealed_words(&self) -> u64 {
        self.masks.count_revealed()
    }

    /// Iterates over `(line_addr, state, mask)` of every valid line.
    pub fn iter_lines(&self) -> impl Iterator<Item = (u64, Mesi, RevealMask)> + '_ {
        self.keys
            .iter()
            .enumerate()
            .filter(|(_, &k)| key_valid(k))
            .map(move |(slot, &k)| (self.line_addr(slot), key_state(k), self.masks.get(slot)))
    }

    /// Invariant sweep over this array's internal bookkeeping:
    ///
    /// * an **invalid** slot's packed reveal mask must be fully
    ///   concealed ([`CacheArray::invalidate`] conceals eagerly, and
    ///   [`CacheArray::revealed_words`] depends on it);
    /// * a **valid** way must be in a readable MESI state — `Invalid`
    ///   metadata under a set valid bit is a contradiction
    ///   ([`CacheArray::fill`] asserts readability on entry);
    /// * no set may hold two valid ways with the same tag (lookups
    ///   would resolve nondeterministically).
    ///
    /// Violations are appended to `out` labeled with `site`.
    pub fn audit(&self, site: &str, out: &mut Vec<recon::AuditViolation>) {
        let ways = self.geom.ways();
        for (set, keys) in self.keys.chunks(ways).enumerate() {
            for (way, &k) in keys.iter().enumerate() {
                let mask = self.masks.get(set * ways + way);
                if !key_valid(k) && mask.bits() != 0 {
                    out.push(recon::AuditViolation::new(
                        "mask-on-invalid-way",
                        site,
                        format!(
                            "set {set} way {way}: invalid slot carries reveal bits {:#04x}",
                            mask.bits()
                        ),
                    ));
                }
                if key_valid(k) && !key_state(k).readable() {
                    out.push(recon::AuditViolation::new(
                        "valid-way-unreadable",
                        site,
                        format!(
                            "set {set} way {way} (line {:#x}): valid bit set but state Invalid",
                            self.geom.unslice(set, key_tag(k))
                        ),
                    ));
                }
            }
            for (i, &a) in keys.iter().enumerate() {
                if !key_valid(a) {
                    continue;
                }
                for &b in &keys[i + 1..] {
                    if key_valid(b) && key_tag(a) == key_tag(b) {
                        out.push(recon::AuditViolation::new(
                            "duplicate-tag",
                            site,
                            format!(
                                "set {set}: two valid ways hold line {:#x}",
                                self.geom.unslice(set, key_tag(a))
                            ),
                        ));
                    }
                }
            }
        }
    }

    /// Soft-error injection hook: flips one random bit of one slot's
    /// packed reveal mask (valid or invalid — soft errors do not read
    /// the valid bit first). Returns a description of the flip.
    pub fn inject_mask_bit(&mut self, rng: &mut recon_isa::rng::SplitMix64) -> Option<String> {
        use recon_isa::rng::Rng as _;
        let slots = self.keys.len();
        if slots == 0 {
            return None;
        }
        let slot = rng.next_u64() as usize % slots;
        let word = rng.next_u64() as usize % recon::WORDS_PER_LINE;
        let mut mask = self.masks.get(slot);
        if mask.is_revealed(word) {
            mask.conceal(word);
        } else {
            mask.reveal(word);
        }
        self.masks.set(slot, mask);
        let (set, way) = (slot / self.geom.ways(), slot % self.geom.ways());
        let valid = key_valid(self.keys[slot]);
        Some(format!(
            "mask bit {word} of set {set} way {way} flipped (way {})",
            if valid { "valid" } else { "invalid" }
        ))
    }

    /// Soft-error injection hook: overwrites the MESI state of a random
    /// *valid* way with a different random state (possibly `Invalid`,
    /// modeling a decayed state field). Returns a description, or
    /// `None` when the array holds no valid line.
    pub fn inject_state_flip(&mut self, rng: &mut recon_isa::rng::SplitMix64) -> Option<String> {
        use recon_isa::rng::Rng as _;
        let valid: Vec<usize> = (0..self.keys.len())
            .filter(|&slot| key_valid(self.keys[slot]))
            .collect();
        let &slot = valid.get(rng.next_u64() as usize % valid.len().max(1))?;
        let old = key_state(self.keys[slot]);
        let new = MESI[rng.next_u64() as usize % MESI.len()];
        let new = if new == old {
            MESI[(old as usize + 1) % MESI.len()]
        } else {
            new
        };
        self.set_slot_state(slot, new);
        Some(format!(
            "line {:#x}: MESI {old:?} -> {new:?}",
            self.line_addr(slot)
        ))
    }

    /// Whether `slot` was never filled: its key and LRU tick are zero (a
    /// fill stamps a tick of at least 1, and it stays), and so is every
    /// field a read restores, since a read conceals an invalid slot.
    fn is_blank(&self, slot: usize) -> bool {
        self.keys[slot] == 0 && self.last_use[slot] == 0
    }

    /// Visits the LRU clock, the array's dimensions and then every slot
    /// that is not [blank](Self::is_blank), in ascending order: its index,
    /// valid flag, tag, MESI state, mask and LRU timestamp. Invalid ways
    /// that were once filled are visited with their stale tags, states
    /// and timestamps, so replacement decisions replay identically after
    /// a restore. A read blanks the array first. Geometry is *not*
    /// stored: only its dimensions, which a read checks against this
    /// array's configured geometry.
    ///
    /// # Errors
    ///
    /// Fails if the stored dimensions disagree with this array's (the
    /// run was checkpointed under a different cache configuration), a
    /// slot index is past the array, repeats or descends, a stored slot
    /// is blank, a tag is wider than any address yields, or the stream
    /// is corrupt.
    pub fn codec(&mut self, c: &mut impl Codec) -> Result<(), SnapError> {
        c.tag(b"CAR2")?;
        c.u64(&mut self.tick)?;
        let (mut sets, mut ways) = (self.geom.num_sets() as u32, self.geom.ways() as u32);
        c.u32(&mut sets)?;
        c.u32(&mut ways)?;
        if (sets as usize, ways as usize) != (self.geom.num_sets(), self.geom.ways()) {
            return Err(c.fail(format!(
                "cache dimensions {sets}x{ways} do not match configured {}x{}",
                self.geom.num_sets(),
                self.geom.ways()
            )));
        }
        let mut slots: Vec<u32> = if c.reads() {
            self.keys.fill(0);
            self.last_use.fill(0);
            self.masks.clear();
            Vec::new()
        } else {
            (0..self.keys.len() as u32)
                .filter(|&slot| !self.is_blank(slot as usize))
                .collect()
        };
        // The lowest index the next stored slot may have.
        let mut next = 0;
        c.seq(&mut slots, |c, slot| {
            c.u32(slot)?;
            let slot = *slot as usize;
            if slot >= self.keys.len() {
                return Err(c.fail(format!(
                    "cache slot {slot} is past the array's {} slots",
                    self.keys.len()
                )));
            }
            if slot < next {
                return Err(c.fail(format!(
                    "cache slot {slot} does not ascend past slot {}",
                    next - 1
                )));
            }
            next = slot + 1;
            let k = self.keys[slot];
            let mut valid = key_valid(k);
            let mut tag = key_tag(k);
            let mut state = key_state(k) as u8;
            let mut mask = self.masks.get(slot).bits();
            c.bool(&mut valid)?;
            c.u64(&mut tag)?;
            if tag >> (64 - TAG_SHIFT) != 0 {
                return Err(c.fail(format!("cache tag {tag:#x} out of range")));
            }
            c.u8(&mut state)?;
            let Some(&state) = MESI.get(state as usize) else {
                return Err(c.fail(format!("invalid MESI byte {state:#x}")));
            };
            c.u8(&mut mask)?;
            c.u64(&mut self.last_use[slot])?;
            if c.reads() {
                self.keys[slot] = key(tag, state, valid);
                if self.is_blank(slot) {
                    return Err(c.fail(format!("stored cache slot {slot} is blank")));
                }
                // Invalid slots stay concealed in the packed array so
                // revealed_words() counts only resident lines.
                let mask = if valid { mask } else { 0 };
                self.masks.set(slot, RevealMask::from_bits(mask));
            }
            Ok(())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recon_isa::snap::{SnapReader, SnapWriter};

    fn small() -> CacheArray {
        // 2 sets, 2 ways, 64B lines = 256 B.
        CacheArray::new(CacheGeometry::new(256, 2))
    }

    #[test]
    fn fill_and_probe() {
        let mut c = small();
        assert_eq!(
            c.fill(0x000, Mesi::Exclusive, RevealMask::all_concealed()),
            None
        );
        assert_eq!(c.state_of(0x000), Some(Mesi::Exclusive));
        assert_eq!(c.state_of(0x040), None);
        assert_eq!(c.occupancy(), 1);
    }

    #[test]
    fn sub_line_addresses_hit_same_line() {
        let mut c = small();
        c.fill(0x000, Mesi::Shared, RevealMask::all_concealed());
        assert_eq!(c.state_of(0x038), Some(Mesi::Shared));
    }

    #[test]
    fn lru_evicts_least_recently_touched() {
        let mut c = small();
        // Set 0 holds lines 0x000, 0x080, 0x100 (stride = 2 sets * 64).
        c.fill(0x000, Mesi::Shared, RevealMask::all_concealed());
        c.fill(0x080, Mesi::Shared, RevealMask::all_concealed());
        c.touch(0x000); // make 0x080 the LRU
        let ev = c
            .fill(0x100, Mesi::Shared, RevealMask::all_concealed())
            .unwrap();
        assert_eq!(ev.addr, 0x080);
        assert_eq!(c.state_of(0x000), Some(Mesi::Shared));
        assert_eq!(c.state_of(0x100), Some(Mesi::Shared));
    }

    #[test]
    fn eviction_carries_state_and_mask() {
        let mut c = small();
        let mut m = RevealMask::all_concealed();
        m.reveal(3);
        c.fill(0x000, Mesi::Modified, m);
        c.fill(0x080, Mesi::Shared, RevealMask::all_concealed());
        let ev = c
            .fill(0x100, Mesi::Shared, RevealMask::all_concealed())
            .unwrap();
        assert_eq!(
            ev,
            Evicted {
                addr: 0x000,
                state: Mesi::Modified,
                mask: m
            }
        );
    }

    #[test]
    fn refill_updates_in_place() {
        let mut c = small();
        c.fill(0x000, Mesi::Shared, RevealMask::all_concealed());
        assert_eq!(
            c.fill(0x000, Mesi::Modified, RevealMask::all_revealed()),
            None
        );
        assert_eq!(c.state_of(0x000), Some(Mesi::Modified));
        assert_eq!(c.mask_of(0x000), Some(RevealMask::all_revealed()));
        assert_eq!(c.occupancy(), 1);
    }

    #[test]
    fn invalidate_removes_and_returns() {
        let mut c = small();
        c.fill(0x000, Mesi::Modified, RevealMask::all_revealed());
        let (st, mask) = c.invalidate(0x000).unwrap();
        assert_eq!(st, Mesi::Modified);
        assert_eq!(mask, RevealMask::all_revealed());
        assert_eq!(c.state_of(0x000), None);
        assert_eq!(c.invalidate(0x000), None);
    }

    #[test]
    fn update_mask_mutates() {
        let mut c = small();
        c.fill(0x000, Mesi::Modified, RevealMask::all_concealed());
        assert!(c.update_mask(0x000, |m| m.reveal(5)));
        assert!(c.mask_of(0x000).unwrap().is_revealed(5));
        assert!(!c.update_mask(0x040, |m| m.reveal(1)), "absent line");
    }

    #[test]
    fn or_mask_merges_via_packed_path() {
        let mut c = small();
        c.fill(0x000, Mesi::Modified, RevealMask::from_bits(0b0001));
        assert!(c.or_mask(0x000, RevealMask::from_bits(0b1010)));
        assert_eq!(c.mask_of(0x000), Some(RevealMask::from_bits(0b1011)));
        assert!(!c.or_mask(0x040, RevealMask::all_revealed()), "absent line");
    }

    #[test]
    fn revealed_words_counts_only_resident_lines() {
        let mut c = small();
        c.fill(0x000, Mesi::Modified, RevealMask::from_bits(0b0111));
        c.fill(0x040, Mesi::Shared, RevealMask::from_bits(0b1000));
        assert_eq!(c.revealed_words(), 4);
        c.invalidate(0x000);
        assert_eq!(c.revealed_words(), 1, "invalidated slot is concealed");
        // Evicting 0x040 (set 1, along with 0x0C0 and 0x140) must drop
        // its bits from the packed count as the victim leaves.
        c.fill(0x0C0, Mesi::Shared, RevealMask::all_concealed());
        let ev = c
            .fill(0x140, Mesi::Shared, RevealMask::all_concealed())
            .unwrap();
        assert_eq!(ev.addr, 0x040);
        assert_eq!(c.revealed_words(), 0);
    }

    #[test]
    fn iter_lines_lists_valid() {
        let mut c = small();
        c.fill(0x000, Mesi::Shared, RevealMask::all_concealed());
        c.fill(0x040, Mesi::Modified, RevealMask::all_concealed());
        let mut lines: Vec<_> = c.iter_lines().map(|(a, s, _)| (a, s)).collect();
        lines.sort();
        assert_eq!(lines, vec![(0x000, Mesi::Shared), (0x040, Mesi::Modified)]);
    }

    #[test]
    fn snapshot_round_trips_masks_in_packed_store() {
        let mut c = small();
        c.fill(0x000, Mesi::Modified, RevealMask::from_bits(0b0101));
        c.fill(0x080, Mesi::Shared, RevealMask::from_bits(0b0010));
        c.invalidate(0x080);
        let mut w = SnapWriter::new();
        c.codec(&mut w).unwrap();
        let bytes = w.into_bytes();
        let mut back = small();
        back.codec(&mut SnapReader::new(&bytes)).unwrap();
        assert_eq!(back.mask_of(0x000), Some(RevealMask::from_bits(0b0101)));
        assert_eq!(back.occupancy(), 1);
        assert_eq!(back.revealed_words(), 2);
    }

    /// A snapshot of [`small`] with one resident line in slot 0.
    fn small_snapshot() -> Vec<u8> {
        let mut c = small();
        c.fill(0x000, Mesi::Modified, RevealMask::from_bits(0b0101));
        let mut w = SnapWriter::new();
        c.codec(&mut w).unwrap();
        w.into_bytes()
    }

    /// The first stored slot's index: after the `CAR2` tag, the LRU
    /// tick, the two dimensions and the count of stored slots.
    const FIRST_SLOT: usize = 4 + 8 + 4 + 4 + 4;
    /// Bytes a stored slot takes: index, valid flag, tag, MESI state,
    /// mask and LRU timestamp.
    const SLOT_BYTES: usize = 4 + 1 + 8 + 1 + 1 + 8;
    /// Slot 0's tag: after its index and valid flag.
    const SLOT0_TAG: usize = FIRST_SLOT + 4 + 1;

    fn load_small(geom: CacheGeometry, bytes: &[u8]) -> Result<CacheArray, SnapError> {
        let mut a = CacheArray::new(geom);
        a.codec(&mut SnapReader::new(bytes)).map(|()| a)
    }

    #[test]
    fn dimensions_that_do_not_match_the_configuration_are_refused() {
        let e = load_small(CacheGeometry::new(512, 2), &small_snapshot()).unwrap_err();
        assert!(
            e.what
                .contains("cache dimensions 2x2 do not match configured 4x2"),
            "{e}"
        );
    }

    #[test]
    fn an_out_of_range_tag_is_refused() {
        let mut bytes = small_snapshot();
        bytes[SLOT0_TAG..SLOT0_TAG + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let e = load_small(small().geometry(), &bytes).unwrap_err();
        assert!(e.what.contains("cache tag"), "{e}");
    }

    #[test]
    fn mesi_byte_4_is_refused() {
        let mut bytes = small_snapshot();
        assert_eq!(bytes[SLOT0_TAG + 8], Mesi::Modified as u8);
        bytes[SLOT0_TAG + 8] = 4;
        let e = load_small(small().geometry(), &bytes).unwrap_err();
        assert!(e.what.contains("invalid MESI byte 0x4"), "{e}");
    }

    #[test]
    fn only_slots_ever_filled_are_stored() {
        assert_eq!(small_snapshot().len(), FIRST_SLOT + SLOT_BYTES);
        let mut c = small();
        c.fill(0x040, Mesi::Shared, RevealMask::all_concealed());
        c.fill(0x0C0, Mesi::Modified, RevealMask::from_bits(0b11));
        c.invalidate(0x040);
        let mut w = SnapWriter::new();
        c.codec(&mut w).unwrap();
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), FIRST_SLOT + 2 * SLOT_BYTES, "slots 2 and 3");
        let slot = |i: usize| &bytes[FIRST_SLOT + i * SLOT_BYTES..][..4];
        assert_eq!(
            (slot(0), slot(1)),
            (&2u32.to_le_bytes()[..], &3u32.to_le_bytes()[..])
        );

        // A read blanks what it does not store, and re-encodes to the
        // same bytes.
        let mut back = small();
        back.fill(0x000, Mesi::Exclusive, RevealMask::all_revealed());
        back.codec(&mut SnapReader::new(&bytes)).unwrap();
        assert_eq!(back.state_of(0x000), None);
        assert_eq!(back.state_of(0x0C0), Some(Mesi::Modified));
        assert_eq!(back.revealed_words(), 2);
        let mut w = SnapWriter::new();
        back.codec(&mut w).unwrap();
        assert_eq!(w.into_bytes(), bytes);
    }

    /// A snapshot of [`small`] holding lines in slots 0 and 1.
    fn two_slot_snapshot() -> Vec<u8> {
        let mut c = small();
        c.fill(0x000, Mesi::Modified, RevealMask::from_bits(0b0101));
        c.fill(0x080, Mesi::Shared, RevealMask::all_concealed());
        let mut w = SnapWriter::new();
        c.codec(&mut w).unwrap();
        w.into_bytes()
    }

    #[test]
    fn a_slot_index_past_the_array_is_refused() {
        let mut bytes = small_snapshot();
        bytes[FIRST_SLOT..FIRST_SLOT + 4].copy_from_slice(&4u32.to_le_bytes());
        let e = load_small(small().geometry(), &bytes).unwrap_err();
        assert!(
            e.what.contains("cache slot 4 is past the array's 4 slots"),
            "{e}"
        );
    }

    #[test]
    fn slot_indices_that_do_not_ascend_are_refused() {
        let mut bytes = two_slot_snapshot();
        let second = FIRST_SLOT + SLOT_BYTES;
        assert_eq!(bytes[second..second + 4], 1u32.to_le_bytes());
        for (index, past) in [(0u32, 0u32), (1, 1)] {
            bytes[FIRST_SLOT..FIRST_SLOT + 4].copy_from_slice(&past.to_le_bytes());
            bytes[second..second + 4].copy_from_slice(&index.to_le_bytes());
            let e = load_small(small().geometry(), &bytes).unwrap_err();
            let want = format!("cache slot {index} does not ascend past slot {past}");
            assert!(e.what.contains(&want), "{e}");
        }
    }

    #[test]
    fn a_stored_blank_slot_is_refused() {
        let mut bytes = small_snapshot();
        // Clear the slot's valid flag, tag, state, mask and timestamp.
        bytes[FIRST_SLOT + 4..FIRST_SLOT + SLOT_BYTES].fill(0);
        let e = load_small(small().geometry(), &bytes).unwrap_err();
        assert!(e.what.contains("stored cache slot 0 is blank"), "{e}");
    }
}
