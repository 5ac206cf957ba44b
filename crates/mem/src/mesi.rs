//! MESI coherence states and directory-side bookkeeping.

use core::fmt;

/// Private-cache MESI state of a line.
///
/// The derived ordering follows increasing permission:
/// `Invalid < Shared < Exclusive < Modified`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub enum Mesi {
    /// Invalid — not present.
    #[default]
    Invalid,
    /// Shared — clean, possibly other copies exist.
    Shared,
    /// Exclusive — clean, only copy; may silently upgrade to Modified.
    Exclusive,
    /// Modified — dirty, only copy; owner of the authoritative
    /// [`RevealMask`](recon::RevealMask) (§5.3).
    Modified,
}

impl Mesi {
    /// Whether the line can be read without a coherence transaction.
    #[must_use]
    pub fn readable(self) -> bool {
        !matches!(self, Mesi::Invalid)
    }

    /// Whether the line can be written without a coherence transaction.
    #[must_use]
    pub fn writable(self) -> bool {
        matches!(self, Mesi::Exclusive | Mesi::Modified)
    }

    /// Whether this copy is the *owner* of the coherent reveal mask
    /// (write permission implies mask ownership, §5.3).
    #[must_use]
    pub fn owns_mask(self) -> bool {
        self.writable()
    }
}

impl fmt::Display for Mesi {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = match self {
            Mesi::Invalid => 'I',
            Mesi::Shared => 'S',
            Mesi::Exclusive => 'E',
            Mesi::Modified => 'M',
        };
        write!(f, "{c}")
    }
}

/// A compact set of sharer core ids (the directory's sharer vector).
///
/// Supports up to 64 cores, plenty for the 4-core PARSEC configuration.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct SharerSet(u64);

impl SharerSet {
    /// The empty set.
    #[must_use]
    pub fn empty() -> Self {
        SharerSet(0)
    }

    /// A set containing a single core.
    ///
    /// # Panics
    ///
    /// Panics if `core >= 64`.
    #[must_use]
    pub fn single(core: usize) -> Self {
        let mut s = SharerSet(0);
        s.insert(core);
        s
    }

    /// Inserts a core id.
    ///
    /// # Panics
    ///
    /// Panics if `core >= 64`.
    pub fn insert(&mut self, core: usize) {
        assert!(core < 64, "core id {core} out of range");
        self.0 |= 1 << core;
    }

    /// Removes a core id.
    pub fn remove(&mut self, core: usize) {
        assert!(core < 64, "core id {core} out of range");
        self.0 &= !(1 << core);
    }

    /// Whether the set contains `core`.
    #[must_use]
    pub fn contains(&self, core: usize) -> bool {
        core < 64 && self.0 & (1 << core) != 0
    }

    /// Number of sharers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// The set as a bit vector (bit *i* = core *i*).
    pub(crate) fn bits(self) -> u64 {
        self.0
    }

    /// The set of a [`SharerSet::bits`] vector.
    pub(crate) fn from_bits(bits: u64) -> Self {
        SharerSet(bits)
    }

    /// Iterates over core ids in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        let bits = self.0;
        (0..64).filter(move |i| bits & (1 << i) != 0)
    }
}

impl FromIterator<usize> for SharerSet {
    fn from_iter<T: IntoIterator<Item = usize>>(iter: T) -> Self {
        let mut s = SharerSet::empty();
        for c in iter {
            s.insert(c);
        }
        s
    }
}

/// Directory-side state of a line (in-cache directory at the LLC).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum DirState {
    /// No private cache holds the line.
    #[default]
    Uncached,
    /// One or more private caches hold the line in S (or one in E when
    /// `exclusive` is set — the directory cannot distinguish silent
    /// E→M upgrades, so E is tracked as a potentially-dirty single owner).
    Shared(SharerSet),
    /// Exactly one private cache holds the line in E or M; it owns the
    /// authoritative reveal mask.
    Owned {
        /// The owning core.
        owner: usize,
    },
}

impl DirState {
    /// Cores that must be invalidated before another core may write.
    #[must_use]
    pub fn holders(&self) -> SharerSet {
        match *self {
            DirState::Uncached => SharerSet::empty(),
            DirState::Shared(s) => s,
            DirState::Owned { owner } => SharerSet::single(owner),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_permissions() {
        assert!(!Mesi::Invalid.readable());
        assert!(Mesi::Shared.readable() && !Mesi::Shared.writable());
        assert!(Mesi::Exclusive.writable() && Mesi::Exclusive.owns_mask());
        assert!(Mesi::Modified.writable() && Mesi::Modified.owns_mask());
        assert!(!Mesi::Shared.owns_mask());
    }

    #[test]
    fn sharer_set_basics() {
        let mut s = SharerSet::empty();
        assert!(s.is_empty());
        s.insert(0);
        s.insert(3);
        assert_eq!(s.len(), 2);
        assert!(s.contains(0) && s.contains(3) && !s.contains(1));
        s.remove(0);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![3]);
    }

    #[test]
    fn sharer_set_from_iterator() {
        let s: SharerSet = [1, 2, 5].into_iter().collect();
        assert_eq!(s.len(), 3);
        assert!(s.contains(5));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn sharer_set_bounds() {
        let mut s = SharerSet::empty();
        s.insert(64);
    }

    #[test]
    fn dir_state_holders() {
        assert!(DirState::Uncached.holders().is_empty());
        let sh = DirState::Shared([0, 2].into_iter().collect());
        assert_eq!(sh.holders().len(), 2);
        let own = DirState::Owned { owner: 1 };
        assert_eq!(own.holders().iter().collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn display_single_letter() {
        assert_eq!(Mesi::Modified.to_string(), "M");
        assert_eq!(Mesi::Invalid.to_string(), "I");
    }

    // ---------------------------------------------------------------
    // §5.3 mask-coherence edge cases, exercised directly against the
    // protocol transitions (not through whole-system runs).
    // ---------------------------------------------------------------

    use crate::config::MemConfig;
    use crate::system::MemorySystem;
    use recon::ReconConfig;

    fn proto(cores: usize) -> MemorySystem {
        MemorySystem::new(cores, MemConfig::scaled(), ReconConfig::default())
    }

    /// Reads the LLC's mask copy of `line` from a canonical snapshot.
    fn llc_mask(m: &MemorySystem, line: u64) -> u8 {
        m.snapshot()
            .llc
            .iter()
            .find(|l| l.line == line)
            .map_or(0, |l| l.mask)
    }

    #[test]
    fn reader_eviction_ors_l1_mask_into_directory_copy() {
        // Two S-state readers reveal different words of one line; both
        // evictions must OR into the directory copy, never overwrite.
        let mut m = proto(2);
        m.read(0, 0x0);
        m.read(1, 0x0); // both Shared now
        assert!(m.reveal(0, 0x0), "word 0 revealed by core 0");
        assert!(m.reveal(1, 0x8), "word 1 revealed by core 1");
        // Evict both private copies: scaled L2 is 64 KiB 16-way = 64
        // sets, so lines 4 KiB apart contend for set 0.
        for i in 1..=16u64 {
            m.read(0, i * 4096);
            m.read(1, i * 4096);
        }
        assert_eq!(m.l2_state(0, 0x0), None);
        assert_eq!(m.l2_state(1, 0x0), None);
        assert_eq!(llc_mask(&m, 0x0), 0b11, "directory ORed both reveals");
    }

    #[test]
    fn invalidated_reader_loses_its_mask_copy() {
        // Footnote 1: a reader invalidated by a writer's GetM loses its
        // mask copy entirely — the reveal does not survive anywhere.
        let mut m = proto(2);
        m.read(0, 0x40);
        m.read(1, 0x40);
        assert!(m.reveal(1, 0x48), "core 1's private reveal");
        let lost_before = m.stats().mask_bits_lost_inval;
        m.write(0, 0x40); // GetM invalidates core 1
        let snap = m.snapshot();
        let (l1, l2) = &snap.cores[1];
        assert!(l1.iter().all(|l| l.line != 0x40), "L1 copy gone");
        assert!(l2.iter().all(|l| l.line != 0x40), "L2 copy gone");
        assert_eq!(m.stats().mask_bits_lost_inval, lost_before + 1);
        assert!(!m.read(1, 0x48).revealed, "reveal did not survive");
    }

    #[test]
    fn modified_writer_owns_the_only_coherent_copy() {
        // While a writer holds M, its private mask is authoritative and
        // the directory copy is stale: a reveal set by the owner lives
        // only in its L1 until a downgrade publishes it.
        let mut m = proto(2);
        m.write(0, 0x88); // core 0: Modified
        assert!(m.reveal(0, 0x88));
        assert_eq!(m.l1_state(0, 0x88), Some(Mesi::Modified));
        assert_eq!(m.dir_state(0x88), Some(DirState::Owned { owner: 0 }));
        assert_eq!(llc_mask(&m, 0x80), 0, "directory copy is stale");
        // Core 1's GetS downgrades the owner: the owner's mask travels
        // and *overwrites* the stale directory copy.
        let r = m.read(1, 0x88);
        assert!(r.revealed, "owner's authoritative mask was forwarded");
        assert_eq!(m.l1_state(0, 0x88), Some(Mesi::Shared));
        assert_eq!(llc_mask(&m, 0x80), 0b10, "owner mask overwrote");
    }
}
