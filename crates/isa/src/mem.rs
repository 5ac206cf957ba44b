//! Data memory abstraction and a paged flat-store implementation.

use crate::hash::FxHashMap;
use crate::program::MemImage;
use crate::snap::{SnapError, SnapReader, SnapWriter};

/// Word-granular data memory as seen by the functional semantics.
///
/// All accesses are aligned 8-byte words. Uninitialized words read as 0.
pub trait DataMem {
    /// Reads the word at the (aligned) address.
    fn read(&mut self, addr: u64) -> u64;
    /// Writes the word at the (aligned) address.
    fn write(&mut self, addr: u64, value: u64);
}

/// Page granularity: 4 KiB = 512 words. Large enough to amortize the
/// page lookup over hundreds of neighbouring accesses, small enough
/// that sparse workload images stay sparse.
const PAGE_SHIFT: u32 = 12;
/// Words per page.
const PAGE_WORDS: usize = 1 << (PAGE_SHIFT - 3);
/// Word-index mask within a page.
const WORD_MASK: u64 = PAGE_WORDS as u64 - 1;

/// One zero-initialized page of backing store.
type Page = [u64; PAGE_WORDS];

/// Sparse paged memory. Uninitialized words read as zero.
///
/// This sits on the simulator's hottest path — every functional load and
/// store of every core, every cycle — so it is a flat array walk, not a
/// per-word hash lookup: addresses map to 4 KiB pages held in an
/// [`FxHashMap`] (allocated on first write), and
/// the word index within the page is a shift-and-mask. Compared to the
/// previous word-granular SipHash map this is one cheap hash per *page*
/// reference instead of one expensive hash per *word* reference, plus
/// cache-friendly locality for neighbouring words.
///
/// On top of the paged map sits a **single-entry last-page cache**: the
/// most recently accessed page is held out of the map in a dedicated
/// slot, so the sequential and loop-local access patterns that dominate
/// every workload skip the hash probe entirely and go straight to an
/// index into the hot page. A miss swaps the hot page back into the map
/// and promotes the new one — two map operations, amortized over the
/// hundreds of subsequent same-page hits.
///
/// ```
/// use recon_isa::{DataMem, SparseMem};
///
/// let mut m = SparseMem::new();
/// assert_eq!(m.read(0x1000), 0);
/// m.write(0x1000, 99);
/// assert_eq!(m.read(0x1000), 99);
/// ```
#[derive(Clone, Debug, Default)]
pub struct SparseMem {
    pages: FxHashMap<u64, Box<Page>>,
    /// Page index of the hot slot (meaningful only while `hot` is
    /// `Some`). Invariant: the hot page is never also in `pages`.
    hot_page: u64,
    hot: Option<Box<Page>>,
}

impl PartialEq for SparseMem {
    /// Logical equality over resident pages: where the hot slot points
    /// is an access-pattern artifact, not state.
    fn eq(&self, other: &Self) -> bool {
        self.resident_pages() == other.resident_pages()
            && self
                .iter_pages()
                .all(|(idx, page)| other.page_ref(idx) == Some(page))
    }
}

impl Eq for SparseMem {}

#[inline]
fn page_of(addr: u64) -> u64 {
    addr >> PAGE_SHIFT
}

#[inline]
fn word_in_page(addr: u64) -> usize {
    ((addr >> 3) & WORD_MASK) as usize
}

impl SparseMem {
    /// Creates an empty (all-zero) memory.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a memory pre-loaded from a program image. The image is
    /// address-sorted, so each page is built once from its run of
    /// words and goes straight into the map; the hot slot starts empty.
    #[must_use]
    pub fn from_image(image: &MemImage) -> Self {
        let mut pages = FxHashMap::default();
        for run in image.words().chunk_by(|a, b| page_of(a.0) == page_of(b.0)) {
            let mut page = Box::new([0u64; PAGE_WORDS]);
            for &(addr, value) in run {
                page[word_in_page(addr)] = value;
            }
            pages.insert(page_of(run[0].0), page);
        }
        SparseMem {
            pages,
            hot_page: 0,
            hot: None,
        }
    }

    /// Number of resident backing pages (4 KiB each).
    #[must_use]
    pub fn resident_pages(&self) -> usize {
        self.pages.len() + usize::from(self.hot.is_some())
    }

    /// Number of words with backing store allocated (an upper bound on
    /// the words ever written: writes allocate whole pages).
    #[must_use]
    pub fn resident_words(&self) -> usize {
        self.resident_pages() * PAGE_WORDS
    }

    /// The resident page at `idx`, checking the hot slot first.
    #[inline]
    fn page_ref(&self, idx: u64) -> Option<&Page> {
        if self.hot_page == idx {
            if let Some(hot) = &self.hot {
                return Some(hot);
            }
        }
        self.pages.get(&idx).map(|p| &**p)
    }

    /// All resident pages, in map order plus the hot slot.
    fn iter_pages(&self) -> impl Iterator<Item = (u64, &Page)> {
        self.pages
            .iter()
            .map(|(idx, p)| (*idx, &**p))
            .chain(self.hot.as_deref().map(|p| (self.hot_page, p)))
    }

    /// Moves `idx` into the hot slot, flushing the previous occupant
    /// back into the map. Returns `false` when the page is not resident
    /// (the hot slot is left untouched).
    fn promote(&mut self, idx: u64) -> bool {
        let Some(page) = self.pages.remove(&idx) else {
            return false;
        };
        if let Some(old) = self.hot.replace(page) {
            self.pages.insert(self.hot_page, old);
        }
        self.hot_page = idx;
        true
    }

    /// Serializes resident pages in ascending page order (canonical
    /// bytes: the same contents always encode identically, regardless
    /// of hash-map iteration order or which page is hot).
    pub fn save_snap(&self, w: &mut SnapWriter) {
        w.tag(b"SMEM");
        let mut indices: Vec<u64> = self.pages.keys().copied().collect();
        if self.hot.is_some() {
            indices.push(self.hot_page);
        }
        indices.sort_unstable();
        w.u64(indices.len() as u64);
        for idx in indices {
            w.u64(idx);
            let page = self.page_ref(idx).expect("resident page");
            for word in page.iter() {
                w.u64(*word);
            }
        }
    }

    /// Reconstructs a memory from [`SparseMem::save_snap`] bytes.
    ///
    /// # Errors
    ///
    /// Propagates decode errors from a truncated or corrupt stream.
    pub fn load_snap(r: &mut SnapReader<'_>) -> Result<SparseMem, SnapError> {
        r.expect_tag(b"SMEM")?;
        let count = r.u64()? as usize;
        let mut pages = FxHashMap::default();
        for _ in 0..count {
            let idx = r.u64()?;
            let mut page = Box::new([0u64; PAGE_WORDS]);
            for word in page.iter_mut() {
                *word = r.u64()?;
            }
            pages.insert(idx, page);
        }
        Ok(SparseMem {
            pages,
            hot_page: 0,
            hot: None,
        })
    }

    /// Reads without requiring `&mut self` (the trait takes `&mut` so
    /// that timing models can update internal state on reads). Shared
    /// access cannot rotate the hot slot, so repeated off-hot peeks pay
    /// the map probe; the `&mut` paths promote.
    #[must_use]
    #[inline]
    pub fn peek(&self, addr: u64) -> u64 {
        debug_assert_eq!(addr % 8, 0, "misaligned read at {addr:#x}");
        match self.page_ref(page_of(addr)) {
            Some(page) => page[word_in_page(addr)],
            None => 0,
        }
    }
}

impl DataMem for SparseMem {
    #[inline]
    fn read(&mut self, addr: u64) -> u64 {
        debug_assert_eq!(addr % 8, 0, "misaligned read at {addr:#x}");
        let idx = page_of(addr);
        if self.hot_page == idx {
            if let Some(hot) = &self.hot {
                return hot[word_in_page(addr)];
            }
        }
        if self.promote(idx) {
            self.hot.as_ref().expect("just promoted")[word_in_page(addr)]
        } else {
            0
        }
    }

    #[inline]
    fn write(&mut self, addr: u64, value: u64) {
        debug_assert_eq!(addr % 8, 0, "misaligned write at {addr:#x}");
        let idx = page_of(addr);
        if self.hot_page == idx {
            if let Some(hot) = &mut self.hot {
                hot[word_in_page(addr)] = value;
                return;
            }
        }
        if !self.promote(idx) {
            // First touch: allocate straight into the hot slot.
            if let Some(old) = self.hot.replace(Box::new([0u64; PAGE_WORDS])) {
                self.pages.insert(self.hot_page, old);
            }
            self.hot_page = idx;
        }
        self.hot.as_mut().expect("hot page resident")[word_in_page(addr)] = value;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uninitialized_reads_zero() {
        let mut m = SparseMem::new();
        assert_eq!(m.read(0x0), 0);
        assert_eq!(m.read(0xFFF8), 0);
        assert_eq!(m.resident_pages(), 0, "reads allocate nothing");
    }

    #[test]
    fn write_then_read() {
        let mut m = SparseMem::new();
        m.write(0x8, 1234);
        assert_eq!(m.read(0x8), 1234);
        assert_eq!(m.peek(0x8), 1234);
        assert_eq!(m.resident_pages(), 1);
        assert_eq!(m.resident_words(), PAGE_WORDS);
    }

    #[test]
    fn from_image_preloads() {
        let img: MemImage = [(0x10, 7)].into_iter().collect();
        let mut m = SparseMem::from_image(&img);
        assert_eq!(m.read(0x10), 7);
    }

    #[test]
    fn page_boundaries_are_independent_words() {
        let mut m = SparseMem::new();
        // Last word of page 0, first word of page 1.
        m.write(0x0FF8, 1);
        m.write(0x1000, 2);
        assert_eq!(m.read(0x0FF8), 1);
        assert_eq!(m.read(0x1000), 2);
        assert_eq!(m.resident_pages(), 2);
        // Untouched neighbours on both pages stay zero.
        assert_eq!(m.read(0x0FF0), 0);
        assert_eq!(m.read(0x1008), 0);
    }

    #[test]
    fn distant_addresses_do_not_alias() {
        let mut m = SparseMem::new();
        // Same word-in-page index, different pages.
        m.write(0x0008, 10);
        m.write(0x0010_0008, 20);
        m.write(0xFFFF_FFFF_FFFF_F008, 30);
        assert_eq!(m.read(0x0008), 10);
        assert_eq!(m.read(0x0010_0008), 20);
        assert_eq!(m.read(0xFFFF_FFFF_FFFF_F008), 30);
    }

    #[test]
    fn snapshot_round_trip_is_canonical() {
        let mut m = SparseMem::new();
        m.write(0x8, 1);
        m.write(0x1000, 2);
        m.write(0xFFFF_FFFF_FFFF_F008, 3);
        let mut w = crate::snap::SnapWriter::new();
        m.save_snap(&mut w);
        let bytes = w.into_bytes();
        let mut r = crate::snap::SnapReader::new(&bytes);
        let restored = SparseMem::load_snap(&mut r).unwrap();
        assert!(r.is_exhausted());
        assert_eq!(restored, m);
        // Canonical bytes: a clone (fresh hash-map iteration order)
        // serializes identically.
        let mut w2 = crate::snap::SnapWriter::new();
        restored.save_snap(&mut w2);
        assert_eq!(w2.into_bytes(), bytes);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "misaligned")]
    fn misaligned_write_panics_in_debug() {
        let mut m = SparseMem::new();
        m.write(0x3, 1);
    }

    #[test]
    fn hot_slot_rotation_preserves_contents() {
        // Ping-pong across pages: every access rotates the hot slot,
        // and nothing is lost or aliased in the swaps.
        let mut m = SparseMem::new();
        m.write(0x0000, 1); // page 0 becomes hot
        m.write(0x1000, 2); // page 1 evicts it
        m.write(0x2000, 3); // page 2 evicts page 1
        for _ in 0..4 {
            assert_eq!(m.read(0x0000), 1);
            assert_eq!(m.read(0x1000), 2);
            assert_eq!(m.read(0x2000), 3);
        }
        assert_eq!(m.resident_pages(), 3);
    }

    #[test]
    fn equality_ignores_which_page_is_hot() {
        let mut a = SparseMem::new();
        a.write(0x0000, 7);
        a.write(0x1000, 8);
        let mut b = a.clone();
        // Leave different pages hot in each.
        a.read(0x0000);
        b.read(0x1000);
        assert_eq!(a, b);
        assert_eq!(b, a);
        b.write(0x1000, 9);
        assert_ne!(a, b);
    }

    #[test]
    fn snapshot_is_canonical_regardless_of_hot_page() {
        let mut m = SparseMem::new();
        m.write(0x8, 1);
        m.write(0x1000, 2);
        let snap_of = |mem: &SparseMem| {
            let mut w = crate::snap::SnapWriter::new();
            mem.save_snap(&mut w);
            w.into_bytes()
        };
        let first = snap_of(&m);
        m.read(0x8); // rotate the hot slot
        assert_eq!(snap_of(&m), first);
        m.read(0x1000);
        assert_eq!(snap_of(&m), first);
    }

    #[test]
    fn peek_sees_the_hot_page() {
        let mut m = SparseMem::new();
        m.write(0x2000, 5); // page is in the hot slot, not the map
        assert_eq!(m.peek(0x2000), 5);
        m.write(0x3000, 6); // 0x2000 flushed back to the map
        assert_eq!(m.peek(0x2000), 5);
        assert_eq!(m.peek(0x3000), 6);
    }
}
