//! Data memory abstraction and a paged flat-store implementation.

use std::borrow::Cow;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

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

/// The pages of one [`MemImage`], shared by every live [`SparseMem`]
/// built from it and built on first touch.
///
/// The image holds this set only through a `Weak`, and each memory
/// built from the image holds it strongly, so the set and every page in
/// it are freed with the last such memory. It keeps its own handle on
/// the image's sorted words, since a memory can outlive its image.
#[derive(Debug)]
pub(crate) struct ImagePages {
    /// The image's words, ascending by address.
    words: Arc<Vec<(u64, u64)>>,
    /// Start of each page's run of words in `words`, ascending, plus
    /// `words.len()` as a sentinel. A run's position is its page's
    /// number within the set.
    starts: Vec<usize>,
    /// Each run's built page, while some memory may still read it
    /// unchanged.
    built: Mutex<Vec<Option<Arc<Page>>>>,
}

impl ImagePages {
    /// Indexes `words` (ascending by address) by page; builds no page.
    pub(crate) fn new(words: Arc<Vec<(u64, u64)>>) -> Self {
        let mut starts = Vec::new();
        let mut at = 0;
        for run in words.chunk_by(|a, b| page_of(a.0) == page_of(b.0)) {
            starts.push(at);
            at += run.len();
        }
        starts.push(at);
        let built = Mutex::new(vec![None; starts.len() - 1]);
        ImagePages {
            words,
            starts,
            built,
        }
    }

    /// The image's words on page number `run`.
    fn run(&self, run: u32) -> &[(u64, u64)] {
        let run = run as usize;
        &self.words[self.starts[run]..self.starts[run + 1]]
    }

    /// Page index and page number of every page of the image.
    fn runs(&self) -> impl Iterator<Item = (u64, u32)> + '_ {
        let runs = u32::try_from(self.starts.len() - 1).expect("page count fits in u32");
        (0..runs).map(|run| (page_of(self.run(run)[0].0), run))
    }

    /// Page `run` as the image defines it.
    fn build(&self, run: u32) -> Page {
        let mut page = [0; PAGE_WORDS];
        for &(addr, value) in self.run(run) {
            page[word_in_page(addr)] = value;
        }
        page
    }

    /// The image's word at `addr`, on page number `run`.
    fn word(&self, run: u32, addr: u64) -> u64 {
        let words = self.run(run);
        words
            .binary_search_by_key(&addr, |&(a, _)| a)
            .map_or(0, |i| words[i].1)
    }

    fn lock(&self) -> MutexGuard<'_, Vec<Option<Arc<Page>>>> {
        self.built.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Shared page `run`, built now if no memory holds it.
    fn share(&self, run: u32) -> Arc<Page> {
        let mut built = self.lock();
        Arc::clone(built[run as usize].get_or_insert_with(|| Arc::new(self.build(run))))
    }

    /// Makes shared page `run` the caller's own, to write. When the
    /// caller is the last memory that shares it, the set lets go of the
    /// page rather than keep a second copy of it.
    fn own(&self, run: u32, page: Arc<Page>) -> Box<Page> {
        {
            let mut built = self.lock();
            let slot = &mut built[run as usize];
            if slot
                .as_ref()
                .is_some_and(|held| Arc::ptr_eq(held, &page) && Arc::strong_count(&page) == 2)
            {
                *slot = None;
            }
        }
        Box::new(Arc::unwrap_or_clone(page))
    }
}

/// One resident page of a [`SparseMem`].
#[derive(Clone, Debug)]
enum Frame {
    /// An image page this memory has not touched yet, by its number in
    /// the image's page set.
    Pristine(u32),
    /// An image page as the page set built it, shared with the image's
    /// other memories; read-only.
    Shared(u32, Arc<Page>),
    /// A page this memory alone holds, written in place.
    Owned(Box<Page>),
}

impl Frame {
    /// The page's words, unless it is still pristine.
    #[inline]
    fn words(&self) -> Option<&Page> {
        match self {
            Frame::Pristine(_) => None,
            Frame::Shared(_, page) => Some(&**page),
            Frame::Owned(page) => Some(&**page),
        }
    }
}

/// Sparse paged memory. Uninitialized words read as zero.
///
/// This sits on the simulator's hottest path — every functional load and
/// store of every core, every cycle — so it is a flat array walk, not a
/// per-word hash lookup: addresses map to 4 KiB pages held in an
/// [`FxHashMap`] (allocated on first write, or built from the image on
/// first touch), and
/// the word index within the page is a shift-and-mask. Compared to the
/// previous word-granular SipHash map this is one cheap hash per *page*
/// reference instead of one expensive hash per *word* reference, plus
/// cache-friendly locality for neighbouring words.
///
/// The most recently accessed page is held out of the map in a hot
/// slot, so sequential and loop-local accesses skip the hash probe; a
/// miss swaps it back into the map and promotes the new page.
///
/// A memory built [from an image](SparseMem::from_image) shares that
/// image's pages with every other live memory built from it, and each
/// page is built from the image's words on its first touch by any of
/// them. A memory's pages are therefore pristine (image pages it has
/// not touched), shared (read-only, held by the image's page set) or
/// owned (written in place). A write to a shared page copies it first,
/// unless this memory is its last sharer, which takes it from the set.
/// Only stores to owned pages in the hot slot take the fast path, a
/// plain store. Systems built from one workload keep one copy of the
/// pages they only read, and no copy of those no run touches. None of
/// this is visible: equality, [`peek`](SparseMem::peek),
/// [`resident_pages`](SparseMem::resident_pages), `clone` and the
/// snapshot bytes are as if every image page were built up front.
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
    pages: FxHashMap<u64, Frame>,
    /// Page index of the hot slot (meaningful only while `hot` is
    /// `Some`). Invariant: the hot page is never also in `pages`, and
    /// is never pristine.
    hot_page: u64,
    hot: Option<Frame>,
    /// The page set of the image this memory was built from, which its
    /// pristine pages are built from.
    image: Option<Arc<ImagePages>>,
}

impl PartialEq for SparseMem {
    /// Logical equality over resident pages: where the hot slot points,
    /// and which pages are built or shared, are access-pattern
    /// artifacts, not state.
    fn eq(&self, other: &Self) -> bool {
        self.resident_pages() == other.resident_pages()
            && self.frames().all(|(idx, mine)| {
                other
                    .frame(idx)
                    .is_some_and(|theirs| self.contents(mine) == other.contents(theirs))
            })
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

    /// Creates a memory pre-loaded from a program image. Every image
    /// page is resident from the start, but none is built: each is
    /// built on its first touch by any memory of the image, shared
    /// between them, and copied only to be written.
    #[must_use]
    pub fn from_image(image: &MemImage) -> Self {
        let Some(set) = image.page_set() else {
            return SparseMem::new();
        };
        SparseMem {
            pages: set
                .runs()
                .map(|(idx, run)| (idx, Frame::Pristine(run)))
                .collect(),
            hot_page: 0,
            hot: None,
            image: Some(set),
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

    /// The page set pristine pages are built from.
    fn image(&self) -> &ImagePages {
        self.image
            .as_deref()
            .expect("a memory with pristine pages has an image")
    }

    /// The resident frame at `idx`, checking the hot slot first.
    #[inline]
    fn frame(&self, idx: u64) -> Option<&Frame> {
        if self.hot_page == idx {
            if let Some(hot) = &self.hot {
                return Some(hot);
            }
        }
        self.pages.get(&idx)
    }

    /// All resident frames, in map order plus the hot slot.
    fn frames(&self) -> impl Iterator<Item = (u64, &Frame)> {
        self.pages
            .iter()
            .map(|(idx, frame)| (*idx, frame))
            .chain(self.hot.as_ref().map(|frame| (self.hot_page, frame)))
    }

    /// A frame's words; a pristine page is built into a temporary.
    fn contents<'a>(&'a self, frame: &'a Frame) -> Cow<'a, Page> {
        match frame {
            Frame::Pristine(run) => Cow::Owned(self.image().build(*run)),
            Frame::Shared(_, page) => Cow::Borrowed(page),
            Frame::Owned(page) => Cow::Borrowed(page),
        }
    }

    /// Moves `idx` into the hot slot, flushing the previous occupant
    /// back into the map; a pristine page is shared from the image's
    /// page set on the way. Returns `false` when the page is not
    /// resident (the hot slot is left untouched).
    fn promote(&mut self, idx: u64) -> bool {
        let Some(mut frame) = self.pages.remove(&idx) else {
            return false;
        };
        if let Frame::Pristine(run) = frame {
            frame = Frame::Shared(run, self.image().share(run));
        }
        if let Some(old) = self.hot.replace(frame) {
            self.pages.insert(self.hot_page, old);
        }
        self.hot_page = idx;
        true
    }

    /// The write path past the hot owned page: makes `idx` hot and this
    /// memory's own (allocating it on first touch), then stores.
    #[inline(never)]
    fn write_cold(&mut self, idx: u64, addr: u64, value: u64) {
        let hot = self.hot_page == idx && self.hot.is_some();
        if !hot && !self.promote(idx) {
            // First touch: allocate straight into the hot slot.
            let fresh = Frame::Owned(Box::new([0u64; PAGE_WORDS]));
            if let Some(old) = self.hot.replace(fresh) {
                self.pages.insert(self.hot_page, old);
            }
            self.hot_page = idx;
        }
        let mut page = match self.hot.take() {
            Some(Frame::Shared(run, page)) => self.image().own(run, page),
            Some(Frame::Owned(page)) => page,
            _ => unreachable!("the hot page is resident and never pristine"),
        };
        page[word_in_page(addr)] = value;
        self.hot = Some(Frame::Owned(page));
    }

    /// Serializes resident pages in ascending page order (canonical
    /// bytes: the same contents always encode identically, regardless
    /// of hash-map iteration order, which page is hot, or which image
    /// pages are built yet).
    pub fn save_snap(&self, w: &mut SnapWriter) {
        w.tag(b"SMEM");
        let mut indices: Vec<u64> = self.frames().map(|(idx, _)| idx).collect();
        indices.sort_unstable();
        w.u64(indices.len() as u64);
        for idx in indices {
            w.u64(idx);
            let frame = self.frame(idx).expect("resident page");
            for word in self.contents(frame).iter() {
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
            pages.insert(idx, Frame::Owned(page));
        }
        Ok(SparseMem {
            pages,
            ..SparseMem::default()
        })
    }

    /// Reads without requiring `&mut self` (the trait takes `&mut` so
    /// that timing models can update internal state on reads). Shared
    /// access cannot rotate the hot slot or build a page, so repeated
    /// off-hot peeks pay the map probe, and a peek at a pristine page
    /// searches the image's words; the `&mut` paths promote.
    #[must_use]
    #[inline]
    pub fn peek(&self, addr: u64) -> u64 {
        debug_assert_eq!(addr % 8, 0, "misaligned read at {addr:#x}");
        match self.frame(page_of(addr)) {
            Some(Frame::Pristine(run)) => self.image().word(*run, addr),
            Some(Frame::Shared(_, page)) => page[word_in_page(addr)],
            Some(Frame::Owned(page)) => page[word_in_page(addr)],
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
            if let Some(page) = self.hot.as_ref().and_then(Frame::words) {
                return page[word_in_page(addr)];
            }
        }
        if self.promote(idx) {
            let hot = self.hot.as_ref().and_then(Frame::words);
            hot.expect("just promoted")[word_in_page(addr)]
        } else {
            0
        }
    }

    #[inline]
    fn write(&mut self, addr: u64, value: u64) {
        debug_assert_eq!(addr % 8, 0, "misaligned write at {addr:#x}");
        let idx = page_of(addr);
        if self.hot_page == idx {
            if let Some(Frame::Owned(page)) = &mut self.hot {
                page[word_in_page(addr)] = value;
                return;
            }
        }
        self.write_cold(idx, addr, value);
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

    /// Whether `mem`'s image page set holds page number `run` built.
    fn set_holds(mem: &SparseMem, run: u32) -> bool {
        mem.image().lock()[run as usize].is_some()
    }

    #[test]
    fn memories_of_one_image_share_its_pages() {
        let img: MemImage = [(0x10, 7), (0x2008, 8)].into_iter().collect();
        let mut a = SparseMem::from_image(&img);
        let mut b = SparseMem::from_image(&img);
        assert!(
            Arc::ptr_eq(a.image.as_ref().unwrap(), b.image.as_ref().unwrap()),
            "one page set per image"
        );
        assert_eq!(a.resident_pages(), 2, "image pages are resident unbuilt");
        assert!(!set_holds(&a, 0) && !set_holds(&a, 1), "nothing built yet");
        assert_eq!(b.peek(0x2008), 8, "peek builds nothing");
        assert!(!set_holds(&a, 1));
        assert_eq!(a.read(0x10), 7);
        assert_eq!(b.read(0x10), 7);
        assert!(set_holds(&a, 0) && !set_holds(&a, 1), "built on touch");
        // `a` copies the page it writes while `b` still shares it; `b`,
        // the last sharer, takes the page out of the set.
        a.write(0x10, 1);
        assert!(set_holds(&a, 0), "a copied the shared page");
        b.write(0x18, 2);
        assert!(!set_holds(&a, 0), "b took the page");
        assert_eq!((a.peek(0x10), a.peek(0x18)), (1, 0));
        assert_eq!((b.peek(0x10), b.peek(0x18)), (7, 2));
        // A later memory rebuilds the page from the image's words.
        assert_eq!(SparseMem::from_image(&img).read(0x10), 7);
    }

    #[test]
    fn page_set_is_freed_with_its_last_memory() {
        let img: MemImage = [(0x10, 7), (0x2008, 8)].into_iter().collect();
        let mut a = SparseMem::from_image(&img);
        let b = SparseMem::from_image(&img);
        assert_eq!(a.read(0x10), 7);
        let set = Arc::downgrade(a.image.as_ref().expect("built from an image"));
        let page = match a.frame(0) {
            Some(Frame::Shared(_, page)) => Arc::downgrade(page),
            other => panic!("a read image page is shared, got {other:?}"),
        };
        drop(a);
        assert!(set.upgrade().is_some(), "b still holds the set");
        assert!(page.upgrade().is_some(), "the set still holds the page");
        drop(b);
        assert!(set.upgrade().is_none(), "the set went with the last memory");
        assert!(page.upgrade().is_none(), "its pages went with it");
        // The image outlives its set and makes a fresh one on demand.
        let mut c = SparseMem::from_image(&img);
        assert_eq!(c.read(0x2008), 8);
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
