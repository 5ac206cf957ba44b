//! Data memory abstraction and a paged flat-store implementation.

use std::borrow::Cow;
use std::hash::Hasher;
use std::sync::{Arc, OnceLock};

use crate::hash::{FxHashMap, FxHasher};
use crate::program::MemImage;
use crate::snap::{Codec, SnapError};

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

/// Which words of a page an image defines: bit `w % 64` of chunk
/// `w / 64` for word `w`.
type PageMap = [u64; PAGE_WORDS / 64];

/// The words of a [`MemImage`], laid out by page at 8 bytes a word plus
/// 80 a page. A word's value is found in place by the rank of its bit,
/// so [`SparseMem`]s read untouched image pages without building them.
/// Canonical: every listed page defines a word, so equal layouts are
/// equal images.
#[derive(Clone, Default)]
pub(crate) struct ImagePages {
    /// Page numbers, ascending.
    pages: Vec<u64>,
    /// Per page, the words it defines.
    maps: Vec<PageMap>,
    /// Per page, the index in `values` of its first word (low 32 bits)
    /// and, 9 bits each from bit 32, the words it defines below chunks
    /// 2, 4 and 6, so that a rank counts the bits of at most one chunk.
    starts: Vec<u64>,
    /// The defined words' values, in address order.
    pub(crate) values: Vec<u64>,
    /// The last word's address (0 while there is none).
    last: u64,
    /// The lowest misaligned address written. Such a write defines no
    /// word; it is kept for [`Program::validate`](crate::Program::validate)
    /// to reject.
    pub(crate) misaligned: Option<u64>,
    /// The [`digest`](Self::digest), once a snapshot has asked for it.
    digest: OnceLock<u64>,
}

impl PartialEq for ImagePages {
    /// Equal words and the same misaligned address: the page starts and
    /// the last address follow from the words, and the digest is only
    /// computed or not.
    fn eq(&self, other: &Self) -> bool {
        self.pages == other.pages
            && self.maps == other.maps
            && self.values == other.values
            && self.misaligned == other.misaligned
    }
}

impl Eq for ImagePages {}

impl ImagePages {
    /// Appends the word at `addr`, or overwrites the last word if `addr`
    /// is its address; `false` (and no change) for an address below the
    /// last word's. A misaligned `addr` is only noted in `misaligned`.
    #[inline]
    pub(crate) fn push(&mut self, addr: u64, value: u64) -> bool {
        if !addr.is_multiple_of(8) {
            self.misaligned = Some(self.misaligned.map_or(addr, |a| a.min(addr)));
            return true;
        }
        self.digest.take();
        if !self.values.is_empty() && addr <= self.last {
            if addr < self.last {
                return false;
            }
            *self.values.last_mut().expect("a defined word has a value") = value;
            return true;
        }
        let (page, word) = (page_of(addr), word_in_page(addr));
        if self.pages.last() != Some(&page) {
            self.pages.push(page);
            self.maps.push([0; PAGE_WORDS / 64]);
            let start = u32::try_from(self.values.len()).expect("an image holds under 2^32 words");
            self.starts.push(start.into());
        }
        self.maps.last_mut().expect("one map a page")[word / 64] |= 1 << (word % 64);
        let start = self.starts.last_mut().expect("one start a page");
        for pair in word / 128..3 {
            *start += 1 << (32 + 9 * pair);
        }
        self.values.push(value);
        self.last = addr;
        true
    }

    /// The layout with `later` (writes in program order) written over
    /// it: a stable sort of `later`, then one walk of both in address
    /// order, in which a later write to an address wins.
    pub(crate) fn merge(self, mut later: Vec<(u64, u64)>) -> ImagePages {
        later.sort_by_key(|&(addr, _)| addr);
        let mut merged = ImagePages {
            misaligned: self.misaligned,
            ..ImagePages::default()
        };
        merged.values.reserve(self.values.len() + later.len());
        let mut later = later.into_iter().peekable();
        for (addr, value) in self.iter() {
            while let Some((a, v)) = later.next_if(|&(a, _)| a < addr) {
                merged.push(a, v);
            }
            merged.push(addr, value);
        }
        for (a, v) in later {
            merged.push(a, v);
        }
        merged
    }

    /// Frees the spare capacity of growth.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.pages.shrink_to_fit();
        self.maps.shrink_to_fit();
        self.starts.shrink_to_fit();
        self.values.shrink_to_fit();
    }

    /// The index in `values` of the first word of map chunk `chunk` of
    /// page number `run`: its page's start plus the words defined below.
    #[inline]
    fn chunk_start(&self, run: usize, chunk: usize) -> usize {
        let start = self.starts[run];
        let mut below = start & 0xffff_ffff;
        if chunk >= 2 {
            below += (start >> (32 + 9 * (chunk / 2 - 1))) & 0x1ff;
        }
        if chunk % 2 == 1 {
            below += u64::from(self.maps[run][chunk - 1].count_ones());
        }
        below as usize
    }

    /// The word at `addr` on page number `run`, if defined, given the
    /// [`chunk_start`](Self::chunk_start) of its chunk: that plus the
    /// rank of its bit within the chunk is its index in `values`.
    #[inline]
    fn word_at(&self, run: usize, addr: u64, chunk_start: usize) -> Option<u64> {
        let word = word_in_page(addr);
        let (bits, bit) = (self.maps[run][word / 64], 1u64 << (word % 64));
        (bits & bit != 0)
            .then(|| self.values[chunk_start + (bits & (bit - 1)).count_ones() as usize])
    }

    /// The word at aligned `addr`, if defined.
    pub(crate) fn get(&self, addr: u64) -> Option<u64> {
        let run = self.pages.binary_search(&page_of(addr)).ok()?;
        self.word_at(run, addr, self.chunk_start(run, word_in_page(addr) / 64))
    }

    /// `(address, value)` of every word on page numbers `runs`, in
    /// address order.
    fn words(&self, runs: std::ops::Range<usize>) -> Words<'_> {
        let at = self
            .starts
            .get(runs.start)
            .map_or(0, |&s| s as u32 as usize);
        let maps = &self.maps[runs.clone()];
        Words {
            pages: &self.pages[runs],
            maps,
            values: self.values[at..].iter(),
            run: 0,
            chunk: 0,
            bits: maps.first().map_or(0, |map| map[0]),
        }
    }

    /// `(address, value)` of every word, in address order.
    pub(crate) fn iter(&self) -> Words<'_> {
        self.words(0..self.pages.len())
    }

    /// Page number `run` as the image defines it.
    fn build(&self, run: u32) -> Page {
        let mut page = [0; PAGE_WORDS];
        for (addr, value) in self.words(run as usize..run as usize + 1) {
            page[word_in_page(addr)] = value;
        }
        page
    }

    /// Whether page `idx` holds exactly what the image defines there
    /// (and the image defines a word on it).
    fn holds(&self, idx: u64, page: &Page) -> bool {
        self.pages
            .binary_search(&idx)
            .is_ok_and(|run| *page == self.build(run as u32))
    }

    /// An FxHash of the word count and every `(address, value)`,
    /// computed on first use and kept. Snapshots of the memories built
    /// from the image store it, to be restored only into memories built
    /// from an image with equal words.
    pub(crate) fn digest(&self) -> u64 {
        *self.digest.get_or_init(|| {
            let mut h = FxHasher::default();
            h.write_usize(self.values.len());
            for (addr, value) in self.iter() {
                h.write_u64(addr);
                h.write_u64(value);
            }
            h.finish()
        })
    }
}

impl core::fmt::Debug for ImagePages {
    /// The words as `(address, value)` pairs in address order.
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// The words of an [`ImagePages`] in address order: a walk over the
/// set bits of each page's map.
pub(crate) struct Words<'a> {
    pages: &'a [u64],
    maps: &'a [PageMap],
    values: std::slice::Iter<'a, u64>,
    /// The page number and map chunk being walked, and its bits not
    /// walked yet.
    run: usize,
    chunk: usize,
    bits: u64,
}

impl Iterator for Words<'_> {
    type Item = (u64, u64);

    #[inline]
    fn next(&mut self) -> Option<(u64, u64)> {
        while self.bits == 0 {
            self.chunk += 1;
            if self.chunk == PAGE_WORDS / 64 {
                self.chunk = 0;
                self.run += 1;
            }
            self.bits = self.maps.get(self.run)?[self.chunk];
        }
        let word = self.chunk as u64 * 64 + u64::from(self.bits.trailing_zeros());
        self.bits &= self.bits - 1;
        let addr = self.pages[self.run] << PAGE_SHIFT | word << 3;
        Some((addr, *self.values.next()?))
    }
}

/// One resident page of a [`SparseMem`].
#[derive(Clone, Debug)]
enum Frame {
    /// An image page this memory has not written, by its number in the
    /// image's [`ImagePages`]; read there in place.
    Pristine(u32),
    /// A page this memory alone holds, written in place.
    Owned(Box<Page>),
}

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
/// The most recently accessed page is held out of the map in a hot
/// slot, so sequential and loop-local accesses skip the hash probe; a
/// miss swaps it back into the map and promotes the new page.
///
/// A memory built [from an image](SparseMem::from_image) holds the
/// image's words, shared with the image and every other memory built
/// from it, and builds no page to read them: a page it has not written
/// is pristine, and a read there ranks the word's bit in the image's
/// page map. Its first write builds that one page, which it owns from
/// then on. Systems built from one workload keep no copy of the pages
/// they only read. None of this is visible: equality,
/// [`peek`](SparseMem::peek),
/// [`resident_pages`](SparseMem::resident_pages) and `clone` are as if
/// every image page were built up front. A snapshot is relative to the
/// image: it holds the image's digest and only the pages the image does
/// not hold as they are, so it restores into a memory built from the
/// same image (see [`codec`](SparseMem::codec)).
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
    /// `Some`). Invariant: the hot page is never also in `pages`.
    hot_page: u64,
    hot: Option<Frame>,
    /// The words of the image this memory was built from, which its
    /// pristine pages read.
    image: Option<Arc<ImagePages>>,
    /// The page number, map chunk and [chunk start](ImagePages::chunk_start)
    /// of the last read of a pristine page, kept so that reads within one
    /// chunk rank only within it. The default, `(0, 0, 0)`, is right for
    /// every image.
    chunk_at: (u32, usize, usize),
}

impl PartialEq for SparseMem {
    /// Logical equality over resident pages: where the hot slot points,
    /// and which pages are still pristine, are access-pattern
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
    /// page is resident from the start, but none is built: each is read
    /// in the image's words, and built only by its first write.
    #[must_use]
    pub fn from_image(image: &MemImage) -> Self {
        if image.is_empty() {
            return SparseMem::new();
        }
        SparseMem::pristine(Some(Arc::clone(&image.words)))
    }

    /// A memory holding every page of `image`, none built.
    fn pristine(image: Option<Arc<ImagePages>>) -> Self {
        let pages = image.as_deref().map_or_else(FxHashMap::default, |words| {
            (0..)
                .zip(&words.pages)
                .map(|(run, &idx)| (idx, Frame::Pristine(run)))
                .collect()
        });
        SparseMem {
            pages,
            image,
            ..SparseMem::default()
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

    /// The image words pristine pages read.
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

    /// The frame of page `idx`, if resident, for writing in place.
    fn frame_mut(&mut self, idx: u64) -> Option<&mut Frame> {
        match &mut self.hot {
            Some(hot) if self.hot_page == idx => Some(hot),
            _ => self.pages.get_mut(&idx),
        }
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
            Frame::Owned(page) => Cow::Borrowed(page),
        }
    }

    /// Moves `idx` into the hot slot, flushing the previous occupant
    /// back into the map. Returns `false` when the page is not resident
    /// (the hot slot is left untouched).
    fn promote(&mut self, idx: u64) -> bool {
        let Some(frame) = self.pages.remove(&idx) else {
            return false;
        };
        if let Some(old) = self.hot.replace(frame) {
            self.pages.insert(self.hot_page, old);
        }
        self.hot_page = idx;
        true
    }

    /// The write path past the hot owned page: makes `idx` hot and this
    /// memory's own (allocating or building it on first write), then
    /// stores.
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
        if let Some(Frame::Pristine(run)) = self.hot {
            self.hot = Some(Frame::Owned(Box::new(self.image().build(run))));
        }
        match &mut self.hot {
            Some(Frame::Owned(page)) => page[word_in_page(addr)] = value,
            _ => unreachable!("the hot page was just made owned"),
        }
    }

    /// Visits the digest of this memory's image, then, in ascending page
    /// order, every resident page the image does not hold as it is: each
    /// page outside the image, and each image page written to other
    /// words. The bytes are canonical: the same contents always encode
    /// identically, regardless of hash-map iteration order, which page
    /// is hot, or which image pages are built. A read keeps this
    /// memory's own image, with every image page as the image defines
    /// it, and replaces the rest by the stored pages.
    ///
    /// # Errors
    ///
    /// A read fails if the stored digest is not this memory's image's
    /// (the snapshot is of a memory built from another image), if page
    /// numbers repeat or descend, if a stored page is as the image
    /// defines it, or on a truncated or corrupt stream.
    pub fn codec(&mut self, c: &mut impl Codec) -> Result<(), SnapError> {
        c.tag(b"SME2")?;
        let image = self.image.clone();
        let holds = |idx, page: &Page| image.as_ref().is_some_and(|i| i.holds(idx, page));
        let own = image.as_deref().map_or(0, ImagePages::digest);
        let mut digest = own;
        c.u64(&mut digest)?;
        if digest != own {
            return Err(c.fail(format!(
                "image digest {digest:#018x} does not match this memory's image {own:#018x}"
            )));
        }
        let mut indices: Vec<u64> = if c.reads() {
            *self = SparseMem::pristine(self.image.take());
            Vec::new()
        } else {
            self.frames()
                .filter(|(idx, frame)| match frame {
                    Frame::Pristine(_) => false,
                    Frame::Owned(page) => !holds(*idx, page),
                })
                .map(|(idx, _)| idx)
                .collect()
        };
        indices.sort_unstable();
        let mut last = None;
        c.seq64(&mut indices, |c, idx| {
            c.u64(idx)?;
            if let Some(last) = last.filter(|&last| *idx <= last) {
                return Err(c.fail(format!("page {idx:#x} does not ascend past page {last:#x}")));
            }
            last = Some(*idx);
            if c.reads() {
                let page = Frame::Owned(Box::new([0u64; PAGE_WORDS]));
                self.pages.insert(*idx, page);
            }
            let Some(Frame::Owned(page)) = self.frame_mut(*idx) else {
                unreachable!("a stored page is owned");
            };
            page.iter_mut().try_for_each(|word| c.u64(word))?;
            if c.reads() && holds(*idx, page) {
                return Err(c.fail(format!("stored page {idx:#x} is as the image defines it")));
            }
            Ok(())
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
        match self.frame(page_of(addr)) {
            Some(Frame::Pristine(_)) => self.image().get(addr).unwrap_or(0),
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
        let hot = self.hot_page == idx && self.hot.is_some();
        if !hot && !self.promote(idx) {
            return 0;
        }
        match &self.hot {
            Some(Frame::Owned(page)) => page[word_in_page(addr)],
            Some(Frame::Pristine(run)) => {
                let (run, chunk) = (*run, word_in_page(addr) / 64);
                let image = self.image.as_deref().expect("pristine pages have an image");
                if self.chunk_at.0 != run || self.chunk_at.1 != chunk {
                    self.chunk_at = (run, chunk, image.chunk_start(run as usize, chunk));
                }
                image
                    .word_at(run as usize, addr, self.chunk_at.2)
                    .unwrap_or(0)
            }
            None => unreachable!("just promoted"),
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

    impl ImagePages {
        /// Bytes held on the heap, capacity included.
        pub(crate) fn heap_bytes(&self) -> usize {
            use std::mem::size_of;
            self.pages.capacity() * size_of::<u64>()
                + self.maps.capacity() * size_of::<PageMap>()
                + self.starts.capacity() * size_of::<u64>()
                + self.values.capacity() * size_of::<u64>()
        }
    }

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

    /// Whether page `idx` of `mem` is resident and still pristine.
    fn pristine(mem: &SparseMem, idx: u64) -> bool {
        matches!(mem.frame(idx), Some(Frame::Pristine(_)))
    }

    #[test]
    fn image_pages_are_read_in_place() {
        let img: MemImage = [(0x10, 7), (0x2008, 8)].into_iter().collect();
        let mut m = SparseMem::from_image(&img);
        assert_eq!(m.resident_pages(), 2, "image pages are resident unbuilt");
        assert_eq!((m.read(0x10), m.read(0x18)), (7, 0));
        assert_eq!((m.read(0x2008), m.peek(0x10)), (8, 7));
        assert!(pristine(&m, 0) && pristine(&m, 2), "reads build nothing");
        assert!(
            Arc::ptr_eq(m.image.as_ref().unwrap(), &img.words),
            "the memory reads the image's own words"
        );
    }

    #[test]
    fn first_write_builds_only_its_page() {
        let img: MemImage = [(0x10, 7), (0x18, 9), (0x2008, 8)].into_iter().collect();
        let mut m = SparseMem::from_image(&img);
        m.write(0x20, 1);
        assert!(
            matches!(m.frame(0), Some(Frame::Owned(_))),
            "written page built"
        );
        assert!(pristine(&m, 2), "the other page untouched");
        assert_eq!((m.read(0x10), m.read(0x18), m.read(0x20)), (7, 9, 1));
        assert_eq!((m.read(0x28), m.read(0x2008)), (0, 8));
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn memories_of_one_image_are_written_independently() {
        let img: MemImage = [(0x10, 7), (0x2008, 8)].into_iter().collect();
        let mut a = SparseMem::from_image(&img);
        let mut b = SparseMem::from_image(&img);
        a.write(0x10, 1);
        b.write(0x18, 2);
        b.write(0x2008, 3);
        assert_eq!((a.peek(0x10), a.peek(0x18), a.peek(0x2008)), (1, 0, 8));
        assert_eq!((b.peek(0x10), b.peek(0x18), b.peek(0x2008)), (7, 2, 3));
        assert!(pristine(&a, 2), "b's write left a's page pristine");
        assert_eq!(img.get(0x10), Some(7), "the image is unchanged");
        assert_eq!(SparseMem::from_image(&img).read(0x2008), 8);
    }

    #[test]
    fn memory_outlives_its_image() {
        let img: MemImage = [(0x10, 7), (0x2008, 8)].into_iter().collect();
        let mut m = SparseMem::from_image(&img);
        let words = Arc::downgrade(&img.words);
        drop(img);
        assert!(words.upgrade().is_some(), "the memory holds the words");
        assert_eq!((m.read(0x10), m.peek(0x2008)), (7, 8));
        m.write(0x2010, 5);
        assert_eq!((m.read(0x2008), m.read(0x2010)), (8, 5));
        drop(m);
        assert!(words.upgrade().is_none(), "the words went with the memory");
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
        m.codec(&mut w).unwrap();
        let bytes = w.into_bytes();
        let mut r = crate::snap::SnapReader::new(&bytes);
        let mut restored = SparseMem::new();
        restored.codec(&mut r).unwrap();
        assert!(r.is_exhausted());
        assert_eq!(restored, m);
        // Canonical bytes: a clone (fresh hash-map iteration order)
        // serializes identically.
        let mut w2 = crate::snap::SnapWriter::new();
        restored.codec(&mut w2).unwrap();
        assert_eq!(w2.into_bytes(), bytes);
    }

    fn snap(mem: &mut SparseMem) -> Vec<u8> {
        let mut w = crate::snap::SnapWriter::new();
        mem.codec(&mut w).unwrap();
        w.into_bytes()
    }

    fn restore(mem: &mut SparseMem, bytes: &[u8]) -> Result<(), SnapError> {
        let mut r = crate::snap::SnapReader::new(bytes);
        mem.codec(&mut r)?;
        assert!(r.is_exhausted());
        Ok(())
    }

    /// The bytes of a stored page: its number and its 512 words.
    const PAGE_BYTES: usize = 8 + 8 * PAGE_WORDS;
    /// The first stored page: after the `SME2` tag, the image digest
    /// and the page count.
    const FIRST_PAGE: usize = 4 + 8 + 8;

    #[test]
    fn snapshots_hold_only_what_differs_from_the_image() {
        let img: MemImage = [(0x10, 7), (0x2008, 8), (0x4000, 9)].into_iter().collect();
        let mut m = SparseMem::from_image(&img);
        assert_eq!(snap(&mut m).len(), FIRST_PAGE, "no page differs");
        m.write(0x10, 7); // built, but as the image defines it
        m.write(0x2008, 1); // differs
        m.write(0x9000, 2); // outside the image
        let bytes = snap(&mut m);
        assert_eq!(bytes.len(), FIRST_PAGE + 2 * PAGE_BYTES);
        let page = |i: usize| &bytes[FIRST_PAGE + i * PAGE_BYTES..][..8];
        assert_eq!(
            (page(0), page(1)),
            (&2u64.to_le_bytes()[..], &9u64.to_le_bytes()[..])
        );

        // A read keeps the restoring memory's image pages, and drops
        // what it wrote past them.
        let mut back = SparseMem::from_image(&img);
        back.write(0x4000, 5);
        back.write(0xA000, 6);
        restore(&mut back, &bytes).unwrap();
        assert_eq!(back, m);
        assert!(pristine(&back, 0) && pristine(&back, 4));
        assert_eq!(back.resident_pages(), 4);
        assert_eq!(snap(&mut back), bytes, "a restore re-encodes to its bytes");
    }

    #[test]
    fn an_image_digest_that_does_not_match_is_refused() {
        let img: MemImage = [(0x10, 7)].into_iter().collect();
        let other: MemImage = [(0x10, 8)].into_iter().collect();
        let bytes = snap(&mut SparseMem::from_image(&img));
        let e = restore(&mut SparseMem::from_image(&other), &bytes).unwrap_err();
        assert!(e.what.contains("does not match this memory's image"), "{e}");
        let e = restore(&mut SparseMem::new(), &bytes).unwrap_err();
        assert!(e.what.contains("image 0x0000000000000000"), "{e}");
        let mut twin = SparseMem::from_image(&[(0x10, 7)].into_iter().collect());
        restore(&mut twin, &bytes).expect("an image with equal words");
    }

    #[test]
    fn page_numbers_that_do_not_ascend_are_refused() {
        let mut m = SparseMem::new();
        m.write(0x1000, 1);
        m.write(0x3000, 3);
        let mut bytes = snap(&mut m);
        let second = FIRST_PAGE + PAGE_BYTES;
        for (first, then) in [(3u64, 3u64), (3, 1)] {
            bytes[FIRST_PAGE..FIRST_PAGE + 8].copy_from_slice(&first.to_le_bytes());
            bytes[second..second + 8].copy_from_slice(&then.to_le_bytes());
            let e = restore(&mut SparseMem::new(), &bytes).unwrap_err();
            let want = format!("page {then:#x} does not ascend past page {first:#x}");
            assert!(e.what.contains(&want), "{e}");
        }
    }

    #[test]
    fn a_stored_page_as_the_image_defines_it_is_refused() {
        let img: MemImage = [(0x10, 7)].into_iter().collect();
        let mut m = SparseMem::from_image(&img);
        m.write(0x10, 8);
        let mut bytes = snap(&mut m);
        let word = FIRST_PAGE + 8 + 8 * 2;
        assert_eq!(bytes[word..word + 8], 8u64.to_le_bytes());
        bytes[word..word + 8].copy_from_slice(&7u64.to_le_bytes());
        let e = restore(&mut SparseMem::from_image(&img), &bytes).unwrap_err();
        assert!(
            e.what
                .contains("stored page 0x0 is as the image defines it"),
            "{e}"
        );
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
        let snap_of = |mem: &mut SparseMem| {
            let mut w = crate::snap::SnapWriter::new();
            mem.codec(&mut w).unwrap();
            w.into_bytes()
        };
        let first = snap_of(&mut m);
        m.read(0x8); // rotate the hot slot
        assert_eq!(snap_of(&mut m), first);
        m.read(0x1000);
        assert_eq!(snap_of(&mut m), first);
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
