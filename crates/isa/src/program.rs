//! Programs: instruction sequences plus an initial memory image.

use std::sync::Arc;

use crate::inst::Inst;
use crate::mem::ImagePages;

/// Errors produced by [`Program::validate`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ProgramError {
    /// A branch or jump targets an instruction index outside the program.
    TargetOutOfRange {
        /// Index of the offending instruction.
        at: usize,
        /// The out-of-range target.
        target: usize,
    },
    /// The program contains no `halt`, so execution could run forever.
    MissingHalt,
    /// A memory image word is not 8-byte aligned.
    MisalignedImage {
        /// The offending address.
        addr: u64,
    },
}

impl core::fmt::Display for ProgramError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match *self {
            ProgramError::TargetOutOfRange { at, target } => {
                write!(f, "instruction {at} targets out-of-range index {target}")
            }
            ProgramError::MissingHalt => f.write_str("program has no halt instruction"),
            ProgramError::MisalignedImage { addr } => {
                write!(f, "memory image address {addr:#x} is not 8-byte aligned")
            }
        }
    }
}

impl std::error::Error for ProgramError {}

/// An initial memory image: sparse map of aligned 8-byte words.
///
/// Laid out by page: the numbers of the pages it defines words on, a
/// 512-bit map of each page's defined words, and the values in address
/// order. That is 8 bytes a word plus 80 a page, against 16 a word for
/// sorted `(address, value)` pairs and about 36 for a balanced-tree
/// map. Every figure, batch and service lookup rebuilds tens of these
/// images, so their footprint and construction time are a large share
/// of a sweep's memory peak and set-up. Maps and not dense pages,
/// because the images are sparse: a multi-thread stand-in can define
/// one word in eight across a thousand pages. The memories built from
/// an image read its words in place (see
/// [`SparseMem`](crate::SparseMem)).
///
/// ```
/// use recon_isa::MemImage;
///
/// let mut img = MemImage::new();
/// img.set(0x100, 42);
/// assert_eq!(img.get(0x100), Some(42));
/// assert_eq!(img.get(0x108), None);
/// ```
#[derive(Clone, Default, PartialEq, Eq)]
pub struct MemImage {
    /// The words, behind an `Arc` so that clones and the memories built
    /// from the image share them.
    pub(crate) words: Arc<ImagePages>,
}

impl core::fmt::Debug for MemImage {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("MemImage")
            .field("words", &self.words)
            .finish()
    }
}

/// Writes in program order, gathered into a [`MemImage`] in which the
/// last write to an address wins. A write above every earlier one
/// appends to the image's layout as it comes; any other is buffered
/// and merged once, by [`finish`](ImageWriter::finish).
#[derive(Debug, Default)]
pub(crate) struct ImageWriter {
    words: ImagePages,
    /// The buffered writes, in program order.
    later: Vec<(u64, u64)>,
}

impl ImageWriter {
    /// Writes the word at `addr`.
    #[inline]
    pub(crate) fn write(&mut self, addr: u64, value: u64) {
        if !self.words.push(addr, value) {
            self.later.push((addr, value));
        }
    }

    /// The image, with the buffered writes merged in after the others.
    pub(crate) fn finish(self) -> MemImage {
        let mut words = if self.later.is_empty() {
            self.words
        } else {
            self.words.merge(self.later)
        };
        words.shrink_to_fit();
        MemImage {
            words: Arc::new(words),
        }
    }
}

impl MemImage {
    /// Creates an empty image.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the word at `addr` (must be 8-byte aligned; validated by
    /// [`Program::validate`], asserted here in debug builds). Ascending
    /// addresses append; any other order rewrites the image.
    pub fn set(&mut self, addr: u64, value: u64) {
        debug_assert_eq!(addr % 8, 0, "image word at {addr:#x} must be aligned");
        if !Arc::make_mut(&mut self.words).push(addr, value) {
            self.extend([(addr, value)]);
        }
    }

    /// The word at `addr`, if the image defines one.
    #[must_use]
    pub fn get(&self, addr: u64) -> Option<u64> {
        self.words.get(addr).filter(|_| addr.is_multiple_of(8))
    }

    /// Number of words defined by the image.
    #[must_use]
    pub fn len(&self) -> usize {
        self.words.values.len()
    }

    /// Whether the image defines no words.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates over `(address, value)` pairs in address order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.words.iter()
    }
}

impl Extend<(u64, u64)> for MemImage {
    /// Later pairs overwrite earlier ones and the image's own words.
    fn extend<T: IntoIterator<Item = (u64, u64)>>(&mut self, iter: T) {
        let mut writer = ImageWriter {
            words: Arc::unwrap_or_clone(std::mem::take(&mut self.words)),
            later: Vec::new(),
        };
        for (addr, value) in iter {
            writer.write(addr, value);
        }
        *self = writer.finish();
    }
}

impl FromIterator<(u64, u64)> for MemImage {
    /// The last pair for an address wins.
    fn from_iter<T: IntoIterator<Item = (u64, u64)>>(iter: T) -> Self {
        let mut image = MemImage::new();
        image.extend(iter);
        image
    }
}

/// A complete program: code, entry point, and initial memory image.
///
/// Instruction addresses are instruction *indices* (there is no byte-level
/// code layout; instruction fetch is modeled per-instruction).
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Program {
    /// The instruction sequence.
    pub code: Vec<Inst>,
    /// Index of the first instruction to execute.
    pub entry: usize,
    /// Initial contents of data memory.
    pub image: MemImage,
}

impl Program {
    /// Creates a program with entry point 0 and an empty image.
    #[must_use]
    pub fn new(code: Vec<Inst>) -> Self {
        Program {
            code,
            entry: 0,
            image: MemImage::new(),
        }
    }

    /// Number of static instructions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.code.len()
    }

    /// Whether the program has no instructions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.code.is_empty()
    }

    /// Checks structural well-formedness: all branch targets in range,
    /// at least one `halt`, image addresses aligned.
    ///
    /// # Errors
    ///
    /// Returns the first [`ProgramError`] found.
    pub fn validate(&self) -> Result<(), ProgramError> {
        for (at, inst) in self.code.iter().enumerate() {
            let target = match *inst {
                Inst::Branch { target, .. } | Inst::Jump { target } => Some(target),
                _ => None,
            };
            if let Some(target) = target {
                if target >= self.code.len() {
                    return Err(ProgramError::TargetOutOfRange { at, target });
                }
            }
        }
        if !self.code.iter().any(|i| matches!(i, Inst::Halt)) {
            return Err(ProgramError::MissingHalt);
        }
        if let Some(addr) = self.image.words.misaligned {
            return Err(ProgramError::MisalignedImage { addr });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::BranchKind;
    use crate::reg::names::*;

    fn halted(mut code: Vec<Inst>) -> Program {
        code.push(Inst::Halt);
        Program::new(code)
    }

    #[test]
    fn image_set_get() {
        let mut img = MemImage::new();
        assert!(img.is_empty());
        img.set(0x40, 7);
        img.set(0x40, 9);
        assert_eq!(img.get(0x40), Some(9));
        assert_eq!(img.len(), 1);
    }

    #[test]
    fn image_from_iterator() {
        let img: MemImage = [(0x0, 1), (0x8, 2)].into_iter().collect();
        assert_eq!(img.get(0x8), Some(2));
        let pairs: Vec<_> = img.iter().collect();
        assert_eq!(pairs, vec![(0x0, 1), (0x8, 2)]);
    }

    /// Heap bytes of an image built by the assembler from `words`, and
    /// the most its layout may hold: 8 bytes a word plus 80 a page.
    fn footprint(words: impl Iterator<Item = u64>) -> (usize, usize) {
        let mut a = crate::Asm::new();
        for addr in words {
            a.data(addr, addr ^ 0x5a5a);
        }
        a.halt();
        let image = a.assemble().expect("aligned words").image;
        let mut pages: Vec<u64> = image.iter().map(|(addr, _)| addr >> 12).collect();
        pages.dedup();
        let bound = 8 * image.len() + 80 * pages.len();
        (image.words.heap_bytes(), bound)
    }

    #[test]
    fn image_costs_at_most_eight_bytes_a_word_plus_eighty_a_page() {
        // PARSEC-shaped: one word per 64-byte line across 1,000 pages.
        let (bytes, bound) = footprint((0..1000 * 64).map(|line| 0x10_0000 + 64 * line));
        assert!(bytes <= bound, "sparse image: {bytes} B > {bound} B");
        assert_eq!(bound, 8 * 64_000 + 80 * 1000);
        // A dense 8,192-word array, 16 pages.
        let (bytes, bound) = footprint((0..8192).map(|word| 0x40_0000 + 8 * word));
        assert!(bytes <= bound, "dense image: {bytes} B > {bound} B");
        assert_eq!(bound, 8 * 8192 + 80 * 16);
    }

    #[test]
    fn validate_accepts_well_formed() {
        let p = halted(vec![
            Inst::LoadImm { dst: R1, imm: 0 },
            Inst::Branch {
                kind: BranchKind::Eq,
                a: R1,
                b: R0,
                target: 2,
            },
        ]);
        assert_eq!(p.validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_out_of_range_target() {
        let p = halted(vec![Inst::Jump { target: 99 }]);
        assert_eq!(
            p.validate(),
            Err(ProgramError::TargetOutOfRange { at: 0, target: 99 })
        );
    }

    #[test]
    fn validate_rejects_missing_halt() {
        let p = Program::new(vec![Inst::Nop]);
        assert_eq!(p.validate(), Err(ProgramError::MissingHalt));
    }

    #[test]
    fn validate_rejects_misaligned_image() {
        let mut p = halted(vec![]);
        // Collected, not set(), which asserts alignment in debug builds.
        p.image = [(0x10, 1), (0x5, 2), (0x3, 3)].into_iter().collect();
        assert_eq!(p.image.len(), 1, "a misaligned write defines no word");
        assert_eq!(
            p.validate(),
            Err(ProgramError::MisalignedImage { addr: 0x3 })
        );
    }

    #[test]
    fn error_display_is_informative() {
        let e = ProgramError::TargetOutOfRange { at: 4, target: 10 };
        assert!(e.to_string().contains("instruction 4"));
    }
}
