//! Programs: instruction sequences plus an initial memory image.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError, Weak};

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
/// Stored as one address-sorted vector with one `(address, value)`
/// entry per defined word: 16 bytes a word, against about 36 for a
/// balanced-tree map. Every figure, batch and service lookup rebuilds
/// tens of these images, so their footprint and construction time are
/// a large share of a sweep's memory peak and set-up. Sorted words and
/// not dense pages, because the images are sparse: a multi-thread
/// stand-in can define one word in eight across a thousand pages.
/// The live memories built from an image share one set of its pages,
/// built as they are touched (see [`SparseMem`](crate::SparseMem)).
///
/// ```
/// use recon_isa::MemImage;
///
/// let mut img = MemImage::new();
/// img.set(0x100, 42);
/// assert_eq!(img.get(0x100), Some(42));
/// assert_eq!(img.get(0x108), None);
/// ```
#[derive(Default)]
pub struct MemImage {
    /// Strictly ascending by address (so equality of the words is
    /// logical equality). Behind an `Arc` so that clones and the page
    /// set below share them.
    words: Arc<Vec<(u64, u64)>>,
    /// The page set of the live memories built from this image
    /// ([`SparseMem::from_image`](crate::SparseMem::from_image)). Weak,
    /// so that the set and its pages go with the last such memory.
    pages: Mutex<Weak<ImagePages>>,
}

impl Clone for MemImage {
    /// Shares the words, and the page set while it lives.
    fn clone(&self) -> Self {
        MemImage {
            words: Arc::clone(&self.words),
            pages: Mutex::new(self.lock_pages().clone()),
        }
    }
}

impl PartialEq for MemImage {
    fn eq(&self, other: &Self) -> bool {
        self.words == other.words
    }
}

impl Eq for MemImage {}

impl core::fmt::Debug for MemImage {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("MemImage")
            .field("words", &self.words)
            .finish()
    }
}

impl MemImage {
    /// Creates an empty image.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds an image from writes in program order: one stable sort,
    /// and the last write to an address wins.
    fn from_writes(mut words: Vec<(u64, u64)>) -> Self {
        words.sort_by_key(|&(addr, _)| addr);
        words.dedup_by(|next, kept| {
            let same = next.0 == kept.0;
            if same {
                kept.1 = next.1;
            }
            same
        });
        words.shrink_to_fit();
        MemImage {
            words: Arc::new(words),
            pages: Mutex::default(),
        }
    }

    fn lock_pages(&self) -> MutexGuard<'_, Weak<ImagePages>> {
        self.pages.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The page set shared by the live memories built from this image,
    /// made now if none lives; `None` for an empty image.
    pub(crate) fn page_set(&self) -> Option<Arc<ImagePages>> {
        if self.words.is_empty() {
            return None;
        }
        let mut pages = self.lock_pages();
        Some(pages.upgrade().unwrap_or_else(|| {
            let set = Arc::new(ImagePages::new(Arc::clone(&self.words)));
            *pages = Arc::downgrade(&set);
            set
        }))
    }

    /// The words, to change: the live page set (if any) keeps the old
    /// ones, and memories built from now on get a set of their own.
    fn words_mut(&mut self) -> &mut Vec<(u64, u64)> {
        *self.pages.get_mut().unwrap_or_else(PoisonError::into_inner) = Weak::new();
        Arc::make_mut(&mut self.words)
    }

    /// Sets the word at `addr` (must be 8-byte aligned; validated by
    /// [`Program::validate`], asserted here in debug builds). Ascending
    /// addresses append; any other order inserts or replaces in place.
    pub fn set(&mut self, addr: u64, value: u64) {
        debug_assert_eq!(addr % 8, 0, "image word at {addr:#x} must be aligned");
        let words = self.words_mut();
        match words.last() {
            Some(&(last, _)) if last >= addr => {
                match words.binary_search_by_key(&addr, |&(a, _)| a) {
                    Ok(i) => words[i].1 = value,
                    Err(i) => words.insert(i, (addr, value)),
                }
            }
            _ => words.push((addr, value)),
        }
    }

    /// The word at `addr`, if the image defines one.
    #[must_use]
    pub fn get(&self, addr: u64) -> Option<u64> {
        self.words
            .binary_search_by_key(&addr, |&(a, _)| a)
            .ok()
            .map(|i| self.words[i].1)
    }

    /// Number of words defined by the image.
    #[must_use]
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Whether the image defines no words.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Iterates over `(address, value)` pairs in address order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.words.iter().copied()
    }
}

impl Extend<(u64, u64)> for MemImage {
    /// Later pairs overwrite earlier ones and the image's own words.
    fn extend<T: IntoIterator<Item = (u64, u64)>>(&mut self, iter: T) {
        let mut words = Arc::unwrap_or_clone(std::mem::take(&mut self.words));
        words.extend(iter);
        *self = Self::from_writes(words);
    }
}

impl FromIterator<(u64, u64)> for MemImage {
    /// The last pair for an address wins.
    fn from_iter<T: IntoIterator<Item = (u64, u64)>>(iter: T) -> Self {
        Self::from_writes(iter.into_iter().collect())
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
        if let Some((addr, _)) = self.image.iter().find(|&(a, _)| a % 8 != 0) {
            return Err(ProgramError::MisalignedImage { addr });
        }
        Ok(())
    }

    /// Renders the program as readable assembly, one instruction per line,
    /// prefixed with its index.
    #[must_use]
    pub fn disassemble(&self) -> String {
        use core::fmt::Write as _;
        let mut out = String::new();
        for (i, inst) in self.code.iter().enumerate() {
            let _ = writeln!(out, "{i:4}: {inst}");
        }
        out
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
        p.image.words_mut().insert(0, (0x3, 1)); // bypass the debug assert in set()
        assert_eq!(
            p.validate(),
            Err(ProgramError::MisalignedImage { addr: 0x3 })
        );
    }

    #[test]
    fn disassemble_lists_every_instruction() {
        let p = halted(vec![Inst::Nop]);
        let text = p.disassemble();
        assert!(text.contains("0: nop"));
        assert!(text.contains("1: halt"));
    }

    #[test]
    fn error_display_is_informative() {
        let e = ProgramError::TargetOutOfRange { at: 4, target: 10 };
        assert!(e.to_string().contains("instruction 4"));
    }
}
