//! Gshare branch direction predictor.
//!
//! Branch *targets* are static in this ISA (encoded in the instruction),
//! so only the direction needs prediction. The predictor is a classic
//! gshare: a global history register XOR-ed with the PC indexes a table
//! of 2-bit saturating counters.

use recon_isa::snap::{Codec, SnapError};

/// A 2-bit saturating counter.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
struct Counter(u8);

impl Counter {
    const WEAK_TAKEN: Counter = Counter(2);

    fn predict(self) -> bool {
        self.0 >= 2
    }

    fn update(&mut self, taken: bool) {
        if taken {
            self.0 = (self.0 + 1).min(3);
        } else {
            self.0 = self.0.saturating_sub(1);
        }
    }
}

/// Gshare predictor with `2^bits` counters.
///
/// ```
/// use recon_cpu::bpred::BranchPredictor;
///
/// let mut bp = BranchPredictor::new(10);
/// // Train a strongly-taken branch at PC 12:
/// for _ in 0..4 {
///     let (pred, token) = bp.predict(12);
///     bp.update(token, true);
///     let _ = pred;
/// }
/// assert!(bp.predict(12).0);
/// ```
#[derive(Clone, Debug)]
pub struct BranchPredictor {
    table: Vec<Counter>,
    history: u64,
    mask: u64,
}

/// Opaque token carrying the prediction and the state needed to update
/// or repair the predictor after it resolves.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PredToken {
    history_before: u64,
    index: u32,
    taken: bool,
}

impl PredToken {
    /// The predicted direction.
    #[must_use]
    pub fn taken(self) -> bool {
        self.taken
    }
}

impl BranchPredictor {
    /// Creates a predictor with `2^bits` counters, weakly taken.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or greater than 24.
    #[must_use]
    pub fn new(bits: u32) -> Self {
        assert!((1..=24).contains(&bits), "1..=24 index bits");
        let size = 1usize << bits;
        BranchPredictor {
            table: vec![Counter::WEAK_TAKEN; size],
            history: 0,
            mask: (size - 1) as u64,
        }
    }

    /// Predicts the direction of the branch at instruction index `pc`,
    /// speculatively updating the global history. Returns the prediction
    /// and a token for [`BranchPredictor::update`] /
    /// [`BranchPredictor::repair`].
    pub fn predict(&mut self, pc: usize) -> (bool, PredToken) {
        let index = ((pc as u64) ^ self.history) & self.mask;
        let taken = self.table[index as usize].predict();
        let token = PredToken {
            history_before: self.history,
            index: index as u32,
            taken,
        };
        self.history = (self.history << 1) | u64::from(taken);
        (taken, token)
    }

    /// Commits the outcome of a resolved branch: trains the counter.
    pub fn update(&mut self, token: PredToken, taken: bool) {
        self.table[token.index as usize].update(taken);
    }

    /// Repairs the global history after a squash: restores the history to
    /// its pre-prediction value extended with the *actual* outcome.
    pub fn repair(&mut self, token: PredToken, actual: bool) {
        self.history = (token.history_before << 1) | u64::from(actual);
    }

    /// Visits the counter table and global history (the index mask is
    /// re-derived from the table size).
    ///
    /// # Errors
    ///
    /// Fails if the table size is not a power of two or the stream is
    /// corrupt.
    pub fn codec(&mut self, c: &mut impl Codec) -> Result<(), SnapError> {
        c.tag(b"BPRD")?;
        let mut size = self.table.len() as u32;
        c.u32(&mut size)?;
        if !size.is_power_of_two() {
            return Err(c.fail(format!("predictor table size {size} is not a power of two")));
        }
        c.items(&mut self.table, size as usize, |c, ctr| c.u8(&mut ctr.0))?;
        c.u64(&mut self.history)?;
        self.mask = u64::from(size - 1);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recon_isa::snap::{SnapReader, SnapWriter};

    #[test]
    fn counter_saturates() {
        let mut c = Counter(0);
        c.update(false);
        assert_eq!(c.0, 0);
        c.update(true);
        c.update(true);
        c.update(true);
        c.update(true);
        assert_eq!(c.0, 3);
        assert!(c.predict());
    }

    #[test]
    fn learns_always_taken() {
        let mut bp = BranchPredictor::new(8);
        for _ in 0..8 {
            let (_, t) = bp.predict(100);
            bp.update(t, true);
        }
        assert!(bp.predict(100).0);
    }

    #[test]
    fn learns_never_taken() {
        let mut bp = BranchPredictor::new(8);
        for _ in 0..8 {
            let (pred, t) = bp.predict(100);
            bp.update(t, false);
            if pred {
                bp.repair(t, false); // mispredict: fix the history
            }
        }
        assert!(!bp.predict(100).0);
    }

    #[test]
    fn learns_alternating_pattern_with_history() {
        let mut bp = BranchPredictor::new(10);
        let mut correct = 0;
        let mut outcome = false;
        for i in 0..400 {
            outcome = !outcome;
            let (pred, t) = bp.predict(7);
            if i >= 200 && pred == outcome {
                correct += 1;
            }
            bp.update(t, outcome);
            if pred != outcome {
                bp.repair(t, outcome); // mispredict: fix the history
            }
        }
        assert!(
            correct > 190,
            "history should capture alternation: {correct}/200"
        );
    }

    #[test]
    fn repair_restores_history() {
        let mut bp = BranchPredictor::new(8);
        let h0 = bp.history;
        let (pred, t) = bp.predict(5);
        assert_ne!(
            bp.history,
            h0 << 1 | u64::from(!pred),
            "speculative history inserted"
        );
        bp.repair(t, !pred);
        assert_eq!(bp.history, (h0 << 1) | u64::from(!pred));
    }

    #[test]
    #[should_panic(expected = "index bits")]
    fn zero_bits_panics() {
        let _ = BranchPredictor::new(0);
    }

    #[test]
    fn a_table_size_that_is_not_a_power_of_two_is_refused() {
        let mut w = SnapWriter::new();
        BranchPredictor::new(3).codec(&mut w).unwrap();
        let mut bytes = w.into_bytes();
        bytes[4..8].copy_from_slice(&3u32.to_le_bytes());
        let e = BranchPredictor::new(3)
            .codec(&mut SnapReader::new(&bytes))
            .unwrap_err();
        assert!(e.what.contains("predictor table size 3"), "{e}");
    }
}
