//! Store-set memory-dependence predictor (Chrysos & Emer, the paper's
//! reference \[15\]), used by [`MdpMode::Predictor`](crate::MdpMode).
//!
//! Loads are predicted independent of in-flight stores until a memory
//! order violation proves otherwise; the violating load and store PCs
//! are then placed in a common *store set*, and future instances of the
//! load wait for the last in-flight store of that set to resolve
//! (§4.5.2: the implicit channels become prediction-based and the
//! predictor is trained only by non-speculative outcomes).

use recon_isa::snap::{Codec, SnapError};
use recon_secure::Seq;

/// Store-set id.
type SsId = u16;

/// The predictor: a PC-indexed store-set id table (SSIT) and a last
/// fetched store table (LFST).
#[derive(Clone, Debug)]
pub struct StoreSets {
    ssit: Vec<Option<SsId>>,
    lfst: Vec<Option<Seq>>,
}

impl Default for StoreSets {
    fn default() -> Self {
        Self::new(1024, 64)
    }
}

impl StoreSets {
    /// Creates a predictor with `ssit_entries` PC slots and `sets`
    /// store sets.
    ///
    /// # Panics
    ///
    /// Panics if either size is zero.
    #[must_use]
    pub fn new(ssit_entries: usize, sets: usize) -> Self {
        assert!(ssit_entries > 0 && sets > 0);
        StoreSets {
            ssit: vec![None; ssit_entries],
            lfst: vec![None; sets],
        }
    }

    fn slot(&self, pc: usize) -> usize {
        pc % self.ssit.len()
    }

    /// The store set assigned to `pc`, if any.
    #[must_use]
    pub fn set_of(&self, pc: usize) -> Option<SsId> {
        self.ssit[self.slot(pc)]
    }

    /// A store at `pc` dispatched with sequence `seq`: it becomes the
    /// last fetched store of its set.
    pub fn store_dispatched(&mut self, pc: usize, seq: Seq) {
        if let Some(set) = self.set_of(pc) {
            let idx = usize::from(set) % self.lfst.len();
            self.lfst[idx] = Some(seq);
        }
    }

    /// A store resolved (its address computed) or was squashed: if it is
    /// still the set's last fetched store, the dependence is satisfied.
    pub fn store_resolved(&mut self, pc: usize, seq: Seq) {
        if let Some(set) = self.set_of(pc) {
            let idx = usize::from(set) % self.lfst.len();
            let e = &mut self.lfst[idx];
            if *e == Some(seq) {
                *e = None;
            }
        }
    }

    /// Should the load at `pc` (sequence `load_seq`) wait? Returns the
    /// store sequence it is predicted to depend on, if that store is
    /// older and still unresolved.
    #[must_use]
    pub fn load_must_wait(&self, pc: usize, load_seq: Seq) -> Option<Seq> {
        let set = self.set_of(pc)?;
        self.lfst[usize::from(set) % self.lfst.len()].filter(|&s| s < load_seq)
    }

    /// Trains on a memory-order violation between `load_pc` and
    /// `store_pc`: both are placed in a common set (the smaller existing
    /// id wins, merging sets over time as in the original proposal).
    pub fn violation(&mut self, load_pc: usize, store_pc: usize) {
        let merged = match (self.set_of(load_pc), self.set_of(store_pc)) {
            (Some(a), Some(b)) => a.min(b),
            (Some(a), None) => a,
            (None, Some(b)) => b,
            (None, None) => (load_pc % self.lfst.len()) as SsId,
        };
        let ls = self.slot(load_pc);
        self.ssit[ls] = Some(merged);
        let ss = self.slot(store_pc);
        self.ssit[ss] = Some(merged);
    }

    /// Squash recovery: forget in-flight stores younger than `first`.
    pub fn squash_from(&mut self, first: Seq) {
        for e in &mut self.lfst {
            if matches!(e, Some(s) if *s >= first) {
                *e = None;
            }
        }
    }

    /// Visits both tables. LFST entries are kept verbatim even though
    /// the pipeline is drained at checkpoint time: a stale
    /// last-fetched-store entry is state an uninterrupted run would also
    /// carry, so dropping it would change replay.
    ///
    /// # Errors
    ///
    /// Propagates decode errors from a truncated or corrupt stream.
    pub fn codec(&mut self, c: &mut impl Codec) -> Result<(), SnapError> {
        c.tag(b"MDPT")?;
        c.seq(&mut self.ssit, |c, e| {
            c.sparse(e, |c, id| {
                let mut wide = u32::from(*id);
                c.u32(&mut wide)?;
                *id = wide as SsId;
                Ok(())
            })
        })?;
        c.seq(&mut self.lfst, |c, e| c.sparse(e, Codec::u64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untrained_predictor_never_blocks() {
        let p = StoreSets::default();
        assert_eq!(p.load_must_wait(100, 50), None);
    }

    #[test]
    fn violation_creates_a_dependence() {
        let mut p = StoreSets::default();
        p.violation(100, 40);
        assert!(p.set_of(100).is_some());
        assert_eq!(p.set_of(100), p.set_of(40));
        p.store_dispatched(40, 7);
        assert_eq!(p.load_must_wait(100, 10), Some(7));
        p.store_resolved(40, 7);
        assert_eq!(p.load_must_wait(100, 10), None);
    }

    #[test]
    fn younger_stores_do_not_block_older_loads() {
        let mut p = StoreSets::default();
        p.violation(100, 40);
        p.store_dispatched(40, 20);
        assert_eq!(p.load_must_wait(100, 10), None, "store is younger");
        assert_eq!(p.load_must_wait(100, 30), Some(20));
    }

    #[test]
    fn sets_merge_on_repeated_violations() {
        let mut p = StoreSets::default();
        p.violation(100, 40);
        p.violation(100, 41);
        assert_eq!(
            p.set_of(40),
            p.set_of(41),
            "both stores share the load's set"
        );
    }

    #[test]
    fn squash_clears_younger_stores() {
        let mut p = StoreSets::default();
        p.violation(100, 40);
        p.store_dispatched(40, 20);
        p.squash_from(15);
        assert_eq!(p.load_must_wait(100, 30), None);
    }

    #[test]
    fn resolution_of_a_superseded_store_keeps_the_newer_one() {
        let mut p = StoreSets::default();
        p.violation(100, 40);
        p.store_dispatched(40, 7);
        p.store_dispatched(40, 9); // a newer dynamic instance
        p.store_resolved(40, 7); // the old one resolving changes nothing
        assert_eq!(p.load_must_wait(100, 30), Some(9));
    }
}
