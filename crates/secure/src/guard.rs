//! The guard table: per-physical-register speculation guards.
//!
//! A *guard* on a physical register is the dynamic sequence number of the
//! **youngest speculative load** whose value the register (transitively)
//! derives from — STT's *youngest root of taint* (YRoT). For NDA the
//! guard on a load's destination is the load's own sequence number and
//! never propagates.
//!
//! A guard is *active* while its root load is still speculative, i.e.
//! while an unresolved speculation shadow older than the root exists.
//! Because shadows resolve in program order, activity reduces to a single
//! comparison against the *shadow frontier* (the sequence number of the
//! oldest unresolved shadow-casting instruction):
//!
//! > guard `g` is active  ⇔  `frontier < g`
//!
//! (if the oldest unresolved shadow is older than the root load, the
//! root — and everything derived from it — is still speculative).
//! No explicit untaint broadcast is needed: when the frontier advances
//! past `g`, every register guarded by `g` becomes free simultaneously,
//! exactly like STT's untaint broadcast.

use recon_isa::snap::{Codec, SnapError};

/// Sequence number of a dynamic instruction (monotonic per core).
pub type Seq = u64;

/// Per-physical-register guard state for one core.
///
/// ```
/// use recon_secure::GuardTable;
///
/// let mut g = GuardTable::new(8);
/// g.set(3, 100);                    // p3 rooted at speculative load #100
/// assert!(g.is_active(3, 50));      // frontier 50 < 100: still tainted
/// assert!(!g.is_active(3, 100));    // frontier reached the root: free
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct GuardTable {
    guards: Vec<Option<Seq>>,
}

impl GuardTable {
    /// Creates a table for `num_pregs` physical registers, all unguarded.
    #[must_use]
    pub fn new(num_pregs: usize) -> Self {
        GuardTable {
            guards: vec![None; num_pregs],
        }
    }

    /// Number of registers tracked.
    #[must_use]
    pub fn len(&self) -> usize {
        self.guards.len()
    }

    /// Whether the table tracks no registers.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.guards.is_empty()
    }

    /// The raw guard on `preg`, if any.
    #[must_use]
    pub fn get(&self, preg: usize) -> Option<Seq> {
        self.guards[preg]
    }

    /// Sets the guard of `preg` to root sequence `root`.
    pub fn set(&mut self, preg: usize, root: Seq) {
        self.guards[preg] = Some(root);
    }

    /// Clears the guard of `preg` (value is unconditionally safe).
    pub fn clear(&mut self, preg: usize) {
        self.guards[preg] = None;
    }

    /// Whether the guard on `preg` is *active* given the current shadow
    /// frontier: active ⇔ an unresolved shadow older than the root
    /// exists ⇔ `frontier < root`.
    ///
    /// A `frontier` of [`Seq::MAX`] means "no unresolved shadows".
    #[must_use]
    pub fn is_active(&self, preg: usize, frontier: Seq) -> bool {
        matches!(self.guards[preg], Some(root) if frontier < root)
    }

    /// STT taint propagation: computes the guard for a destination whose
    /// sources carry the given guards, with `own_root` set when the
    /// producing instruction is itself a speculative (unrevealed) load.
    /// The result is the *youngest* root among all contributors, but only
    /// counting guards that are still active at the given frontier
    /// (inactive guards have already been implicitly untainted).
    #[must_use]
    pub fn propagate(
        &self,
        srcs: impl IntoIterator<Item = usize>,
        own_root: Option<Seq>,
        frontier: Seq,
    ) -> Option<Seq> {
        let from_srcs = srcs
            .into_iter()
            .filter_map(|p| self.guards[p])
            .filter(|&root| frontier < root)
            .max();
        match (from_srcs, own_root) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        }
    }

    /// Iterates `(preg, root)` over every guarded register, in index
    /// order, regardless of activity (the audit sweep needs stale guards
    /// too).
    pub fn iter(&self) -> impl Iterator<Item = (usize, Seq)> + '_ {
        self.guards
            .iter()
            .enumerate()
            .filter_map(|(p, g)| g.map(|root| (p, root)))
    }

    /// Clears every guard (squash recovery resets taint conservatively;
    /// squashed state is re-derived as instructions re-execute).
    pub fn clear_all(&mut self) {
        self.guards.iter_mut().for_each(|g| *g = None);
    }

    /// Number of currently guarded registers, given the frontier (for
    /// stats).
    #[must_use]
    pub fn active_count(&self, frontier: Seq) -> usize {
        self.guards
            .iter()
            .flatten()
            .filter(|&&root| frontier < root)
            .count()
    }

    /// Visits every guard slot in index order. Stale (inactive) guards
    /// are kept verbatim: they are part of the deterministic state an
    /// uninterrupted run would also carry.
    ///
    /// # Errors
    ///
    /// Propagates decode errors from a truncated or corrupt stream.
    pub fn codec(&mut self, c: &mut impl Codec) -> Result<(), SnapError> {
        c.tag(b"GRDT")?;
        c.seq64(&mut self.guards, |c, g| c.sparse(g, Codec::u64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_table_unguarded() {
        let g = GuardTable::new(4);
        for p in 0..4 {
            assert!(g.get(p).is_none());
            assert!(!g.is_active(p, 0));
        }
    }

    #[test]
    fn activity_is_frontier_comparison() {
        let mut g = GuardTable::new(2);
        g.set(0, 10);
        assert!(g.is_active(0, 0), "shadow older than root");
        assert!(g.is_active(0, 9));
        assert!(!g.is_active(0, 10), "frontier at the root: root is safe");
        assert!(!g.is_active(0, Seq::MAX), "no shadows at all");
    }

    #[test]
    fn clear_removes_guard() {
        let mut g = GuardTable::new(2);
        g.set(1, 5);
        g.clear(1);
        assert!(!g.is_active(1, 0));
    }

    #[test]
    fn propagate_takes_youngest_active_root() {
        let mut g = GuardTable::new(4);
        g.set(0, 10);
        g.set(1, 20);
        // Both active at frontier 5: YRoT = 20.
        assert_eq!(g.propagate([0, 1], None, 5), Some(20));
        // Frontier 15 deactivates root 10: only 20 remains.
        assert_eq!(g.propagate([0, 1], None, 15), Some(20));
        // Frontier 25 deactivates everything.
        assert_eq!(g.propagate([0, 1], None, 25), None);
    }

    #[test]
    fn propagate_includes_own_root() {
        let mut g = GuardTable::new(2);
        g.set(0, 10);
        assert_eq!(g.propagate([0], Some(30), 0), Some(30), "own root youngest");
        assert_eq!(
            g.propagate([0], Some(5), 0),
            Some(10),
            "source root youngest"
        );
        assert_eq!(g.propagate([], Some(7), 0), Some(7));
        assert_eq!(g.propagate([], None, 0), None);
    }

    #[test]
    fn untaint_is_implicit_and_simultaneous() {
        // Registers guarded by roots 10 and 12; when the frontier passes
        // 12 both become free at once (the STT untaint broadcast).
        let mut g = GuardTable::new(3);
        g.set(0, 10);
        g.set(1, 12);
        assert_eq!(g.active_count(5), 2);
        assert_eq!(g.active_count(11), 1);
        assert_eq!(g.active_count(12), 0);
    }

    #[test]
    fn clear_all_resets() {
        let mut g = GuardTable::new(3);
        g.set(0, 1);
        g.set(2, 2);
        g.clear_all();
        assert_eq!(g.active_count(0), 0);
    }
}
