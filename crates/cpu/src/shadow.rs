//! Speculation-shadow tracking.
//!
//! The paper's evaluated threat model treats an instruction as
//! speculative while an older *control* instruction (unresolved branch)
//! or *store* (unresolved address) exists (§6.1). Each such instruction
//! casts a shadow from dispatch until it resolves; the **frontier** is
//! the sequence number of the oldest unresolved shadow-caster.
//!
//! An instruction with sequence `s` is speculative iff `frontier() < s`
//! — this single comparison drives guard (taint) activity in
//! [`recon_secure::GuardTable`].

use std::collections::VecDeque;

use recon_secure::Seq;

/// Tracks unresolved shadow-casting instructions of one core.
///
/// ```
/// use recon_cpu::shadow::ShadowTracker;
///
/// let mut sh = ShadowTracker::new();
/// assert!(!sh.is_speculative(10)); // no shadows: nothing speculative
/// sh.cast(5);
/// assert!(sh.is_speculative(10)); // an older branch is unresolved
/// assert!(!sh.is_speculative(5)); // the caster itself is not shadowed
/// sh.resolve(5);
/// assert!(!sh.is_speculative(10));
/// ```
#[derive(Clone, Debug, Default)]
pub struct ShadowTracker {
    /// Unresolved casters in ascending order. Casters dispatch in
    /// sequence order, so a cast appends; a squash truncates the tail.
    unresolved: VecDeque<Seq>,
}

impl ShadowTracker {
    /// Creates an empty tracker.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A shadow-casting instruction (branch or store) dispatched.
    pub fn cast(&mut self, seq: Seq) {
        if self.unresolved.back().is_none_or(|&s| s < seq) {
            // The youngest in flight: dispatch is in order.
            self.unresolved.push_back(seq);
            return;
        }
        let at = self.unresolved.partition_point(|&s| s < seq);
        if self.unresolved.get(at) != Some(&seq) {
            self.unresolved.insert(at, seq);
        }
    }

    /// The shadow-caster resolved (branch executed / store address
    /// computed).
    pub fn resolve(&mut self, seq: Seq) {
        if self.unresolved.front() == Some(&seq) {
            self.unresolved.pop_front();
        } else if let Ok(at) = self.unresolved.binary_search(&seq) {
            self.unresolved.remove(at);
        }
    }

    /// Removes all casters with sequence `>= first` (squash).
    pub fn squash_from(&mut self, first: Seq) {
        let keep = self.unresolved.partition_point(|&s| s < first);
        self.unresolved.truncate(keep);
    }

    /// The oldest unresolved shadow-caster, or `Seq::MAX` when none —
    /// the value to compare guards against.
    #[must_use]
    pub fn frontier(&self) -> Seq {
        self.unresolved.front().copied().unwrap_or(Seq::MAX)
    }

    /// Whether an instruction with sequence `seq` is currently under a
    /// speculation shadow.
    #[must_use]
    pub fn is_speculative(&self, seq: Seq) -> bool {
        self.frontier() < seq
    }

    /// Iterates unresolved casters in ascending sequence order.
    pub fn iter(&self) -> impl Iterator<Item = Seq> + '_ {
        self.unresolved.iter().copied()
    }

    /// Number of unresolved shadows (for stats).
    #[must_use]
    pub fn len(&self) -> usize {
        self.unresolved.len()
    }

    /// Whether no shadows are outstanding.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.unresolved.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_tracker_nothing_speculative() {
        let sh = ShadowTracker::new();
        assert_eq!(sh.frontier(), Seq::MAX);
        assert!(!sh.is_speculative(0));
        assert!(sh.is_empty());
    }

    #[test]
    fn frontier_is_oldest() {
        let mut sh = ShadowTracker::new();
        sh.cast(30);
        sh.cast(10);
        sh.cast(20);
        assert_eq!(sh.frontier(), 10);
        sh.resolve(10);
        assert_eq!(sh.frontier(), 20);
    }

    #[test]
    fn resolution_in_any_order() {
        let mut sh = ShadowTracker::new();
        sh.cast(1);
        sh.cast(2);
        sh.resolve(2); // younger resolves first
        assert!(sh.is_speculative(3), "older shadow still pending");
        sh.resolve(1);
        assert!(!sh.is_speculative(3));
    }

    #[test]
    fn squash_drops_younger() {
        let mut sh = ShadowTracker::new();
        sh.cast(5);
        sh.cast(10);
        sh.cast(15);
        sh.squash_from(10);
        assert_eq!(sh.len(), 1);
        assert_eq!(sh.frontier(), 5);
    }

    #[test]
    fn caster_not_shadowed_by_itself() {
        let mut sh = ShadowTracker::new();
        sh.cast(7);
        assert!(!sh.is_speculative(7));
        assert!(sh.is_speculative(8));
    }
}
