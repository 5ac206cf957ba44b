//! The reorder buffer.

use recon_isa::Inst;
use recon_secure::Seq;

use crate::bpred::PredToken;
use crate::rename::{DstRename, PReg};

/// Execution status of a ROB entry.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Status {
    /// Dispatched, waiting in the instruction queue.
    Waiting,
    /// Issued to a functional unit; completes at the given cycle.
    Executing {
        /// Absolute cycle at which the result is available.
        done_at: u64,
    },
    /// Result available (or no result needed).
    Done,
}

/// One in-flight instruction.
#[derive(Clone, Debug)]
pub struct RobEntry {
    /// Dynamic sequence number (monotonic, never reused after squash in
    /// the same window — squashed seqs are simply abandoned).
    pub seq: Seq,
    /// Static instruction index.
    pub pc: usize,
    /// The instruction.
    pub inst: Inst,
    /// Renamed source registers, aligned with `inst.srcs()`.
    pub srcs: [Option<PReg>; 2],
    /// Destination rename, if the instruction writes a register.
    pub dst: Option<DstRename>,
    /// Pipeline status.
    pub status: Status,
    /// For conditional branches: `(predicted_taken, predictor token)`.
    pub pred: Option<(bool, PredToken)>,
    /// For resolved conditional branches: the actual direction.
    pub taken_actual: Option<bool>,
    /// Effective address, once computed (loads/stores/amo).
    pub addr: Option<u64>,
    /// For loads: the accessed word was marked revealed (ReCon).
    pub revealed: bool,
    /// For loads: the value came from SQ/SB forwarding (always concealed,
    /// §4.4.2).
    pub forwarded: bool,
    /// Computed result value (for register writeback / store data).
    pub value: Option<u64>,
    /// The guard root placed on the destination at completion, if any
    /// (NDA: own seq; STT: YRoT) — kept for statistics.
    pub guard_root: Option<Seq>,
    /// Whether this instruction was ever delayed by the security scheme
    /// (for the Figure 7 tainted-loads statistic).
    pub was_delayed_by_scheme: bool,
}

impl RobEntry {
    fn new(seq: Seq, pc: usize, inst: Inst) -> Self {
        RobEntry {
            seq,
            pc,
            inst,
            srcs: [None, None],
            dst: None,
            status: Status::Waiting,
            pred: None,
            taken_actual: None,
            addr: None,
            revealed: false,
            forwarded: false,
            value: None,
            guard_root: None,
            was_delayed_by_scheme: false,
        }
    }
}

/// The reorder buffer: a bounded, seq-indexed window of in-flight
/// instructions.
#[derive(Clone, Debug)]
pub struct Rob {
    entries: std::collections::VecDeque<RobEntry>,
    capacity: usize,
    next_seq: Seq,
}

impl Rob {
    /// Creates an empty ROB with the given capacity.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0);
        Rob {
            entries: std::collections::VecDeque::with_capacity(capacity),
            capacity,
            next_seq: 0,
        }
    }

    /// Whether a new instruction can be dispatched.
    #[must_use]
    pub fn has_space(&self) -> bool {
        self.entries.len() < self.capacity
    }

    /// Current occupancy.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Configured capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Whether the window is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Allocates the next entry.
    ///
    /// # Panics
    ///
    /// Panics if the ROB is full (check [`Rob::has_space`] first).
    pub fn push(&mut self, pc: usize, inst: Inst) -> Seq {
        assert!(self.has_space(), "ROB full");
        let seq = self.next_seq;
        self.next_seq += 1;
        self.entries.push_back(RobEntry::new(seq, pc, inst));
        seq
    }

    /// The oldest entry, if any.
    #[must_use]
    pub fn head(&self) -> Option<&RobEntry> {
        self.entries.front()
    }

    /// Removes and returns the oldest entry (commit).
    pub fn pop_head(&mut self) -> Option<RobEntry> {
        self.entries.pop_front()
    }

    /// Access an entry by sequence number.
    #[must_use]
    pub fn get(&self, seq: Seq) -> Option<&RobEntry> {
        let head = self.entries.front()?.seq;
        if seq < head {
            return None;
        }
        self.entries.get((seq - head) as usize)
    }

    /// Mutable access by sequence number.
    pub fn get_mut(&mut self, seq: Seq) -> Option<&mut RobEntry> {
        let head = self.entries.front()?.seq;
        if seq < head {
            return None;
        }
        self.entries.get_mut((seq - head) as usize)
    }

    /// Iterates oldest → youngest.
    pub fn iter(&self) -> impl Iterator<Item = &RobEntry> {
        self.entries.iter()
    }

    /// Iterates mutably oldest → youngest.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut RobEntry> {
        self.entries.iter_mut()
    }

    /// The next sequence number a pushed entry would receive. At a
    /// drained-pipeline checkpoint the window is empty and this counter
    /// is the only ROB state worth serializing.
    #[must_use]
    pub fn next_seq(&self) -> Seq {
        self.next_seq
    }

    /// Restores the sequence counter (checkpoint restore; the window
    /// must be empty).
    ///
    /// # Panics
    ///
    /// Panics if the window still holds entries.
    pub fn set_next_seq(&mut self, seq: Seq) {
        assert!(self.entries.is_empty(), "ROB must be empty to restore");
        self.next_seq = seq;
    }

    /// Squash step: removes and returns the youngest entry if its
    /// sequence number is `>= first`. Calling it until `None` squashes
    /// every entry from `first` on, youngest first (the order rename
    /// undo must be applied in).
    ///
    /// Squashed sequence numbers are reused by subsequent pushes: the
    /// caller must purge them from every side structure (IQ, LSQ,
    /// shadows, guards), which also keeps the window's sequence numbers
    /// contiguous.
    pub fn squash_youngest(&mut self, first: Seq) -> Option<RobEntry> {
        if self.entries.back()?.seq < first {
            return None;
        }
        let e = self.entries.pop_back()?;
        self.next_seq = e.seq;
        Some(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nop() -> Inst {
        Inst::Nop
    }

    #[test]
    fn push_assigns_monotonic_seq() {
        let mut rob = Rob::new(4);
        assert_eq!(rob.push(0, nop()), 0);
        assert_eq!(rob.push(1, nop()), 1);
        assert_eq!(rob.len(), 2);
    }

    #[test]
    fn get_by_seq() {
        let mut rob = Rob::new(4);
        rob.push(0, nop());
        rob.push(1, nop());
        assert_eq!(rob.get(1).unwrap().pc, 1);
        assert!(rob.get(2).is_none());
        rob.pop_head();
        assert!(rob.get(0).is_none(), "committed entries unreachable");
        assert_eq!(rob.get(1).unwrap().pc, 1);
    }

    #[test]
    fn capacity_enforced() {
        let mut rob = Rob::new(2);
        rob.push(0, nop());
        rob.push(1, nop());
        assert!(!rob.has_space());
        rob.pop_head();
        assert!(rob.has_space());
    }

    #[test]
    fn squash_returns_youngest_first() {
        let mut rob = Rob::new(8);
        for pc in 0..5 {
            rob.push(pc, nop());
        }
        let seqs: Vec<_> = std::iter::from_fn(|| rob.squash_youngest(2))
            .map(|e| e.seq)
            .collect();
        assert_eq!(seqs, vec![4, 3, 2]);
        assert_eq!(rob.len(), 2);
        // Squashed sequence numbers are reused to keep the window
        // contiguous.
        assert_eq!(rob.push(9, nop()), 2);
    }

    #[test]
    #[should_panic(expected = "ROB full")]
    fn push_past_capacity_panics() {
        let mut rob = Rob::new(1);
        rob.push(0, nop());
        rob.push(1, nop());
    }
}
