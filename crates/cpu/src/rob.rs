//! The reorder buffer.
//!
//! A ring indexed by sequence number: entry `seq` lives in slot
//! `seq & mask`, where the ring is the capacity rounded up to a power of
//! two. In-flight sequence numbers are contiguous and span at most the
//! capacity, so slots never collide and a lookup is a bounds check plus
//! an index. Each entry is split in two: a hot [`RobEntry`] with what
//! wakeup, select and commit read every cycle, and a cold [`RobDetail`]
//! with the instruction, its results and its statistics flags. The two
//! parts of one slot sit side by side: nearly every stage that reads
//! an entry reads both.

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

/// Class flags of an instruction, as [`Inst`]'s predicates give them.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct InstClass {
    /// Reads memory: loads and atomics ([`Inst::is_load`]).
    pub is_load: bool,
    /// Writes memory: stores and atomics ([`Inst::is_store`]).
    pub is_store: bool,
    /// An atomic fetch-add.
    pub is_amo: bool,
    /// A conditional branch ([`Inst::is_cond_branch`]).
    pub is_cond_branch: bool,
    /// An STT transmitter ([`Inst::is_transmitter`]).
    pub is_transmitter: bool,
}

impl InstClass {
    /// The flags of `inst`.
    #[must_use]
    pub fn of(inst: Inst) -> Self {
        InstClass {
            is_load: inst.is_load(),
            is_store: inst.is_store(),
            is_amo: matches!(inst, Inst::AmoAdd { .. }),
            is_cond_branch: inst.is_cond_branch(),
            is_transmitter: inst.is_transmitter(),
        }
    }

    /// A store that is not an atomic: it issues its address only and
    /// enters the store buffer at commit.
    #[must_use]
    pub fn is_plain_store(self) -> bool {
        self.is_store && !self.is_amo
    }
}

/// The hot part of one in-flight instruction.
#[derive(Clone, Copy, Debug)]
pub struct RobEntry {
    /// Dynamic sequence number, ascending in program order. Squashed
    /// numbers are reused: [`Rob::squash_youngest`] rewinds the next
    /// number, so the window's numbers stay contiguous.
    pub seq: Seq,
    /// Pipeline status.
    pub status: Status,
    /// Renamed source registers, aligned with `inst.srcs()`.
    pub srcs: [Option<PReg>; 2],
    /// Destination rename, if the instruction writes a register.
    pub dst: Option<DstRename>,
    /// The instruction's class flags.
    pub class: InstClass,
}

/// The cold part of one in-flight instruction.
#[derive(Clone, Copy, Debug)]
pub struct RobDetail {
    /// Static instruction index.
    pub pc: usize,
    /// The instruction.
    pub inst: Inst,
    /// For conditional branches: the predictor token, which carries
    /// the predicted direction.
    pub pred: Option<PredToken>,
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
    /// For loads and atomics: the load-queue slot it occupies.
    pub lq_slot: u32,
    /// For stores: the store number.
    pub sq_num: u32,
    /// For loads and atomics: the store-queue tail at dispatch; the
    /// stores older than the load are numbered below it.
    pub sq_tail: u32,
}

const VACANT: RobEntry = RobEntry {
    seq: 0,
    status: Status::Done,
    srcs: [None, None],
    dst: None,
    class: InstClass {
        is_load: false,
        is_store: false,
        is_amo: false,
        is_cond_branch: false,
        is_transmitter: false,
    },
};

const VACANT_DETAIL: RobDetail = RobDetail {
    pc: 0,
    inst: Inst::Nop,
    pred: None,
    taken_actual: None,
    addr: None,
    revealed: false,
    forwarded: false,
    value: None,
    guard_root: None,
    was_delayed_by_scheme: false,
    lq_slot: 0,
    sq_num: 0,
    sq_tail: 0,
};

/// The reorder buffer: a bounded, seq-indexed window of in-flight
/// instructions.
#[derive(Clone, Debug)]
pub struct Rob {
    /// Entries by slot. The ring grows to its full size as slots are
    /// first used, so a core that never fills its window never touches
    /// the rest.
    slots: Vec<(RobEntry, RobDetail)>,
    mask: usize,
    capacity: usize,
    /// Sequence number of the oldest entry (`next_seq` when empty).
    head: Seq,
    next_seq: Seq,
}

impl Rob {
    /// Creates an empty ROB with the given capacity.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0);
        Rob {
            slots: Vec::new(),
            mask: capacity.next_power_of_two() - 1,
            capacity,
            head: 0,
            next_seq: 0,
        }
    }

    #[inline]
    fn slot(&self, seq: Seq) -> usize {
        seq as usize & self.mask
    }

    /// Whether `seq` is in flight.
    #[inline]
    fn live(&self, seq: Seq) -> bool {
        seq >= self.head && seq < self.next_seq
    }

    /// Whether a new instruction can be dispatched.
    #[must_use]
    pub fn has_space(&self) -> bool {
        self.len() < self.capacity
    }

    /// Current occupancy.
    #[must_use]
    pub fn len(&self) -> usize {
        (self.next_seq - self.head) as usize
    }

    /// Configured capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Whether the window is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.head == self.next_seq
    }

    /// Allocates the next entry, waiting to issue with the given
    /// renamed operands.
    ///
    /// # Panics
    ///
    /// Panics if the ROB is full (check [`Rob::has_space`] first).
    pub fn push(
        &mut self,
        pc: usize,
        inst: Inst,
        srcs: [Option<PReg>; 2],
        dst: Option<DstRename>,
    ) -> Seq {
        assert!(self.has_space(), "ROB full");
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = self.slot(seq);
        if slot >= self.slots.len() {
            // First use of the slot: every earlier slot exists already
            // (a run starts at slot 0) or is filled with a vacant entry
            // that no lookup can reach (a restore resumes mid-ring).
            self.slots.resize(slot + 1, (VACANT, VACANT_DETAIL));
        }
        // Field by field, in place: no whole-entry temporary to copy.
        let (h, c) = &mut self.slots[slot];
        h.seq = seq;
        h.status = Status::Waiting;
        h.srcs = srcs;
        h.dst = dst;
        h.class = InstClass::of(inst);
        c.pc = pc;
        c.inst = inst;
        c.pred = None;
        c.taken_actual = None;
        c.addr = None;
        c.revealed = false;
        c.forwarded = false;
        c.value = None;
        c.guard_root = None;
        c.was_delayed_by_scheme = false;
        c.lq_slot = 0;
        c.sq_num = 0;
        c.sq_tail = 0;
        seq
    }

    /// The oldest entry, if any.
    #[must_use]
    pub fn head(&self) -> Option<&RobEntry> {
        self.get(self.head)
    }

    /// Removes and returns the oldest entry (commit).
    pub fn pop_head(&mut self) -> Option<(RobEntry, RobDetail)> {
        if self.is_empty() {
            return None;
        }
        let slot = self.slot(self.head);
        self.head += 1;
        Some(self.slots[slot])
    }

    /// Access an entry by sequence number.
    #[must_use]
    #[inline]
    pub fn get(&self, seq: Seq) -> Option<&RobEntry> {
        self.live(seq).then(|| &self.slots[self.slot(seq)].0)
    }

    /// Mutable access by sequence number.
    #[inline]
    pub fn get_mut(&mut self, seq: Seq) -> Option<&mut RobEntry> {
        let slot = self.slot(seq);
        self.live(seq).then(|| &mut self.slots[slot].0)
    }

    /// The cold part of entry `seq`.
    #[must_use]
    #[inline]
    pub fn detail(&self, seq: Seq) -> Option<&RobDetail> {
        self.live(seq).then(|| &self.slots[self.slot(seq)].1)
    }

    /// Mutable access to the cold part of entry `seq`.
    #[inline]
    pub fn detail_mut(&mut self, seq: Seq) -> Option<&mut RobDetail> {
        let slot = self.slot(seq);
        self.live(seq).then(|| &mut self.slots[slot].1)
    }

    /// Iterates oldest → youngest.
    pub fn iter(&self) -> impl Iterator<Item = &RobEntry> {
        (self.head..self.next_seq).map(|seq| &self.slots[self.slot(seq)].0)
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
        assert!(self.is_empty(), "ROB must be empty to restore");
        self.head = seq;
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
    pub fn squash_youngest(&mut self, first: Seq) -> Option<(RobEntry, RobDetail)> {
        if self.is_empty() || self.next_seq - 1 < first {
            return None;
        }
        self.next_seq -= 1;
        let slot = self.slot(self.next_seq);
        Some(self.slots[slot])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn push_nop(rob: &mut Rob, pc: usize) -> Seq {
        rob.push(pc, Inst::Nop, [None, None], None)
    }

    #[test]
    fn push_assigns_monotonic_seq() {
        let mut rob = Rob::new(4);
        assert_eq!(push_nop(&mut rob, 0), 0);
        assert_eq!(push_nop(&mut rob, 1), 1);
        assert_eq!(rob.len(), 2);
    }

    #[test]
    fn get_by_seq() {
        let mut rob = Rob::new(4);
        push_nop(&mut rob, 0);
        push_nop(&mut rob, 1);
        assert_eq!(rob.detail(1).unwrap().pc, 1);
        assert!(rob.get(2).is_none());
        rob.pop_head();
        assert!(rob.get(0).is_none(), "committed entries unreachable");
        assert_eq!(rob.detail(1).unwrap().pc, 1);
    }

    #[test]
    fn capacity_enforced() {
        let mut rob = Rob::new(2);
        push_nop(&mut rob, 0);
        push_nop(&mut rob, 1);
        assert!(!rob.has_space());
        rob.pop_head();
        assert!(rob.has_space());
    }

    #[test]
    fn squash_returns_youngest_first() {
        let mut rob = Rob::new(8);
        for pc in 0..5 {
            push_nop(&mut rob, pc);
        }
        let seqs: Vec<_> = std::iter::from_fn(|| rob.squash_youngest(2))
            .map(|(e, _)| e.seq)
            .collect();
        assert_eq!(seqs, vec![4, 3, 2]);
        assert_eq!(rob.len(), 2);
        // Squashed sequence numbers are reused to keep the window
        // contiguous.
        assert_eq!(push_nop(&mut rob, 9), 2);
    }

    #[test]
    fn window_wraps_around_a_non_power_of_two_ring() {
        let mut rob = Rob::new(3);
        for round in 0..10 {
            for pc in 0..3 {
                push_nop(&mut rob, 100 * round + pc);
            }
            assert!(!rob.has_space());
            let pcs: Vec<_> = rob.iter().map(|e| rob.detail(e.seq).unwrap().pc).collect();
            assert_eq!(pcs, vec![100 * round, 100 * round + 1, 100 * round + 2]);
            while rob.pop_head().is_some() {}
        }
        assert_eq!(rob.next_seq(), 30);
    }

    #[test]
    fn restore_resumes_mid_ring() {
        let mut rob = Rob::new(4);
        rob.set_next_seq(1_000_003);
        assert_eq!(push_nop(&mut rob, 7), 1_000_003);
        assert_eq!(push_nop(&mut rob, 8), 1_000_004);
        assert_eq!(rob.head().unwrap().seq, 1_000_003);
        assert_eq!(rob.detail(1_000_004).unwrap().pc, 8);
        assert!(rob.get(1_000_002).is_none());
    }

    #[test]
    fn entries_keep_their_size() {
        assert_eq!(std::mem::size_of::<RobEntry>(), 64);
        assert_eq!(std::mem::size_of::<RobDetail>(), 104);
    }

    #[test]
    #[should_panic(expected = "ROB full")]
    fn push_past_capacity_panics() {
        let mut rob = Rob::new(1);
        push_nop(&mut rob, 0);
        push_nop(&mut rob, 1);
    }
}
