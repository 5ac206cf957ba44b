//! Event-driven scheduling state of the out-of-order core.
//!
//! Per-cycle work scales with events, not with structure sizes, and
//! every per-instruction record lives at the instruction's ROB slot
//! (`seq & mask`, the ROB's ring index), so nothing allocates per
//! cycle:
//!
//! * the **instruction queue** is the set of dispatched, not-yet-issued
//!   ROB entries (status `Waiting`); only its occupancy is kept, since
//!   the ROB already orders its members;
//! * the **ready list** is the seq-ordered subset of the IQ whose issue
//!   operands are all produced. Issue probes only these, oldest first,
//!   so an operand-blocked entry costs nothing until it wakes. Entries a
//!   scheme guard or a memory-ordering gate refuses stay listed and are
//!   probed again next cycle, exactly as a walk of the whole IQ would.
//!   Each carries its *scheme gate*, the youngest guard root among the
//!   operands its scheme checks: the guards of produced operands never
//!   change, so the probe is blocked exactly while the shadow frontier
//!   is older than the gate, a comparison that needs no operand reads.
//!   Woken entries collect in a pending buffer that is merged into the
//!   list once, at the start of the issue stage; the entries that stage
//!   issues are compacted out once, at its end;
//! * **wakeup**: an entry that dispatched with unproduced operands
//!   waits in the wait list of each one's physical register (once, when
//!   both operands name the same register); a register write empties
//!   its list and wakes the waiters whose operands are now all ready;
//! * the **completion wheel** buckets every executing instruction by
//!   its `done_at` cycle in intrusive per-slot lists, so the completion
//!   stage drains the buckets that are due instead of rescanning the
//!   ROB. What completes at the very next completion stage (most
//!   instructions: the cycle after issue) skips the buckets for a short
//!   list in issue order. A completion further ahead than the wheel's
//!   span waits in an overflow list that is only walked when its
//!   earliest entry is due;
//! * the unissued **AMOs**, oldest first, make the "older AMO still
//!   pending" gate of younger loads a comparison against the front.

use std::collections::VecDeque;

use recon_mem::LatencyConfig;
use recon_secure::Seq;

use crate::rename::PReg;
use crate::rob::{RobEntry, Status};

/// End of a list / an unlinked node.
const NIL: u32 = u32::MAX;

/// One ready-list entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Ready {
    pub(crate) seq: Seq,
    /// The scheme gate, with [`DELAYED`] set once a refusal was recorded
    /// on the ROB entry.
    gate: Seq,
}

/// Flag bit of [`Ready::gate`]: sequence numbers never reach it.
const DELAYED: Seq = 1 << 63;

impl Ready {
    fn new(seq: Seq, gate: Seq) -> Self {
        debug_assert!(gate & DELAYED == 0);
        Ready { seq, gate }
    }

    /// The youngest guard root among the issue operands the scheme
    /// checks, 0 when it checks none: the scheme refuses the entry while
    /// `frontier < gate`.
    pub(crate) fn gate(self) -> Seq {
        self.gate & !DELAYED
    }

    /// Whether a refusal was already recorded on the ROB entry.
    pub(crate) fn delayed(self) -> bool {
        self.gate & DELAYED != 0
    }
}

/// Operand `k` of in-flight instruction `seq` waiting on register
/// `preg`, linked into that register's wait list. Node `2 * slot + k`
/// belongs to the instruction in ROB slot `slot`.
#[derive(Clone, Copy, Debug)]
struct WaitNode {
    seq: Seq,
    /// `NIL` while the node is in no list.
    preg: u32,
    prev: u32,
    next: u32,
}

const UNLINKED: WaitNode = WaitNode {
    seq: 0,
    preg: NIL,
    prev: NIL,
    next: NIL,
};

/// The executing instruction in one ROB slot, linked into the wheel
/// bucket of its completion cycle or into the overflow list.
#[derive(Clone, Copy, Debug)]
struct ExecNode {
    seq: Seq,
    done_at: u64,
    /// The list holding it: a bucket index, the overflow list (index
    /// `span`), or `NIL`.
    list: u32,
    prev: u32,
    next: u32,
}

const IDLE: ExecNode = ExecNode {
    seq: 0,
    done_at: 0,
    list: NIL,
    prev: NIL,
    next: NIL,
};

/// The core's issue and completion bookkeeping (see the module docs).
#[derive(Clone, Debug)]
pub(crate) struct Scheduler {
    /// ROB slot of a sequence number: `seq & slot_mask`.
    slot_mask: usize,
    /// IQ occupancy.
    queued: usize,
    ready: Vec<Ready>,
    /// Entries woken since the last issue stage, in wakeup order.
    woken: Vec<Ready>,
    /// Ready-list positions issued in the current issue stage,
    /// ascending.
    issued_at: Vec<usize>,
    /// Per physical register: first node of its wait list.
    wait_head: Vec<u32>,
    wait_nodes: Vec<WaitNode>,
    /// Wheel buckets (cycle `c` in bucket `c % span`), then the
    /// overflow list.
    heads: Vec<u32>,
    /// One bit per non-empty bucket.
    occupied: Vec<u64>,
    /// Per ROB slot: the wheel node of its executing instruction.
    exec: Vec<ExecNode>,
    /// Buckets cover the `span` cycles from `cursor`, the first cycle
    /// the completion stage has not drained yet.
    span: usize,
    cursor: u64,
    /// Earliest `done_at` in the overflow list (`u64::MAX` when empty).
    overflow_min: u64,
    /// `(seq, done_at)` of the instructions due at the next completion
    /// stage (`done_at <= cursor`), which skip the buckets: most
    /// complete the cycle after they issue. One issue stage fills it, so
    /// it is in sequence order.
    soon: Vec<(Seq, u64)>,
    /// Instructions in the wheel: soon-due, bucketed and overflowed.
    executing: usize,
    amos: VecDeque<Seq>,
    /// Reused buffer for the entries due in one completion stage.
    due: Vec<Seq>,
}

impl Scheduler {
    pub(crate) fn new(rob_entries: usize, num_pregs: usize) -> Self {
        let slots = rob_entries.next_power_of_two();
        // Twice the default memory latency: every completion under the
        // default latencies lands in a bucket.
        let span = (2 * LatencyConfig::default().mem as usize)
            .next_power_of_two()
            .max(64);
        Scheduler {
            slot_mask: slots - 1,
            queued: 0,
            ready: Vec::new(),
            woken: Vec::new(),
            issued_at: Vec::new(),
            wait_head: vec![NIL; num_pregs],
            wait_nodes: vec![UNLINKED; 2 * slots],
            heads: vec![NIL; span + 1],
            occupied: vec![0; span / 64],
            exec: vec![IDLE; slots],
            span,
            cursor: 0,
            overflow_min: u64::MAX,
            soon: Vec::new(),
            executing: 0,
            amos: VecDeque::new(),
            due: Vec::new(),
        }
    }

    fn slot(&self, seq: Seq) -> usize {
        seq as usize & self.slot_mask
    }

    /// IQ occupancy.
    pub(crate) fn iq_len(&self) -> usize {
        self.queued
    }

    /// The ready list, ascending.
    pub(crate) fn ready(&self) -> &[Ready] {
        &self.ready
    }

    /// Notes that the scheme refusal of `ready[at]` was recorded.
    pub(crate) fn mark_delayed(&mut self, at: usize) {
        self.ready[at].gate |= DELAYED;
    }

    fn node(&self, seq: Seq, k: usize) -> usize {
        2 * self.slot(seq) + k
    }

    /// Whether operand `k` of `seq` is covered by a wait-list node on
    /// `preg`: its own, or operand 0's when both name `preg`.
    pub(crate) fn waits_on(&self, seq: Seq, k: usize, preg: PReg) -> bool {
        (0..=k).any(|j| {
            let n = self.wait_nodes[self.node(seq, j)];
            n.seq == seq && n.preg == preg
        })
    }

    /// Enters a dispatched instruction — the youngest in flight — into
    /// the IQ. `unready` lists its issue operands `(k, preg)` not yet
    /// produced; with none it is ready at once, behind scheme gate
    /// `gate`.
    pub(crate) fn dispatch(
        &mut self,
        seq: Seq,
        unready: impl IntoIterator<Item = (usize, PReg)>,
        gate: impl FnOnce() -> Seq,
        amo: bool,
    ) {
        debug_assert!(self.woken.is_empty(), "dispatch follows the issue merge");
        debug_assert!(self.ready.last().is_none_or(|r| r.seq < seq));
        self.queued += 1;
        if amo {
            self.amos.push_back(seq);
        }
        let mut linked = NIL;
        for (k, preg) in unready {
            if preg == linked {
                // One write wakes both operands.
                continue;
            }
            let node = self.node(seq, k);
            let next = self.wait_head[preg as usize];
            if next != NIL {
                self.wait_nodes[next as usize].prev = node as u32;
            }
            self.wait_nodes[node] = WaitNode {
                seq,
                preg,
                prev: NIL,
                next,
            };
            self.wait_head[preg as usize] = node as u32;
            linked = preg;
        }
        if linked == NIL {
            self.ready.push(Ready::new(seq, gate()));
        }
    }

    /// Wakeup after a write to `preg`: empties its wait list and queues
    /// for listing every waiter for which `ready(seq)` returns its
    /// scheme gate — every issue operand now produced.
    pub(crate) fn wake(&mut self, preg: PReg, ready: impl Fn(Seq) -> Option<Seq>) {
        let mut node = std::mem::replace(&mut self.wait_head[preg as usize], NIL);
        while node != NIL {
            let n = std::mem::replace(&mut self.wait_nodes[node as usize], UNLINKED);
            node = n.next;
            if let Some(gate) = ready(n.seq) {
                self.woken.push(Ready::new(n.seq, gate));
            }
        }
    }

    /// Start of the issue stage: merges the entries woken since the last
    /// one into the ready list, in place and in sequence order.
    pub(crate) fn merge_woken(&mut self) {
        if self.woken.is_empty() {
            return;
        }
        self.woken.sort_unstable_by_key(|r| r.seq);
        let old = self.ready.len();
        if self.ready.last().is_none_or(|r| r.seq < self.woken[0].seq) {
            self.ready.append(&mut self.woken);
            return;
        }
        // Merge from the back into the grown list, so every listed entry
        // moves at most once.
        self.ready.resize(old + self.woken.len(), self.woken[0]);
        let (mut i, mut j) = (old, self.woken.len());
        let mut k = self.ready.len();
        while j > 0 {
            k -= 1;
            if i > 0 && self.ready[i - 1].seq > self.woken[j - 1].seq {
                i -= 1;
                self.ready[k] = self.ready[i];
            } else {
                j -= 1;
                self.ready[k] = self.woken[j];
            }
        }
        self.woken.clear();
    }

    /// Records the issue of listed entry `ready[at]`, executing until
    /// `done_at`: it leaves the IQ and enters the completion wheel, and
    /// leaves the ready list at [`Scheduler::compact_issued`].
    pub(crate) fn issued(&mut self, at: usize, done_at: u64) {
        let seq = self.ready[at].seq;
        debug_assert!(self.issued_at.last().is_none_or(|&i| i < at));
        self.issued_at.push(at);
        self.queued -= 1;
        if self.amos.front() == Some(&seq) {
            self.amos.pop_front();
        }
        self.insert(seq, done_at);
    }

    /// End of the issue stage: drops the entries it issued from the
    /// ready list in one pass.
    pub(crate) fn compact_issued(&mut self) {
        let Some(&first) = self.issued_at.first() else {
            return;
        };
        let mut write = first;
        for (n, &at) in self.issued_at.iter().enumerate() {
            let end = self
                .issued_at
                .get(n + 1)
                .copied()
                .unwrap_or(self.ready.len());
            self.ready.copy_within(at + 1..end, write);
            write += end - at - 1;
        }
        self.ready.truncate(write);
        self.issued_at.clear();
    }

    /// Whether an AMO older than `seq` has not issued yet. Its memory
    /// update happens at issue, so younger loads gate on this.
    pub(crate) fn unissued_amo_older_than(&self, seq: Seq) -> bool {
        self.amos.front().is_some_and(|&a| a < seq)
    }

    /// Links `slot` at the front of list `list`.
    fn link(&mut self, slot: usize, list: usize) {
        let next = self.heads[list];
        if next != NIL {
            self.exec[next as usize].prev = slot as u32;
        }
        let n = &mut self.exec[slot];
        n.list = list as u32;
        n.prev = NIL;
        n.next = next;
        self.heads[list] = slot as u32;
        if list < self.span {
            self.occupied[list / 64] |= 1 << (list % 64);
        }
    }

    /// Takes `slot` out of its list.
    fn unlink(&mut self, slot: usize) {
        let ExecNode {
            list, prev, next, ..
        } = self.exec[slot];
        let list = list as usize;
        if prev == NIL {
            self.heads[list] = next;
            if next == NIL && list < self.span {
                self.occupied[list / 64] &= !(1 << (list % 64));
            }
        } else {
            self.exec[prev as usize].next = next;
        }
        if next != NIL {
            self.exec[next as usize].prev = prev;
        }
        self.exec[slot].list = NIL;
    }

    /// Enters executing instruction `seq` into the wheel: into the
    /// list due at the next completion stage when `done_at` is no later
    /// than the first undrained cycle (an instruction that completes in
    /// its issue cycle is due then too), else into the bucket of
    /// `done_at`, or into the overflow list when that bucket lies beyond
    /// the wheel's span.
    fn insert(&mut self, seq: Seq, done_at: u64) {
        self.executing += 1;
        if done_at <= self.cursor {
            self.soon.push((seq, done_at));
            return;
        }
        let slot = self.slot(seq);
        let list = if done_at - self.cursor < self.span as u64 {
            done_at as usize & (self.span - 1)
        } else {
            self.overflow_min = self.overflow_min.min(done_at);
            self.span
        };
        self.exec[slot].seq = seq;
        self.exec[slot].done_at = done_at;
        self.link(slot, list);
    }

    /// Earliest cycle an executing instruction completes at.
    pub(crate) fn next_done_at(&self) -> Option<u64> {
        if self.executing == 0 {
            return None;
        }
        let soon = self.soon.iter().map(|&(_, d)| d);
        let mut best = soon.fold(self.overflow_min, u64::min);
        // The first occupied bucket from the cursor holds the earliest
        // wheel entries; its `done_at`s may lie before the cursor.
        let start = self.cursor as usize & (self.span - 1);
        let words = self.occupied.len();
        for step in 0..=words {
            let w = (start / 64 + step) % words;
            let mut bits = self.occupied[w];
            if step == 0 {
                bits &= u64::MAX << (start % 64);
            }
            if bits != 0 {
                let mut node = self.heads[w * 64 + bits.trailing_zeros() as usize];
                while node != NIL {
                    let n = self.exec[node as usize];
                    best = best.min(n.done_at);
                    node = n.next;
                }
                break;
            }
        }
        Some(best)
    }

    /// Takes every instruction due by `now` out of the wheel, returned
    /// in ascending sequence order (the order completion processes them
    /// in). The buffer is borrowed back with [`Scheduler::return_due`].
    pub(crate) fn take_due(&mut self, now: u64) -> Vec<Seq> {
        let mut due = std::mem::take(&mut self.due);
        if self.executing > 0 && now >= self.cursor {
            self.executing -= self.soon.len();
            due.extend(self.soon.drain(..).map(|(seq, _)| seq));
            let sorted = due.len();
            // At most one lap: past that every bucket is due.
            let laps = (now - self.cursor + 1).min(self.span as u64);
            for cycle in self.cursor..self.cursor + laps {
                let b = cycle as usize & (self.span - 1);
                if self.occupied[b / 64] & (1 << (b % 64)) != 0 {
                    self.drain_bucket(b, &mut due);
                }
            }
            if self.overflow_min <= now {
                self.drain_overflow(now, &mut due);
            }
            if due.len() > sorted {
                due.sort_unstable();
            }
        }
        self.cursor = self.cursor.max(now + 1);
        due
    }

    fn drain_bucket(&mut self, b: usize, due: &mut Vec<Seq>) {
        let mut node = std::mem::replace(&mut self.heads[b], NIL);
        self.occupied[b / 64] &= !(1 << (b % 64));
        while node != NIL {
            let n = &mut self.exec[node as usize];
            n.list = NIL;
            due.push(n.seq);
            node = n.next;
            self.executing -= 1;
        }
    }

    fn drain_overflow(&mut self, now: u64, due: &mut Vec<Seq>) {
        let mut node = self.heads[self.span];
        let mut min = u64::MAX;
        while node != NIL {
            let n = self.exec[node as usize];
            if n.done_at <= now {
                self.unlink(node as usize);
                self.executing -= 1;
                due.push(n.seq);
            } else {
                min = min.min(n.done_at);
            }
            node = n.next;
        }
        self.overflow_min = min;
    }

    /// Returns the buffer lent out by [`Scheduler::take_due`].
    pub(crate) fn return_due(&mut self, mut due: Vec<Seq>) {
        due.clear();
        self.due = due;
    }

    /// Squash, per squashed ROB entry: an entry still waiting leaves the
    /// IQ and its registers' wait lists; an executing one leaves the
    /// completion wheel.
    pub(crate) fn forget(&mut self, e: &RobEntry) {
        match e.status {
            Status::Waiting => {
                self.queued -= 1;
                for k in 0..2 {
                    self.unlink_wait(e.seq, k);
                }
            }
            Status::Executing { .. } => {
                let slot = self.slot(e.seq);
                let n = self.exec[slot];
                if n.list == NIL || n.seq != e.seq {
                    return;
                }
                self.unlink(slot);
                self.executing -= 1;
                if n.list as usize == self.span && n.done_at == self.overflow_min {
                    self.overflow_min = self
                        .overflow_entries()
                        .map(|(d, _)| d)
                        .min()
                        .unwrap_or(u64::MAX);
                }
            }
            Status::Done => {}
        }
    }

    /// Squash: drops every listed, woken, pending-AMO or soon-due
    /// instruction with sequence `>= first` (the bucketed ones left with
    /// [`Scheduler::forget`]).
    pub(crate) fn squash_from(&mut self, first: Seq) {
        let keep = self.soon.partition_point(|&(s, _)| s < first);
        self.executing -= self.soon.len() - keep;
        self.soon.truncate(keep);
        let keep = self.ready.partition_point(|r| r.seq < first);
        self.ready.truncate(keep);
        self.woken.retain(|r| r.seq < first);
        let keep = self.amos.partition_point(|&s| s < first);
        self.amos.truncate(keep);
    }

    /// Takes operand `k` of `seq` out of its wait list, if linked.
    fn unlink_wait(&mut self, seq: Seq, k: usize) {
        let node = self.node(seq, k);
        let n = self.wait_nodes[node];
        if n.preg == NIL || n.seq != seq {
            return;
        }
        if n.prev == NIL {
            self.wait_head[n.preg as usize] = n.next;
        } else {
            self.wait_nodes[n.prev as usize].next = n.next;
        }
        if n.next != NIL {
            self.wait_nodes[n.next as usize].prev = n.prev;
        }
        self.wait_nodes[node] = UNLINKED;
    }

    /// The `(done_at, seq)` keys of list `list`, front to back (at most
    /// one per slot, so a corrupted cycle cannot loop forever).
    fn list_entries(&self, list: usize) -> impl Iterator<Item = (u64, Seq)> + '_ {
        let mut node = self.heads[list];
        std::iter::from_fn(move || {
            let n = self.exec.get(node as usize)?;
            node = n.next;
            Some((n.done_at, n.seq))
        })
        .take(self.exec.len())
    }

    fn overflow_entries(&self) -> impl Iterator<Item = (u64, Seq)> + '_ {
        self.list_entries(self.span)
    }

    /// Iterates the completion wheel's `(done_at, seq)` keys: the
    /// soon-due list, every bucket, then the overflow list.
    pub(crate) fn executing(&self) -> impl Iterator<Item = (u64, Seq)> + '_ {
        let soon = self.soon.iter().map(|&(seq, done_at)| (done_at, seq));
        soon.chain((0..=self.span).flat_map(|list| self.list_entries(list)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rob::InstClass;

    fn sched() -> Scheduler {
        Scheduler::new(40, 64)
    }

    fn executing(seq: Seq, done_at: u64) -> RobEntry {
        RobEntry {
            seq,
            status: Status::Executing { done_at },
            srcs: [None, None],
            dst: None,
            class: InstClass::default(),
        }
    }

    fn listed(s: &Scheduler) -> Vec<Seq> {
        s.ready().iter().map(|r| r.seq).collect()
    }

    /// Lists `seq` as ready and issues it, completing at `done_at`.
    fn issue(s: &mut Scheduler, seq: Seq, done_at: u64) {
        s.dispatch(seq, [], || 0, false);
        let at = s.ready().iter().position(|r| r.seq == seq).unwrap();
        s.issued(at, done_at);
        s.compact_issued();
    }

    #[test]
    fn same_register_operands_wake_and_list_once() {
        let mut s = sched();
        s.dispatch(3, [(0, 9), (1, 9)], || 0, false);
        assert!(s.waits_on(3, 0, 9) && s.waits_on(3, 1, 9));
        assert!(listed(&s).is_empty());
        s.wake(9, |_| Some(0));
        s.merge_woken();
        assert_eq!(listed(&s), vec![3]);
        assert!(!s.waits_on(3, 0, 9) && !s.waits_on(3, 1, 9));
    }

    #[test]
    fn woken_entries_merge_between_listed_ones() {
        let mut s = sched();
        s.dispatch(1, [], || 0, false);
        s.dispatch(2, [(0, 5)], || 0, false);
        s.dispatch(3, [], || 0, false);
        s.dispatch(4, [(0, 6)], || 0, false);
        s.dispatch(5, [], || 0, false);
        s.dispatch(6, [(1, 5)], || 0, false);
        // Woken out of order: register 6 first, then register 5.
        s.wake(6, |_| Some(0));
        s.wake(5, |seq| Some(seq * 10));
        assert_eq!(listed(&s), vec![1, 3, 5], "merged only at issue");
        s.merge_woken();
        assert_eq!(listed(&s), vec![1, 2, 3, 4, 5, 6]);
        let gates: Vec<_> = s.ready().iter().map(|r| r.gate()).collect();
        assert_eq!(gates, vec![0, 20, 0, 0, 0, 60]);
        // Issue the second and fourth; one compaction drops both.
        s.issued(1, 10);
        s.issued(3, 10);
        s.compact_issued();
        assert_eq!(listed(&s), vec![1, 3, 5, 6]);
        assert_eq!(s.iq_len(), 4);
    }

    #[test]
    fn completions_come_due_in_sequence_order() {
        let mut s = sched();
        assert_eq!(s.take_due(0), Vec::<Seq>::new());
        issue(&mut s, 0, 5);
        issue(&mut s, 1, 3);
        issue(&mut s, 2, 5);
        assert_eq!(s.next_done_at(), Some(3));
        let due = s.take_due(4);
        assert_eq!(due, vec![1]);
        s.return_due(due);
        assert_eq!(s.next_done_at(), Some(5));
        let due = s.take_due(5);
        assert_eq!(due, vec![0, 2]);
        s.return_due(due);
        assert_eq!(s.next_done_at(), None);
    }

    #[test]
    fn completion_past_the_span_waits_in_overflow() {
        let mut s = sched();
        let span = s.span as u64;
        let _ = s.take_due(10);
        issue(&mut s, 0, 11 + 3 * span);
        issue(&mut s, 1, 12);
        issue(&mut s, 2, 11 + span + 7);
        assert_eq!(s.next_done_at(), Some(12));
        assert_eq!(s.take_due(12), vec![1]);
        assert_eq!(s.next_done_at(), Some(11 + span + 7));
        // Skipping straight to the overflow entry's cycle takes it and
        // nothing early.
        assert!(s.take_due(11 + span + 6).is_empty());
        assert_eq!(s.take_due(11 + span + 7), vec![2]);
        assert_eq!(s.next_done_at(), Some(11 + 3 * span));
        assert_eq!(s.take_due(11 + 3 * span), vec![0]);
        assert_eq!(s.next_done_at(), None);
    }

    #[test]
    fn squashed_executing_entries_leave_next_done_at_exact() {
        let mut s = sched();
        let span = s.span as u64;
        issue(&mut s, 0, 2);
        issue(&mut s, 1, 4);
        issue(&mut s, 2, 9 * span);
        issue(&mut s, 3, 5 * span);
        assert_eq!(s.next_done_at(), Some(2));
        s.forget(&executing(0, 2));
        assert_eq!(s.next_done_at(), Some(4));
        s.forget(&executing(1, 4));
        assert_eq!(s.next_done_at(), Some(5 * span));
        s.forget(&executing(3, 5 * span));
        assert_eq!(s.next_done_at(), Some(9 * span));
        assert_eq!(s.executing().collect::<Vec<_>>(), vec![(9 * span, 2)]);
        s.forget(&executing(2, 9 * span));
        assert_eq!(s.next_done_at(), None);
        assert_eq!(s.executing().count(), 0);
    }

    #[test]
    fn same_cycle_completion_is_due_next_stage() {
        let mut s = sched();
        let _ = s.take_due(7);
        // Issued at cycle 7, after its completion stage, done at 7.
        issue(&mut s, 0, 7);
        assert_eq!(s.next_done_at(), Some(7));
        assert_eq!(s.take_due(8), vec![0]);
    }

    #[test]
    fn wheel_resumes_at_a_late_cycle() {
        let mut s = sched();
        // A restored core's first completion stage is far past cycle 0.
        let now = 1_000_000_007;
        assert!(s.take_due(now).is_empty());
        issue(&mut s, 40, now + 2);
        issue(&mut s, 41, now + 1);
        assert_eq!(s.next_done_at(), Some(now + 1));
        assert_eq!(s.take_due(now + 2), vec![40, 41]);
    }

    #[test]
    fn slots_wrap_around_the_ring() {
        let mut s = sched();
        for seq in 0..500 {
            issue(&mut s, seq, seq + 1);
            assert_eq!(s.take_due(seq + 1), vec![seq]);
        }
        assert_eq!(s.iq_len(), 0);
        assert_eq!(s.next_done_at(), None);
    }
}
