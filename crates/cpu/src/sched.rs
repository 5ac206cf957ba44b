//! Event-driven scheduling state of the out-of-order core.
//!
//! Per-cycle work scales with events, not with structure sizes:
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
//!   is older than the gate, a comparison that needs no operand reads;
//! * **wakeup**: an entry that dispatched with unproduced operands
//!   waits in the wait list of each one's physical register; a register
//!   write empties its list and lists the waiters whose operands are now
//!   all ready;
//! * the **completion heap** keys every executing instruction by
//!   `(done_at, seq)`, so the completion stage pops what is due instead
//!   of rescanning the ROB;
//! * the unissued **AMOs**, oldest first, make the "older AMO still
//!   pending" gate of younger loads a comparison against the front.
//!
//! The wait lists are fixed arrays sized by the core configuration; the
//! other structures grow to their peak occupancy early in a run and
//! then reuse their storage, so nothing allocates per cycle.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use recon_secure::Seq;

use crate::rename::PReg;
use crate::rob::{RobEntry, Status};

/// End of a wait list / an unlinked wait node.
const NIL: u32 = u32::MAX;

/// One ready-list entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Ready {
    pub(crate) seq: Seq,
    /// The youngest guard root among the issue operands the scheme
    /// checks, 0 when it checks none: the scheme refuses the entry while
    /// `frontier < gate`.
    pub(crate) gate: Seq,
    /// Whether a refusal was already recorded on the ROB entry.
    pub(crate) delayed: bool,
}

/// Operand `k` of in-flight instruction `seq` waiting on register
/// `preg`, linked into that register's wait list. Node `2 * slot + k`
/// belongs to the instruction in ROB slot `seq % rob_entries`: in-flight
/// sequence numbers span less than the ROB, so slots never collide.
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

/// The core's issue and completion bookkeeping (see the module docs).
#[derive(Clone, Debug)]
pub(crate) struct Scheduler {
    /// IQ occupancy.
    queued: usize,
    ready: Vec<Ready>,
    /// Per physical register: first node of its wait list.
    wait_head: Vec<u32>,
    wait_nodes: Vec<WaitNode>,
    heap: BinaryHeap<Reverse<(u64, Seq)>>,
    amos: VecDeque<Seq>,
    /// Reused buffer for the entries due in one completion stage.
    due: Vec<Seq>,
}

impl Scheduler {
    pub(crate) fn new(rob_entries: usize, num_pregs: usize) -> Self {
        Scheduler {
            queued: 0,
            ready: Vec::new(),
            wait_head: vec![NIL; num_pregs],
            wait_nodes: vec![UNLINKED; 2 * rob_entries],
            heap: BinaryHeap::new(),
            amos: VecDeque::new(),
            due: Vec::new(),
        }
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
        self.ready[at].delayed = true;
    }

    fn node(&self, seq: Seq, k: usize) -> usize {
        let slots = self.wait_nodes.len() as u64 / 2;
        2 * (seq % slots) as usize + k
    }

    /// Whether operand `k` of `seq` is linked into the wait list of
    /// `preg`.
    pub(crate) fn waits_on(&self, seq: Seq, k: usize, preg: PReg) -> bool {
        let n = self.wait_nodes[self.node(seq, k)];
        n.seq == seq && n.preg == preg
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
        debug_assert!(self.ready.last().is_none_or(|r| r.seq < seq));
        self.queued += 1;
        if amo {
            self.amos.push_back(seq);
        }
        let mut waiting = false;
        for (k, preg) in unready {
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
            waiting = true;
        }
        if !waiting {
            self.ready.push(Ready {
                seq,
                gate: gate(),
                delayed: false,
            });
        }
    }

    /// Wakeup after a write to `preg`: empties its wait list and lists
    /// every waiter for which `ready(seq)` returns its scheme gate —
    /// every issue operand now produced.
    pub(crate) fn wake(&mut self, preg: PReg, ready: impl Fn(Seq) -> Option<Seq>) {
        let mut node = std::mem::replace(&mut self.wait_head[preg as usize], NIL);
        while node != NIL {
            let n = std::mem::replace(&mut self.wait_nodes[node as usize], UNLINKED);
            node = n.next;
            let Some(gate) = ready(n.seq) else {
                continue;
            };
            if let Err(at) = self.ready.binary_search_by_key(&n.seq, |r| r.seq) {
                let (seq, delayed) = (n.seq, false);
                self.ready.insert(at, Ready { seq, gate, delayed });
            }
        }
    }

    /// Records the issue of listed entry `ready[at]`, executing until
    /// `done_at`: it leaves the ready list and the IQ and enters the
    /// completion heap.
    pub(crate) fn issued(&mut self, at: usize, done_at: u64) {
        let seq = self.ready.remove(at).seq;
        self.queued -= 1;
        if self.amos.front() == Some(&seq) {
            self.amos.pop_front();
        }
        self.heap.push(Reverse((done_at, seq)));
    }

    /// Whether an AMO older than `seq` has not issued yet. Its memory
    /// update happens at issue, so younger loads gate on this.
    pub(crate) fn unissued_amo_older_than(&self, seq: Seq) -> bool {
        self.amos.front().is_some_and(|&a| a < seq)
    }

    /// Earliest cycle an executing instruction completes at.
    pub(crate) fn next_done_at(&self) -> Option<u64> {
        self.heap.peek().map(|Reverse((d, _))| *d)
    }

    /// Pops every instruction due by `now`, returned in ascending
    /// sequence order (the order completion processes them in). The
    /// buffer is borrowed back with [`Scheduler::return_due`].
    pub(crate) fn take_due(&mut self, now: u64) -> Vec<Seq> {
        let mut due = std::mem::take(&mut self.due);
        while let Some(&Reverse((d, seq))) = self.heap.peek() {
            if d > now {
                break;
            }
            self.heap.pop();
            due.push(seq);
        }
        due.sort_unstable();
        due
    }

    /// Returns the buffer lent out by [`Scheduler::take_due`].
    pub(crate) fn return_due(&mut self, mut due: Vec<Seq>) {
        due.clear();
        self.due = due;
    }

    /// Squash, per squashed ROB entry: an entry still waiting leaves the
    /// IQ and its registers' wait lists.
    pub(crate) fn forget(&mut self, e: &RobEntry) {
        if e.status == Status::Waiting {
            self.queued -= 1;
            for k in 0..2 {
                self.unlink(e.seq, k);
            }
        }
    }

    /// Squash: drops every listed, executing or pending-AMO instruction
    /// with sequence `>= first`.
    pub(crate) fn squash_from(&mut self, first: Seq) {
        let keep = self.ready.partition_point(|r| r.seq < first);
        self.ready.truncate(keep);
        let keep = self.amos.partition_point(|&s| s < first);
        self.amos.truncate(keep);
        self.heap.retain(|Reverse((_, s))| *s < first);
    }

    /// Takes operand `k` of `seq` out of its wait list, if linked.
    fn unlink(&mut self, seq: Seq, k: usize) {
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

    /// Iterates the completion heap's `(done_at, seq)` keys, unordered.
    pub(crate) fn executing(&self) -> impl Iterator<Item = (u64, Seq)> + '_ {
        self.heap.iter().map(|Reverse(k)| *k)
    }
}
