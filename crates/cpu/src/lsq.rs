//! Load queue, store queue, and store buffer.
//!
//! ReCon-relevant behaviour (§4.4.2, §4.5):
//!
//! * values forwarded from the SQ or SB are **always concealed** — a
//!   store conceals its output in the SQ/SB, so forwarding can never lift
//!   defenses;
//! * a committed store sits in the store buffer until *performed*; only
//!   then is the word concealed **outside** the core (rMCA / x86-TSO
//!   style store→load relaxation);
//! * without memory-dependence speculation a load waits for all older
//!   store addresses (§4.5.1); with it, violations squash (§4.5.2).

use recon_secure::Seq;
use std::collections::VecDeque;

/// A store-queue entry (in-flight or committed-but-unperformed store).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SqEntry {
    /// The store's sequence number.
    pub seq: Seq,
    /// Effective address, once computed.
    pub addr: Option<u64>,
    /// Store data, once available.
    pub value: Option<u64>,
}

/// Result of a forwarding probe for a load.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Forward {
    /// No older store overlaps: read from the cache hierarchy.
    FromMemory,
    /// An older store to the same word supplies the value (concealed).
    FromStore {
        /// The supplying store's sequence number.
        seq: Seq,
        /// The forwarded value.
        value: u64,
    },
    /// The value is supplied by a committed store still in the store
    /// buffer (concealed).
    FromBuffer {
        /// The forwarded value.
        value: u64,
    },
    /// An older store's address (or same-word data) is not yet known:
    /// the load must wait (conservative mode).
    MustWait,
}

/// The store queue: uncommitted stores, in program order.
#[derive(Clone, Debug, Default)]
pub struct StoreQueue {
    entries: VecDeque<SqEntry>,
    capacity: usize,
    /// Entries whose data has not been supplied yet.
    unsupplied: usize,
}

impl StoreQueue {
    /// Creates a store queue with the given capacity.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        StoreQueue {
            entries: VecDeque::new(),
            capacity,
            unsupplied: 0,
        }
    }

    /// Whether a store can be dispatched.
    #[must_use]
    pub fn has_space(&self) -> bool {
        self.entries.len() < self.capacity
    }

    /// Occupancy.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the queue is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Dispatches a store.
    ///
    /// # Panics
    ///
    /// Panics when full; check [`StoreQueue::has_space`].
    pub fn push(&mut self, seq: Seq) {
        assert!(self.has_space(), "SQ full");
        debug_assert!(self.entries.back().is_none_or(|e| e.seq < seq));
        self.entries.push_back(SqEntry {
            seq,
            addr: None,
            value: None,
        });
        self.unsupplied += 1;
    }

    /// The entry of store `seq`, found by binary search (entries are
    /// in ascending sequence order).
    fn get_mut(&mut self, seq: Seq) -> Option<&mut SqEntry> {
        let at = self.entries.binary_search_by_key(&seq, |e| e.seq).ok()?;
        self.entries.get_mut(at)
    }

    /// Records the resolved address of a store.
    pub fn set_addr(&mut self, seq: Seq, addr: u64) {
        if let Some(e) = self.get_mut(seq) {
            e.addr = Some(addr);
        }
    }

    /// Records the data of a store.
    pub fn set_value(&mut self, seq: Seq, value: u64) {
        if let Some(e) = self.get_mut(seq) {
            if e.value.replace(value).is_none() {
                self.unsupplied -= 1;
            }
        }
    }

    /// Whether every store older than `seq` has a resolved address.
    #[must_use]
    pub fn older_addrs_resolved(&self, seq: Seq) -> bool {
        self.entries
            .iter()
            .take_while(|e| e.seq < seq)
            .all(|e| e.addr.is_some())
    }

    /// Forwarding probe: scans stores older than `load_seq`,
    /// youngest-first, for a same-word match. The younger stores are
    /// skipped by binary search, not walked.
    ///
    /// `conservative` selects §4.5.1 behaviour: any unresolved older
    /// store address forces [`Forward::MustWait`]. Non-conservative
    /// (predictor) mode skips unresolved stores optimistically.
    #[must_use]
    pub fn forward(&self, load_seq: Seq, addr: u64, conservative: bool) -> Forward {
        let older = self.entries.partition_point(|e| e.seq < load_seq);
        for e in self.entries.range(..older).rev() {
            match e.addr {
                None => {
                    if conservative {
                        return Forward::MustWait;
                    }
                    // Predicted no-conflict: skip.
                }
                Some(a) if a == addr => {
                    return match e.value {
                        Some(v) => Forward::FromStore {
                            seq: e.seq,
                            value: v,
                        },
                        None => Forward::MustWait,
                    };
                }
                Some(_) => {}
            }
        }
        Forward::FromMemory
    }

    /// Removes the (oldest) store `seq` at commit, returning its
    /// resolved `(addr, value)` for the store buffer.
    ///
    /// # Panics
    ///
    /// Panics if `seq` is not the oldest entry or is unresolved —
    /// commit is in order and requires a computed address and data.
    pub fn commit(&mut self, seq: Seq) -> (u64, u64) {
        let e = self
            .entries
            .pop_front()
            .expect("committing store not in SQ");
        assert_eq!(e.seq, seq, "stores commit in order");
        (
            e.addr.expect("committed store has address"),
            e.value.expect("has data"),
        )
    }

    /// Drops all stores younger than `seq` (squash).
    pub fn squash_after(&mut self, seq: Seq) {
        while matches!(self.entries.back(), Some(e) if e.seq > seq) {
            if self.entries.pop_back().is_some_and(|e| e.value.is_none()) {
                self.unsupplied -= 1;
            }
        }
    }

    /// Iterates entries oldest → youngest.
    pub fn iter(&self) -> impl Iterator<Item = &SqEntry> {
        self.entries.iter()
    }

    /// Supplies data to stores still waiting for it, oldest first:
    /// `supply(seq)` returns the value of store `seq` once available.
    /// Returns whether any store received its data. Free when every
    /// store already has its data.
    pub fn supply(&mut self, mut supply: impl FnMut(Seq) -> Option<u64>) -> bool {
        if self.unsupplied == 0 {
            return false;
        }
        let mut any = false;
        for e in self.entries.iter_mut().filter(|e| e.value.is_none()) {
            if let Some(v) = supply(e.seq) {
                e.value = Some(v);
                self.unsupplied -= 1;
                any = true;
            }
        }
        any
    }

    /// The oldest store, if any (the next to commit).
    #[must_use]
    pub fn head(&self) -> Option<&SqEntry> {
        self.entries.front()
    }
}

/// The store buffer: committed stores awaiting performance, in order.
#[derive(Clone, Debug, Default)]
pub struct StoreBuffer {
    entries: VecDeque<(u64, u64)>,
    capacity: usize,
}

impl StoreBuffer {
    /// Creates a buffer with the given capacity.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        StoreBuffer {
            entries: VecDeque::new(),
            capacity,
        }
    }

    /// Whether a committed store can enter.
    #[must_use]
    pub fn has_space(&self) -> bool {
        self.entries.len() < self.capacity
    }

    /// Occupancy.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the buffer is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Enqueues a committed store.
    ///
    /// # Panics
    ///
    /// Panics when full; check [`StoreBuffer::has_space`].
    pub fn push(&mut self, addr: u64, value: u64) {
        assert!(self.has_space(), "SB full");
        self.entries.push_back((addr, value));
    }

    /// Dequeues the oldest store for performance.
    pub fn pop(&mut self) -> Option<(u64, u64)> {
        self.entries.pop_front()
    }

    /// Youngest same-word value, if any (forwarding; always concealed).
    #[must_use]
    pub fn forward(&self, addr: u64) -> Option<u64> {
        self.entries
            .iter()
            .rev()
            .find(|&&(a, _)| a == addr)
            .map(|&(_, v)| v)
    }
}

/// The load queue: in-flight loads, for occupancy and violation checks.
///
/// A ring of `capacity` slots in program order. [`LoadQueue::push`]
/// returns the slot a load occupies until it commits or is squashed, so
/// [`LoadQueue::complete`] needs no search.
#[derive(Clone, Debug, Default)]
pub struct LoadQueue {
    /// Slots in ring order; grows to `capacity` as slots are first used.
    entries: Vec<LqEntry>,
    capacity: usize,
    /// Slot of the oldest load.
    head: usize,
    len: usize,
}

/// A load-queue entry.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LqEntry {
    /// The load's sequence number.
    pub seq: Seq,
    /// Effective address once issued.
    pub addr: Option<u64>,
    /// Which older store forwarded the value, if any.
    pub forwarded_from: Option<Seq>,
    /// Whether the load has executed.
    pub done: bool,
}

impl LoadQueue {
    /// Creates a load queue with the given capacity.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        LoadQueue {
            entries: Vec::new(),
            capacity,
            head: 0,
            len: 0,
        }
    }

    /// The slot `i` places after the head.
    fn slot(&self, i: usize) -> usize {
        let s = self.head + i;
        if s >= self.capacity {
            s - self.capacity
        } else {
            s
        }
    }

    /// Whether a load can be dispatched.
    #[must_use]
    pub fn has_space(&self) -> bool {
        self.len < self.capacity
    }

    /// Occupancy.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Dispatches a load, returning the slot it occupies.
    ///
    /// # Panics
    ///
    /// Panics when full; check [`LoadQueue::has_space`].
    pub fn push(&mut self, seq: Seq) -> u32 {
        assert!(self.has_space(), "LQ full");
        let slot = self.slot(self.len);
        let e = LqEntry {
            seq,
            addr: None,
            forwarded_from: None,
            done: false,
        };
        if slot < self.entries.len() {
            self.entries[slot] = e;
        } else {
            // Slots are first used in ring order from slot 0.
            self.entries.push(e);
        }
        self.len += 1;
        slot as u32
    }

    /// Marks load `seq`, in `slot`, executed at `addr`, with its
    /// forwarding source.
    pub fn complete(&mut self, slot: u32, seq: Seq, addr: u64, forwarded_from: Option<Seq>) {
        if let Some(e) = self.entries.get_mut(slot as usize).filter(|e| e.seq == seq) {
            e.addr = Some(addr);
            e.forwarded_from = forwarded_from;
            e.done = true;
        }
    }

    /// Removes the oldest load (commit).
    pub fn commit(&mut self, seq: Seq) {
        if self.len > 0 && self.entries[self.head].seq == seq {
            self.head = self.slot(1);
            self.len -= 1;
        }
    }

    /// Drops all loads younger than `seq` (squash).
    pub fn squash_after(&mut self, seq: Seq) {
        while self.len > 0 && self.entries[self.slot(self.len - 1)].seq > seq {
            self.len -= 1;
        }
    }

    /// Iterates entries oldest → youngest.
    pub fn iter(&self) -> impl Iterator<Item = &LqEntry> {
        (0..self.len).map(|i| &self.entries[self.slot(i)])
    }

    /// Memory-order violation check when store `store_seq` resolves its
    /// address: returns the oldest younger load that already executed on
    /// the same word without forwarding from this store (§4.5.2).
    #[must_use]
    pub fn violation(&self, store_seq: Seq, store_addr: u64) -> Option<Seq> {
        self.iter()
            .filter(|e| e.seq > store_seq && e.done)
            .filter(|e| e.addr == Some(store_addr))
            .filter(|e| e.forwarded_from != Some(store_seq))
            .map(|e| e.seq)
            .min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sq_forward_same_word_hit() {
        let mut sq = StoreQueue::new(8);
        sq.push(1);
        sq.set_addr(1, 0x100);
        sq.set_value(1, 42);
        assert_eq!(
            sq.forward(5, 0x100, true),
            Forward::FromStore { seq: 1, value: 42 }
        );
        assert_eq!(sq.forward(5, 0x108, true), Forward::FromMemory);
    }

    #[test]
    fn sq_forward_youngest_matching_store_wins() {
        let mut sq = StoreQueue::new(8);
        sq.push(1);
        sq.set_addr(1, 0x100);
        sq.set_value(1, 1);
        sq.push(2);
        sq.set_addr(2, 0x100);
        sq.set_value(2, 2);
        assert_eq!(
            sq.forward(5, 0x100, true),
            Forward::FromStore { seq: 2, value: 2 }
        );
    }

    #[test]
    fn sq_forward_ignores_younger_stores() {
        let mut sq = StoreQueue::new(8);
        sq.push(7);
        sq.set_addr(7, 0x100);
        sq.set_value(7, 9);
        assert_eq!(sq.forward(5, 0x100, true), Forward::FromMemory);
    }

    #[test]
    fn conservative_waits_on_unresolved_older_store() {
        let mut sq = StoreQueue::new(8);
        sq.push(1); // no address yet
        assert_eq!(sq.forward(5, 0x100, true), Forward::MustWait);
        assert_eq!(
            sq.forward(5, 0x100, false),
            Forward::FromMemory,
            "predictor mode speculates past it"
        );
    }

    #[test]
    fn matching_store_without_data_waits() {
        let mut sq = StoreQueue::new(8);
        sq.push(1);
        sq.set_addr(1, 0x100);
        assert_eq!(sq.forward(5, 0x100, false), Forward::MustWait);
    }

    #[test]
    fn sq_commit_in_order() {
        let mut sq = StoreQueue::new(8);
        sq.push(1);
        sq.set_addr(1, 0x10);
        sq.set_value(1, 5);
        assert_eq!(sq.commit(1), (0x10, 5));
        assert!(sq.is_empty());
    }

    #[test]
    fn sq_squash_drops_younger() {
        let mut sq = StoreQueue::new(8);
        sq.push(1);
        sq.push(5);
        sq.push(9);
        sq.squash_after(5);
        assert_eq!(sq.len(), 2);
        assert!(sq.older_addrs_resolved(0));
    }

    #[test]
    fn older_addrs_resolved_scoped_to_older() {
        let mut sq = StoreQueue::new(8);
        sq.push(1);
        sq.set_addr(1, 0x8);
        sq.push(9); // unresolved, but younger than seq 5
        assert!(sq.older_addrs_resolved(5));
        assert!(!sq.older_addrs_resolved(10));
    }

    #[test]
    fn sb_forwards_youngest() {
        let mut sb = StoreBuffer::new(4);
        sb.push(0x100, 1);
        sb.push(0x100, 2);
        assert_eq!(sb.forward(0x100), Some(2));
        assert_eq!(sb.forward(0x108), None);
        assert_eq!(sb.pop(), Some((0x100, 1)));
    }

    #[test]
    fn lq_violation_detection() {
        let mut lq = LoadQueue::new(8);
        let a = lq.push(10);
        let b = lq.push(12);
        lq.complete(a, 10, 0x100, None); // executed from memory
        lq.complete(b, 12, 0x100, Some(5)); // forwarded from store 5
                                            // Store 5 resolves to 0x100: load 10 read memory and missed the
                                            // forwarding -> violation; load 12 forwarded correctly.
        assert_eq!(lq.violation(5, 0x100), Some(10));
        // A store to a different word bothers no one.
        assert_eq!(lq.violation(5, 0x108), None);
        // A store at seq 11 resolving to the same word catches load 12,
        // which forwarded from the older store 5 instead.
        assert_eq!(lq.violation(11, 0x100), Some(12));
    }

    #[test]
    fn lq_violation_ignores_older_loads() {
        let mut lq = LoadQueue::new(8);
        let a = lq.push(3);
        lq.complete(a, 3, 0x100, None);
        assert_eq!(lq.violation(5, 0x100), None);
    }

    #[test]
    fn lq_commit_and_squash() {
        let mut lq = LoadQueue::new(4);
        lq.push(1);
        lq.push(2);
        lq.push(3);
        lq.commit(1);
        assert_eq!(lq.len(), 2);
        lq.squash_after(2);
        assert_eq!(lq.len(), 1);
    }

    #[test]
    fn lq_slots_wrap_around() {
        let mut lq = LoadQueue::new(3);
        let mut slots = Vec::new();
        for seq in 0..7 {
            if lq.len() == 2 {
                lq.commit(seq - 2);
            }
            slots.push(lq.push(seq));
        }
        assert_eq!(slots, vec![0, 1, 2, 0, 1, 2, 0]);
        lq.complete(0, 6, 0x40, None);
        lq.complete(2, 6, 0x80, None); // another load's slot: ignored
        let seqs: Vec<_> = lq.iter().map(|e| (e.seq, e.addr)).collect();
        assert_eq!(seqs, vec![(5, None), (6, Some(0x40))]);
        lq.squash_after(5);
        assert_eq!(lq.push(9), 0, "a squashed slot is reused");
    }

    #[test]
    fn capacities_enforced() {
        let mut lq = LoadQueue::new(1);
        lq.push(1);
        assert!(!lq.has_space());
        let mut sb = StoreBuffer::new(1);
        sb.push(0, 0);
        assert!(!sb.has_space());
    }
}
