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

use crate::rename::PReg;

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
    /// The load must wait: an older store's address is not yet known
    /// (conservative mode), or a same-word store's data is not.
    MustWait,
}

/// End of a list / a store on no list.
const NIL: u32 = u32::MAX;
/// [`SqSlot::list`] of a store on the ready list.
const READY: u32 = NIL - 1;
/// Buckets of the resolved-address count: word address modulo 256.
const BUCKETS: usize = 256;

fn bucket(addr: u64) -> usize {
    (addr >> 3) as usize % BUCKETS
}

/// One ring slot: a store and its links while it lacks data.
#[derive(Clone, Copy, Debug)]
struct SqSlot {
    entry: SqEntry,
    /// The store's data register.
    data: PReg,
    /// The list holding the store while it lacks data: its data
    /// register's wait list (the register), the ready list ([`READY`]),
    /// or none ([`NIL`]).
    list: u32,
    prev: u32,
    next: u32,
}

const VACANT: SqSlot = SqSlot {
    entry: SqEntry {
        seq: 0,
        addr: None,
        value: None,
    },
    data: 0,
    list: NIL,
    prev: NIL,
    next: NIL,
};

/// The store queue: uncommitted stores, in program order.
///
/// A ring indexed by *store number*: [`StoreQueue::push`] numbers
/// stores consecutively, and store `n` lives in slot `n & mask`. A load
/// records [`StoreQueue::tail`] at dispatch; the stores older than it
/// are those numbered below that. Numbers, like sequence numbers, are
/// reused after a squash, so a lookup checks the entry's sequence
/// number as well.
///
/// Store data arrives by event. A store without data waits in its data
/// register's wait list until [`StoreQueue::wake`] moves it to the
/// ready list, which [`StoreQueue::supply`] visits. Forwarding keeps a
/// count of resolved addresses per word bucket and a resolved-prefix
/// cursor, so a load no store can match needs no walk.
#[derive(Clone, Debug)]
pub struct StoreQueue {
    slots: Vec<SqSlot>,
    mask: u32,
    capacity: usize,
    /// Number of the oldest store.
    head: u32,
    /// Number the next store receives.
    tail: u32,
    /// Every store numbered from `head` up to (not including) `resolved`
    /// has its address; the store numbered `resolved`, if any, has not.
    resolved: u32,
    /// Resolved addresses in the queue, by [`bucket`].
    buckets: Vec<u32>,
    /// Per physical register: first slot of its wait list.
    wait_head: Vec<u32>,
    /// First slot of the ready list.
    ready: u32,
}

impl StoreQueue {
    /// Creates a store queue with the given capacity for a core with
    /// `num_pregs` physical registers.
    #[must_use]
    pub fn new(capacity: usize, num_pregs: usize) -> Self {
        let ring = capacity.max(1).next_power_of_two();
        StoreQueue {
            slots: vec![VACANT; ring],
            mask: ring as u32 - 1,
            capacity,
            head: 0,
            tail: 0,
            resolved: 0,
            buckets: vec![0; BUCKETS],
            wait_head: vec![NIL; num_pregs],
            ready: NIL,
        }
    }

    fn slot(&self, n: u32) -> usize {
        (n & self.mask) as usize
    }

    /// Whether a store can be dispatched.
    #[must_use]
    pub fn has_space(&self) -> bool {
        self.len() < self.capacity
    }

    /// Occupancy.
    #[must_use]
    pub fn len(&self) -> usize {
        self.tail.wrapping_sub(self.head) as usize
    }

    /// Whether the queue is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.head == self.tail
    }

    /// The number the next dispatched store receives. A load records it
    /// at dispatch: the stores older than the load are numbered below.
    #[must_use]
    pub fn tail(&self) -> u32 {
        self.tail
    }

    /// Dispatches store `seq` with data register `data`, already
    /// written when `data_ready`, and returns its store number.
    ///
    /// # Panics
    ///
    /// Panics when full; check [`StoreQueue::has_space`].
    pub fn push(&mut self, seq: Seq, data: PReg, data_ready: bool) -> u32 {
        assert!(self.has_space(), "SQ full");
        debug_assert!(
            self.is_empty() || self.slots[self.slot(self.tail.wrapping_sub(1))].entry.seq < seq
        );
        let n = self.tail;
        self.tail = n.wrapping_add(1);
        let s = self.slot(n);
        self.slots[s] = SqSlot {
            entry: SqEntry {
                seq,
                addr: None,
                value: None,
            },
            data,
            ..VACANT
        };
        self.link(s, if data_ready { READY } else { data });
        n
    }

    fn list_head(&mut self, list: u32) -> &mut u32 {
        if list == READY {
            &mut self.ready
        } else {
            &mut self.wait_head[list as usize]
        }
    }

    /// Links slot `s` at the front of `list`.
    fn link(&mut self, s: usize, list: u32) {
        let next = std::mem::replace(self.list_head(list), s as u32);
        if next != NIL {
            self.slots[next as usize].prev = s as u32;
        }
        let slot = &mut self.slots[s];
        slot.list = list;
        slot.prev = NIL;
        slot.next = next;
    }

    /// Takes slot `s` out of its list, if it is on one.
    fn unlink(&mut self, s: usize) {
        let SqSlot {
            list, prev, next, ..
        } = self.slots[s];
        if list == NIL {
            return;
        }
        if prev == NIL {
            *self.list_head(list) = next;
        } else {
            self.slots[prev as usize].next = next;
        }
        if next != NIL {
            self.slots[next as usize].prev = prev;
        }
        self.slots[s].list = NIL;
    }

    /// The slot of live store `n`, if it is store `seq`.
    fn live(&self, n: u32, seq: Seq) -> Option<usize> {
        let s = self.slot(n);
        ((n.wrapping_sub(self.head) as usize) < self.len() && self.slots[s].entry.seq == seq)
            .then_some(s)
    }

    /// Records the resolved address of store `seq`, numbered `n`.
    pub fn set_addr(&mut self, n: u32, seq: Seq, addr: u64) {
        let Some(s) = self.live(n, seq) else {
            return;
        };
        let e = &mut self.slots[s].entry;
        debug_assert!(e.addr.is_none(), "a store resolves its address once");
        e.addr = Some(addr);
        self.buckets[bucket(addr)] += 1;
        while self.resolved != self.tail
            && self.slots[self.slot(self.resolved)].entry.addr.is_some()
        {
            self.resolved = self.resolved.wrapping_add(1);
        }
    }

    /// A write to register `preg`: its waiting stores join the ready
    /// list.
    pub fn wake(&mut self, preg: PReg) {
        let mut s = std::mem::replace(&mut self.wait_head[preg as usize], NIL);
        while s != NIL {
            let next = self.slots[s as usize].next;
            self.link(s as usize, READY);
            s = next;
        }
    }

    /// Supplies data to the stores on the ready list: `value(preg)`
    /// returns a store's data from its register once visible. A store it
    /// refuses stays listed. Returns whether any store received its
    /// data.
    pub fn supply(&mut self, mut value: impl FnMut(PReg) -> Option<u64>) -> bool {
        let mut any = false;
        let mut s = self.ready;
        while s != NIL {
            let slot = self.slots[s as usize];
            if let Some(v) = value(slot.data) {
                self.unlink(s as usize);
                self.slots[s as usize].entry.value = Some(v);
                any = true;
            }
            s = slot.next;
        }
        any
    }

    /// Forwarding probe for a load that found the tail at `older_than`
    /// at dispatch: scans the stores older than it, youngest-first, for
    /// a same-word match.
    ///
    /// `conservative` selects §4.5.1 behaviour: any unresolved older
    /// store address forces [`Forward::MustWait`]. Non-conservative
    /// (predictor) mode skips unresolved stores optimistically.
    #[must_use]
    pub fn forward(&self, older_than: u32, addr: u64, conservative: bool) -> Forward {
        let older = older_than.wrapping_sub(self.head);
        debug_assert!(
            older as usize <= self.len(),
            "a load's older stores are a prefix of the queue"
        );
        if self.buckets[bucket(addr)] == 0 {
            // No resolved store writes the word: only an unresolved
            // older store can hold the load back.
            let unresolved = older > self.resolved.wrapping_sub(self.head);
            return if conservative && unresolved {
                Forward::MustWait
            } else {
                Forward::FromMemory
            };
        }
        for i in (0..older).rev() {
            let e = &self.slots[self.slot(self.head.wrapping_add(i))].entry;
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
    /// resolved `(addr, value)` for the store buffer. Data not supplied
    /// yet (its producer can commit in the same burst) is read with
    /// `data(preg)`: by commit the register is written.
    ///
    /// # Panics
    ///
    /// Panics if `seq` is not the oldest entry or has no address —
    /// commit is in order and requires a computed address.
    pub fn commit(&mut self, seq: Seq, data: impl FnOnce(PReg) -> u64) -> (u64, u64) {
        assert!(!self.is_empty(), "committing store not in SQ");
        let s = self.slot(self.head);
        assert_eq!(self.slots[s].entry.seq, seq, "stores commit in order");
        self.unlink(s);
        let slot = self.slots[s];
        let addr = slot.entry.addr.expect("committed store has address");
        self.buckets[bucket(addr)] -= 1;
        self.head = self.head.wrapping_add(1);
        (addr, slot.entry.value.unwrap_or_else(|| data(slot.data)))
    }

    /// Drops all stores younger than `seq` (squash); their numbers are
    /// reused.
    pub fn squash_after(&mut self, seq: Seq) {
        while !self.is_empty() {
            let s = self.slot(self.tail.wrapping_sub(1));
            if self.slots[s].entry.seq <= seq {
                break;
            }
            self.unlink(s);
            if let Some(a) = self.slots[s].entry.addr {
                self.buckets[bucket(a)] -= 1;
            }
            self.tail = self.tail.wrapping_sub(1);
        }
        if self.resolved.wrapping_sub(self.head) as usize > self.len() {
            self.resolved = self.tail;
        }
    }

    /// Iterates entries oldest → youngest.
    pub fn iter(&self) -> impl Iterator<Item = &SqEntry> {
        (0..self.len() as u32).map(|i| &self.slots[self.slot(self.head.wrapping_add(i))].entry)
    }

    /// Invariant sweep of the derived state: the bucket counts and the
    /// resolved cursor match the entries, and every store without data
    /// sits on exactly one list — its data register's wait list while
    /// `written(preg)` is false, else the ready list — and no list holds
    /// anything else.
    pub fn audit(
        &self,
        site: &str,
        written: impl Fn(PReg) -> bool,
        out: &mut Vec<recon::AuditViolation>,
    ) {
        let mut flag = |rule: &'static str, detail: String| {
            out.push(recon::AuditViolation::new(
                rule,
                format!("{site}.sq"),
                detail,
            ));
        };
        let mut buckets = vec![0u32; BUCKETS];
        for a in self.iter().filter_map(|e| e.addr) {
            buckets[bucket(a)] += 1;
        }
        for (b, (&kept, &counted)) in self.buckets.iter().zip(&buckets).enumerate() {
            if kept != counted {
                flag(
                    "sq-bucket-count",
                    format!("bucket {b} counts {kept} resolved stores, entries give {counted}"),
                );
            }
        }
        let prefix = self.iter().take_while(|e| e.addr.is_some()).count() as u32;
        if self.resolved != self.head.wrapping_add(prefix) {
            flag(
                "sq-resolved-cursor",
                format!(
                    "resolved cursor at store {} but stores {}.. lead with {prefix} resolved",
                    self.resolved, self.head
                ),
            );
        }
        // Visits per live store, over every list; a list is walked at
        // most a ring's length, so a corrupted cycle cannot loop.
        let mut visits = vec![0u32; self.len()];
        let lists = (0..self.wait_head.len() as u32).chain([READY]);
        for list in lists {
            let (mut s, name) = if list == READY {
                (self.ready, "the ready list".to_string())
            } else {
                (
                    self.wait_head[list as usize],
                    format!("p{list}'s wait list"),
                )
            };
            for _ in 0..self.slots.len() {
                let Some(slot) = self.slots.get(s as usize) else {
                    break;
                };
                let at = (s.wrapping_sub(self.head) & self.mask) as usize;
                let listed = if list == READY {
                    written(slot.data)
                } else {
                    slot.data == list && !written(list)
                };
                if at >= visits.len() || slot.list != list || slot.entry.value.is_some() || !listed
                {
                    flag(
                        "sq-supply-list",
                        format!(
                            "{name} holds slot {s}: seq {}, data p{} ({}), value {:?}",
                            slot.entry.seq,
                            slot.data,
                            if written(slot.data) {
                                "written"
                            } else {
                                "unwritten"
                            },
                            slot.entry.value
                        ),
                    );
                } else {
                    visits[at] += 1;
                }
                s = slot.next;
            }
        }
        for (e, &v) in self.iter().zip(&visits) {
            if e.value.is_none() && v != 1 {
                flag(
                    "sq-supply-list",
                    format!("seq {} lacks data but sits on {v} lists", e.seq),
                );
            }
        }
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
    use recon_isa::rng::{Rng, SplitMix64};

    /// Pushes store `seq` with data register `seq`, resolved at `addr`
    /// and supplied with `value` where given.
    fn store(sq: &mut StoreQueue, seq: Seq, addr: Option<u64>, value: Option<u64>) -> u32 {
        let n = sq.push(seq, seq as PReg, value.is_some());
        if let Some(a) = addr {
            sq.set_addr(n, seq, a);
        }
        sq.supply(|_| value);
        n
    }

    #[test]
    fn sq_forward_same_word_hit() {
        let mut sq = StoreQueue::new(8, 16);
        store(&mut sq, 1, Some(0x100), Some(42));
        assert_eq!(
            sq.forward(sq.tail(), 0x100, true),
            Forward::FromStore { seq: 1, value: 42 }
        );
        assert_eq!(sq.forward(sq.tail(), 0x108, true), Forward::FromMemory);
    }

    #[test]
    fn sq_forward_youngest_matching_store_wins() {
        let mut sq = StoreQueue::new(8, 16);
        store(&mut sq, 1, Some(0x100), Some(1));
        store(&mut sq, 2, Some(0x100), Some(2));
        assert_eq!(
            sq.forward(sq.tail(), 0x100, true),
            Forward::FromStore { seq: 2, value: 2 }
        );
    }

    #[test]
    fn sq_forward_ignores_younger_stores() {
        let mut sq = StoreQueue::new(8, 16);
        let load = sq.tail();
        store(&mut sq, 7, Some(0x100), Some(9));
        assert_eq!(sq.forward(load, 0x100, true), Forward::FromMemory);
    }

    #[test]
    fn conservative_waits_on_unresolved_older_store() {
        let mut sq = StoreQueue::new(8, 16);
        store(&mut sq, 1, None, None); // no address yet
        assert_eq!(sq.forward(sq.tail(), 0x100, true), Forward::MustWait);
        assert_eq!(
            sq.forward(sq.tail(), 0x100, false),
            Forward::FromMemory,
            "predictor mode speculates past it"
        );
    }

    #[test]
    fn matching_store_without_data_waits() {
        let mut sq = StoreQueue::new(8, 16);
        store(&mut sq, 1, Some(0x100), None);
        assert_eq!(sq.forward(sq.tail(), 0x100, false), Forward::MustWait);
    }

    #[test]
    fn sq_commit_in_order() {
        let mut sq = StoreQueue::new(8, 16);
        store(&mut sq, 1, Some(0x10), Some(5));
        store(&mut sq, 2, Some(0x18), None);
        assert_eq!(sq.commit(1, |_| unreachable!("supplied")), (0x10, 5));
        // Data not supplied yet is read from the register at commit.
        assert_eq!(sq.commit(2, |p| 100 + u64::from(p)), (0x18, 102));
        assert!(sq.is_empty());
        let mut out = Vec::new();
        sq.audit("t", |_| false, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn sq_squash_drops_younger() {
        let mut sq = StoreQueue::new(8, 16);
        store(&mut sq, 1, Some(0x8), Some(1));
        store(&mut sq, 5, None, None);
        store(&mut sq, 9, Some(0x8), None);
        sq.squash_after(5);
        assert_eq!(sq.len(), 2);
        assert_eq!(sq.push(6, 6, false), 2, "a squashed store number is reused");
        assert_eq!(sq.forward(sq.tail(), 0x10, false), Forward::FromMemory);
        assert_eq!(
            sq.forward(sq.tail(), 0x8, false),
            Forward::FromStore { seq: 1, value: 1 }
        );
        let mut out = Vec::new();
        sq.audit("t", |_| false, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn forward_waits_only_on_older_unresolved_stores() {
        let mut sq = StoreQueue::new(8, 16);
        store(&mut sq, 1, Some(0x8), Some(3));
        let load = sq.tail();
        store(&mut sq, 9, None, None); // unresolved, but younger than the load
        assert_eq!(sq.forward(load, 0x100, true), Forward::FromMemory);
        assert_eq!(
            sq.forward(load, 0x8, true),
            Forward::FromStore { seq: 1, value: 3 }
        );
        assert_eq!(sq.forward(sq.tail(), 0x100, true), Forward::MustWait);
    }

    #[test]
    fn store_data_arrives_when_its_register_is_written() {
        let mut sq = StoreQueue::new(8, 16);
        let n = sq.push(1, 3, false);
        sq.set_addr(n, 1, 0x40);
        assert!(!sq.supply(|_| Some(7)), "waits on p3");
        sq.wake(3);
        assert!(!sq.supply(|_| None), "a refused store stays listed");
        assert_eq!(sq.forward(sq.tail(), 0x40, true), Forward::MustWait);
        assert!(sq.supply(|p| (p == 3).then_some(7)));
        assert_eq!(
            sq.forward(sq.tail(), 0x40, true),
            Forward::FromStore { seq: 1, value: 7 }
        );
        assert!(!sq.supply(|_| Some(8)), "supplied once");
    }

    #[test]
    fn audit_flags_a_lost_store() {
        let mut sq = StoreQueue::new(8, 16);
        let n = sq.push(1, 3, false);
        sq.set_addr(n, 1, 0x40);
        // Damage the derived state from outside: the store leaves its
        // wait list and the bucket count drops.
        sq.wait_head[3] = NIL;
        sq.buckets[bucket(0x40)] = 0;
        let mut out = Vec::new();
        sq.audit("t", |_| false, &mut out);
        let rules: Vec<_> = out.iter().map(|v| v.invariant.as_str()).collect();
        assert_eq!(rules, ["sq-bucket-count", "sq-supply-list"]);
    }

    /// The store queue as a linear scan by sequence number: the
    /// reference the ring is checked against.
    #[derive(Default)]
    struct LinearSq(VecDeque<SqEntry>);

    impl LinearSq {
        fn get_mut(&mut self, seq: Seq) -> &mut SqEntry {
            self.0
                .iter_mut()
                .find(|e| e.seq == seq)
                .expect("live store")
        }

        fn forward(&self, load_seq: Seq, addr: u64, conservative: bool) -> Forward {
            for e in self.0.iter().rev().filter(|e| e.seq < load_seq) {
                match e.addr {
                    None if conservative => return Forward::MustWait,
                    Some(a) if a == addr => {
                        return match e.value {
                            Some(v) => Forward::FromStore {
                                seq: e.seq,
                                value: v,
                            },
                            None => Forward::MustWait,
                        };
                    }
                    _ => {}
                }
            }
            Forward::FromMemory
        }
    }

    /// A physical register of the differential test.
    #[derive(Clone, Copy, Default)]
    struct Reg {
        written: bool,
        /// Readable under NDA (its guard lifted).
        visible: bool,
        value: u64,
    }

    /// Drives the ring and [`LinearSq`] with one seeded sequence of
    /// pushes, address resolutions, register writes, guard lifts,
    /// supplies, commits and squashes, comparing every forwarding
    /// answer (for a load at each position, on every word in play),
    /// every supply and commit, and the entries after each step.
    fn differential(seed: u64, conservative: bool) {
        const REGS: usize = 12;
        // Four words, and four more that share their buckets.
        let words: Vec<u64> = (0..8).map(|k| 8 * (k % 4) + 2048 * (k / 4)).collect();
        let mut rng = SplitMix64::new(seed);
        let mut sq = StoreQueue::new(6, REGS);
        let mut reference = LinearSq::default();
        let mut regs = [Reg::default(); REGS];
        // (seq, store number, data register) of the queued stores.
        let mut live: VecDeque<(Seq, u32, PReg)> = VecDeque::new();
        let mut next_seq: Seq = 1;
        let mut floor: Seq = 0;
        for step in 0..6_000 {
            match rng.below(9) {
                0 | 1 if sq.has_space() => {
                    let seq = next_seq + 1;
                    next_seq = seq + 1;
                    let p = rng.below_usize(REGS) as PReg;
                    let n = sq.push(seq, p, regs[p as usize].written);
                    reference.0.push_back(SqEntry {
                        seq,
                        addr: None,
                        value: None,
                    });
                    live.push_back((seq, n, p));
                }
                2 if !live.is_empty() => {
                    let (seq, n, _) = live[rng.below_usize(live.len())];
                    if reference.get_mut(seq).addr.is_none() {
                        let addr = words[rng.below_usize(words.len())];
                        sq.set_addr(n, seq, addr);
                        reference.get_mut(seq).addr = Some(addr);
                    }
                }
                3 => {
                    let p = rng.below_usize(REGS);
                    if !regs[p].written {
                        regs[p] = Reg {
                            written: true,
                            visible: rng.below(2) == 0,
                            value: rng.next_u64(),
                        };
                        sq.wake(p as PReg);
                    }
                }
                4 => regs[rng.below_usize(REGS)].visible = true,
                5 => {
                    let got = sq.supply(|p| {
                        let r = regs[p as usize];
                        r.visible.then_some(r.value)
                    });
                    let mut want = false;
                    for (e, &(_, _, p)) in reference.0.iter_mut().zip(&live) {
                        let r = regs[p as usize];
                        if e.value.is_none() && r.written && r.visible {
                            e.value = Some(r.value);
                            want = true;
                        }
                    }
                    assert_eq!(got, want, "step {step}: supply");
                }
                6 => {
                    let Some(&(seq, _, p)) = live.front() else {
                        continue;
                    };
                    let head = reference.0[0];
                    if let (Some(addr), true) = (head.addr, regs[p as usize].written) {
                        let got = sq.commit(seq, |q| regs[q as usize].value);
                        reference.0.pop_front();
                        live.pop_front();
                        let value = head.value.unwrap_or(regs[p as usize].value);
                        assert_eq!(got, (addr, value), "step {step}: commit");
                        floor = seq;
                    }
                }
                7 => {
                    let seq = floor + rng.below(next_seq - floor);
                    sq.squash_after(seq);
                    reference.0.retain(|e| e.seq <= seq);
                    live.retain(|&(s, _, _)| s <= seq);
                    next_seq = seq + 1;
                }
                8 => {
                    // Free and reallocate a register no queued store
                    // reads.
                    let p = rng.below_usize(REGS);
                    if live.iter().all(|&(_, _, q)| q as usize != p) {
                        regs[p] = Reg::default();
                    }
                }
                _ => {}
            }
            let entries: Vec<SqEntry> = sq.iter().copied().collect();
            assert_eq!(entries, Vec::from(reference.0.clone()), "step {step}");
            let mut out = Vec::new();
            sq.audit("sq", |p| regs[p as usize].written, &mut out);
            assert!(out.is_empty(), "step {step}: {out:?}");
            // A load at every position: before each queued store, and
            // after the youngest.
            for k in 0..=live.len() {
                let (load_seq, older_than) = match live.get(k) {
                    Some(&(seq, n, _)) => (seq - 1, n),
                    None => (next_seq, sq.tail()),
                };
                for &addr in words.iter().chain(&[0x7777_7000]) {
                    assert_eq!(
                        sq.forward(older_than, addr, conservative),
                        reference.forward(load_seq, addr, conservative),
                        "step {step}: load {load_seq} at {addr:#x}"
                    );
                }
            }
        }
    }

    #[test]
    fn sq_matches_a_linear_scan_in_both_dependence_modes() {
        for seed in 1..=4 {
            differential(seed, true);
            differential(seed, false);
        }
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
