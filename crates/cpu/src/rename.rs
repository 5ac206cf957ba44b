//! Register renaming: map table, free list, and the physical register
//! file (values + ready bits).

use recon_isa::snap::{Codec, SnapError};
use recon_isa::{ArchReg, NUM_ARCH_REGS};
use std::collections::VecDeque;

/// A physical register index.
pub type PReg = u32;

/// Renaming applied to one instruction's destination, recorded in the
/// ROB for commit (free the old mapping) or squash (restore it).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DstRename {
    /// The architectural destination.
    pub arch: ArchReg,
    /// The previous physical mapping (freed at commit, restored at
    /// squash).
    pub old: PReg,
    /// The newly allocated physical register.
    pub new: PReg,
}

/// Rename state + physical register file of one core.
///
/// Physical register 0 is permanently mapped to `r0` and always reads
/// zero.
#[derive(Clone, Debug)]
pub struct Rename {
    map: [PReg; NUM_ARCH_REGS],
    free: VecDeque<PReg>,
    values: Vec<u64>,
    ready: Vec<bool>,
}

impl Rename {
    /// Creates rename state with `num_pregs` physical registers.
    /// Architectural registers start mapped to pregs `0..32`, all ready
    /// with value 0.
    ///
    /// # Panics
    ///
    /// Panics if `num_pregs <= NUM_ARCH_REGS`.
    #[must_use]
    pub fn new(num_pregs: usize) -> Self {
        assert!(num_pregs > NUM_ARCH_REGS, "need more pregs than arch regs");
        let mut map = [0; NUM_ARCH_REGS];
        for (i, m) in map.iter_mut().enumerate() {
            *m = i as PReg;
        }
        Rename {
            map,
            free: (NUM_ARCH_REGS as PReg..num_pregs as PReg).collect(),
            values: vec![0; num_pregs],
            ready: vec![true; num_pregs],
        }
    }

    /// Total physical registers.
    #[must_use]
    pub fn num_pregs(&self) -> usize {
        self.values.len()
    }

    /// Free physical registers remaining.
    #[must_use]
    pub fn free_count(&self) -> usize {
        self.free.len()
    }

    /// The current physical mapping of an architectural register.
    #[must_use]
    pub fn lookup(&self, arch: ArchReg) -> PReg {
        self.map[arch.index()]
    }

    /// Allocates a new physical register for a write to `arch`.
    /// Returns `None` (stall) if the free list is empty. Writes to `r0`
    /// still allocate (so dependent bookkeeping is uniform); the PRF
    /// read path forces `r0`'s value to zero at read.
    pub fn allocate(&mut self, arch: ArchReg) -> Option<DstRename> {
        let new = self.free.pop_front()?;
        let old = self.map[arch.index()];
        self.map[arch.index()] = new;
        self.ready[new as usize] = false;
        Some(DstRename { arch, old, new })
    }

    /// Commit: the old mapping is dead, recycle it.
    pub fn commit(&mut self, rename: DstRename) {
        self.free.push_back(rename.old);
    }

    /// Squash: restore the previous mapping and recycle the speculative
    /// allocation. Must be applied youngest-first.
    pub fn undo(&mut self, rename: DstRename) {
        debug_assert_eq!(
            self.map[rename.arch.index()],
            rename.new,
            "undo out of order"
        );
        self.map[rename.arch.index()] = rename.old;
        self.ready[rename.new as usize] = true; // freed regs read as ready
        self.free.push_front(rename.new);
    }

    /// Whether the physical register's value is available.
    #[must_use]
    pub fn is_ready(&self, preg: PReg) -> bool {
        self.ready[preg as usize]
    }

    /// Reads a physical register (the `r0` mapping reads zero).
    #[must_use]
    pub fn read(&self, preg: PReg) -> u64 {
        if preg == 0 {
            0
        } else {
            self.values[preg as usize]
        }
    }

    /// Writes a physical register and marks it ready.
    pub fn write(&mut self, preg: PReg, value: u64) {
        self.values[preg as usize] = value;
        self.ready[preg as usize] = true;
    }

    /// Seeds an architectural register with an initial value (used to
    /// pass thread ids / stack pointers before simulation starts).
    pub fn seed(&mut self, arch: ArchReg, value: u64) {
        if !arch.is_zero() {
            let p = self.map[arch.index()];
            self.values[p as usize] = value;
            self.ready[p as usize] = true;
        }
    }

    /// Audits the rename partition invariant: the map table, the free
    /// list, and the in-flight *old* mappings held in the ROB
    /// (`inflight_olds`) must together hold every physical register
    /// exactly once, and every index must be in range. A flipped map or
    /// free-list entry breaks this immediately.
    pub fn audit(
        &self,
        site: &str,
        inflight_olds: impl IntoIterator<Item = PReg>,
        out: &mut Vec<recon::AuditViolation>,
    ) {
        let n = self.num_pregs();
        let mut seen = vec![0u32; n];
        let mut count = |preg: PReg, whence: &str, out: &mut Vec<recon::AuditViolation>| {
            if (preg as usize) < n {
                seen[preg as usize] += 1;
            } else {
                out.push(recon::AuditViolation::new(
                    "rename-preg-range",
                    format!("{site}.rename"),
                    format!("{whence} holds p{preg}, but only {n} pregs exist"),
                ));
            }
        };
        for (a, &p) in self.map.iter().enumerate() {
            count(p, &format!("map[r{a}]"), out);
        }
        for &p in &self.free {
            count(p, "free list", out);
        }
        for p in inflight_olds {
            count(p, "in-flight old mapping", out);
        }
        for (p, &c) in seen.iter().enumerate() {
            if c != 1 {
                out.push(recon::AuditViolation::new(
                    if c == 0 {
                        "rename-preg-leaked"
                    } else {
                        "rename-preg-dup"
                    },
                    format!("{site}.rename"),
                    format!("p{p} held by {c} owners (map ∪ free ∪ in-flight olds), expected 1"),
                ));
            }
        }
    }

    /// Injects a single-bit soft error into the value of a physical
    /// register currently mapped by an architectural register (the live
    /// architectural state). Readiness is left untouched: this models a
    /// silent PRF bit-flip, not a scheduling event. Returns a
    /// description of the flipped site, or `None` when the chosen
    /// register cannot carry a visible fault (the `r0` mapping).
    pub fn inject_flip(&mut self, rng: &mut recon_isa::rng::SplitMix64) -> Option<String> {
        use recon_isa::rng::Rng as _;
        let arch = 1 + (rng.next_u64() as usize % (NUM_ARCH_REGS - 1));
        let preg = self.map[arch] as usize;
        let bit = rng.next_u64() % 64;
        if preg == 0 {
            return None; // p0 reads as zero: the flip would be invisible
        }
        self.values[preg] ^= 1 << bit;
        Some(format!("r{arch}=p{preg} value bit {bit}"))
    }

    /// Visits the map table, the free list **in order** (allocation
    /// order determines future renames, so it is architectural state for
    /// replay purposes), and the physical register file.
    ///
    /// # Errors
    ///
    /// Propagates decode errors from a truncated or corrupt stream.
    pub fn codec(&mut self, c: &mut impl Codec) -> Result<(), SnapError> {
        c.tag(b"RNAM")?;
        self.map.iter_mut().try_for_each(|m| c.u32(m))?;
        let mut free = Vec::from(std::mem::take(&mut self.free));
        c.seq(&mut free, Codec::u32)?;
        self.free = free.into();
        c.seq(&mut self.values, Codec::u64)?;
        c.items(&mut self.ready, self.values.len(), Codec::bool)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recon_isa::reg::names::*;

    #[test]
    fn initial_mapping_is_identity() {
        let r = Rename::new(64);
        assert_eq!(r.lookup(R0), 0);
        assert_eq!(r.lookup(R31), 31);
        assert_eq!(r.free_count(), 32);
        assert!(r.is_ready(5));
    }

    #[test]
    fn allocate_changes_mapping() {
        let mut r = Rename::new(64);
        let dr = r.allocate(R1).unwrap();
        assert_eq!(dr.arch, R1);
        assert_eq!(dr.old, 1);
        assert_eq!(r.lookup(R1), dr.new);
        assert!(!r.is_ready(dr.new));
    }

    #[test]
    fn stall_when_free_list_empty() {
        let mut r = Rename::new(33);
        assert!(r.allocate(R1).is_some());
        assert!(r.allocate(R2).is_none(), "only one spare preg");
    }

    #[test]
    fn commit_recycles_old() {
        let mut r = Rename::new(34);
        let a = r.allocate(R1).unwrap();
        let b = r.allocate(R1).unwrap();
        assert_eq!(b.old, a.new);
        assert_eq!(r.free_count(), 0);
        r.commit(a); // frees preg 1 (the original mapping)
        assert_eq!(r.free_count(), 1);
        let c = r.allocate(R2).unwrap();
        assert_eq!(c.new, 1);
        let _ = b;
    }

    #[test]
    fn undo_restores_mapping_youngest_first() {
        let mut r = Rename::new(64);
        let a = r.allocate(R1).unwrap();
        let b = r.allocate(R1).unwrap();
        r.undo(b);
        assert_eq!(r.lookup(R1), a.new);
        r.undo(a);
        assert_eq!(r.lookup(R1), 1);
    }

    #[test]
    fn read_write_values() {
        let mut r = Rename::new(64);
        let a = r.allocate(R3).unwrap();
        r.write(a.new, 42);
        assert!(r.is_ready(a.new));
        assert_eq!(r.read(a.new), 42);
    }

    #[test]
    fn preg_zero_reads_zero() {
        let mut r = Rename::new(64);
        r.values[0] = 99; // even if scribbled on
        assert_eq!(r.read(0), 0);
    }

    #[test]
    fn seed_sets_initial_value() {
        let mut r = Rename::new(64);
        r.seed(R7, 0x1000);
        assert_eq!(r.read(r.lookup(R7)), 0x1000);
        r.seed(R0, 5); // ignored
        assert_eq!(r.read(0), 0);
    }
}
