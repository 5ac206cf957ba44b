//! Cache geometry: capacity/associativity and address slicing.

use recon::LINE_BYTES;

/// Geometry of one cache level.
///
/// ```
/// use recon_mem::CacheGeometry;
///
/// let l1 = CacheGeometry::new(64 * 1024, 8); // 64 KiB, 8-way (paper L1)
/// assert_eq!(l1.num_sets(), 128);
/// assert_eq!(l1.num_lines(), 1024);
/// let (set, tag) = l1.slice(0x1_2340);
/// assert_eq!(set, (0x1_2340 / 64) % 128);
/// assert_eq!(tag, 0x1_2340 / 64 / 128);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CacheGeometry {
    capacity_bytes: u64,
    ways: usize,
    sets: usize,
}

impl CacheGeometry {
    /// Creates a geometry from capacity (bytes) and associativity.
    ///
    /// # Panics
    ///
    /// Panics unless capacity is a power-of-two multiple of
    /// `ways * LINE_BYTES` producing a power-of-two set count.
    #[must_use]
    pub fn new(capacity_bytes: u64, ways: usize) -> Self {
        assert!(ways > 0, "associativity must be positive");
        let lines = capacity_bytes / LINE_BYTES;
        assert_eq!(
            lines % ways as u64,
            0,
            "capacity must be a multiple of ways * line size"
        );
        let sets = (lines / ways as u64) as usize;
        assert!(
            sets.is_power_of_two(),
            "set count {sets} must be a power of two"
        );
        CacheGeometry {
            capacity_bytes,
            ways,
            sets,
        }
    }

    /// Total capacity in bytes.
    #[must_use]
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }

    /// Associativity (ways per set).
    #[must_use]
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Number of sets.
    #[must_use]
    pub fn num_sets(&self) -> usize {
        self.sets
    }

    /// Total number of lines.
    #[must_use]
    pub fn num_lines(&self) -> usize {
        self.sets * self.ways
    }

    /// Splits a byte address into `(set index, tag)`: the set count is
    /// a power of two, so a mask and a shift do it.
    #[must_use]
    #[inline]
    pub fn slice(&self, addr: u64) -> (usize, u64) {
        let line = addr / LINE_BYTES;
        let set = line as usize & (self.sets - 1);
        let tag = line >> self.sets.trailing_zeros();
        (set, tag)
    }

    /// Reconstructs the line base address from `(set, tag)`.
    #[must_use]
    pub fn unslice(&self, set: usize, tag: u64) -> u64 {
        (tag * self.sets as u64 + set as u64) * LINE_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_l1_geometry() {
        let g = CacheGeometry::new(64 * 1024, 8);
        assert_eq!(g.num_sets(), 128);
        assert_eq!(g.num_lines(), 1024);
        assert_eq!(g.ways(), 8);
        assert_eq!(g.capacity_bytes(), 64 * 1024);
    }

    #[test]
    fn slice_unslice_round_trip() {
        let g = CacheGeometry::new(32 * 1024, 4);
        for addr in [0u64, 0x40, 0x1000, 0xDE_ADC0, 0xFFFF_FFC0] {
            let line_base = addr & !63;
            let (set, tag) = g.slice(addr);
            assert_eq!(g.unslice(set, tag), line_base);
        }
    }

    #[test]
    fn same_set_different_tag_conflict() {
        let g = CacheGeometry::new(8 * 1024, 2); // 64 sets
        let (s1, t1) = g.slice(0x0);
        let (s2, t2) = g.slice(64 * 64); // one full stride away
        assert_eq!(s1, s2);
        assert_ne!(t1, t2);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sets_panics() {
        let _ = CacheGeometry::new(3 * 64 * 5, 1);
    }
}
