//! Memory-system statistics.

/// Counters accumulated by the memory system. All counters are
/// monotonically increasing; snapshot and subtract for intervals.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct MemStats {
    /// Demand loads that hit in the L1.
    pub l1_hits: u64,
    /// Demand loads that missed the L1 and hit the L2.
    pub l2_hits: u64,
    /// Loads that missed the private levels and hit the LLC (including
    /// remote forwards).
    pub llc_hits: u64,
    /// Loads served from memory.
    pub mem_fetches: u64,
    /// Stores performed.
    pub stores_performed: u64,
    /// Ownership transactions (GetM with other holders present).
    pub upgrades: u64,
    /// Cache-to-cache forwards from a remote Modified/Exclusive owner.
    pub remote_forwards: u64,
    /// Invalidation messages sent to sharers.
    pub invalidations: u64,

    // ---- ReCon metadata traffic ----------------------------------------
    /// Reveal requests that set a bit somewhere in the hierarchy.
    pub reveals_set: u64,
    /// Reveal requests dropped (line not present at any covered level).
    pub reveals_dropped: u64,
    /// Words concealed by performed stores.
    pub conceals: u64,
    /// Loads whose word was revealed at the level that served them.
    pub revealed_loads: u64,
    /// Reveal bits lost when an invalidated reader dropped its mask.
    pub mask_bits_lost_inval: u64,
    /// Reveal bits lost because a level below was not covered (Figure 10
    /// ablation) or the line left the hierarchy.
    pub mask_bits_lost_evict: u64,
    /// Mask merges (OR) performed on evictions/downgrades.
    pub mask_merges: u64,
}

impl MemStats {
    /// Every counter, in declaration order — the order snapshots and
    /// result records store them in.
    pub fn counters_mut(&mut self) -> [&mut u64; 15] {
        [
            &mut self.l1_hits,
            &mut self.l2_hits,
            &mut self.llc_hits,
            &mut self.mem_fetches,
            &mut self.stores_performed,
            &mut self.upgrades,
            &mut self.remote_forwards,
            &mut self.invalidations,
            &mut self.reveals_set,
            &mut self.reveals_dropped,
            &mut self.conceals,
            &mut self.revealed_loads,
            &mut self.mask_bits_lost_inval,
            &mut self.mask_bits_lost_evict,
            &mut self.mask_merges,
        ]
    }

    /// Total demand loads observed.
    #[must_use]
    pub fn total_loads(&self) -> u64 {
        self.l1_hits + self.l2_hits + self.llc_hits + self.mem_fetches
    }

    /// L1 load hit rate in 0..=1 (0 when no loads).
    #[must_use]
    pub fn l1_hit_rate(&self) -> f64 {
        let total = self.total_loads();
        if total == 0 {
            0.0
        } else {
            self.l1_hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_zero_when_empty() {
        assert_eq!(MemStats::default().l1_hit_rate(), 0.0);
    }

    #[test]
    fn hit_rate_computes() {
        let s = MemStats {
            l1_hits: 3,
            l2_hits: 1,
            ..MemStats::default()
        };
        assert_eq!(s.total_loads(), 4);
        assert!((s.l1_hit_rate() - 0.75).abs() < 1e-12);
    }
}
