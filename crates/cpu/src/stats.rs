//! Per-core statistics.

use recon::LptStats;

/// Counters accumulated by one core over a run.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CoreStats {
    /// Cycles simulated.
    pub cycles: u64,
    /// Instructions committed.
    pub committed: u64,
    /// Loads committed.
    pub loads_committed: u64,
    /// Stores committed.
    pub stores_committed: u64,
    /// Conditional branches committed.
    pub branches_committed: u64,
    /// Branch mispredictions (squashes from branches).
    pub branch_mispredicts: u64,
    /// Memory-order violation squashes.
    pub memory_violations: u64,
    /// Instructions squashed (wrong path).
    pub squashed: u64,

    // ---- security-scheme behaviour --------------------------------------
    /// Loads that completed while speculative and received a guard
    /// (STT: tainted their destination; NDA: withheld their value),
    /// including wrong-path loads.
    pub guarded_loads: u64,
    /// Committed loads whose destination was guarded (tainted) when they
    /// completed — the paper's "tainted loads" metric (Figure 7).
    pub guarded_loads_committed: u64,
    /// Loads whose issue (STT: tainted address; NDA: unreadable operand)
    /// was delayed at least one cycle by the scheme.
    pub loads_delayed_by_scheme: u64,
    /// Total cycles of scheme-induced issue delay across all loads.
    pub scheme_delay_cycles: u64,
    /// Committed loads that read a *revealed* word (ReCon lifted the
    /// defense).
    pub revealed_loads_committed: u64,
    /// Reveal requests sent by the LPT at commit.
    pub reveals_requested: u64,
    /// LPT statistics.
    pub lpt: LptStats,
    /// Pipeline-trace events evicted by the ring buffer (silent
    /// truncation made visible; see `Core::trace_dropped`).
    pub trace_dropped: u64,

    // ---- commit-stall attribution (who blocks the ROB head) -------------
    /// Cycles the ROB head was an incomplete load.
    pub stall_head_load: u64,
    /// Cycles the ROB head was an incomplete store (or SB full).
    pub stall_head_store: u64,
    /// Cycles the ROB head was an unresolved branch.
    pub stall_head_branch: u64,
    /// Cycles the ROB head was another incomplete instruction.
    pub stall_head_other: u64,
    /// Cycles the ROB was empty (frontend-bound).
    pub stall_empty: u64,
}

impl CoreStats {
    /// Every counter, in declaration order (the LPT's in place of
    /// `lpt`) — the order result records store them in.
    pub fn counters_mut(&mut self) -> [&mut u64; 25] {
        let [l0, l1, l2, l3, l4] = self.lpt.counters_mut();
        [
            &mut self.cycles,
            &mut self.committed,
            &mut self.loads_committed,
            &mut self.stores_committed,
            &mut self.branches_committed,
            &mut self.branch_mispredicts,
            &mut self.memory_violations,
            &mut self.squashed,
            &mut self.guarded_loads,
            &mut self.guarded_loads_committed,
            &mut self.loads_delayed_by_scheme,
            &mut self.scheme_delay_cycles,
            &mut self.revealed_loads_committed,
            &mut self.reveals_requested,
            l0,
            l1,
            l2,
            l3,
            l4,
            &mut self.trace_dropped,
            &mut self.stall_head_load,
            &mut self.stall_head_store,
            &mut self.stall_head_branch,
            &mut self.stall_head_other,
            &mut self.stall_empty,
        ]
    }

    /// Instructions per cycle.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed as f64 / self.cycles as f64
        }
    }

    /// Fraction of committed loads that were guarded (tainted).
    #[must_use]
    pub fn guarded_load_fraction(&self) -> f64 {
        if self.loads_committed == 0 {
            0.0
        } else {
            self.guarded_loads as f64 / self.loads_committed as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_zero_when_no_cycles() {
        assert_eq!(CoreStats::default().ipc(), 0.0);
    }

    #[test]
    fn ipc_computes() {
        let s = CoreStats {
            cycles: 100,
            committed: 250,
            ..CoreStats::default()
        };
        assert!((s.ipc() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn guarded_fraction() {
        let s = CoreStats {
            loads_committed: 10,
            guarded_loads: 4,
            ..CoreStats::default()
        };
        assert!((s.guarded_load_fraction() - 0.4).abs() < 1e-12);
    }
}
