//! Shared vocabulary of the runtime invariant auditor.
//!
//! The auditor (driven from `recon-sim`) sweeps the microarchitectural
//! state of every layer at a configurable cycle cadence and reports any
//! internal inconsistency — a silently flipped reveal-mask bit, a
//! corrupted directory entry, an LPT slot whose tag cannot map there —
//! as a structured [`AuditViolation`]. Each layer owns its own checks
//! (it alone can see its private state); this module only defines the
//! common violation record they all emit.
//!
//! A violation is *never* a modeled architectural event: every check is
//! an invariant the simulator maintains by construction, so a non-empty
//! sweep means state was corrupted from outside the model (a soft
//! error, a bad restore, or a simulator bug).

use core::fmt;

/// One invariant violation found by an audit sweep.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct AuditViolation {
    /// Stable name of the violated invariant (e.g. `"swmr"`,
    /// `"lpt-slot-map"`, `"rob-seq-contiguous"`).
    pub invariant: String,
    /// Which structure the violation was found in (e.g. `"core2.lpt"`,
    /// `"mem.dir"`, `"core0.l1"`).
    pub site: String,
    /// Human-readable forensics: which line/entry, expected vs found.
    pub detail: String,
}

impl AuditViolation {
    /// Builds a violation record.
    #[must_use]
    pub fn new(
        invariant: impl Into<String>,
        site: impl Into<String>,
        detail: impl Into<String>,
    ) -> Self {
        AuditViolation {
            invariant: invariant.into(),
            site: site.into(),
            detail: detail.into(),
        }
    }
}

impl fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}: {}", self.site, self.invariant, self.detail)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_site_invariant_and_detail() {
        let v = AuditViolation::new("swmr", "mem.dir", "line 0x40: two owners");
        let s = v.to_string();
        assert!(s.contains("swmr"), "{s}");
        assert!(s.contains("mem.dir"), "{s}");
        assert!(s.contains("0x40"), "{s}");
    }
}
