//! The liveness watchdog's forensic output: a [`StallReport`]
//! aggregating every core's [`CoreStallInfo`] at the moment forward
//! progress stopped.
//!
//! The report is plain data with a stable binary encoding (its
//! [`Record`] codec) so `recon serve` can persist it inside
//! a failed job's `.res` record and explain an orphaned job's death
//! after a restart without re-running the job.

use core::fmt;

use recon_cpu::CoreStallInfo;
use recon_isa::snap::{Codec, Record, SnapError};

/// Why a budgeted run was declared stalled, per core.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct StallReport {
    /// Cycle at which the watchdog fired.
    pub cycle: u64,
    /// Watchdog window: cycles without a commit on any core.
    pub window: u64,
    /// Per-core forensics.
    pub cores: Vec<CoreStallInfo>,
}

impl StallReport {
    /// One-line summary naming the first stuck core's head instruction —
    /// the string error paths (`Display for SimError`) surface.
    #[must_use]
    pub fn summary(&self) -> String {
        let culprit = self
            .cores
            .iter()
            .find(|c| !c.halted)
            .or_else(|| self.cores.first());
        match culprit.and_then(|c| c.head.as_ref().map(|h| (c, h))) {
            Some((c, h)) => format!(
                "liveness stall: no commit on any core for {} cycles (at cycle {}); \
                 core {} head `{}` — {}",
                self.window, self.cycle, c.core, h.inst, h.wait
            ),
            None => format!(
                "liveness stall: no commit on any core for {} cycles (at cycle {})",
                self.window, self.cycle
            ),
        }
    }
}

/// A `SRP1`-tagged stream.
impl Record for StallReport {
    fn codec(&mut self, c: &mut impl Codec) -> Result<(), SnapError> {
        c.tag(b"SRP1")?;
        c.u64(&mut self.cycle)?;
        c.u64(&mut self.window)?;
        c.seq(&mut self.cores, |c, core| core.codec(c))
    }
}

impl fmt::Display for StallReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "LIVENESS STALL at cycle {}: no instruction committed on any core \
             for {} cycles",
            self.cycle, self.window
        )?;
        for c in &self.cores {
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recon_cpu::{HeadForensics, QueueOcc};

    fn sample() -> StallReport {
        StallReport {
            cycle: 123_456,
            window: 10_000,
            cores: vec![CoreStallInfo {
                core: 0,
                committed: 17,
                halted: false,
                out_of_fuel: false,
                fetch_pc: 5,
                queues: vec![QueueOcc {
                    name: "sq".into(),
                    len: 1,
                    cap: 8,
                }],
                shadows: 1,
                guards_active: 0,
                head: Some(HeadForensics {
                    seq: 3,
                    pc: 2,
                    inst: "amoadd r3, [r1+0x0], r2".into(),
                    status: "waiting-issue".into(),
                    wait: "amo at head blocked on 1 younger store(s)".into(),
                    addr: Some(0x4000),
                    speculative: false,
                    delayed_by_scheme: false,
                    guarded_operands: vec![],
                    l1_state: None,
                    l2_state: None,
                    dir_state: Some("Owned".into()),
                    word_revealed: Some(false),
                    lpt_entry: None,
                }),
            }],
        }
    }

    #[test]
    fn bytes_round_trip() {
        let report = sample();
        let back = StallReport::from_bytes(&report.to_bytes()).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn summary_names_the_culprit() {
        let s = sample().summary();
        assert!(s.contains("amoadd"), "{s}");
        assert!(s.contains("10000 cycles"), "{s}");
    }

    #[test]
    fn display_is_multiline_forensics() {
        let text = sample().to_string();
        assert!(text.contains("LIVENESS STALL"), "{text}");
        assert!(text.contains("wait reason"), "{text}");
    }

    #[test]
    fn corrupt_bytes_rejected() {
        let bytes = sample().to_bytes();
        for cut in 0..bytes.len() {
            assert!(StallReport::from_bytes(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }
}
