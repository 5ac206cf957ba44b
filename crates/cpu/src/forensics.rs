//! Stall forensics: a structured snapshot of *why* a core is not
//! committing, taken by the liveness watchdog when forward progress
//! stops (see `recon_sim`'s `SimError::Stalled`).
//!
//! The report is deliberately plain data — strings and numbers — so it
//! can be rendered for a human, serialized into a persisted result
//! record, and shipped in an HTTP error body without dragging pipeline
//! types along.

use core::fmt;

use recon_isa::snap::{Codec, Record, SnapError};

/// Occupancy of one pipeline queue at the stall point.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct QueueOcc {
    /// Queue name (`rob`, `iq`, `lq`, `sq`, `sb`).
    pub name: String,
    /// Entries currently held.
    pub len: u64,
    /// Capacity.
    pub cap: u64,
}

impl Record for QueueOcc {
    fn codec(&mut self, c: &mut impl Codec) -> Result<(), SnapError> {
        c.str(&mut self.name)?;
        c.u64(&mut self.len)?;
        c.u64(&mut self.cap)
    }
}

/// Forensics for the instruction at the ROB head — the one whose
/// inability to commit is stalling the core.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct HeadForensics {
    /// Dynamic sequence number.
    pub seq: u64,
    /// Static instruction index.
    pub pc: u64,
    /// Rendered instruction text (e.g. `amoadd r3, [r1+0x0], r2`).
    pub inst: String,
    /// Pipeline status (`waiting-issue`, `executing …`, `done`).
    pub status: String,
    /// Precise wait-reason classification.
    pub wait: String,
    /// Effective (or best-effort predicted) memory address, if any.
    pub addr: Option<u64>,
    /// Whether the instruction sits under an unresolved shadow.
    pub speculative: bool,
    /// Whether the security scheme ever delayed it.
    pub delayed_by_scheme: bool,
    /// Source operands currently guarded by the scheme: `(preg, root)`.
    pub guarded_operands: Vec<(u32, u64)>,
    /// L1 MESI state of the accessed line, when an address is known.
    pub l1_state: Option<String>,
    /// L2 MESI state of the accessed line.
    pub l2_state: Option<String>,
    /// Directory state of the accessed line.
    pub dir_state: Option<String>,
    /// Whether the accessed word is marked revealed (ReCon metadata).
    pub word_revealed: Option<bool>,
    /// LPT entry active under the head's base-address register: the
    /// address a committed producer load installed there.
    pub lpt_entry: Option<u64>,
}

impl Record for HeadForensics {
    fn codec(&mut self, c: &mut impl Codec) -> Result<(), SnapError> {
        c.u64(&mut self.seq)?;
        c.u64(&mut self.pc)?;
        c.str(&mut self.inst)?;
        c.str(&mut self.status)?;
        c.str(&mut self.wait)?;
        c.opt(&mut self.addr, |c, v| c.u64(v))?;
        c.bool(&mut self.speculative)?;
        c.bool(&mut self.delayed_by_scheme)?;
        c.seq(&mut self.guarded_operands, |c, (p, root)| {
            c.u32(p)?;
            c.u64(root)
        })?;
        c.opt(&mut self.l1_state, |c, v| c.str(v))?;
        c.opt(&mut self.l2_state, |c, v| c.str(v))?;
        c.opt(&mut self.dir_state, |c, v| c.str(v))?;
        c.opt(&mut self.word_revealed, |c, v| c.bool(v))?;
        c.opt(&mut self.lpt_entry, |c, v| c.u64(v))
    }
}

/// One core's view at the stall point: queue occupancies, scheme state,
/// and the ROB-head instruction's forensics.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct CoreStallInfo {
    /// Core id.
    pub core: u64,
    /// Instructions committed so far.
    pub committed: u64,
    /// Whether the program's `halt` already committed.
    pub halted: bool,
    /// Whether the core froze on an exhausted fuel budget.
    pub out_of_fuel: bool,
    /// Next fetch index (the architectural pc when the window is empty).
    pub fetch_pc: u64,
    /// Pipeline queue occupancies.
    pub queues: Vec<QueueOcc>,
    /// Unresolved speculation shadows in flight.
    pub shadows: u64,
    /// Physical registers currently guarded by the scheme.
    pub guards_active: u64,
    /// The ROB-head instruction, if the window is non-empty.
    pub head: Option<HeadForensics>,
}

impl Record for CoreStallInfo {
    fn codec(&mut self, c: &mut impl Codec) -> Result<(), SnapError> {
        c.tag(b"CSI1")?;
        c.u64(&mut self.core)?;
        c.u64(&mut self.committed)?;
        c.bool(&mut self.halted)?;
        c.bool(&mut self.out_of_fuel)?;
        c.u64(&mut self.fetch_pc)?;
        c.seq(&mut self.queues, |c, q| q.codec(c))?;
        c.u64(&mut self.shadows)?;
        c.u64(&mut self.guards_active)?;
        c.sparse(&mut self.head, |c, head| head.codec(c))
    }
}

impl fmt::Display for CoreStallInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "core {}: {} committed, fetch_pc {}",
            self.core, self.committed, self.fetch_pc
        )?;
        if self.halted {
            write!(f, ", halted")?;
        }
        if self.out_of_fuel {
            write!(f, ", out of fuel")?;
        }
        writeln!(f)?;
        write!(f, "  queues:")?;
        for q in &self.queues {
            write!(f, " {} {}/{}", q.name, q.len, q.cap)?;
        }
        writeln!(
            f,
            "; shadows {}, guarded pregs {}",
            self.shadows, self.guards_active
        )?;
        match &self.head {
            None => writeln!(f, "  rob head: <empty window>")?,
            Some(h) => {
                writeln!(
                    f,
                    "  rob head: seq {} pc {} `{}` [{}]{}{}",
                    h.seq,
                    h.pc,
                    h.inst,
                    h.status,
                    if h.speculative { " speculative" } else { "" },
                    if h.delayed_by_scheme {
                        " scheme-delayed"
                    } else {
                        ""
                    },
                )?;
                writeln!(f, "  wait reason: {}", h.wait)?;
                if let Some(addr) = h.addr {
                    write!(f, "  address {addr:#x}")?;
                    if let Some(s) = &h.l1_state {
                        write!(f, ": L1 {s}")?;
                    }
                    if let Some(s) = &h.l2_state {
                        write!(f, ", L2 {s}")?;
                    }
                    if let Some(s) = &h.dir_state {
                        write!(f, ", dir {s}")?;
                    }
                    if let Some(rev) = h.word_revealed {
                        write!(f, ", word {}", if rev { "revealed" } else { "concealed" })?;
                    }
                    writeln!(f)?;
                }
                for &(p, root) in &h.guarded_operands {
                    writeln!(f, "  guarded operand: p{p} (root seq {root})")?;
                }
                if let Some(a) = h.lpt_entry {
                    writeln!(f, "  lpt entry under base operand: addr {a:#x}")?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CoreStallInfo {
        CoreStallInfo {
            core: 1,
            committed: 42,
            halted: false,
            out_of_fuel: false,
            fetch_pc: 7,
            queues: vec![QueueOcc {
                name: "rob".into(),
                len: 3,
                cap: 32,
            }],
            shadows: 2,
            guards_active: 1,
            head: Some(HeadForensics {
                seq: 9,
                pc: 4,
                inst: "amoadd r3, [r1+0x0], r2".into(),
                status: "waiting-issue".into(),
                wait: "amo at head blocked on 1 younger store(s)".into(),
                addr: Some(0x4000),
                speculative: false,
                delayed_by_scheme: false,
                guarded_operands: vec![(5, 8)],
                l1_state: Some("Modified".into()),
                l2_state: None,
                dir_state: Some("Owned".into()),
                word_revealed: Some(false),
                lpt_entry: Some(0x4010),
            }),
        }
    }

    #[test]
    fn snap_round_trips() {
        for info in [
            sample(),
            CoreStallInfo {
                head: None,
                ..sample()
            },
        ] {
            assert_eq!(CoreStallInfo::from_bytes(&info.to_bytes()), Ok(info));
        }
    }

    #[test]
    fn every_proper_prefix_is_rejected() {
        let bytes = sample().to_bytes();
        for cut in 0..bytes.len() {
            assert!(
                CoreStallInfo::from_bytes(&bytes[..cut]).is_err(),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn display_names_the_head_and_reason() {
        let text = sample().to_string();
        assert!(text.contains("amoadd"), "{text}");
        assert!(text.contains("wait reason"), "{text}");
        assert!(text.contains("rob 3/32"), "{text}");
        assert!(text.contains("0x4000"), "{text}");
    }

    #[test]
    fn empty_window_renders() {
        let info = CoreStallInfo {
            head: None,
            ..sample()
        };
        assert!(info.to_string().contains("<empty window>"));
    }
}
