//! Optional pipeline event tracing, for debugging and for tests that
//! assert pipeline-order invariants.
//!
//! Tracing is off by default and costs nothing when disabled; when
//! enabled (see `Core::record_trace`), every major pipeline event is
//! recorded into a fixed-capacity ring buffer: once full, the oldest
//! event is dropped (and counted) for each new one, so verify-length
//! runs with tracing left on cannot exhaust memory.

use std::collections::VecDeque;

use recon_isa::snap::{Codec, SnapError};
use recon_secure::Seq;

/// One pipeline event.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct TraceEvent {
    /// Cycle at which the event occurred.
    pub cycle: u64,
    /// Dynamic sequence number of the instruction involved.
    ///
    /// Sequence numbers are **reused after a squash** (the window stays
    /// contiguous), so a `Squash` for seq *N* may be followed by events
    /// of a *different* dynamic instruction with the same seq; group
    /// lifetimes by `(seq, dispatch cycle)`, not by seq alone.
    pub seq: Seq,
    /// Static instruction index.
    pub pc: usize,
    /// What happened.
    pub kind: TraceKind,
}

/// Pipeline event kinds.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum TraceKind {
    /// Fetched and dispatched into the window.
    #[default]
    Dispatch,
    /// Issued to execution.
    Issue,
    /// Result became available.
    Complete,
    /// Retired architecturally.
    Commit,
    /// Squashed (wrong path / memory-order violation); `seq` is the
    /// squashed instruction.
    Squash,
}

/// Each [`TraceKind`] at its snapshot byte (its discriminant).
const KINDS: [TraceKind; 5] = [
    TraceKind::Dispatch,
    TraceKind::Issue,
    TraceKind::Complete,
    TraceKind::Commit,
    TraceKind::Squash,
];

/// Default ring capacity (see [`crate::CoreConfig::trace_capacity`]).
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 20;

/// A fixed-capacity ring buffer of pipeline events.
#[derive(Clone, Debug)]
pub struct TraceLog {
    events: VecDeque<TraceEvent>,
    capacity: usize,
    dropped: u64,
    enabled: bool,
}

impl Default for TraceLog {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_TRACE_CAPACITY)
    }
}

impl TraceLog {
    /// Creates a log that retains at most `capacity` events (the newest
    /// win). A capacity of 0 records nothing and costs nothing: the hot
    /// path returns before touching the ring or the drop counter.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        TraceLog {
            events: VecDeque::new(),
            capacity,
            dropped: 0,
            enabled: false,
        }
    }

    /// Enables or disables recording (the log is kept either way).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// The maximum number of retained events.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events evicted from the ring so far (capacity 0 skips recording
    /// entirely and counts nothing).
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Records an event, evicting the oldest once the ring is full
    /// (no-op when disabled, and free of all bookkeeping — no
    /// allocation, no dropped-counter churn — at capacity 0).
    #[inline]
    pub fn push(&mut self, cycle: u64, seq: Seq, pc: usize, kind: TraceKind) {
        if !self.enabled || self.capacity == 0 {
            return;
        }
        if self.events.len() >= self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(TraceEvent {
            cycle,
            seq,
            pc,
            kind,
        });
    }

    /// Drains the recorded events, oldest first. The dropped counter is
    /// kept (it describes the whole run, not one drain).
    pub fn take(&mut self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.events).into_iter().collect()
    }

    /// Number of retained events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events are retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Visits the full ring (retained events, capacity, drop count,
    /// enabled flag) so a resumed run reports the same trace and the
    /// same `trace_dropped` statistic as an uninterrupted one.
    ///
    /// # Errors
    ///
    /// Fails on an unknown event kind or a truncated stream.
    pub fn codec(&mut self, c: &mut impl Codec) -> Result<(), SnapError> {
        c.tag(b"TRCL")?;
        c.bool(&mut self.enabled)?;
        c.usize(&mut self.capacity)?;
        c.u64(&mut self.dropped)?;
        let mut events = Vec::from(std::mem::take(&mut self.events));
        c.seq64(&mut events, |c, e| {
            c.u64(&mut e.cycle)?;
            c.u64(&mut e.seq)?;
            c.usize(&mut e.pc)?;
            let mut kind = e.kind as u8;
            c.u8(&mut kind)?;
            e.kind = *KINDS
                .get(usize::from(kind))
                .ok_or_else(|| c.fail(format!("unknown trace event kind {kind}")))?;
            Ok(())
        })?;
        self.events = events.into();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recon_isa::snap::{SnapReader, SnapWriter};

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = TraceLog::default();
        log.push(1, 2, 3, TraceKind::Dispatch);
        assert!(log.is_empty());
    }

    #[test]
    fn enabled_log_records_and_drains() {
        let mut log = TraceLog::default();
        log.set_enabled(true);
        log.push(1, 2, 3, TraceKind::Dispatch);
        log.push(2, 2, 3, TraceKind::Issue);
        assert_eq!(log.len(), 2);
        let events = log.take();
        assert_eq!(events[0].kind, TraceKind::Dispatch);
        assert_eq!(events[1].kind, TraceKind::Issue);
        assert!(log.is_empty());
        assert_eq!(log.dropped(), 0);
    }

    #[test]
    fn ring_keeps_newest_and_counts_drops() {
        let mut log = TraceLog::with_capacity(3);
        log.set_enabled(true);
        for cycle in 0..10 {
            log.push(cycle, 0, 0, TraceKind::Dispatch);
        }
        assert_eq!(log.len(), 3);
        assert_eq!(log.dropped(), 7);
        let cycles: Vec<u64> = log.take().iter().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![7, 8, 9], "oldest-first, newest retained");
        assert_eq!(log.dropped(), 7, "drop count survives draining");
    }

    #[test]
    fn zero_capacity_skips_all_bookkeeping() {
        let mut log = TraceLog::with_capacity(0);
        log.set_enabled(true);
        log.push(1, 0, 0, TraceKind::Commit);
        assert!(log.is_empty());
        assert_eq!(log.dropped(), 0, "capacity 0 is a pure fast path");
    }

    #[test]
    fn an_unknown_event_kind_is_refused() {
        let mut log = TraceLog::with_capacity(4);
        log.set_enabled(true);
        log.push(1, 2, 3, TraceKind::Squash);
        let mut w = SnapWriter::new();
        log.codec(&mut w).unwrap();
        let mut bytes = w.into_bytes();
        *bytes.last_mut().unwrap() = 5;
        let e = TraceLog::default()
            .codec(&mut SnapReader::new(&bytes))
            .unwrap_err();
        assert!(e.what.contains("unknown trace event kind 5"), "{e}");
    }
}
