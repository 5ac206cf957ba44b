//! The full-system simulator: N out-of-order cores sharing a coherent
//! memory hierarchy and a functional memory.

use std::sync::Arc;

use recon::ReconConfig;
use recon_cpu::{Core, CoreConfig, CoreStats};
use recon_isa::{run_decoded, ArchReg, ArchState, DecodedProgram, SparseMem, NUM_ARCH_REGS};
use recon_mem::{MemConfig, MemStats, MemorySystem};
use recon_secure::SecureConfig;
use recon_workloads::Workload;

use recon_isa::hash::FxHasher;
use recon_isa::snap::{Codec, Record, SnapError, SnapReader, SnapWriter};
use std::hash::Hasher;

use crate::audit::{AuditReport, FaultSite};
use crate::error::{Budget, DeadlineReason, SimError, CANCEL_CHECK_INTERVAL};
use crate::stall::StallReport;

/// Upper bound on the cycles a checkpoint drain may take. With fetch
/// paused every shadow resolves and the window empties within a few
/// thousand cycles on any configuration; a core frozen out-of-fuel
/// mid-flight can never drain, and this bound turns that into a
/// skipped checkpoint instead of a hang.
pub const DRAIN_BOUND_CYCLES: u64 = 1 << 16;

/// Result of a completed (or timed-out) system run.
///
/// `PartialEq`/`Eq` compare every counter — the equality the
/// checkpoint/resume tests use to assert a resumed run is
/// indistinguishable from an uninterrupted one.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct SystemResult {
    /// Whether every core committed its `halt` within the budget.
    pub completed: bool,
    /// Cycles elapsed until the last core finished (the PARSEC "ROI
    /// execution time" metric).
    pub cycles: u64,
    /// Per-core statistics.
    pub cores: Vec<CoreStats>,
    /// Memory-system statistics.
    pub mem: MemStats,
}

impl SystemResult {
    /// Total committed instructions across cores.
    #[must_use]
    pub fn committed(&self) -> u64 {
        self.cores.iter().map(|c| c.committed).sum()
    }

    /// Aggregate IPC (all cores' instructions over total cycles).
    #[must_use]
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed() as f64 / self.cycles as f64
        }
    }

    /// Total committed guarded ("tainted") loads across cores
    /// (Figure 7).
    #[must_use]
    pub fn guarded_loads(&self) -> u64 {
        self.cores.iter().map(|c| c.guarded_loads_committed).sum()
    }

    /// Total pipeline-trace events dropped by the cores' ring buffers
    /// (zero unless tracing was enabled and overflowed).
    #[must_use]
    pub fn trace_dropped(&self) -> u64 {
        self.cores.iter().map(|c| c.trace_dropped).sum()
    }

    /// Serializes the result (every counter) — used by the suite
    /// runner's completion records, so a restarted suite can skip
    /// finished jobs and still print their numbers.
    pub fn save_snap(&self, w: &mut SnapWriter) {
        self.save(w);
    }

    /// Reconstructs a result from [`SystemResult::save_snap`] bytes.
    ///
    /// # Errors
    ///
    /// Propagates decode errors from a truncated or corrupt stream.
    pub fn load_snap(r: &mut SnapReader<'_>) -> Result<SystemResult, SnapError> {
        Self::load(r)
    }
}

/// A `SRES`-tagged stream: every counter of every core, then of the
/// memory system.
impl Record for SystemResult {
    fn codec(&mut self, c: &mut impl Codec) -> Result<(), SnapError> {
        c.tag(b"SRES")?;
        c.bool(&mut self.completed)?;
        c.u64(&mut self.cycles)?;
        c.seq(&mut self.cores, |c, core| {
            core.counters_mut().into_iter().try_for_each(|v| c.u64(v))
        })?;
        self.mem
            .counters_mut()
            .into_iter()
            .try_for_each(|v| c.u64(v))
    }
}

/// Seals the snapshot section that began at `start` with an `SCHK`
/// checksum over its bytes: a writer appends it, a reader checks it and
/// names the section on a mismatch. `start` moves past the seal.
fn seal(c: &mut impl Codec, start: &mut usize, name: &str) -> Result<(), SnapError> {
    let end = c.offset();
    let mut h = FxHasher::default();
    h.write(c.since(*start));
    let sum = h.finish();
    let mut stored = sum;
    c.tag(b"SCHK")?;
    c.u64(&mut stored)?;
    if stored != sum {
        return Err(SnapError {
            what: format!("snapshot section '{name}' checksum mismatch (corrupt state)"),
            offset: end,
        });
    }
    *start = c.offset();
    Ok(())
}

/// A multicore system executing one [`Workload`].
#[derive(Debug)]
pub struct System {
    cores: Vec<Core>,
    mem: MemorySystem,
    data: SparseMem,
    cycle: u64,
    /// One shared decode of the workload program (threads share code and
    /// differ only in entry point); also drives functional fast-forward.
    decoded: Arc<DecodedProgram>,
    /// Instructions executed functionally by [`System::fast_forward`]
    /// (not part of [`SystemResult`] — warmup is not timed work).
    ff_instructions: u64,
}

impl System {
    /// Builds a system sized for the workload's thread count.
    #[must_use]
    pub fn new(
        workload: &Workload,
        core_cfg: CoreConfig,
        mem_cfg: MemConfig,
        secure: SecureConfig,
        recon_cfg: ReconConfig,
    ) -> Self {
        // ReCon's hierarchy metadata is only active when the scheme
        // stacks ReCon on top; the data structures are sized regardless.
        let effective_recon = if secure.recon {
            recon_cfg
        } else {
            ReconConfig {
                enabled: false,
                ..recon_cfg
            }
        };
        let n = workload.num_threads();
        let mem = MemorySystem::new(n, mem_cfg, effective_recon);
        let data = SparseMem::from_image(&workload.program.image);
        // Decode the program once; every core fetches from the same
        // pre-decoded stream (threads differ only in entry point).
        let decoded = Arc::new(DecodedProgram::decode(&workload.program));
        let cores = workload
            .threads
            .iter()
            .enumerate()
            .map(|(id, spec)| {
                let mut core = Core::with_decoded(
                    id,
                    Arc::clone(&decoded),
                    spec.entry,
                    core_cfg,
                    secure,
                    effective_recon,
                );
                for &(reg, value) in &spec.seeds {
                    core.seed_reg(reg, value);
                }
                core
            })
            .collect();
        System {
            cores,
            mem,
            data,
            cycle: 0,
            decoded,
            ff_instructions: 0,
        }
    }

    /// Immutable access to the cores (for observation-based analyses).
    #[must_use]
    pub fn cores(&self) -> &[Core] {
        &self.cores
    }

    /// Mutable access to the cores (e.g. to enable observation capture).
    pub fn cores_mut(&mut self) -> &mut [Core] {
        &mut self.cores
    }

    /// The shared functional memory.
    #[must_use]
    pub fn data(&self) -> &SparseMem {
        &self.data
    }

    /// The shared memory system.
    #[must_use]
    pub fn mem(&self) -> &MemorySystem {
        &self.mem
    }

    /// Mutable access to the memory system (e.g. to enable the
    /// transaction log or the reveal-soundness checker).
    pub fn mem_mut(&mut self) -> &mut MemorySystem {
        &mut self.mem
    }

    /// Cycles simulated so far.
    #[must_use]
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Total instructions committed across all cores — the liveness
    /// watchdog's forward-progress signal.
    #[must_use]
    pub fn committed_total(&self) -> u64 {
        self.cores.iter().map(Core::committed).sum()
    }

    /// Collects a forensic [`StallReport`] for the current state:
    /// every core's queue occupancies, scheme state, and ROB-head wait
    /// reason (with MESI/directory/LPT context from the shared memory
    /// system).
    #[must_use]
    pub fn stall_report(&self, window: u64) -> StallReport {
        StallReport {
            cycle: self.cycle,
            window,
            cores: self
                .cores
                .iter()
                .map(|core| core.stall_info(&self.mem))
                .collect(),
        }
    }

    /// Instructions executed functionally by [`System::fast_forward`]
    /// so far (zero for a purely detailed run).
    #[must_use]
    pub fn fast_forwarded(&self) -> u64 {
        self.ff_instructions
    }

    /// Sweeps every layer's internal invariants (memory hierarchy,
    /// directory, every core — see [`recon::audit`]). Empty on an
    /// uncorrupted system; any entry means state was damaged from
    /// outside the model.
    #[must_use]
    pub fn audit(&self) -> Vec<recon::AuditViolation> {
        let mut out = self.mem.audit();
        for core in &self.cores {
            out.extend(core.audit());
        }
        out
    }

    /// One [`System::audit`] sweep of a run audited every `cadence`
    /// cycles: the report of what it found, if anything.
    fn audit_sweep(&self, cadence: u64) -> Option<AuditReport> {
        let violations = self.audit();
        (!violations.is_empty()).then_some(AuditReport {
            cycle: self.cycle,
            cadence,
            violations,
        })
    }

    /// Injects one seeded single-bit soft error at `site`. Returns a
    /// description of the flipped state, or `None` when the site holds
    /// no target right now (e.g. an empty LPT) or the site is not an
    /// in-system one ([`FaultSite::CkptBytes`] corrupts serialized
    /// bytes, which the caller owns).
    pub fn inject_fault(
        &mut self,
        site: FaultSite,
        rng: &mut recon_isa::rng::SplitMix64,
    ) -> Option<String> {
        use recon_isa::rng::Rng as _;
        match site {
            FaultSite::RevealMask => self.mem.inject_mask_flip(rng),
            FaultSite::DirState => self.mem.inject_dir_flip(rng),
            FaultSite::Lpt => {
                let core = (rng.next_u64() as usize) % self.cores.len();
                self.cores[core].inject_lpt_flip(rng)
            }
            FaultSite::Regfile => {
                let core = (rng.next_u64() as usize) % self.cores.len();
                self.cores[core].inject_reg_flip(rng)
            }
            FaultSite::CkptBytes => None,
        }
    }

    /// Digest of the architectural state: the functional memory image
    /// plus every core's architectural registers. Two runs of the same
    /// workload ending with equal digests produced the same program
    /// outcome — the campaign's masked-fault criterion.
    #[must_use]
    pub fn arch_digest(&mut self) -> u64 {
        let mut w = SnapWriter::new();
        let written = self.data.codec(&mut w);
        debug_assert!(written.is_ok(), "writing cannot fail");
        let mut h = FxHasher::default();
        h.write(w.as_slice());
        for core in &self.cores {
            for i in 1..NUM_ARCH_REGS {
                h.write_u64(core.arch_read(ArchReg::new(i)));
            }
        }
        h.finish()
    }

    /// Executes up to `n` instructions *functionally* — straight-line
    /// interpretation over architectural state (register files + the
    /// shared [`SparseMem`]), touching no ROB/LSQ/rename/predictor/cache
    /// structures — then repositions every core to continue in detailed
    /// mode from the reached architectural point.
    ///
    /// Threads are interleaved round-robin, one instruction per live
    /// core per round, so spin-based synchronization (barriers,
    /// producer/consumer flags) makes progress exactly as it would under
    /// cycle-level interleaving. Returns the number of instructions
    /// actually executed (less than `n` once every thread has halted).
    ///
    /// Cache, LPT, predictor, and reveal-mask state is untouched: the
    /// detailed region starts from cold microarchitectural state at a
    /// warm architectural point — the documented mode-switch semantics
    /// (see DESIGN.md §11). Timing results therefore differ from a
    /// from-scratch detailed run (that is the point); architectural
    /// results do not.
    ///
    /// # Panics
    ///
    /// Panics if the program faults functionally (misaligned access,
    /// pc out of range) — workloads are validated to execute cleanly —
    /// or if called mid-run (after any cycle has been simulated).
    pub fn fast_forward(&mut self, n: u64) -> u64 {
        assert_eq!(
            self.cycle, 0,
            "fast-forward must precede detailed simulation"
        );
        let mut states: Vec<ArchState> = self
            .cores
            .iter()
            .map(|core| {
                let mut st = ArchState::at_pc(core.fetch_pc());
                for i in 1..NUM_ARCH_REGS {
                    let r = ArchReg::new(i);
                    st.write(r, core.arch_read(r));
                }
                st
            })
            .collect();
        let decoded = Arc::clone(&self.decoded);
        let mut remaining = n;
        let mut executed = 0u64;
        while remaining > 0 {
            let mut progressed = false;
            for st in &mut states {
                if remaining == 0 {
                    break;
                }
                if st.halted {
                    continue;
                }
                match run_decoded(&decoded, st, &mut self.data, 1) {
                    Ok(steps) if steps > 0 => {
                        progressed = true;
                        executed += steps;
                        remaining -= steps;
                    }
                    Ok(_) => {}
                    Err(e) => panic!("functional fast-forward faulted at pc {}: {e}", st.pc),
                }
            }
            if !progressed {
                break; // every thread halted
            }
        }
        for (core, st) in self.cores.iter_mut().zip(&states) {
            for i in 1..NUM_ARCH_REGS {
                let r = ArchReg::new(i);
                core.seed_reg(r, st.read(r));
            }
            core.warm_restart(st.pc, st.halted);
        }
        self.ff_instructions += executed;
        executed
    }

    /// Pauses fetch on every core and ticks until all pipelines drain
    /// (or `bound` cycles elapse). Returns `true` once every core's
    /// window is empty — the only state a snapshot may be taken in.
    ///
    /// With fetch paused nothing new dispatches, so in-flight branches
    /// and stores resolve, shadows retire, guards deactivate, and the
    /// ROB/LSQ/store buffers empty. A core frozen out-of-fuel commits
    /// nothing more, so the drain stops and returns `false` (checkpoint
    /// skipped) as soon as any core is out of fuel; the bound turns any
    /// other failure to drain into a `false` return rather than a hang.
    /// Fetch is resumed before returning either way.
    pub fn drain(&mut self, bound: u64) -> bool {
        for core in &mut self.cores {
            core.pause_fetch(true);
        }
        let mut spent = 0u64;
        while !self.cores.iter().all(Core::pipeline_empty)
            && !self.cores.iter().any(Core::out_of_fuel)
            && spent < bound
        {
            self.tick();
            spent += 1;
            if let Some(event) = self.quiescent_until() {
                let end = event.min(self.cycle + (bound - spent));
                spent += end.saturating_sub(self.cycle);
                self.skip_to(end);
            }
        }
        for core in &mut self.cores {
            core.pause_fetch(false);
        }
        self.cores.iter().all(Core::pipeline_empty) && !self.cores.iter().any(Core::out_of_fuel)
    }

    /// Serializes the complete architectural + persistent-metadata state
    /// of the system: cycle counter, functional memory, cache tags +
    /// reveal masks + directory, and every core's registers, predictors,
    /// guard table, LPT, and statistics.
    ///
    /// Must be called at a drained boundary (see [`System::drain`]):
    /// there, no speculative state exists, so none needs capturing.
    /// All collections serialize in canonical (sorted) order — the same
    /// state always produces the same bytes.
    ///
    /// Each section (cycle + functional memory, memory system, cores)
    /// is sealed with an `SCHK` checksum over its bytes, so a bit flip
    /// *inside* the stream — corruption the envelope of an `RCK1` file
    /// cannot see, e.g. state damaged before the envelope was written —
    /// is rejected at restore and names the corrupted section.
    #[must_use]
    pub fn snapshot_bytes(&mut self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        let written = self.codec(&mut w);
        debug_assert!(written.is_ok(), "writing cannot fail");
        w.into_bytes()
    }

    /// Restores state captured by [`System::snapshot_bytes`] into this
    /// freshly constructed system (same workload and configuration —
    /// configuration is re-derived from the run setup, not stored).
    ///
    /// # Errors
    ///
    /// Fails on a truncated or corrupt stream, or if the snapshot's
    /// shape (core count, cache geometry) does not match this system.
    /// On error the system is partially restored and must be discarded.
    pub fn restore_bytes(&mut self, bytes: &[u8]) -> Result<(), SnapError> {
        let mut r = SnapReader::new(bytes);
        self.codec(&mut r)?;
        if !r.is_exhausted() {
            return Err(r.fail("trailing bytes after system snapshot"));
        }
        Ok(())
    }

    /// The one body of [`System::snapshot_bytes`] and
    /// [`System::restore_bytes`].
    fn codec(&mut self, c: &mut impl Codec) -> Result<(), SnapError> {
        c.tag(b"SYSS")?;
        let mut start = c.offset();
        c.u64(&mut self.cycle)?;
        self.data.codec(c)?;
        seal(c, &mut start, "data")?;
        self.mem.codec(c)?;
        seal(c, &mut start, "mem")?;
        let mut n = self.cores.len() as u32;
        c.u32(&mut n)?;
        if n as usize != self.cores.len() {
            return Err(c.fail(format!(
                "snapshot has {n} cores, system has {}",
                self.cores.len()
            )));
        }
        for core in &mut self.cores {
            core.codec(c)?;
        }
        seal(c, &mut start, "cores")
    }

    /// Advances every core one cycle. Returns `true` while any core is
    /// still running.
    pub fn tick(&mut self) -> bool {
        let now = self.cycle;
        self.cycle += 1;
        self.mem.set_now(now);
        let mut busy = false;
        for core in &mut self.cores {
            busy |= core.tick(&mut self.mem, &mut self.data, now);
        }
        busy
    }

    /// After a tick in which no core changed pipeline state (see
    /// [`Core::quiescent`]): the cycle of the next tick that may, the
    /// earliest [`Core::next_event`]. Every tick before it would repeat
    /// the quiescent one exactly. `None` after an active tick.
    fn quiescent_until(&self) -> Option<u64> {
        let now = self.cycle - 1;
        let mut next = u64::MAX;
        for core in &self.cores {
            if !core.quiescent() {
                return None;
            }
            next = next.min(core.next_event(now));
        }
        Some(next)
    }

    /// Jumps from the current cycle to `end` after a quiescent tick, with
    /// the same effect as ticking every cycle in between: each core adds
    /// the quiescent tick's counter increments once per skipped cycle,
    /// and the memory system's clock (part of every snapshot) reads as
    /// the last skipped tick set it. A no-op unless `end` is ahead.
    fn skip_to(&mut self, end: u64) {
        if end <= self.cycle {
            return;
        }
        let skipped = end - self.cycle;
        for core in &mut self.cores {
            core.skip_quiescent(skipped);
        }
        self.cycle = end;
        self.mem.set_now(end - 1);
    }

    /// Runs until every core halts or `max_cycles` elapse.
    pub fn run(&mut self, max_cycles: u64) -> SystemResult {
        match self.run_budgeted(max_cycles, &Budget::default()) {
            Ok(r) => r,
            Err(e) => e.into_partial(),
        }
    }

    /// Runs until every core halts, a budget is exhausted, or the run
    /// is cancelled — the deadline-aware entry point behind
    /// `recon serve`'s per-job deadlines.
    ///
    /// `budget.max_cycles` overrides `max_cycles` when set. A run that
    /// stops early returns [`SimError`] carrying the partial
    /// [`SystemResult`] (with `completed == false`); the system itself
    /// stays intact, so stats remain readable afterwards.
    ///
    /// # Errors
    ///
    /// [`SimError::DeadlineExceeded`] when the fuel or cycle budget ran
    /// out, [`SimError::Cancelled`] when the cancellation flag was
    /// raised mid-run.
    pub fn run_budgeted(
        &mut self,
        max_cycles: u64,
        budget: &Budget,
    ) -> Result<SystemResult, SimError> {
        self.run_budgeted_checkpointed(max_cycles, budget, |_, _| {})
    }

    /// [`System::run_budgeted`] with periodic checkpointing: every
    /// `budget.checkpoint_every_cycles` cycles the run drains the
    /// pipelines, snapshots the system, and hands `(cycle, bytes)` to
    /// `sink`. With no cadence set, `sink` is never called and the run
    /// is identical to `run_budgeted`.
    ///
    /// Restoring a snapshot into a fresh system and calling this again
    /// (same configuration and cadence, `fuel: None` so the restored
    /// per-core fuel is kept) continues the run exactly: the resumed
    /// run's result is equal to the uninterrupted checkpointed run's.
    ///
    /// A drain that fails (a core froze out-of-fuel, or the pipelines did
    /// not empty within [`DRAIN_BOUND_CYCLES`]) skips that checkpoint;
    /// the run itself continues unaffected.
    ///
    /// # Errors
    ///
    /// Exactly as [`System::run_budgeted`].
    pub fn run_budgeted_checkpointed(
        &mut self,
        max_cycles: u64,
        budget: &Budget,
        mut sink: impl FnMut(u64, &[u8]),
    ) -> Result<SystemResult, SimError> {
        let max_cycles = budget.max_cycles.unwrap_or(max_cycles);
        // Functional warmup applies once, at the very start of a fresh
        // run; a system restored from a checkpoint (cycle > 0, work
        // already committed) carries its warmup inside the snapshot.
        if let Some(ff) = budget.fast_forward {
            if self.cycle == 0 && self.cores.iter().all(|c| c.stats().committed == 0) {
                self.fast_forward(ff);
            }
        }
        if let Some(fuel) = budget.fuel {
            for core in &mut self.cores {
                core.set_fuel(fuel);
            }
        }
        let cadence = budget.checkpoint_every_cycles.map(|c| c.max(1));
        let mut next_ckpt = cadence.map(|c| self.cycle.saturating_add(c));
        // Invariant auditor: a pure observation sweep at its own
        // cadence; the first non-empty sweep stops the run with full
        // forensics (the sweep never mutates state, so a clean run's
        // timing is unchanged).
        let audit_cadence = budget.audit_every_cycles.map(|c| c.max(1));
        let mut next_audit = audit_cadence.map(|c| self.cycle.saturating_add(c));
        let mut violated: Option<AuditReport> = None;
        // Liveness watchdog: track total committed instructions across
        // cores; a full window without any commit means the pipelines
        // are deadlocked, and the run stops with a forensic report
        // instead of silently burning its fuel/cycle budget.
        let watchdog = budget.effective_watchdog();
        let mut wd_last_total = self.committed_total();
        let mut wd_last_progress = self.cycle;
        let mut stalled = false;
        let mut cancelled = false;
        loop {
            if !self.tick() {
                break;
            }
            // Quiescent stretch: jump to the next event, but never past a
            // cycle at which one of the checks below would act, so every
            // stop, poll, audit and checkpoint lands where single-stepping
            // puts it.
            if let Some(event) = self.quiescent_until() {
                let end = [
                    Some(max_cycles),
                    Some(self.cycle.next_multiple_of(CANCEL_CHECK_INTERVAL)),
                    watchdog.map(|w| wd_last_progress.saturating_add(w)),
                    next_audit,
                    next_ckpt,
                ]
                .into_iter()
                .flatten()
                .fold(event, u64::min);
                self.skip_to(end);
            }
            if self.cycle >= max_cycles {
                break;
            }
            if self.cycle.is_multiple_of(CANCEL_CHECK_INTERVAL) && budget.cancelled() {
                cancelled = true;
                break;
            }
            if let Some(window) = watchdog {
                let total = self.committed_total();
                if total != wd_last_total {
                    wd_last_total = total;
                    wd_last_progress = self.cycle;
                } else if self.cycle.wrapping_sub(wd_last_progress) >= window
                    && !self.cores.iter().any(Core::out_of_fuel)
                {
                    // A core frozen out-of-fuel is a deadline, not a
                    // stall; let the fuel path report it.
                    stalled = true;
                    break;
                }
            }
            if let (Some(at), Some(c)) = (next_audit, audit_cadence) {
                if self.cycle >= at {
                    violated = self.audit_sweep(c);
                    if violated.is_some() {
                        break;
                    }
                    next_audit = Some(self.cycle.saturating_add(c));
                }
            }
            if let (Some(at), Some(c)) = (next_ckpt, cadence) {
                if self.cycle >= at {
                    if self.drain(DRAIN_BOUND_CYCLES) {
                        let bytes = self.snapshot_bytes();
                        sink(self.cycle, &bytes);
                    }
                    // Cadence restarts from the post-drain cycle, so an
                    // uninterrupted run and a resumed run (which starts
                    // at a post-drain cycle) hit the same boundaries.
                    next_ckpt = Some(self.cycle.saturating_add(c));
                    // A drain legitimately pauses commit (and a failed
                    // drain burns its bound without progress): re-arm
                    // the watchdog from the post-drain cycle.
                    wd_last_total = self.committed_total();
                    wd_last_progress = self.cycle;
                }
            }
        }
        let completed = self.cores.iter().all(Core::is_done);
        // A final sweep on completion closes the window between the
        // last cadence boundary and the halt: a fault that survives to
        // the end is still caught before the result is reported.
        if completed && violated.is_none() {
            violated = audit_cadence.and_then(|c| self.audit_sweep(c));
        }
        let result = SystemResult {
            completed,
            cycles: self.cycle,
            cores: self.cores.iter().map(Core::stats).collect(),
            mem: self.mem.stats(),
        };
        if let Some(report) = violated {
            return Err(SimError::InvariantViolated {
                partial: Box::new(SystemResult {
                    completed: false,
                    ..result
                }),
                report: Box::new(report),
            });
        }
        if cancelled {
            return Err(SimError::Cancelled {
                partial: Box::new(result),
            });
        }
        if stalled {
            let report = self.stall_report(watchdog.unwrap_or(0));
            return Err(SimError::Stalled {
                partial: Box::new(result),
                report: Box::new(report),
            });
        }
        if completed {
            return Ok(result);
        }
        let reason = if self.cores.iter().any(Core::out_of_fuel) {
            DeadlineReason::Fuel
        } else {
            DeadlineReason::MaxCycles
        };
        Err(SimError::DeadlineExceeded {
            partial: Box::new(result),
            reason,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recon_isa::reg::names::*;
    use recon_workloads::gen::parallel::{generate, ParKind, ParallelParams};
    use recon_workloads::Scale;

    fn tiny_parallel(kind: ParKind) -> Workload {
        generate(ParallelParams {
            kind,
            slots: 64,
            cond_lines: 4,
            passes: 2,
            seed: 1,
        })
    }

    fn run(workload: &Workload, secure: SecureConfig) -> SystemResult {
        let mut sys = System::new(
            workload,
            CoreConfig::tiny(),
            MemConfig::scaled(),
            secure,
            ReconConfig::default(),
        );
        let r = sys.run(10_000_000);
        assert!(r.completed, "workload must finish");
        r
    }

    #[test]
    fn four_threads_reach_the_barrier_and_finish() {
        for kind in [
            ParKind::SharedChase,
            ParKind::DataParallel { rotate: true },
            ParKind::ProducerConsumer,
        ] {
            let w = tiny_parallel(kind);
            let r = run(&w, SecureConfig::unsafe_baseline());
            assert_eq!(r.cores.len(), 4, "{kind:?}");
            assert!(r.cores.iter().all(|c| c.committed > 0), "{kind:?}");
        }
    }

    #[test]
    fn parallel_results_identical_across_schemes() {
        // Every thread's accumulator must match between baseline and
        // secure schemes (architectural equivalence).
        let w = tiny_parallel(ParKind::SharedChase);
        let base = {
            let mut sys = System::new(
                &w,
                CoreConfig::tiny(),
                MemConfig::scaled(),
                SecureConfig::unsafe_baseline(),
                ReconConfig::default(),
            );
            sys.run(10_000_000);
            sys.cores()
                .iter()
                .map(|c| c.arch_read(R5))
                .collect::<Vec<_>>()
        };
        for secure in [
            SecureConfig::stt(),
            SecureConfig::stt_recon(),
            SecureConfig::nda_recon(),
        ] {
            let mut sys = System::new(
                &w,
                CoreConfig::tiny(),
                MemConfig::scaled(),
                secure,
                ReconConfig::default(),
            );
            let r = sys.run(10_000_000);
            assert!(r.completed, "{secure}");
            let sums: Vec<u64> = sys.cores().iter().map(|c| c.arch_read(R5)).collect();
            assert_eq!(sums, base, "{secure}");
        }
    }

    #[test]
    fn cross_core_reveal_sharing_happens() {
        // SharedChase under STT+ReCon: reveals set by one core are
        // consumed by others (revealed loads on cores that did not
        // necessarily reveal them first).
        let w = tiny_parallel(ParKind::SharedChase);
        let mut sys = System::new(
            &w,
            CoreConfig::tiny(),
            MemConfig::scaled(),
            SecureConfig::stt_recon(),
            ReconConfig::default(),
        );
        let r = sys.run(10_000_000);
        assert!(r.completed);
        assert!(r.mem.reveals_set > 0);
        let revealed_users = r
            .cores
            .iter()
            .filter(|c| c.revealed_loads_committed > 0)
            .count();
        assert!(revealed_users >= 2, "at least two cores consumed reveals");
    }

    #[test]
    fn spec_benchmark_runs_under_system() {
        let b =
            recon_workloads::find(recon_workloads::Suite::Spec2017, "leela", Scale::Quick).unwrap();
        let r = run(&b.workload, SecureConfig::stt());
        assert!(r.ipc() > 0.1);
    }
}
