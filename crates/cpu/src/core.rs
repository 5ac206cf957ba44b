//! The out-of-order core pipeline.
//!
//! A cycle-level model with the structures of the paper's Table 2 core:
//! fetch (branch-predicted, wrong-path execution), rename (physical
//! registers + free list), a reorder buffer, an instruction queue with
//! oldest-first select, a load/store queue with store-buffer forwarding,
//! and in-order commit hosting ReCon's load-pair table.
//!
//! Security schemes hook in at two points:
//!
//! * **issue** — NDA refuses to *read* a guarded operand; STT refuses to
//!   *execute a transmitter* (memory instruction or branch resolution)
//!   with a guarded operand;
//! * **load completion** — a load that completes while speculative
//!   receives a guard on its destination (NDA: its own seq; STT: its
//!   YRoT), **unless ReCon marked the accessed word revealed** (§5.4).
//!
//! Speculation shadows are cast by conditional branches (until resolved)
//! and stores (until their address resolves), matching the paper's
//! evaluated threat model (§6.1).

use std::sync::Arc;

use recon::{LoadPairTable, ReconConfig};
use recon_isa::snap::{Codec, SnapError};
use recon_isa::{AluKind, ArchReg, DataMem, DecodedProgram, Inst, Program, SparseMem};
use recon_mem::MemorySystem;
use recon_secure::{GuardTable, SecureConfig, Seq};

use crate::bpred::BranchPredictor;
use crate::config::{CoreConfig, MdpMode};
use crate::forensics::{CoreStallInfo, HeadForensics, QueueOcc};
use crate::lsq::{Forward, LoadQueue, StoreBuffer, StoreQueue};
use crate::mdp::StoreSets;
use crate::rename::{PReg, Rename};
use crate::rob::{Rob, RobDetail, RobEntry, Status};
use crate::sched::Scheduler;
use crate::shadow::ShadowTracker;
use crate::stats::CoreStats;
use crate::trace::{TraceKind, TraceLog};

/// A speculatively observable memory access (for the Table 1 analysis
/// and the `recon-verify` attacker observation model).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct Observation {
    /// Cycle the access probed the hierarchy (its timing is visible
    /// from that point).
    pub cycle: u64,
    /// Static instruction index of the load.
    pub pc: usize,
    /// Word address accessed.
    pub addr: u64,
    /// Roundtrip latency the hierarchy reported — the attacker's
    /// primary probe channel (hit vs. miss timing).
    pub latency: u32,
    /// Whether the load was speculative when it accessed the hierarchy.
    pub speculative: bool,
}

/// One out-of-order core.
///
/// Drive it with [`Core::tick`] once per cycle, sharing a
/// [`MemorySystem`] and a functional [`SparseMem`] with the other cores.
#[derive(Debug)]
pub struct Core {
    id: usize,
    cfg: CoreConfig,
    secure: SecureConfig,
    /// Pre-decoded instruction stream: every `Program` instruction's
    /// operands and class flags computed once at construction, so fetch
    /// reads dense records instead of re-running the `Inst` accessor
    /// matches on every slot of every cycle.
    decoded: Arc<DecodedProgram>,

    // Frontend.
    fetch_pc: usize,
    fetch_stalled_until: u64,
    fetch_halted: bool,
    /// Checkpoint drain: while set, fetch dispatches nothing, so the
    /// in-flight window empties as instructions resolve and commit.
    /// Unlike `fetch_stalled_until` this survives squash redirects.
    fetch_paused: bool,

    // Backend structures.
    rename: Rename,
    rob: Rob,
    sched: Scheduler,
    lq: LoadQueue,
    sq: StoreQueue,
    sb: StoreBuffer,
    shadows: ShadowTracker,
    guards: GuardTable,
    bpred: BranchPredictor,
    lpt: LoadPairTable,
    mdp: StoreSets,

    halted: bool,
    /// Remaining committed-instruction budget (`u64::MAX` = unlimited).
    fuel: u64,
    out_of_fuel: bool,
    stats: CoreStats,
    observations: Vec<Observation>,
    record_observations: bool,
    recon_multi_source: bool,
    trace: TraceLog,

    /// Whether the last tick changed pipeline state: completed,
    /// committed, drained, supplied, issued or dispatched anything, or
    /// froze out of fuel. A tick that did none of these only advanced
    /// counters, and every later tick repeats it until the next event.
    active: bool,
    /// [`idle_counters`] as the last tick found them.
    tick_start: [u64; 7],
}

/// The counters a quiescent tick advances: the cycle count, the one
/// commit-stall bucket it lands in, and the scheme-delay probes of its
/// issue stage.
fn idle_counters(s: &mut CoreStats) -> [&mut u64; 7] {
    [
        &mut s.cycles,
        &mut s.stall_head_load,
        &mut s.stall_head_store,
        &mut s.stall_head_branch,
        &mut s.stall_head_other,
        &mut s.stall_empty,
        &mut s.scheme_delay_cycles,
    ]
}

/// The counters a core keeps itself, in snapshot order: every counter
/// of [`CoreStats::counters_mut`] but the five LPT counters and
/// `trace_dropped`, which [`Core::stats`] reads from the LPT and the
/// trace ring.
fn own_counters(s: &mut CoreStats) -> impl Iterator<Item = &mut u64> {
    let [base @ .., _, _, _, _, _, _, s0, s1, s2, s3, s4] = s.counters_mut();
    base.into_iter().chain([s0, s1, s2, s3, s4])
}

/// The operands an instruction waits for before it may issue. A plain
/// store issues its address computation only: the data operand is
/// decoupled (supplied to the SQ when it arrives) and never blocks
/// issue. STT likewise only treats the store's address as the
/// transmitted operand; tainted store data is handled at forwarding
/// time (§4.5).
#[inline]
fn issue_srcs(e: &RobEntry) -> &[Option<PReg>] {
    if e.class.is_plain_store() {
        &e.srcs[..1]
    } else {
        &e.srcs[..]
    }
}

/// The scheme gate of an entry whose issue operands are all produced:
/// the youngest guard root among the operands its scheme checks (NDA
/// refuses to read a guarded operand, STT to execute a transmitter on
/// one), 0 when it checks none. The scheme refuses the entry exactly
/// while `frontier < gate`, as a guard is active while `frontier < root`.
#[inline]
fn scheme_gate(secure: &SecureConfig, guards: &GuardTable, e: &RobEntry) -> Seq {
    let nda = secure.kind.delays_value_broadcast();
    let stt = secure.kind.blocks_transmitters() && e.class.is_transmitter;
    if !(nda || stt) {
        return 0;
    }
    issue_srcs(e)
        .iter()
        .flatten()
        .filter_map(|&p| guards.get(p as usize))
        .max()
        .unwrap_or(0)
}

impl Core {
    /// Creates a core running `program` from its entry point.
    ///
    /// The program is decoded once here; when several cores run the same
    /// code (multithreaded workloads), decode once with
    /// [`DecodedProgram::decode`] and use [`Core::with_decoded`] instead.
    #[must_use]
    pub fn new(
        id: usize,
        program: Arc<Program>,
        cfg: CoreConfig,
        secure: SecureConfig,
        recon_cfg: ReconConfig,
    ) -> Self {
        let entry = program.entry;
        let decoded = Arc::new(DecodedProgram::decode(&program));
        Self::with_decoded(id, decoded, entry, cfg, secure, recon_cfg)
    }

    /// Creates a core running a shared pre-decoded stream from `entry`.
    ///
    /// `entry` overrides the decoded program's own entry point so one
    /// decode can serve every thread of a multithreaded workload (threads
    /// share code but start at different instructions).
    #[must_use]
    pub fn with_decoded(
        id: usize,
        decoded: Arc<DecodedProgram>,
        entry: usize,
        cfg: CoreConfig,
        secure: SecureConfig,
        recon_cfg: ReconConfig,
    ) -> Self {
        let lpt_entries = recon_cfg.lpt_size.resolve(cfg.num_pregs);
        Core {
            id,
            cfg,
            secure,
            decoded,
            fetch_pc: entry,
            fetch_stalled_until: 0,
            fetch_halted: false,
            fetch_paused: false,
            rename: Rename::new(cfg.num_pregs),
            rob: Rob::new(cfg.rob_entries),
            sched: Scheduler::new(cfg.rob_entries, cfg.num_pregs),
            lq: LoadQueue::new(cfg.lq_entries),
            sq: StoreQueue::new(cfg.sq_entries, cfg.num_pregs),
            sb: StoreBuffer::new(cfg.sb_entries),
            shadows: ShadowTracker::new(),
            guards: GuardTable::new(cfg.num_pregs),
            bpred: BranchPredictor::new(cfg.bpred_bits),
            lpt: LoadPairTable::with_entries(lpt_entries),
            mdp: StoreSets::default(),
            halted: false,
            fuel: u64::MAX,
            out_of_fuel: false,
            stats: CoreStats::default(),
            observations: Vec::new(),
            record_observations: false,
            recon_multi_source: recon_cfg.multi_source,
            trace: TraceLog::with_capacity(cfg.trace_capacity),
            active: false,
            tick_start: [0; 7],
        }
    }

    /// This core's id (its index in the memory system).
    #[must_use]
    pub fn id(&self) -> usize {
        self.id
    }

    /// The next instruction index fetch will read (the architectural pc
    /// when the pipeline is empty).
    #[must_use]
    pub fn fetch_pc(&self) -> usize {
        self.fetch_pc
    }

    /// Seeds an architectural register before the first cycle (thread
    /// ids, base pointers).
    pub fn seed_reg(&mut self, reg: ArchReg, value: u64) {
        self.rename.seed(reg, value);
    }

    /// Repositions the frontend after a functional fast-forward: fetch
    /// resumes at `pc`, or the core is marked architecturally finished
    /// if the warmup already executed the program's `halt`.
    ///
    /// Must only be called with an empty pipeline (a fresh or drained
    /// core); the architectural registers are expected to have been
    /// written via [`Core::seed_reg`] beforehand.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if instructions are in flight.
    pub fn warm_restart(&mut self, pc: usize, halted: bool) {
        debug_assert!(
            self.pipeline_empty(),
            "fast-forward writeback requires an empty pipeline"
        );
        self.fetch_pc = pc;
        self.fetch_halted = halted;
        self.halted = halted;
    }

    /// Enables recording of [`Observation`]s (off by default; used by the
    /// Table 1 analysis).
    pub fn record_observations(&mut self, on: bool) {
        self.record_observations = on;
    }

    /// Enables pipeline-event tracing (off by default).
    pub fn record_trace(&mut self, on: bool) {
        self.trace.set_enabled(on);
    }

    /// Drains the recorded pipeline trace (oldest retained event first).
    pub fn take_trace(&mut self) -> Vec<crate::trace::TraceEvent> {
        self.trace.take()
    }

    /// Trace events dropped by the ring buffer so far.
    #[must_use]
    pub fn trace_dropped(&self) -> u64 {
        self.trace.dropped()
    }

    /// Caps the number of instructions this core may still commit (its
    /// *fuel*). Once the budget is exhausted the core freezes cleanly at
    /// the next commit attempt: [`Core::tick`] returns `false`,
    /// [`Core::out_of_fuel`] turns `true`, and every statistic
    /// accumulated so far stays readable — the deadline mechanism behind
    /// `recon_sim`'s `SimError::DeadlineExceeded`.
    pub fn set_fuel(&mut self, fuel: u64) {
        self.fuel = fuel;
        self.out_of_fuel = fuel == 0 && !self.is_done();
    }

    /// Whether the core stopped because its commit budget ran out
    /// (see [`Core::set_fuel`]).
    #[must_use]
    pub fn out_of_fuel(&self) -> bool {
        self.out_of_fuel
    }

    /// Drains recorded observations.
    pub fn take_observations(&mut self) -> Vec<Observation> {
        std::mem::take(&mut self.observations)
    }

    /// Whether the program has committed its `halt` and drained all
    /// stores.
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.halted && self.sb.is_empty()
    }

    /// Instructions committed so far — a cheap accessor for the
    /// liveness watchdog's per-cycle forward-progress check (avoids the
    /// full [`Core::stats`] copy on the hot path).
    #[must_use]
    pub fn committed(&self) -> u64 {
        self.stats.committed
    }

    /// Statistics accumulated so far.
    #[must_use]
    pub fn stats(&self) -> CoreStats {
        let mut s = self.stats;
        s.lpt = self.lpt.stats();
        s.trace_dropped = self.trace.dropped();
        s
    }

    /// Reads the committed architectural value of a register (only
    /// meaningful once [`Core::is_done`]).
    #[must_use]
    pub fn arch_read(&self, reg: ArchReg) -> u64 {
        self.rename.read(self.rename.lookup(reg))
    }

    // ------------------------------------------------------------------
    // Stall forensics
    // ------------------------------------------------------------------

    /// Captures a structured snapshot of why this core is (or is not)
    /// making progress: queue occupancies, scheme state, and the
    /// ROB-head instruction's precise wait reason. Read-only; `mem`
    /// supplies MESI/directory/reveal state for the head's address.
    ///
    /// This is the per-core half of the liveness watchdog's
    /// `StallReport` (`recon_sim`).
    #[must_use]
    pub fn stall_info(&self, mem: &MemorySystem) -> CoreStallInfo {
        let frontier = self.shadows.frontier();
        let queue = |name: &str, len: usize, cap: usize| QueueOcc {
            name: name.to_string(),
            len: len as u64,
            cap: cap as u64,
        };
        let head = self.rob.head().map(|e| {
            let c = self.rob.detail(e.seq).expect("the head is in flight");
            let status = match e.status {
                Status::Waiting => "waiting-issue".to_string(),
                Status::Executing { done_at } => {
                    format!("executing, done at cycle {done_at}")
                }
                Status::Done => "done".to_string(),
            };
            let mut guarded = Vec::new();
            for p in e.srcs.iter().flatten() {
                if self.guards.is_active(*p as usize, frontier) {
                    guarded.push((*p, self.guards.get(*p as usize).unwrap_or(0)));
                }
            }
            let addr = c.addr.or_else(|| self.predict_head_addr(e, c));
            let (l1_state, l2_state, dir_state, word_revealed) = match addr {
                Some(a) => (
                    mem.l1_state(self.id, a).map(|s| format!("{s:?}")),
                    mem.l2_state(self.id, a).map(|s| format!("{s:?}")),
                    mem.dir_state(a).map(|s| format!("{s:?}")),
                    Some(mem.probe_revealed(self.id, a)),
                ),
                None => (None, None, None, None),
            };
            let lpt_entry = c
                .inst
                .addr_src()
                .and(e.srcs[0])
                .and_then(|p| self.lpt.peek(p));
            HeadForensics {
                seq: e.seq,
                pc: c.pc as u64,
                inst: c.inst.to_string(),
                status,
                wait: self.classify_wait(e, c, frontier),
                addr,
                speculative: self.shadows.is_speculative(e.seq),
                delayed_by_scheme: c.was_delayed_by_scheme,
                guarded_operands: guarded,
                l1_state,
                l2_state,
                dir_state,
                word_revealed,
                lpt_entry,
            }
        });
        CoreStallInfo {
            core: self.id as u64,
            committed: self.stats.committed,
            halted: self.halted,
            out_of_fuel: self.out_of_fuel,
            fetch_pc: self.fetch_pc as u64,
            queues: vec![
                queue("rob", self.rob.len(), self.cfg.rob_entries),
                queue("iq", self.sched.iq_len(), self.cfg.iq_entries),
                queue("lq", self.lq.len(), self.cfg.lq_entries),
                queue("sq", self.sq.len(), self.cfg.sq_entries),
                queue("sb", self.sb.len(), self.cfg.sb_entries),
            ],
            shadows: self.shadows.len() as u64,
            guards_active: self.guards.active_count(frontier) as u64,
            head,
        }
    }

    /// Best-effort effective address for an un-issued memory op at the
    /// head: computable once the base operand's value is ready.
    fn predict_head_addr(&self, e: &RobEntry, c: &RobDetail) -> Option<u64> {
        let offset = match c.inst {
            Inst::Load { offset, .. }
            | Inst::Store { offset, .. }
            | Inst::AmoAdd { offset, .. } => offset,
            _ => return None,
        };
        let base = e.srcs[0]?;
        self.rename
            .is_ready(base)
            .then(|| self.rename.read(base).wrapping_add(offset as u64) & !7)
    }

    /// Mirrors the issue-stage checks read-only to state *why* the head
    /// entry has not committed.
    fn classify_wait(&self, e: &RobEntry, c: &RobDetail, frontier: Seq) -> String {
        match e.status {
            Status::Done => {
                if e.class.is_plain_store() && !self.sb.has_space() {
                    return format!(
                        "store-buffer full at commit ({}/{})",
                        self.sb.len(),
                        self.cfg.sb_entries
                    );
                }
                "ready to commit".to_string()
            }
            Status::Executing { done_at } => {
                format!("in execution, result available at cycle {done_at}")
            }
            Status::Waiting => {
                let issue_srcs = issue_srcs(e);
                for p in issue_srcs.iter().flatten() {
                    if !self.rename.is_ready(*p) {
                        return format!("operand p{p} value not yet produced");
                    }
                }
                let nda = self.secure.kind.delays_value_broadcast();
                let stt = self.secure.kind.blocks_transmitters() && e.class.is_transmitter;
                if nda || stt {
                    for p in issue_srcs.iter().flatten() {
                        if self.guards.is_active(*p as usize, frontier) {
                            let root = self.guards.get(*p as usize).unwrap_or(0);
                            return format!(
                                "delayed by scheme {}: operand p{p} guarded (root seq {root})",
                                self.secure.label()
                            );
                        }
                    }
                }
                match c.inst {
                    Inst::AmoAdd { .. } => {
                        if self.rob.head().map(|h| h.seq) != Some(e.seq) {
                            return "amo waiting to reach the ROB head (serializing)".to_string();
                        }
                        if !self.sb.is_empty() {
                            return format!(
                                "amo at head draining the store buffer ({} entries)",
                                self.sb.len()
                            );
                        }
                        if self.cfg.amo_empty_sq_bug && !self.sq.is_empty() {
                            return format!(
                                "amo at head blocked on {} younger store(s) in the SQ \
                                 (amo_empty_sq_bug test hook): the store cannot commit \
                                 behind the amo — deadlock",
                                self.sq.len()
                            );
                        }
                        "amo ready to issue".to_string()
                    }
                    i if i.is_load() => {
                        if self.sched.unissued_amo_older_than(e.seq) {
                            return "load waiting for an older amo to issue \
                                    (amo RMW serializes memory)"
                                .to_string();
                        }
                        if self.cfg.mdp == MdpMode::Conservative {
                            if let Some(s) =
                                self.sq.iter().find(|s| s.seq < e.seq && s.addr.is_none())
                            {
                                return format!(
                                    "load waiting for older store seq {} to resolve its \
                                     address (conservative MDP)",
                                    s.seq
                                );
                            }
                        }
                        "load waiting on memory dependence / forwarding".to_string()
                    }
                    _ => "in the issue queue (transient)".to_string(),
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Invariant audit + soft-error injection
    // ------------------------------------------------------------------

    /// Sweeps every in-core structure for invariant violations.
    ///
    /// Every check here holds by construction during an uncorrupted run
    /// (see [`recon::audit`]): the ROB window is contiguous and bounded,
    /// the side queues (IQ/LQ/SQ) and shadow tracker reference only live
    /// ROB entries, guard roots never point past the sequence counter,
    /// the LPT maps tags to their home slots, and the rename structures
    /// partition the physical registers exactly. A non-empty result
    /// means the core's state was damaged from outside the model.
    #[must_use]
    pub fn audit(&self) -> Vec<recon::AuditViolation> {
        let mut out = Vec::new();
        let site = format!("core{}", self.id);
        let next_seq = self.rob.next_seq();

        // ROB: bounded, seq-contiguous, consistent with the counter.
        if self.rob.len() > self.rob.capacity() {
            out.push(recon::AuditViolation::new(
                "rob-overflow",
                format!("{site}.rob"),
                format!(
                    "{} entries exceed capacity {}",
                    self.rob.len(),
                    self.rob.capacity()
                ),
            ));
        }
        let mut prev: Option<Seq> = None;
        for e in self.rob.iter() {
            if let Some(p) = prev {
                if e.seq != p + 1 {
                    out.push(recon::AuditViolation::new(
                        "rob-seq-contiguous",
                        format!("{site}.rob"),
                        format!("seq {} follows {p}, expected {}", e.seq, p + 1),
                    ));
                }
            }
            prev = Some(e.seq);
        }
        if let Some(young) = prev {
            if young + 1 != next_seq {
                out.push(recon::AuditViolation::new(
                    "rob-next-seq",
                    format!("{site}.rob"),
                    format!("youngest seq {young} but next_seq {next_seq}"),
                ));
            }
        }

        self.audit_sched(&site, &mut out);

        // Side queues: members must be live ROB entries, age-ordered.
        let mut prev: Option<Seq> = None;
        for e in self.lq.iter() {
            if self.rob.get(e.seq).is_none() {
                out.push(recon::AuditViolation::new(
                    "lq-seq-live",
                    format!("{site}.lq"),
                    format!("LQ holds seq {} with no live ROB entry", e.seq),
                ));
            }
            if let Some(p) = prev {
                if e.seq <= p {
                    out.push(recon::AuditViolation::new(
                        "lq-age-order",
                        format!("{site}.lq"),
                        format!("seq {} not older than successor {p}", e.seq),
                    ));
                }
            }
            prev = Some(e.seq);
        }
        let mut prev: Option<Seq> = None;
        for e in self.sq.iter() {
            if self.rob.get(e.seq).is_none() {
                out.push(recon::AuditViolation::new(
                    "sq-seq-live",
                    format!("{site}.sq"),
                    format!("SQ holds seq {} with no live ROB entry", e.seq),
                ));
            }
            if let Some(p) = prev {
                if e.seq <= p {
                    out.push(recon::AuditViolation::new(
                        "sq-age-order",
                        format!("{site}.sq"),
                        format!("seq {} not older than successor {p}", e.seq),
                    ));
                }
            }
            prev = Some(e.seq);
        }

        self.sq.audit(&site, |p| self.rename.is_ready(p), &mut out);

        // Shadows: every unresolved caster is still in flight.
        for s in self.shadows.iter() {
            if self.rob.get(s).is_none() {
                out.push(recon::AuditViolation::new(
                    "shadow-seq-live",
                    format!("{site}.shadows"),
                    format!("unresolved shadow caster seq {s} not in ROB"),
                ));
            }
        }

        // Guards: roots derive from dispatched loads, so they never
        // exceed the sequence counter; an *active* root is a load that
        // cannot yet have committed (an older shadow is unresolved), so
        // it must occupy a live ROB slot.
        let frontier = self.shadows.frontier();
        for (preg, root) in self.guards.iter() {
            if root >= next_seq {
                out.push(recon::AuditViolation::new(
                    "guard-root-future",
                    format!("{site}.guards"),
                    format!("p{preg} guarded by root {root} >= next_seq {next_seq}"),
                ));
            } else if frontier < root && self.rob.get(root).is_none() {
                out.push(recon::AuditViolation::new(
                    "guard-active-dead-root",
                    format!("{site}.guards"),
                    format!("p{preg}'s active root {root} not in ROB window"),
                ));
            }
        }

        // LPT slot mapping and rename partition.
        self.lpt.audit(&site, self.rename.num_pregs(), &mut out);
        self.rename.audit(
            &site,
            self.rob.iter().filter_map(|e| e.dst.map(|d| d.old)),
            &mut out,
        );
        out
    }

    /// Scheduler invariants: the IQ occupancy counts exactly the ROB
    /// entries waiting to issue; the ready list is ascending, holds only
    /// waiting entries behind the scheme gate their operands give, and
    /// lists every one whose issue operands are produced; every operand
    /// not yet produced sits in its register's wait list; the completion
    /// wheel holds every executing entry exactly once, at its `done_at`,
    /// and nothing else.
    fn audit_sched(&self, site: &str, out: &mut Vec<recon::AuditViolation>) {
        let mut flag = |rule: &'static str, what: &str, detail: String| {
            out.push(recon::AuditViolation::new(
                rule,
                format!("{site}.{what}"),
                detail,
            ));
        };
        let ready = self.sched.ready();
        if !ready.windows(2).all(|w| w[0].seq < w[1].seq) {
            flag(
                "ready-age-order",
                "ready",
                format!("ready list not ascending: {ready:?}"),
            );
        }
        for r in ready {
            let Some(e) = self.rob.get(r.seq).filter(|e| e.status == Status::Waiting) else {
                flag(
                    "ready-not-queued",
                    "ready",
                    format!(
                        "ready list holds seq {}, which is not waiting in the IQ",
                        r.seq
                    ),
                );
                continue;
            };
            let gate = scheme_gate(&self.secure, &self.guards, e);
            if r.gate() != gate {
                flag(
                    "ready-gate",
                    "ready",
                    format!(
                        "seq {} listed behind gate {} but its operands give {gate}",
                        r.seq,
                        r.gate()
                    ),
                );
            }
        }
        let mut waiting = 0;
        for e in self.rob.iter().filter(|e| e.status == Status::Waiting) {
            waiting += 1;
            let mut operands_ready = true;
            for (k, &p) in issue_srcs(e).iter().enumerate() {
                let Some(p) = p.filter(|&p| !self.rename.is_ready(p)) else {
                    continue;
                };
                operands_ready = false;
                if !self.sched.waits_on(e.seq, k, p) {
                    flag(
                        "wakeup-missing",
                        "wakeup",
                        format!("seq {} waits on p{p} but is not in its wait list", e.seq),
                    );
                }
            }
            if operands_ready && !ready.iter().any(|r| r.seq == e.seq) {
                flag(
                    "ready-missing",
                    "ready",
                    format!(
                        "seq {} has every issue operand ready but is not listed",
                        e.seq
                    ),
                );
            }
        }
        if waiting != self.sched.iq_len() {
            flag(
                "iq-count",
                "iq",
                format!(
                    "IQ occupancy {} but {waiting} ROB entries wait to issue",
                    self.sched.iq_len()
                ),
            );
        }
        let mut keys: Vec<(u64, Seq)> = self.sched.executing().collect();
        keys.sort_unstable_by_key(|&(d, s)| (s, d));
        for (i, &(done_at, seq)) in keys.iter().enumerate() {
            if i > 0 && keys[i - 1].1 == seq {
                flag(
                    "completion-dup",
                    "completion",
                    format!("seq {seq} sits in the completion wheel twice"),
                );
            }
            let status = self.rob.get(seq).map(|e| e.status);
            if status != Some(Status::Executing { done_at }) {
                flag(
                    "completion-stale",
                    "completion",
                    format!("wheel entry (done_at {done_at}, seq {seq}) but ROB has {status:?}"),
                );
            }
        }
        for e in self.rob.iter() {
            if let Status::Executing { done_at } = e.status {
                if keys
                    .binary_search_by_key(&(e.seq, done_at), |&(d, s)| (s, d))
                    .is_err()
                {
                    flag(
                        "completion-missing",
                        "completion",
                        format!(
                            "executing seq {} (done_at {done_at}) not in the wheel",
                            e.seq
                        ),
                    );
                }
            }
        }
    }

    /// Soft-error injection: flips one bit of a random LPT entry.
    /// Returns a description of the site, or `None` if the table holds
    /// no target.
    pub fn inject_lpt_flip(&mut self, rng: &mut recon_isa::rng::SplitMix64) -> Option<String> {
        self.lpt
            .inject_flip(rng)
            .map(|d| format!("core{}.lpt: {d}", self.id))
    }

    /// Soft-error injection: flips one bit of a live physical-register
    /// value. Returns a description of the site, or `None` if the
    /// chosen register cannot carry a visible fault.
    pub fn inject_reg_flip(&mut self, rng: &mut recon_isa::rng::SplitMix64) -> Option<String> {
        self.rename
            .inject_flip(rng)
            .map(|d| format!("core{}.rename: {d}", self.id))
    }

    // ------------------------------------------------------------------
    // Checkpointing
    // ------------------------------------------------------------------

    /// Suspends (or resumes) fetch so the pipeline drains for a
    /// checkpoint: with nothing new dispatched, branches and stores
    /// resolve, shadows retire, guards deactivate, and the window
    /// empties within a bounded number of cycles.
    pub fn pause_fetch(&mut self, paused: bool) {
        self.fetch_paused = paused;
    }

    /// Whether no speculative state is in flight: ROB, IQ, LSQ, store
    /// buffer, and shadow tracker are all empty. Only in this state can
    /// the core be snapshotted (all remaining state is architectural).
    #[must_use]
    pub fn pipeline_empty(&self) -> bool {
        self.rob.is_empty()
            && self.sched.iq_len() == 0
            && self.lq.is_empty()
            && self.sq.is_empty()
            && self.sb.is_empty()
            && self.shadows.is_empty()
    }

    /// Visits the core's architectural and persistent-metadata state.
    ///
    /// Must be called with the pipeline drained ([`Core::pipeline_empty`]):
    /// at that boundary the ROB/IQ/LSQ/SB/shadows hold nothing, so no
    /// speculative state exists to capture — only the register file,
    /// predictors, guard table, LPT, statistics, and frontend cursor.
    ///
    /// A read restores into a core freshly constructed from the *same*
    /// configuration (same program, core config, secure scheme, and
    /// ReCon config) — configuration is deliberately not stored in
    /// snapshots; it is re-derived from the run setup and only the
    /// mutable state is loaded.
    ///
    /// # Errors
    ///
    /// A read fails on a truncated or corrupt stream. On error the core
    /// is left partially restored and must be discarded.
    ///
    /// # Panics
    ///
    /// Panics if a read finds in-flight instructions (a write checks
    /// the same in debug builds).
    pub fn codec(&mut self, c: &mut impl Codec) -> Result<(), SnapError> {
        assert!(
            !c.reads() || self.pipeline_empty(),
            "restore requires an idle (freshly constructed) core"
        );
        debug_assert!(
            self.pipeline_empty(),
            "core snapshot requires a drained pipeline"
        );
        c.tag(b"CORE")?;
        c.usize(&mut self.fetch_pc)?;
        c.u64(&mut self.fetch_stalled_until)?;
        c.bool(&mut self.fetch_halted)?;
        self.rename.codec(c)?;
        let mut next_seq = self.rob.next_seq();
        c.u64(&mut next_seq)?;
        if c.reads() {
            self.rob.set_next_seq(next_seq);
        }
        self.bpred.codec(c)?;
        self.guards.codec(c)?;
        self.lpt.codec(c)?;
        self.mdp.codec(c)?;
        c.bool(&mut self.halted)?;
        c.u64(&mut self.fuel)?;
        c.bool(&mut self.out_of_fuel)?;
        own_counters(&mut self.stats).try_for_each(|v| c.u64(v))?;
        c.bool(&mut self.record_observations)?;
        c.seq64(&mut self.observations, |c, o| {
            c.u64(&mut o.cycle)?;
            c.usize(&mut o.pc)?;
            c.u64(&mut o.addr)?;
            c.u32(&mut o.latency)?;
            c.bool(&mut o.speculative)
        })?;
        self.trace.codec(c)?;
        if c.reads() {
            self.fetch_paused = false;
        }
        Ok(())
    }

    /// Advances the core one cycle against the shared memory system and
    /// functional memory. Returns `true` while the core still has work.
    pub fn tick(&mut self, mem: &mut MemorySystem, data: &mut SparseMem, now: u64) -> bool {
        self.active = false;
        self.tick_start = idle_counters(&mut self.stats).map(|c| *c);
        if self.is_done() || self.out_of_fuel {
            return false;
        }
        self.stats.cycles += 1;
        self.complete(now);
        self.commit(mem, now);
        self.drain_store_buffer(mem, data);
        self.supply_store_data();
        self.issue(mem, data, now);
        self.fetch(now);
        !self.is_done()
    }

    // ------------------------------------------------------------------
    // Quiescent-cycle skipping
    // ------------------------------------------------------------------

    /// Whether the last [`Core::tick`] changed no pipeline state: it
    /// completed, committed, drained, supplied, issued and dispatched
    /// nothing (a finished or fuel-frozen core is always quiescent).
    /// Such a tick only advanced counters, and every later tick repeats
    /// it exactly until [`Core::next_event`].
    #[must_use]
    pub fn quiescent(&self) -> bool {
        !self.active
    }

    /// After a quiescent tick at cycle `now`: the earliest later cycle
    /// whose tick may change pipeline state — the next completion, or
    /// the end of a fetch-redirect stall. `u64::MAX` when nothing is
    /// scheduled (a finished, frozen or deadlocked core).
    #[must_use]
    pub fn next_event(&self, now: u64) -> u64 {
        if self.is_done() || self.out_of_fuel {
            return u64::MAX;
        }
        let done = self.sched.next_done_at().unwrap_or(u64::MAX);
        let fetch = if self.fetch_stalled_until > now {
            self.fetch_stalled_until
        } else {
            u64::MAX
        };
        done.min(fetch)
    }

    /// Accounts `cycles` more repetitions of the last tick, which must
    /// have been quiescent: each adds that tick's counter increments
    /// (its cycle, its commit-stall bucket, its scheme-delay probes)
    /// and changes nothing else, so the result is exactly that of
    /// ticking them one by one.
    pub fn skip_quiescent(&mut self, cycles: u64) {
        debug_assert!(self.quiescent(), "only a quiescent tick repeats");
        for (c, start) in idle_counters(&mut self.stats)
            .into_iter()
            .zip(self.tick_start)
        {
            *c += (*c - start) * cycles;
        }
    }

    // ------------------------------------------------------------------
    // Completion (writeback)
    // ------------------------------------------------------------------

    fn complete(&mut self, now: u64) {
        let due = self.sched.take_due(now);
        for &seq in &due {
            // Oldest first: a branch or violation completing here
            // squashes the younger due entries, which then are gone.
            if self.rob.get(seq).is_some() {
                self.finish_one(seq, now);
            }
        }
        self.active |= !due.is_empty();
        self.sched.return_due(due);
    }

    /// Writes `value` back to `preg` and wakes the IQ entries and the
    /// stores waiting on it. The guard of `preg` must already be final: a
    /// woken entry's scheme gate is read from it.
    fn writeback(&mut self, preg: PReg, value: u64) {
        self.rename.write(preg, value);
        self.sq.wake(preg);
        let (rob, rename, guards, secure) = (&self.rob, &self.rename, &self.guards, &self.secure);
        self.sched.wake(preg, |seq| {
            let e = rob.get(seq)?;
            let ready = matches!(e.status, Status::Waiting)
                && issue_srcs(e).iter().flatten().all(|&p| rename.is_ready(p));
            ready.then(|| scheme_gate(secure, guards, e))
        });
    }

    fn finish_one(&mut self, seq: Seq, now: u64) {
        let frontier = self.shadows.frontier();
        let entry = self.rob.get_mut(seq).expect("completing entry exists");
        debug_assert!(matches!(entry.status, Status::Executing { done_at } if done_at <= now));
        entry.status = Status::Done;
        let (dst, srcs) = (entry.dst, entry.srcs);
        let detail = *self.rob.detail(seq).expect("completing entry exists");
        self.trace.push(now, seq, detail.pc, TraceKind::Complete);

        match detail.inst {
            Inst::Load { .. } | Inst::LoadIdx { .. } | Inst::AmoAdd { .. } => {
                let value = detail.value.expect("load computed its value at issue");
                let dst = dst.expect("loads have destinations");
                let forwarded_guard = detail.guard_root; // stashed at issue
                let speculative = self.shadows.is_speculative(seq);
                let is_amo = matches!(detail.inst, Inst::AmoAdd { .. });
                // Guard placement (§5.4): a speculative, unrevealed load
                // guards its destination; ReCon's revealed words do not.
                let own_root =
                    (self.secure.kind.is_secure() && speculative && !detail.revealed && !is_amo)
                        .then_some(seq);
                let root = match (own_root, forwarded_guard) {
                    (Some(a), Some(b)) => Some(a.max(b)),
                    (a, b) => a.or(b),
                };
                self.rob.detail_mut(seq).expect("still present").guard_root = root;
                match root.filter(|&r| frontier < r) {
                    Some(r) => {
                        self.guards.set(dst.new as usize, r);
                        self.stats.guarded_loads += 1;
                    }
                    None => self.guards.clear(dst.new as usize),
                }
                self.writeback(dst.new, value);
            }
            Inst::Store { .. } => {
                // Store address resolution: the store shadow lifts and,
                // in predictor mode, violations are checked and train
                // the store-set predictor.
                let addr = detail.addr.expect("store computed its address");
                let store_pc = detail.pc;
                self.shadows.resolve(seq);
                self.sq.set_addr(detail.sq_num, seq, addr);
                if self.cfg.mdp == MdpMode::Predictor {
                    self.mdp.store_resolved(store_pc, seq);
                    if let Some(victim) = self.lq.violation(seq, addr) {
                        self.stats.memory_violations += 1;
                        let pc = self.rob.detail(victim).expect("violating load present").pc;
                        self.mdp.violation(pc, store_pc);
                        self.squash_from(victim, pc, now);
                    }
                }
            }
            Inst::Branch { target, .. } => {
                let actual = detail.taken_actual.expect("branch resolved at execute");
                let token = detail.pred.expect("branches are predicted");
                let predicted = token.taken();
                let next_pc = if actual { target } else { detail.pc + 1 };
                self.shadows.resolve(seq);
                self.bpred.update(token, actual);
                if predicted != actual {
                    self.stats.branch_mispredicts += 1;
                    self.bpred.repair(token, actual);
                    self.squash_from(seq + 1, next_pc, now);
                }
            }
            _ => {
                // ALU-class: write back and propagate taint (STT).
                if let Some(dst) = dst {
                    let value = detail.value.expect("ALU computed a value");
                    if self.secure.kind.propagates_taint() {
                        let srcs = srcs.iter().flatten().map(|&p| p as usize);
                        match self.guards.propagate(srcs, None, frontier) {
                            Some(root) => self.guards.set(dst.new as usize, root),
                            None => self.guards.clear(dst.new as usize),
                        }
                        if let Some(c) = self.rob.detail_mut(seq) {
                            c.guard_root = self.guards.get(dst.new as usize);
                        }
                    } else {
                        self.guards.clear(dst.new as usize);
                    }
                    self.writeback(dst.new, value);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Commit
    // ------------------------------------------------------------------

    fn commit(&mut self, mem: &mut MemorySystem, now: u64) {
        let mut committed_any = false;
        for _ in 0..self.cfg.commit_width {
            // Deadline hook: refuse to commit past the fuel budget. The
            // core freezes here (mid-run, partial stats intact) rather
            // than at a cycle boundary so the cap is exact in committed
            // instructions regardless of commit width.
            if self.fuel == 0 && !self.halted {
                self.out_of_fuel = true;
                self.active = true;
                break;
            }
            let Some(head) = self.rob.head() else {
                if !committed_any {
                    self.stats.stall_empty += 1;
                }
                break;
            };
            if !matches!(head.status, Status::Done) {
                if !committed_any {
                    match head.class {
                        c if c.is_load => self.stats.stall_head_load += 1,
                        c if c.is_store => self.stats.stall_head_store += 1,
                        c if c.is_cond_branch => self.stats.stall_head_branch += 1,
                        _ => self.stats.stall_head_other += 1,
                    }
                }
                break;
            }
            if head.class.is_plain_store() && !self.sb.has_space() {
                if !committed_any {
                    self.stats.stall_head_store += 1;
                }
                break;
            }
            committed_any = true;
            self.active = true;
            let (entry, detail) = self.rob.pop_head().expect("head exists");
            let seq = entry.seq;
            self.trace.push(now, seq, detail.pc, TraceKind::Commit);
            self.stats.committed += 1;
            self.fuel = self.fuel.saturating_sub(1);

            match detail.inst {
                Inst::Load { .. } | Inst::LoadIdx { .. } => {
                    self.stats.loads_committed += 1;
                    if detail.guard_root.is_some() {
                        self.stats.guarded_loads_committed += 1;
                    }
                    if detail.revealed {
                        self.stats.revealed_loads_committed += 1;
                    }
                    if detail.was_delayed_by_scheme {
                        self.stats.loads_delayed_by_scheme += 1;
                    }
                    self.lq.commit(seq);
                    if self.secure.recon {
                        let dst = entry.dst.expect("loads have destinations");
                        let addr = detail.addr.expect("committed load has an address");
                        let indexed = matches!(detail.inst, Inst::LoadIdx { .. });
                        if detail.forwarded {
                            // Forwarded values are concealed in the SQ/SB
                            // (§4.4.2): a forwarded pair must not reveal.
                            self.lpt.commit_writer(dst.new);
                        } else {
                            let revealed = if indexed && self.recon_multi_source {
                                // §5.1.1: one LPT lookup per address
                                // operand; a pair can be revealed for each.
                                let srcs = [entry.srcs[0], entry.srcs[1]];
                                self.lpt
                                    .commit_load_multi(dst.new, srcs, addr, detail.revealed)
                            } else {
                                // In the paper's evaluated configuration
                                // multi-source loads (like cracked x86
                                // µops) detect no pair, but still install
                                // their own address.
                                let base =
                                    (!indexed).then(|| entry.srcs[0].expect("loads have a base"));
                                let revealed =
                                    self.lpt.commit_load(dst.new, base, addr, detail.revealed);
                                [revealed, None]
                            };
                            for revealed_addr in revealed.into_iter().flatten() {
                                self.stats.reveals_requested += 1;
                                mem.reveal(self.id, revealed_addr);
                            }
                        }
                    }
                    if let Some(dst) = entry.dst {
                        self.rename.commit(dst);
                    }
                }
                Inst::Store { .. } => {
                    self.stats.stores_committed += 1;
                    let rename = &self.rename;
                    let (addr, value) = self.sq.commit(seq, |p| {
                        debug_assert!(rename.is_ready(p));
                        rename.read(p)
                    });
                    self.sb.push(addr, value);
                }
                Inst::AmoAdd { .. } => {
                    self.stats.loads_committed += 1;
                    self.stats.stores_committed += 1;
                    self.lq.commit(seq);
                    if self.secure.recon {
                        if let Some(dst) = entry.dst {
                            self.lpt.commit_writer(dst.new);
                        }
                    }
                    if let Some(dst) = entry.dst {
                        self.rename.commit(dst);
                    }
                }
                Inst::Branch { .. } => {
                    self.stats.branches_committed += 1;
                }
                Inst::Halt => {
                    self.halted = true;
                    return;
                }
                _ => {
                    if let Some(dst) = entry.dst {
                        if self.secure.recon {
                            self.lpt.commit_writer(dst.new);
                        }
                        self.rename.commit(dst);
                    }
                }
            }
        }
    }

    fn drain_store_buffer(&mut self, mem: &mut MemorySystem, data: &mut SparseMem) {
        if let Some((addr, value)) = self.sb.pop() {
            mem.write(self.id, addr);
            data.write(addr, value);
            self.active = true;
        }
    }

    /// Supplies store data to the SQ entries whose value register was
    /// written (and is readable under NDA), enabling store-to-load
    /// forwarding before commit. The frontier is read here, after
    /// completion and commit moved it.
    fn supply_store_data(&mut self) {
        let frontier = self.shadows.frontier();
        let nda = self.secure.kind.delays_value_broadcast();
        let (rename, guards) = (&self.rename, &self.guards);
        self.active |= self.sq.supply(|val_preg| {
            // NDA: the value is not yet visible to anyone while guarded.
            let visible = !(nda && guards.is_active(val_preg as usize, frontier));
            visible.then(|| rename.read(val_preg))
        });
    }

    // ------------------------------------------------------------------
    // Issue / execute
    // ------------------------------------------------------------------

    /// Probes the ready list oldest first until `issue_width`
    /// instructions issue. Only entries whose issue operands are produced
    /// are listed; a probe of any other IQ entry could not issue it and
    /// would change nothing, so the order and side effects are those of
    /// probing the whole IQ oldest first.
    fn issue(&mut self, mem: &mut MemorySystem, data: &mut SparseMem, now: u64) {
        self.sched.merge_woken();
        // Issue writes no register and resolves no shadow, so one
        // frontier serves the whole stage.
        let frontier = self.shadows.frontier();
        let mut budget = self.cfg.issue_width;
        let mut refused = 0;
        let mut at = 0;
        while budget > 0 {
            let Some(&ready) = self.sched.ready().get(at) else {
                break;
            };
            let seq = ready.seq;
            if frontier < ready.gate() {
                // The scheme refuses a guarded operand; every refused
                // probe counts.
                refused += 1;
                if !ready.delayed() {
                    self.rob
                        .detail_mut(seq)
                        .expect("present")
                        .was_delayed_by_scheme = true;
                    self.sched.mark_delayed(at);
                }
            } else if let Some(done_at) = self.try_issue(seq, frontier, mem, data, now) {
                self.rob.get_mut(seq).expect("issued entry present").status =
                    Status::Executing { done_at };
                let pc = self.rob.detail(seq).expect("issued entry present").pc;
                self.trace.push(now, seq, pc, TraceKind::Issue);
                self.sched.issued(at, done_at);
                self.active = true;
                budget -= 1;
            }
            at += 1;
        }
        self.stats.scheme_delay_cycles += refused;
        self.sched.compact_issued();
    }

    /// Executes listed entry `seq`, which its scheme admits, if the
    /// memory-ordering gates allow it, returning the cycle its result is
    /// available.
    fn try_issue(
        &mut self,
        seq: Seq,
        frontier: Seq,
        mem: &mut MemorySystem,
        data: &mut SparseMem,
        now: u64,
    ) -> Option<u64> {
        let entry = self.rob.get(seq).expect("listed entries are in flight");
        let inst = self
            .rob
            .detail(seq)
            .expect("listed entries are in flight")
            .inst;
        let srcs = entry.srcs;
        debug_assert!(issue_srcs(entry)
            .iter()
            .flatten()
            .all(|&p| self.rename.is_ready(p)));
        debug_assert!(frontier >= scheme_gate(&self.secure, &self.guards, entry));

        match inst {
            Inst::LoadImm { imm, .. } => self.finish_alu(seq, imm, now, 1),
            Inst::Alu { kind, .. } => {
                let a = self.rename.read(srcs[0].expect("alu has src a"));
                let b = self.rename.read(srcs[1].expect("alu has src b"));
                let lat = if kind == AluKind::Mul {
                    self.cfg.mul_latency
                } else {
                    1
                };
                self.finish_alu(seq, kind.apply(a, b), now, lat)
            }
            Inst::AluImm { kind, imm, .. } => {
                let a = self.rename.read(srcs[0].expect("alui has src"));
                let lat = if kind == AluKind::Mul {
                    self.cfg.mul_latency
                } else {
                    1
                };
                self.finish_alu(seq, kind.apply(a, imm), now, lat)
            }
            Inst::Branch { kind, .. } => {
                let a = self.rename.read(srcs[0].expect("branch src a"));
                let b = self.rename.read(srcs[1].expect("branch src b"));
                let taken = kind.taken(a, b);
                self.rob.detail_mut(seq).expect("present").taken_actual = Some(taken);
                Some(now + 1)
            }
            Inst::Load { offset, .. } => {
                self.issue_load(seq, LoadAddr::Offset(offset), frontier, mem, data, now)
            }
            Inst::LoadIdx { .. } => {
                self.issue_load(seq, LoadAddr::Indexed, frontier, mem, data, now)
            }
            Inst::Store { offset, .. } => {
                // Address computation; data is supplied separately.
                let base = self.rename.read(srcs[0].expect("store base"));
                let addr = base.wrapping_add(offset as u64) & !7;
                self.rob.detail_mut(seq).expect("present").addr = Some(addr);
                Some(now + 1)
            }
            Inst::AmoAdd { offset, .. } => self.issue_amo(seq, offset, mem, data, now),
            Inst::Jump { .. } | Inst::Nop | Inst::Halt => Some(now),
        }
    }

    fn finish_alu(&mut self, seq: Seq, value: u64, now: u64, latency: u32) -> Option<u64> {
        self.rob.detail_mut(seq).expect("present").value = Some(value);
        Some(now + u64::from(latency))
    }

    fn issue_load(
        &mut self,
        seq: Seq,
        mode: LoadAddr,
        frontier: Seq,
        mem: &mut MemorySystem,
        data: &mut SparseMem,
        now: u64,
    ) -> Option<u64> {
        let entry = self.rob.get(seq).expect("present");
        let base_preg = entry.srcs[0].expect("load base");
        let addr = match mode {
            LoadAddr::Offset(offset) => {
                self.rename.read(base_preg).wrapping_add(offset as u64) & !7
            }
            LoadAddr::Indexed => {
                let index_preg = entry.srcs[1].expect("indexed load has an index");
                self.rename
                    .read(base_preg)
                    .wrapping_add(self.rename.read(index_preg).wrapping_shl(3))
                    & !7
            }
        };
        let conservative = self.cfg.mdp == MdpMode::Conservative;
        let speculative = self.shadows.is_speculative(seq);

        // An older AMO that has not yet performed its read-modify-write
        // would make this load's memory view stale: AMOs live outside
        // the SQ (forwarding cannot catch the conflict) and execute only
        // at the ROB head, so the load must wait for it to issue.
        if self.sched.unissued_amo_older_than(seq) {
            return None;
        }

        if !conservative {
            // Store-set prediction: wait for the predicted-dependent
            // in-flight store to resolve before issuing.
            let pc = self.rob.detail(seq).expect("present").pc;
            if self.mdp.load_must_wait(pc, seq).is_some() {
                return None;
            }
        }
        let older_than = self.rob.detail(seq).expect("present").sq_tail;
        let fwd = self.sq.forward(older_than, addr, conservative);
        let (value, latency, revealed, forwarded, fwd_seq) = match fwd {
            Forward::MustWait => return None,
            Forward::FromStore { seq: s, value } => {
                // Forwarded data is concealed (§4.4.2); taint travels with
                // it under STT via the store's data guard, conservatively
                // approximated by the supplying store's own speculation.
                (value, 1, false, true, Some(s))
            }
            Forward::FromMemory => match self.sb.forward(addr) {
                Some(v) => (v, 1, false, true, None),
                None => {
                    let out = mem.read(self.id, addr);
                    if self.record_observations {
                        let pc = self.rob.detail(seq).expect("present").pc;
                        self.observations.push(Observation {
                            cycle: now,
                            pc,
                            addr,
                            latency: out.latency,
                            speculative,
                        });
                    }
                    (data.read(addr), out.latency, out.revealed, false, None)
                }
            },
        };
        // Taint forwarded from an in-flight store's data register (STT).
        let fwd_guard = if self.secure.kind.propagates_taint() {
            fwd_seq
                .and_then(|s| self.rob.get(s))
                .and_then(|store| store.srcs[1])
                .and_then(|val_preg| self.guards.get(val_preg as usize))
                .filter(|&root| frontier < root)
        } else {
            None
        };
        let e = self.rob.detail_mut(seq).expect("present");
        self.lq.complete(e.lq_slot, seq, addr, fwd_seq);
        e.addr = Some(addr);
        e.value = Some(value);
        e.revealed = revealed;
        e.forwarded = forwarded;
        e.guard_root = fwd_guard; // stashed for completion-time merge
        Some(now + u64::from(latency))
    }

    fn issue_amo(
        &mut self,
        seq: Seq,
        offset: i64,
        mem: &mut MemorySystem,
        data: &mut SparseMem,
        now: u64,
    ) -> Option<u64> {
        // AMOs are serializing: execute only at the ROB head, with every
        // older committed store drained out of the store buffer so the
        // read-modify-write sees up-to-date memory. At the head there is
        // nothing older left to wait on — all SQ entries and shadows
        // belong to *younger* instructions (a store only leaves the SQ
        // when it commits, which it cannot do behind this AMO), so
        // gating on an empty SQ would deadlock any program with a store
        // in the AMO's fetch shadow.
        let at_head = self.rob.head().is_some_and(|h| h.seq == seq);
        if !at_head || !self.sb.is_empty() {
            return None;
        }
        // Historical bug, reintroducible for liveness-tooling tests only
        // (see `CoreConfig::amo_empty_sq_bug`): waiting for an empty SQ
        // here deadlocks when a younger store sits in the AMO's shadow.
        if self.cfg.amo_empty_sq_bug && !self.sq.is_empty() {
            return None;
        }
        let entry = self.rob.get(seq).expect("present");
        let base_preg = entry.srcs[0].expect("amo base");
        let add_preg = entry.srcs[1].expect("amo addend");
        let addr = self.rename.read(base_preg).wrapping_add(offset as u64) & !7;
        let addend = self.rename.read(add_preg);
        let out = mem.rmw(self.id, addr);
        let old = data.read(addr);
        data.write(addr, old.wrapping_add(addend));
        let e = self.rob.detail_mut(seq).expect("present");
        self.lq.complete(e.lq_slot, seq, addr, None);
        e.addr = Some(addr);
        e.value = Some(old);
        e.revealed = false;
        Some(now + u64::from(out.latency))
    }

    // ------------------------------------------------------------------
    // Fetch / dispatch
    // ------------------------------------------------------------------

    fn fetch(&mut self, now: u64) {
        if self.fetch_paused || now < self.fetch_stalled_until || self.fetch_halted {
            return;
        }
        for _ in 0..self.cfg.fetch_width {
            if self.fetch_halted {
                break;
            }
            let pc = self.fetch_pc;
            let Some(&d) = self.decoded.get(pc) else {
                // Wrong-path fetch ran off the program; stall until a
                // squash redirects.
                break;
            };
            let inst = d.inst;
            // Structural resources, from the pre-decoded class flags.
            if !self.rob.has_space() || self.sched.iq_len() >= self.cfg.iq_entries {
                break;
            }
            if d.is_load && !self.lq.has_space() {
                break;
            }
            if d.is_store && !d.is_amo && !self.sq.has_space() {
                break;
            }
            if d.dst.is_some() && self.rename.free_count() == 0 {
                break;
            }

            // Rename.
            let mut renamed = [None, None];
            for (i, s) in d.srcs.iter().enumerate() {
                renamed[i] = s.map(|r| self.rename.lookup(r));
            }
            let dst = d
                .dst
                .map(|r| self.rename.allocate(r).expect("checked free list"));

            let seq = self.rob.push(pc, inst, renamed, dst);
            self.trace.push(now, seq, pc, TraceKind::Dispatch);
            self.active = true;

            // Frontend control flow + queue allocation.
            self.fetch_pc = pc + 1;
            match inst {
                Inst::Branch { target, .. } => {
                    let (taken, token) = self.bpred.predict(pc);
                    self.rob.detail_mut(seq).expect("just pushed").pred = Some(token);
                    self.shadows.cast(seq);
                    if taken {
                        self.fetch_pc = target;
                    }
                }
                Inst::Jump { target } => self.fetch_pc = target,
                Inst::Halt => {
                    self.fetch_halted = true;
                    self.fetch_pc = pc; // frozen
                }
                Inst::Load { .. } | Inst::LoadIdx { .. } | Inst::AmoAdd { .. } => {
                    let c = self.rob.detail_mut(seq).expect("just pushed");
                    c.lq_slot = self.lq.push(seq);
                    c.sq_tail = self.sq.tail();
                }
                Inst::Store { .. } => {
                    let data = renamed[1].expect("store has a data source");
                    let n = self.sq.push(seq, data, self.rename.is_ready(data));
                    self.rob.detail_mut(seq).expect("just pushed").sq_num = n;
                    self.shadows.cast(seq);
                    if self.cfg.mdp == MdpMode::Predictor {
                        self.mdp.store_dispatched(pc, seq);
                    }
                }
                _ => {}
            }
            let e = self.rob.get(seq).expect("just pushed");
            let unready = issue_srcs(e)
                .iter()
                .enumerate()
                .filter_map(|(k, p)| Some((k, (*p)?)))
                .filter(|&(_, p)| !self.rename.is_ready(p));
            let gate = || scheme_gate(&self.secure, &self.guards, e);
            self.sched.dispatch(seq, unready, gate, d.is_amo);
        }
    }

    // ------------------------------------------------------------------
    // Squash
    // ------------------------------------------------------------------

    /// Squashes every instruction with `seq >= first`, redirecting fetch
    /// to `new_pc`.
    fn squash_from(&mut self, first: Seq, new_pc: usize, now: u64) {
        // Youngest first: rename undo runs in reverse program order.
        while let Some((e, c)) = self.rob.squash_youngest(first) {
            self.stats.squashed += 1;
            self.trace.push(now, e.seq, c.pc, TraceKind::Squash);
            if let Some(dst) = e.dst {
                self.guards.clear(dst.new as usize);
                self.rename.undo(dst);
            }
            self.sched.forget(&e);
        }
        self.sched.squash_from(first);
        self.lq.squash_after(first.saturating_sub(1));
        self.sq.squash_after(first.saturating_sub(1));
        self.shadows.squash_from(first);
        self.mdp.squash_from(first);
        self.fetch_pc = new_pc;
        self.fetch_halted = false;
        self.fetch_stalled_until = now + u64::from(self.cfg.redirect_penalty);
    }
}

/// Effective-address mode of an issuing load.
enum LoadAddr {
    /// `base + immediate offset`.
    Offset(i64),
    /// `base + (index << 3)` (multi-source).
    Indexed,
}

#[cfg(test)]
mod tests {
    use super::*;
    use recon_isa::reg::names::*;
    use recon_isa::Asm;
    use recon_mem::MemConfig;
    use recon_mem::MemorySystem;

    fn run_program(
        program: Program,
        secure: SecureConfig,
        max_cycles: u64,
    ) -> (Core, MemorySystem, SparseMem) {
        run_program_with(MemConfig::scaled(), program, secure, max_cycles)
    }

    /// A micro-scaled hierarchy: tiny caches so unit-test workloads can
    /// overflow any level within a few dozen lines.
    fn micro_mem() -> MemConfig {
        use recon_mem::CacheGeometry;
        MemConfig {
            l1: CacheGeometry::new(512, 2),
            l2: CacheGeometry::new(1024, 2),
            llc: CacheGeometry::new(4096, 8),
            ..MemConfig::scaled()
        }
    }

    fn run_program_with(
        mem_cfg: MemConfig,
        program: Program,
        secure: SecureConfig,
        max_cycles: u64,
    ) -> (Core, MemorySystem, SparseMem) {
        let recon_cfg = if secure.recon {
            ReconConfig::default()
        } else {
            ReconConfig::disabled()
        };
        let mut mem = MemorySystem::new(1, mem_cfg, recon_cfg);
        let mut data = SparseMem::from_image(&program.image);
        let mut core = Core::new(0, Arc::new(program), CoreConfig::tiny(), secure, recon_cfg);
        for cycle in 0..max_cycles {
            if !core.tick(&mut mem, &mut data, cycle) {
                break;
            }
        }
        assert!(
            core.is_done(),
            "program did not finish in {max_cycles} cycles"
        );
        (core, mem, data)
    }

    use recon_isa::Program;

    fn check_against_golden(program: &Program, secure: SecureConfig) {
        let (_, _, data) = run_program(program.clone(), secure, 200_000);
        let mut golden_mem = SparseMem::from_image(&program.image);
        let mut golden = recon_isa::ArchState::at_entry(program);
        recon_isa::run_with(program, &mut golden, &mut golden_mem, 1_000_000, |_| {}).unwrap();
        // Compare every word the golden run touched.
        for (addr, _) in program.image.iter() {
            assert_eq!(data.peek(addr), golden_mem.peek(addr), "word {addr:#x}");
        }
    }

    #[test]
    fn own_counters_are_all_but_the_lpt_and_trace_ones() {
        let mut s = CoreStats::default();
        let mut n = 0;
        for v in own_counters(&mut s) {
            n += 1;
            *v = n;
        }
        assert_eq!(n, 19);
        assert_eq!((s.lpt, s.trace_dropped), (recon::LptStats::default(), 0));
        assert_eq!((s.cycles, s.reveals_requested), (1, 14));
        assert_eq!((s.stall_head_load, s.stall_empty), (15, 19));
    }

    #[test]
    fn straight_line_program_matches_golden() {
        let mut a = Asm::new();
        a.data(0x100, 5);
        a.li(R1, 0x100)
            .load(R2, R1, 0)
            .addi(R3, R2, 10)
            .store(R3, R1, 0)
            .halt();
        let p = a.assemble().unwrap();
        for secure in [
            SecureConfig::unsafe_baseline(),
            SecureConfig::nda(),
            SecureConfig::stt(),
            SecureConfig::stt_recon(),
        ] {
            let (core, _, data) = run_program(p.clone(), secure, 10_000);
            assert_eq!(data.peek(0x100), 15, "{secure}");
            assert_eq!(core.arch_read(R3), 15, "{secure}");
        }
    }

    #[test]
    fn loop_commits_expected_instructions() {
        let mut a = Asm::new();
        a.li(R1, 50).li(R2, 0);
        let top = a.here();
        a.addi(R2, R2, 3);
        a.subi(R1, R1, 1);
        a.bne_to(R1, R0, top);
        a.halt();
        let p = a.assemble().unwrap();
        let (core, _, _) = run_program(p, SecureConfig::unsafe_baseline(), 100_000);
        assert_eq!(core.arch_read(R2), 150);
        assert_eq!(core.stats().committed, 2 + 50 * 3 + 1);
        assert_eq!(core.stats().branches_committed, 50);
    }

    #[test]
    fn pointer_chase_matches_golden_under_all_schemes() {
        // A small cyclic pointer chain exercised in a loop.
        let mut a = Asm::new();
        let n = 8u64;
        for i in 0..n {
            a.data(0x1000 + i * 8, 0x1000 + ((i + 3) % n) * 8);
        }
        a.li(R1, 0x1000).li(R4, 100);
        let top = a.here();
        a.load(R1, R1, 0); // chase
        a.subi(R4, R4, 1);
        a.bne_to(R4, R0, top);
        a.halt();
        let p = a.assemble().unwrap();
        for secure in [
            SecureConfig::unsafe_baseline(),
            SecureConfig::nda(),
            SecureConfig::nda_recon(),
            SecureConfig::stt(),
            SecureConfig::stt_recon(),
        ] {
            let (core, _, _) = run_program(p.clone(), secure, 500_000);
            // 100 chases of +3 mod 8 from slot 0: end at slot (300 % 8).
            let expect = 0x1000 + (300 % n) * 8;
            assert_eq!(core.arch_read(R1), expect, "{secure}");
        }
    }

    #[test]
    fn branchy_program_matches_golden() {
        // Data-dependent branches stress prediction + squash.
        let mut a = Asm::new();
        for i in 0..16u64 {
            a.data(0x2000 + i * 8, (i * 7) % 3);
        }
        a.li(R1, 0x2000).li(R2, 16).li(R3, 0).li(R6, 0);
        let top = a.here();
        a.load(R4, R1, 0);
        let skip = a.new_label();
        a.bne(R4, R0, skip);
        a.addi(R3, R3, 1); // count zeros
        a.bind(skip);
        a.addi(R1, R1, 8);
        a.addi(R6, R6, 1);
        a.bltu_to(R6, R2, top);
        a.halt();
        let p = a.assemble().unwrap();
        for secure in [SecureConfig::unsafe_baseline(), SecureConfig::stt()] {
            let (core, _, _) = run_program(p.clone(), secure, 500_000);
            // (i*7)%3 == 0 for i = 0,3,6,9,12,15 -> 6 zeros.
            assert_eq!(core.arch_read(R3), 6, "{secure}");
        }
    }

    #[test]
    fn store_to_load_forwarding_works() {
        let mut a = Asm::new();
        a.li(R1, 0x3000).li(R2, 77);
        a.store(R2, R1, 0);
        a.load(R3, R1, 0); // must forward from SQ/SB
        a.halt();
        let p = a.assemble().unwrap();
        let (core, _, data) = run_program(p, SecureConfig::unsafe_baseline(), 10_000);
        assert_eq!(core.arch_read(R3), 77);
        assert_eq!(data.peek(0x3000), 77);
    }

    #[test]
    fn schemes_do_not_change_architectural_results() {
        let mut a = Asm::new();
        for i in 0..8u64 {
            a.data(0x4000 + i * 8, 0x4100 + (i % 4) * 8);
            a.data(0x4100 + i * 8, i * i);
        }
        a.li(R1, 0x4000).li(R5, 0).li(R6, 8).li(R7, 0);
        let top = a.here();
        a.load(R2, R1, 0); // load pointer
        a.load(R3, R2, 0); // dereference (load pair!)
        a.add(R5, R5, R3);
        a.store(R5, R1, 0); // overwrite pointer slot (conceals)
        a.addi(R1, R1, 8);
        a.addi(R7, R7, 1);
        a.bltu_to(R7, R6, top);
        a.halt();
        let p = a.assemble().unwrap();
        check_against_golden(&p, SecureConfig::unsafe_baseline());
        check_against_golden(&p, SecureConfig::nda());
        check_against_golden(&p, SecureConfig::nda_recon());
        check_against_golden(&p, SecureConfig::stt());
        check_against_golden(&p, SecureConfig::stt_recon());
    }

    #[test]
    fn secure_schemes_are_slower_on_speculative_pointer_chasing() {
        // The Spectre-gadget shape that drives the paper's overheads: a
        // branch gated on *slowly* loaded data (the condition array
        // overflows the micro LLC, so it always misses), with a fast,
        // cache-resident dependent load pair underneath. The branch stays
        // unresolved while the pair executes, so STT/NDA delay the
        // second load and lose the memory-level parallelism.
        let n = 64u64;
        let mut a = Asm::new();
        for i in 0..n {
            a.data(0x10_0000 + i * 64, 1); // conds: one line each, > LLC
            a.data(0x20_0000 + i * 8, 0x30_0000 + ((i * 17) % n) * 8);
            a.data(0x30_0000 + i * 8, i);
        }
        // Warm the pointer and target arrays (no dereferences).
        a.li(R10, 0x20_0000).li(R6, 0).li(R7, n);
        let warm = a.here();
        a.load(R2, R10, 0);
        a.load(R3, R10, 0x10_0000); // warm targets[i] at ptrs[i]+0x10_0000
        a.addi(R10, R10, 8);
        a.addi(R6, R6, 1);
        a.bltu_to(R6, R7, warm);
        a.li(R10, 0x10_0000).li(R11, 0x20_0000).li(R6, 0).li(R5, 0);
        let top = a.here();
        a.load(R2, R10, 0); // cond load: always misses
        let skip = a.new_label();
        a.beq(R2, R0, skip); // branch on loaded data: resolves late
        a.load(R3, R11, 0); // LD1: pointer load, fast, under shadow
        a.load(R4, R3, 0); //  LD2: dependent dereference (delayed by STT)
        a.add(R5, R5, R4);
        a.bind(skip);
        a.addi(R10, R10, 64);
        a.addi(R11, R11, 8);
        a.addi(R6, R6, 1);
        a.bltu_to(R6, R7, top);
        a.halt();
        let p = a.assemble().unwrap();
        let base = run_program_with(
            micro_mem(),
            p.clone(),
            SecureConfig::unsafe_baseline(),
            2_000_000,
        )
        .0;
        let stt = run_program_with(micro_mem(), p.clone(), SecureConfig::stt(), 2_000_000).0;
        let nda = run_program_with(micro_mem(), p.clone(), SecureConfig::nda(), 2_000_000).0;
        let sum: u64 = (0..n).map(|i| (i * 17) % n).sum();
        assert_eq!(base.arch_read(R5), sum);
        assert_eq!(stt.arch_read(R5), sum);
        assert_eq!(nda.arch_read(R5), sum);
        assert!(
            stt.stats().cycles > base.stats().cycles,
            "STT {} vs base {}",
            stt.stats().cycles,
            base.stats().cycles
        );
        assert!(
            nda.stats().cycles >= stt.stats().cycles,
            "NDA ({}) is at least as strict as STT ({})",
            nda.stats().cycles,
            stt.stats().cycles
        );
        assert!(
            stt.stats().guarded_loads > 0,
            "dependent loads were tainted"
        );
    }

    #[test]
    fn recon_recovers_performance_on_reused_pointers() {
        // Same gadget shape, iterated: the first pass commits the load
        // pairs non-speculatively, revealing the pointer words; later
        // passes find them revealed and lift the defense while the
        // branch condition still misses all the way to memory.
        let n = 32u64;
        let mut a = Asm::new();
        for i in 0..n {
            a.data(0x10_0000 + i * 64, 1); // conds overflow the micro LLC
            a.data(0x20_0000 + i * 8, 0x30_0000 + ((i * 7) % n) * 8);
            a.data(0x30_0000 + i * 8, i);
        }
        a.li(R8, 0).li(R9, 10).li(R5, 0); // outer iterations
        let outer = a.here();
        a.li(R10, 0x10_0000).li(R11, 0x20_0000).li(R6, 0).li(R7, n);
        let top = a.here();
        a.load(R2, R10, 0);
        let skip = a.new_label();
        a.beq(R2, R0, skip);
        a.load(R3, R11, 0); // LD1
        a.load(R4, R3, 0); //  LD2 (pair: reveals LD1's word at commit)
        a.add(R5, R5, R4);
        a.bind(skip);
        a.addi(R10, R10, 64);
        a.addi(R11, R11, 8);
        a.addi(R6, R6, 1);
        a.bltu_to(R6, R7, top);
        a.addi(R8, R8, 1);
        a.bltu_to(R8, R9, outer);
        a.halt();
        let p = a.assemble().unwrap();
        let stt = run_program_with(micro_mem(), p.clone(), SecureConfig::stt(), 5_000_000).0;
        let (sttr, mem_r, _) =
            run_program_with(micro_mem(), p.clone(), SecureConfig::stt_recon(), 5_000_000);
        assert!(
            mem_r.stats().reveals_set > 0,
            "load pairs revealed addresses"
        );
        assert!(
            sttr.stats().revealed_loads_committed > 0,
            "revealed words were reused"
        );
        assert!(
            sttr.stats().guarded_loads < stt.stats().guarded_loads,
            "ReCon reduces tainted loads: {} vs {}",
            sttr.stats().guarded_loads,
            stt.stats().guarded_loads
        );
        assert!(
            sttr.stats().cycles < stt.stats().cycles,
            "STT+ReCon ({}) faster than STT ({})",
            sttr.stats().cycles,
            stt.stats().cycles
        );
    }

    #[test]
    fn amo_serializes_and_updates_memory() {
        let mut a = Asm::new();
        a.data(0x5000, 10);
        a.li(R1, 0x5000).li(R2, 5);
        a.amoadd(R3, R1, 0, R2);
        a.amoadd(R4, R1, 0, R2);
        a.halt();
        let p = a.assemble().unwrap();
        let (core, _, data) = run_program(p, SecureConfig::stt(), 10_000);
        assert_eq!(core.arch_read(R3), 10);
        assert_eq!(core.arch_read(R4), 15);
        assert_eq!(data.peek(0x5000), 20);
    }

    #[test]
    fn younger_load_sees_an_older_amos_write() {
        // The AMO executes only at the ROB head, outside the SQ, so a
        // younger load to the same word cannot rely on forwarding — it
        // must wait for the AMO's read-modify-write instead of reading
        // stale memory early. Found by `recon fuzz` (seed 42, idx 128).
        let mut a = Asm::new();
        a.data(0x5000, 10);
        a.li(R1, 0x5000).li(R2, 5);
        a.amoadd(R3, R1, 0, R2);
        a.load(R4, R1, 0); // same word, fetched into the AMO's shadow
        a.load(R5, R1, 8); // different word, also younger than the AMO
        a.halt();
        let p = a.assemble().unwrap();
        for secure in [
            SecureConfig::unsafe_baseline(),
            SecureConfig::nda(),
            SecureConfig::stt_recon(),
        ] {
            let (core, _, data) = run_program(p.clone(), secure, 10_000);
            assert_eq!(core.arch_read(R3), 10, "amo returns the old value");
            assert_eq!(core.arch_read(R4), 15, "younger load sees the RMW");
            assert_eq!(core.arch_read(R5), 0);
            assert_eq!(data.peek(0x5000), 15);
        }
    }

    #[test]
    fn amo_with_younger_stores_in_flight_does_not_deadlock() {
        // The stores after the AMO are fetched into the SQ while the AMO
        // waits at the ROB head; they can only commit *behind* it, so an
        // AMO that waits for an empty SQ livelocks. Regression for the
        // corpus `memref` hang.
        let mut a = Asm::new();
        a.data(0x5000, 10);
        a.li(R1, 0x5000).li(R2, 5);
        a.amoadd(R3, R1, 0, R2);
        a.li(R4, 0x6000);
        a.store(R3, R4, 0); // younger store, data depends on the AMO
        a.store(R2, R4, 8);
        a.halt();
        let p = a.assemble().unwrap();
        for secure in [
            SecureConfig::unsafe_baseline(),
            SecureConfig::stt(),
            SecureConfig::stt_recon(),
        ] {
            let (core, _, data) = run_program(p.clone(), secure, 10_000);
            assert_eq!(core.arch_read(R3), 10);
            assert_eq!(data.peek(0x5000), 15);
            assert_eq!(data.peek(0x6000), 10);
        }
    }

    #[test]
    fn predictor_mode_detects_violations_and_recovers() {
        // A load that aliases an older store with a slow address: in
        // Predictor mode it speculates past the store, gets squashed on
        // the violation, and still commits the correct value.
        let mut a = Asm::new();
        a.data(0x100, 0x9000); // the store target, loaded slowly (cold)
        a.data(0x9000, 1);
        a.li(R1, 0x100);
        a.load(R2, R1, 0); // store address arrives late (cold miss)
        a.li(R3, 77);
        a.store(R3, R2, 0); // ST 77, [0x9000]
        a.li(R4, 0x9000);
        a.load(R5, R4, 0); // aliases the store: must read 77
        a.halt();
        let p = a.assemble().unwrap();
        let recon_cfg = ReconConfig::disabled();
        let mut mem = MemorySystem::new(1, MemConfig::scaled(), recon_cfg);
        let mut data = SparseMem::from_image(&p.image);
        let cfg = CoreConfig {
            mdp: MdpMode::Predictor,
            ..CoreConfig::tiny()
        };
        let mut core = Core::new(
            0,
            Arc::new(p),
            cfg,
            SecureConfig::unsafe_baseline(),
            recon_cfg,
        );
        for cycle in 0..100_000 {
            if !core.tick(&mut mem, &mut data, cycle) {
                break;
            }
        }
        assert!(core.is_done());
        assert_eq!(
            core.arch_read(R5),
            77,
            "violation squash re-reads the store data"
        );
        assert_eq!(core.stats().memory_violations, 1);
    }

    #[test]
    fn nda_withholds_store_data_until_safe() {
        // Under NDA, a store whose data comes from a speculative load
        // cannot supply its value for forwarding until the load is out
        // of every shadow — but the final memory state is still right.
        let mut a = Asm::new();
        a.data(0x10_0000, 1); // slow cond (cold line)
        a.data(0x200, 5);
        a.li(R1, 0x10_0000);
        a.load(R2, R1, 0); // slow load: branch stays unresolved
        let body = a.new_label();
        let end = a.new_label();
        a.bne(R2, R0, body);
        a.jump(end);
        a.bind(body);
        a.li(R3, 0x200);
        a.load(R4, R3, 0); // speculative load (guarded under NDA)
        a.store(R4, R3, 8); // store of the guarded value
        a.load(R5, R3, 8); // forwarded once the data is supplied
        a.bind(end);
        a.halt();
        let p = a.assemble().unwrap();
        let (core, _, data) = run_program(p, SecureConfig::nda(), 100_000);
        assert_eq!(core.arch_read(R5), 5);
        assert_eq!(data.peek(0x208), 5);
    }

    #[test]
    fn amo_waits_for_older_speculation() {
        // An AMO dispatched under an unresolved branch must not execute
        // until the branch resolves (it is serializing), and the final
        // counter value must be exact.
        let mut a = Asm::new();
        a.data(0x10_0000, 1);
        a.data(0x300, 10);
        a.li(R1, 0x10_0000);
        a.load(R2, R1, 0); // slow cond
        let body = a.new_label();
        let end = a.new_label();
        a.bne(R2, R0, body);
        a.jump(end);
        a.bind(body);
        a.li(R3, 0x300);
        a.li(R4, 5);
        a.amoadd(R5, R3, 0, R4);
        a.bind(end);
        a.halt();
        let p = a.assemble().unwrap();
        let (core, _, data) = run_program(p, SecureConfig::stt(), 100_000);
        assert_eq!(core.arch_read(R5), 10);
        assert_eq!(data.peek(0x300), 15);
    }

    #[test]
    fn multi_source_load_executes_and_pairs_under_recon() {
        // ldx base+index*8 with both operands loaded: with the default
        // (single-source) LPT no pair is revealed; the architectural
        // result is correct either way.
        let mut a = Asm::new();
        a.data(0x100, 0x4000); // base table entry
        a.data(0x108, 2); // index entry
        a.data(0x4010, 99); // target: 0x4000 + 2*8
        a.li(R1, 0x100);
        a.load(R2, R1, 0);
        a.load(R3, R1, 8);
        a.loadidx(R4, R2, R3);
        a.halt();
        let p = a.assemble().unwrap();
        let (core, mem, _) = run_program(p, SecureConfig::stt_recon(), 100_000);
        assert_eq!(core.arch_read(R4), 99);
        // Default configuration: the ldx detects no pair (x86-style
        // cracking), so at most the (LD,LD) pairs of the setup reveal.
        assert_eq!(
            mem.stats().reveals_set,
            0,
            "no pair through the ldx by default"
        );
    }

    #[test]
    fn pipeline_trace_preserves_stage_order() {
        use crate::trace::TraceKind;
        let mut a = Asm::new();
        a.data(0x100, 5);
        a.li(R1, 0x100).load(R2, R1, 0).addi(R3, R2, 1).halt();
        let p = a.assemble().unwrap();
        let recon_cfg = ReconConfig::disabled();
        let mut mem = MemorySystem::new(1, MemConfig::scaled(), recon_cfg);
        let mut data = SparseMem::from_image(&p.image);
        let mut core = Core::new(
            0,
            Arc::new(p),
            CoreConfig::tiny(),
            SecureConfig::unsafe_baseline(),
            recon_cfg,
        );
        core.record_trace(true);
        for cycle in 0..10_000 {
            if !core.tick(&mut mem, &mut data, cycle) {
                break;
            }
        }
        let events = core.take_trace();
        assert!(!events.is_empty());
        // For every committed instruction: dispatch <= issue <= complete
        // <= commit in cycle order.
        for seq in 0..4u64 {
            let at = |kind| {
                events
                    .iter()
                    .find(|e| e.seq == seq && e.kind == kind)
                    .map(|e| e.cycle)
            };
            let d = at(TraceKind::Dispatch).expect("dispatched");
            let c = at(TraceKind::Commit).expect("committed");
            assert!(d <= c, "seq {seq}");
            if let (Some(i), Some(w)) = (at(TraceKind::Issue), at(TraceKind::Complete)) {
                assert!(d <= i && i <= w && w <= c, "seq {seq}");
            }
        }
    }

    #[test]
    fn mispredicted_branch_squashes_wrong_path() {
        // Alternating branch direction defeats initial prediction at
        // least once; wrong-path stores must never reach memory.
        let mut a = Asm::new();
        a.data(0x6000, 0);
        a.li(R1, 0x6000).li(R2, 1).li(R6, 0).li(R7, 9);
        let top = a.here();
        a.andi(R3, R6, 1);
        let even = a.new_label();
        a.beq(R3, R0, even);
        a.store(R2, R1, 0); // odd iterations store 1
        a.bind(even);
        a.addi(R6, R6, 1);
        a.bltu_to(R6, R7, top);
        a.halt();
        let p = a.assemble().unwrap();
        let (core, _, data) = run_program(p, SecureConfig::unsafe_baseline(), 100_000);
        assert_eq!(data.peek(0x6000), 1);
        // 4 odd iterations of 9 store once each.
        assert_eq!(core.stats().stores_committed, 4);
        assert!(core.stats().branch_mispredicts > 0);
        assert!(core.stats().squashed > 0);
    }
}
