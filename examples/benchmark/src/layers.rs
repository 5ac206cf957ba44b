//! Per-layer accounting: what traced runs, replays and set-up timings
//! accumulate, and the one function that turns it into the declared
//! per-layer metrics (every name on every workload; a layer a workload
//! does not reach reports 0).

use recon_sim::SystemResult;

use crate::report::{median, Metric};
use crate::trace::{ratio, Replay, SelfTimes, CALL_KINDS};

/// Deterministic counts summed over simulated results.
#[derive(Clone, Debug, Default)]
pub struct Counts {
    committed: u64,
    cycles: u64,
    core_cycles: u64,
    loads: u64,
    stall_head_load: u64,
    squashed: u64,
    guarded_loads: u64,
    delay_cycles: u64,
    revealed_loads: u64,
    reveals_requested: u64,
    reveals_set: u64,
    l1_hits: u64,
    mem_loads: u64,
    invalidations: u64,
    mask_merges: u64,
    mask_bits_lost: u64,
}

impl Counts {
    pub fn add(&mut self, r: &SystemResult) {
        self.committed += r.committed();
        self.cycles += r.cycles;
        for c in &r.cores {
            self.core_cycles += c.cycles;
            self.loads += c.loads_committed;
            self.stall_head_load += c.stall_head_load;
            self.squashed += c.squashed;
            self.guarded_loads += c.guarded_loads_committed;
            self.delay_cycles += c.scheme_delay_cycles;
            self.revealed_loads += c.revealed_loads_committed;
            self.reveals_requested += c.reveals_requested;
        }
        let m = &r.mem;
        self.reveals_set += m.reveals_set;
        self.l1_hits += m.l1_hits;
        self.mem_loads += m.total_loads();
        self.invalidations += m.invalidations;
        self.mask_merges += m.mask_merges;
        self.mask_bits_lost += m.mask_bits_lost_inval + m.mask_bits_lost_evict;
    }

    fn per_kinst(&self, n: u64) -> f64 {
        ratio(n as f64 * 1000.0, self.committed as f64)
    }
}

/// Everything a traced run accumulates.
#[derive(Debug, Default)]
pub struct Layers {
    pub gen_ms: Vec<f64>,
    pub assemble_ms: Vec<f64>,
    pub decode_ms: Vec<f64>,
    pub new_ms: Vec<f64>,
    pub restore_ms: Vec<f64>,
    pub counts: Counts,
    /// Main-loop cycles and those without a commit.
    pub loop_cycles: u64,
    pub zero_commit: u64,
    pub replay: Replay,
    pub replays: u64,
    pub replays_exact: u64,
    pub traced: u64,
    pub traced_exact: u64,
    pub audits: u64,
    pub audit_ns: f64,
    pub drains: u64,
    pub drain_ns: f64,
    pub snapshots: u64,
    pub snapshot_ns: f64,
    pub snapshot_bytes: u64,
    pub busy_frac: f64,
    pub tail_s: f64,
    pub ff_instructions: u64,
    pub ff_ns: f64,
    pub exec_ns: f64,
    pub exec_ms: Vec<f64>,
    /// Mean service time of a cache-missing request beyond the
    /// server's own execution time.
    pub overhead_ms: f64,
    pub hit_ms: Vec<f64>,
    pub parse_us: Vec<f64>,
    pub cache_hit_ratio: f64,
    pub retries_429: u64,
    pub overhead_frac: f64,
    /// Median host slowdown read during the run (`host` module).
    pub slowdown: f64,
}

impl Layers {
    pub fn add_replay(&mut self, r: &Replay) {
        self.replays += 1;
        self.replays_exact += u64::from(r.exact);
        for (acc, c) in self.replay.calls.iter_mut().zip(r.calls) {
            acc.0 += c.0;
            acc.1 += c.1;
        }
        self.replay.drain_ns += r.drain_ns;
    }

    pub fn add_loop(&mut self, st: &crate::trace::LoopStats) {
        self.loop_cycles += st.cycles;
        self.zero_commit += st.zero_commit;
        self.audits += st.audits;
        self.audit_ns += st.audit_ns;
        self.drains += st.drains.len() as u64;
        self.drain_ns += st.drain_ns;
        self.snapshots += st.snapshots;
        self.snapshot_ns += st.snapshot_ns;
        self.snapshot_bytes += st.snapshot_bytes;
    }

    /// Every declared per-layer metric, in declaration order.
    pub fn metrics(&self, st: &SelfTimes) -> Vec<Metric> {
        let c = &self.counts;
        let flag = |n: u64, of: u64| if n > 0 && n == of { 1.0 } else { 0.0 };
        let mean_ns = |k: usize| {
            let (n, ns) = self.replay.calls[k];
            ratio(ns, n as f64)
        };
        let (calls, _) = self.replay.total();
        let cpu_ns = st.by_name.get("cpu.tick").copied().unwrap_or(0.0);
        let mut m = vec![
            Metric::median("workloads.gen_ms", "ms", self.gen_ms.clone()),
            Metric::median("asm.assemble_ms", "ms", self.assemble_ms.clone()),
            Metric::median("isa.decode_ms", "ms", self.decode_ms.clone()),
            Metric::median("sim.new_ms", "ms", self.new_ms.clone()),
            Metric::single(
                "cpu.ns_per_cycle",
                "ns",
                ratio(cpu_ns, self.loop_cycles as f64),
            ),
            Metric::single("cpu.self_share", "fraction", st.share(&["cpu.tick"])),
            Metric::single(
                "cpu.zero_commit_frac",
                "fraction",
                ratio(self.zero_commit as f64, self.loop_cycles as f64),
            ),
            Metric::single(
                "cpu.ipc",
                "inst/cycle",
                ratio(c.committed as f64, c.cycles as f64),
            ),
            Metric::single(
                "cpu.stall_head_load_frac",
                "fraction",
                ratio(c.stall_head_load as f64, c.core_cycles as f64),
            ),
            Metric::single("cpu.squash_per_kinst", "1/kinst", c.per_kinst(c.squashed)),
            Metric::single("mem.self_share", "fraction", st.share(&["mem.access"])),
        ];
        for (k, kind) in CALL_KINDS.iter().enumerate() {
            m.push(Metric::single(&format!("mem.{kind}_ns"), "ns", mean_ns(k)));
        }
        m.extend([
            Metric::single(
                "mem.calls_per_kcycle",
                "1/kcycle",
                ratio(calls as f64 * 1000.0, c.cycles as f64),
            ),
            Metric::single(
                "mem.l1_hit_ratio",
                "fraction",
                ratio(c.l1_hits as f64, c.mem_loads as f64),
            ),
            Metric::single(
                "mem.invalidations_per_kinst",
                "1/kinst",
                c.per_kinst(c.invalidations),
            ),
            Metric::single("mem.mask_merges", "count", c.mask_merges as f64),
            Metric::single(
                "mem.replay_exact",
                "bool",
                flag(self.replays_exact, self.replays),
            ),
            Metric::single(
                "recon.reveal_set_ratio",
                "fraction",
                ratio(c.reveals_set as f64, c.reveals_requested as f64),
            ),
            Metric::single(
                "recon.revealed_load_frac",
                "fraction",
                ratio(c.revealed_loads as f64, c.loads as f64),
            ),
            Metric::single(
                "recon.mask_bits_lost_per_kinst",
                "1/kinst",
                c.per_kinst(c.mask_bits_lost),
            ),
            Metric::single(
                "secure.guarded_load_frac",
                "fraction",
                ratio(c.guarded_loads as f64, c.loads as f64),
            ),
            Metric::single(
                "secure.delay_cycles_per_kinst",
                "1/kinst",
                c.per_kinst(c.delay_cycles),
            ),
            Metric::single("sim.self_share", "fraction", st.share(&["sim.run"])),
            Metric::single(
                "sim.watchdog_share",
                "fraction",
                st.share(&["sim.watchdog"]),
            ),
            Metric::single(
                "sim.audit_us_per_sweep",
                "us",
                ratio(self.audit_ns / 1e3, self.audits as f64),
            ),
            Metric::single("sim.audit_share", "fraction", st.share(&["sim.audit"])),
            Metric::single(
                "sim.ckpt_drain_ms",
                "ms",
                ratio(self.drain_ns / 1e6, self.drains as f64),
            ),
            Metric::single(
                "sim.ckpt_snapshot_ms",
                "ms",
                ratio(self.snapshot_ns / 1e6, self.snapshots as f64),
            ),
            Metric::single(
                "sim.ckpt_kb",
                "KiB",
                ratio(self.snapshot_bytes as f64 / 1024.0, self.snapshots as f64),
            ),
            Metric::single(
                "sim.ckpt_share",
                "fraction",
                st.share(&["sim.ckpt_drain", "sim.ckpt_snapshot"]),
            ),
            Metric::median("sim.restore_ms", "ms", self.restore_ms.clone()),
            Metric::single(
                "sim.traced_exact",
                "bool",
                flag(self.traced_exact, self.traced),
            ),
            Metric::single("runner.busy_frac", "fraction", self.busy_frac),
            Metric::single("runner.tail_s", "s", self.tail_s),
            Metric::single(
                "isa.ff_mips",
                "MIPS",
                ratio(self.ff_instructions as f64 * 1e3, self.ff_ns),
            ),
            Metric::single("isa.ff_share", "fraction", ratio(self.ff_ns, self.exec_ns)),
            Metric::single("serve.exec_ms_p50", "ms", median(&self.exec_ms)),
            Metric::single("serve.overhead_ms", "ms", self.overhead_ms),
            Metric::single("serve.hit_ms_p50", "ms", median(&self.hit_ms)),
            Metric::single("serve.parse_us_p50", "us", median(&self.parse_us)),
            Metric::single("serve.cache_hit_ratio", "fraction", self.cache_hit_ratio),
            Metric::single("serve.retries_429", "count", self.retries_429 as f64),
            Metric::single("host.slowdown", "ratio", self.slowdown),
            Metric::single("trace.overhead_frac", "fraction", self.overhead_frac),
            Metric::single("trace.self_sum_ratio", "fraction", st.coverage()),
        ]);
        m
    }
}
