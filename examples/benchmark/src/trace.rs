//! Outside-in tracing: spans recorded around calls into each layer's
//! public functions, a traced mirror of the simulator's run loop, and a
//! replay of the memory-transaction log that times `MemorySystem` calls
//! one by one.
//!
//! Hot calls (`System::tick`, the watchdog's `committed_total`, replayed
//! memory calls) are counted and summed on their parent span rather
//! than recorded one span per call. A span's self time is its duration
//! minus its children and its hot calls; a hot call that happens inside
//! another (`mem.access` inside `cpu.tick`) is subtracted from it.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use recon_mem::{MemEvent, MemEventKind, MemorySystem, ServedBy};
use recon_sim::system::DRAIN_BOUND_CYCLES;
use recon_sim::{Budget, System, SystemResult};

/// Counted and summed calls of one name on a span.
#[derive(Clone, Debug)]
pub struct Call {
    pub name: &'static str,
    /// The call this one runs inside, if any (its time is subtracted
    /// from that call instead of from the span).
    pub within: Option<&'static str>,
    pub count: u64,
    pub ns: f64,
}

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub lane: usize,
    pub rid: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub calls: Vec<Call>,
}

/// The spans of one thread. Ids are unique across lanes.
#[derive(Debug)]
pub struct Lane {
    epoch: Instant,
    lane: usize,
    next: u64,
    pub spans: Vec<Span>,
}

impl Lane {
    pub fn new(epoch: Instant, lane: usize) -> Lane {
        Lane {
            epoch,
            lane,
            next: 0,
            spans: Vec::new(),
        }
    }

    /// Reserves an id, so children can name a parent recorded later.
    pub fn id(&mut self) -> u64 {
        self.next += 1;
        ((self.lane as u64) << 32) | self.next
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &mut self,
        id: u64,
        parent: Option<u64>,
        name: &'static str,
        rid: &str,
        start: Instant,
        end: Instant,
        calls: Vec<Call>,
    ) {
        let span = Span {
            id,
            parent,
            name,
            lane: self.lane,
            rid: rid.to_string(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            calls,
        };
        self.spans.push(span);
    }
}

/// Self time per span or call name over the subtrees rooted at spans
/// named in `roots`, with the total duration of those roots.
#[derive(Debug, Default)]
pub struct SelfTimes {
    pub root_ns: f64,
    pub by_name: BTreeMap<&'static str, f64>,
}

impl SelfTimes {
    pub fn of(spans: &[Span], roots: &[&str]) -> SelfTimes {
        let mut kids: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
        for s in spans {
            if let Some(p) = s.parent {
                kids.entry(p).or_default().push(s);
            }
        }
        let mut out = SelfTimes::default();
        let mut stack: Vec<&Span> = spans.iter().filter(|s| roots.contains(&s.name)).collect();
        out.root_ns = stack.iter().map(|s| dur(s)).sum();
        while let Some(s) = stack.pop() {
            let children = kids.get(&s.id).map(Vec::as_slice).unwrap_or_default();
            let mut own = dur(s) - children.iter().map(|c| dur(c)).sum::<f64>();
            for c in &s.calls {
                *out.by_name.entry(c.name).or_default() += c.ns;
                match c.within {
                    Some(w) => *out.by_name.entry(w).or_default() -= c.ns,
                    None => own -= c.ns,
                }
            }
            *out.by_name.entry(s.name).or_default() += own;
            stack.extend(children);
        }
        for v in out.by_name.values_mut() {
            *v = v.max(0.0);
        }
        out
    }

    /// Self time of `name` as a share of the roots' duration.
    pub fn share(&self, names: &[&str]) -> f64 {
        let t: f64 = names.iter().filter_map(|n| self.by_name.get(n)).sum();
        ratio(t, self.root_ns)
    }

    /// Sum of (non-negative) self times over the roots' duration: 1.0
    /// when the layers account for exactly the traced time.
    pub fn coverage(&self) -> f64 {
        ratio(self.by_name.values().sum(), self.root_ns)
    }
}

fn dur(s: &Span) -> f64 {
    s.end_ns.saturating_sub(s.start_ns) as f64
}

pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

pub fn nanos(a: Instant, b: Instant) -> f64 {
    b.saturating_duration_since(a).as_nanos() as f64
}

/// Writes the spans as `target/benchmark/trace-<workload>-<seed>.json`.
pub fn write_trace(workload: &str, seed: u64, lanes: &[Lane]) -> std::io::Result<String> {
    let dir = "target/benchmark";
    std::fs::create_dir_all(dir)?;
    let path = format!("{dir}/trace-{workload}-{seed}.json");
    let mut s = format!("{{\"workload\": \"{workload}\", \"seed\": {seed}, \"spans\": [\n");
    let mut first = true;
    for sp in lanes.iter().flat_map(|l| &l.spans) {
        if !first {
            s.push_str(",\n");
        }
        first = false;
        let parent = sp
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        let _ = write!(
            s,
            "{{\"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"lane\": {}, \"start_ns\": {}, \"end_ns\": {}, \"run_or_request_id\": \"{}\", \"calls\": {{",
            sp.id, sp.name, sp.lane, sp.start_ns, sp.end_ns, sp.rid
        );
        for (i, c) in sp.calls.iter().enumerate() {
            let sep = if i > 0 { ", " } else { "" };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"count\": {}, \"ns\": {:.0}}}",
                c.name, c.count, c.ns
            );
        }
        s.push_str("}}");
    }
    s.push_str("\n]}\n");
    std::fs::write(&path, s)?;
    Ok(path)
}

/// Host-side counters of one traced run, beyond its spans.
#[derive(Clone, Debug, Default)]
pub struct LoopStats {
    /// Cycles ticked by the main loop (drain ticks excluded).
    pub cycles: u64,
    /// Of those, cycles in which no core committed.
    pub zero_commit: u64,
    /// `[start, end)` cycle windows of checkpoint drains.
    pub drains: Vec<(u64, u64)>,
    pub audits: u64,
    pub audit_ns: f64,
    pub drain_ns: f64,
    pub snapshot_ns: f64,
    pub snapshots: u64,
    pub snapshot_bytes: u64,
    /// Host time inside `System::tick` in the main loop.
    pub tick_ns: f64,
}

/// Runs `sys` to completion the way `System::run_budgeted_checkpointed`
/// does — tick, watchdog, audit and checkpoint cadences on the same
/// cycles — timing each call, and records a `sim.run` span with its
/// children. Returns the span id, the result (an error names why the
/// run did not complete), and the loop counters.
///
/// Budgets with fuel, fast-forward or a cancel flag are not mirrored.
pub fn traced_run(
    sys: &mut System,
    max_cycles: u64,
    budget: &Budget,
    lane: &mut Lane,
    parent: u64,
    rid: &str,
) -> (u64, Result<SystemResult, String>, LoopStats) {
    assert!(
        budget.fuel.is_none() && budget.fast_forward.is_none() && budget.cancel.is_none(),
        "the traced loop mirrors only watchdog, audit and checkpoint cadences"
    );
    let run_id = lane.id();
    let mut st = LoopStats::default();
    let cadence = budget.checkpoint_every_cycles.map(|c| c.max(1));
    let mut next_ckpt = cadence.map(|c| sys.cycle().saturating_add(c));
    let audit_cadence = budget.audit_every_cycles.map(|c| c.max(1));
    let mut next_audit = audit_cadence.map(|c| sys.cycle().saturating_add(c));
    let watchdog = budget.effective_watchdog();
    let mut wd_last_total = sys.committed_total();
    let mut wd_last_progress = sys.cycle();
    let (mut wd_ns, mut wd_calls) = (0.0, 0u64);
    let mut failure: Option<String> = None;

    let start = Instant::now();
    let mut t = start;
    loop {
        let busy = sys.tick();
        let t1 = Instant::now();
        st.tick_ns += nanos(t, t1);
        st.cycles += 1;
        t = t1;
        if !busy || sys.cycle() >= max_cycles {
            break;
        }
        if let Some(window) = watchdog {
            let total = sys.committed_total();
            let t2 = Instant::now();
            wd_ns += nanos(t1, t2);
            wd_calls += 1;
            t = t2;
            if total != wd_last_total {
                wd_last_total = total;
                wd_last_progress = sys.cycle();
            } else {
                st.zero_commit += 1;
                if sys.cycle().wrapping_sub(wd_last_progress) >= window {
                    failure = Some(format!("stalled at cycle {}", sys.cycle()));
                    break;
                }
            }
        }
        if let (Some(at), Some(c)) = (next_audit, audit_cadence) {
            if sys.cycle() >= at {
                let violations = sys.audit();
                let t2 = Instant::now();
                let id = lane.id();
                lane.record(id, Some(run_id), "sim.audit", rid, t, t2, Vec::new());
                st.audits += 1;
                st.audit_ns += nanos(t, t2);
                t = t2;
                if !violations.is_empty() {
                    failure = Some(format!("{} audit violations", violations.len()));
                    break;
                }
                next_audit = Some(sys.cycle().saturating_add(c));
            }
        }
        if let (Some(at), Some(c)) = (next_ckpt, cadence) {
            if sys.cycle() >= at {
                let c0 = sys.cycle();
                let drained = sys.drain(DRAIN_BOUND_CYCLES);
                let t2 = Instant::now();
                st.drains.push((c0, sys.cycle()));
                let id = lane.id();
                lane.record(id, Some(run_id), "sim.ckpt_drain", rid, t, t2, Vec::new());
                st.drain_ns += nanos(t, t2);
                t = t2;
                if drained {
                    let bytes = sys.snapshot_bytes();
                    let t3 = Instant::now();
                    let id = lane.id();
                    lane.record(
                        id,
                        Some(run_id),
                        "sim.ckpt_snapshot",
                        rid,
                        t,
                        t3,
                        Vec::new(),
                    );
                    st.snapshot_ns += nanos(t, t3);
                    st.snapshots += 1;
                    st.snapshot_bytes += bytes.len() as u64;
                    t = t3;
                }
                next_ckpt = Some(sys.cycle().saturating_add(c));
                wd_last_total = sys.committed_total();
                wd_last_progress = sys.cycle();
            }
        }
    }
    let completed = sys.cores().iter().all(|c| c.is_done());
    if completed && failure.is_none() && audit_cadence.is_some() {
        let t0 = Instant::now();
        let violations = sys.audit();
        let t1 = Instant::now();
        let id = lane.id();
        lane.record(id, Some(run_id), "sim.audit", rid, t0, t1, Vec::new());
        st.audits += 1;
        st.audit_ns += nanos(t0, t1);
        if !violations.is_empty() {
            failure = Some(format!(
                "{} audit violations at completion",
                violations.len()
            ));
        }
    }
    let end = Instant::now();
    let calls = vec![
        Call {
            name: "cpu.tick",
            within: None,
            count: st.cycles,
            ns: st.tick_ns,
        },
        Call {
            name: "sim.watchdog",
            within: None,
            count: wd_calls,
            ns: wd_ns,
        },
    ];
    lane.record(run_id, Some(parent), "sim.run", rid, start, end, calls);
    let result = SystemResult {
        completed,
        cycles: sys.cycle(),
        cores: sys.cores().iter().map(|c| c.stats()).collect(),
        mem: sys.mem().stats(),
    };
    let out = match failure {
        Some(f) => Err(f),
        None if !completed => Err(format!("incomplete after {} cycles", result.cycles)),
        None => Ok(result),
    };
    (run_id, out, st)
}

/// Replayed-call kinds, in metric order.
pub const CALL_KINDS: [&str; 8] = [
    "read_l1",
    "read_l2",
    "read_llc",
    "read_remote",
    "read_dram",
    "write",
    "rmw",
    "reveal",
];

/// Per-kind call counts and host time of a replayed transaction log.
#[derive(Clone, Debug, Default)]
pub struct Replay {
    pub calls: [(u64, f64); 8],
    /// Time of calls made inside checkpoint drains.
    pub drain_ns: f64,
    /// Whether every outcome and the final stats and snapshot matched.
    pub exact: bool,
}

impl Replay {
    pub fn total(&self) -> (u64, f64) {
        self.calls
            .iter()
            .fold((0, 0.0), |(n, t), &(c, ns)| (n + c, t + ns))
    }
}

/// The cost of one `Instant::now()` pair, subtracted from each timed
/// replayed call.
pub fn clock_overhead_ns() -> f64 {
    let mut v: Vec<f64> = (0..2001)
        .map(|_| {
            let a = Instant::now();
            nanos(a, Instant::now())
        })
        .collect();
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Replays the demand calls of `events` (taken from `sys`'s memory
/// system after a run) into a fresh `MemorySystem` of the same
/// configuration, timing each call, and checks that every outcome and
/// the final stats and snapshot match the original run.
pub fn replay(sys: &System, events: &[MemEvent], drains: &[(u64, u64)], clock_ns: f64) -> Replay {
    let orig = sys.mem();
    let mut mem = MemorySystem::new(orig.num_cores(), orig.config(), orig.recon_config());
    let mut out = Replay {
        exact: true,
        ..Replay::default()
    };
    let mut d = 0;
    for ev in events {
        mem.set_now(ev.cycle);
        let t0 = Instant::now();
        let (kind, same) = match ev.kind {
            MemEventKind::Read {
                core,
                addr,
                latency,
                served_by,
                revealed,
            } => {
                let r = mem.read(core, addr);
                let kind = match served_by {
                    ServedBy::L1 => 0,
                    ServedBy::L2 => 1,
                    ServedBy::Llc => 2,
                    ServedBy::RemoteCache => 3,
                    ServedBy::Memory => 4,
                };
                let same = (r.latency, r.served_by, r.revealed) == (latency, served_by, revealed);
                (kind, same)
            }
            MemEventKind::Write {
                core,
                addr,
                latency,
            } => (5, mem.write(core, addr).latency == latency),
            MemEventKind::Rmw {
                core,
                addr,
                latency,
                revealed,
            } => {
                let r = mem.rmw(core, addr);
                (6, (r.latency, r.revealed) == (latency, revealed))
            }
            MemEventKind::RevealSet { core, addr } => (7, mem.reveal(core, addr)),
            MemEventKind::RevealDropped { core, addr } => (7, !mem.reveal(core, addr)),
            // Coherence side effects of the calls above, not calls.
            _ => continue,
        };
        let ns = (nanos(t0, Instant::now()) - clock_ns).max(0.0);
        out.exact &= same;
        out.calls[kind].0 += 1;
        out.calls[kind].1 += ns;
        while d < drains.len() && drains[d].1 <= ev.cycle {
            d += 1;
        }
        if d < drains.len() && drains[d].0 <= ev.cycle {
            out.drain_ns += ns;
        }
    }
    out.exact &= mem.stats() == orig.stats() && mem.snapshot() == orig.snapshot();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, t: (u64, u64)) -> Span {
        Span {
            id,
            parent,
            name,
            lane: 0,
            rid: String::new(),
            start_ns: t.0,
            end_ns: t.1,
            calls: Vec::new(),
        }
    }

    #[test]
    fn self_times_subtract_children_and_nested_calls() {
        let mut run = span(2, Some(1), "sim.run", (0, 100));
        run.calls = vec![
            Call {
                name: "cpu.tick",
                within: None,
                count: 10,
                ns: 70.0,
            },
            Call {
                name: "mem.access",
                within: Some("cpu.tick"),
                count: 5,
                ns: 20.0,
            },
        ];
        let spans = vec![
            span(1, None, "bench.repeat", (0, 200)),
            run,
            span(3, Some(2), "sim.audit", (80, 90)),
        ];
        let st = SelfTimes::of(&spans, &["sim.run"]);
        assert_eq!(st.root_ns, 100.0);
        assert_eq!(st.by_name["cpu.tick"], 50.0);
        assert_eq!(st.by_name["mem.access"], 20.0);
        assert_eq!(st.by_name["sim.audit"], 10.0);
        assert_eq!(st.by_name["sim.run"], 20.0);
        assert_eq!(st.coverage(), 1.0);
        assert!((st.share(&["cpu.tick"]) - 0.5).abs() < 1e-12);
    }
}
