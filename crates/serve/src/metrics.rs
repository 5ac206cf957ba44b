//! Live service metrics in Prometheus text exposition format.
//!
//! All counters are lock-free atomics updated on the worker and
//! connection-handler paths; `GET /metrics` renders a point-in-time
//! snapshot. Latency histograms are fixed-bucket (no allocation on the
//! observe path) and kept per job kind, so a slow `matrix` job does not
//! hide a regression in `verify` cells.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::job::JobKind;

/// Histogram bucket upper bounds, in seconds.
pub const BUCKETS: [f64; 9] = [0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0];

/// A fixed-bucket latency histogram (cumulative on render, per the
/// Prometheus convention).
#[derive(Default, Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS.len()],
    /// Sum of observations in microseconds (integer so it can be an
    /// atomic; rendered back as seconds).
    sum_micros: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    /// Records one observation, in seconds.
    pub fn observe(&self, seconds: f64) {
        for (i, bound) in BUCKETS.iter().enumerate() {
            if seconds <= *bound {
                self.buckets[i].fetch_add(1, Ordering::Relaxed);
                break;
            }
        }
        let micros = (seconds * 1e6).round().max(0.0) as u64;
        self.sum_micros.fetch_add(micros, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Total observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    fn render(&self, out: &mut String, kind: &str, node: &str) {
        use std::fmt::Write as _;
        let mut cumulative = 0u64;
        for (i, bound) in BUCKETS.iter().enumerate() {
            cumulative += self.buckets[i].load(Ordering::Relaxed);
            let _ = writeln!(
                out,
                "recon_job_seconds_bucket{{kind=\"{kind}\"{node},le=\"{bound}\"}} {cumulative}"
            );
        }
        let count = self.count.load(Ordering::Relaxed);
        let _ = writeln!(
            out,
            "recon_job_seconds_bucket{{kind=\"{kind}\"{node},le=\"+Inf\"}} {count}"
        );
        let sum = self.sum_micros.load(Ordering::Relaxed) as f64 / 1e6;
        let _ = writeln!(
            out,
            "recon_job_seconds_sum{{kind=\"{kind}\"{node}}} {sum:.6}"
        );
        let _ = writeln!(
            out,
            "recon_job_seconds_count{{kind=\"{kind}\"{node}}} {count}"
        );
    }
}

/// One monotonically increasing counter.
#[derive(Default, Debug)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts one (for the running-jobs gauge).
    pub fn dec(&self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// The full service metric set.
#[derive(Default, Debug)]
pub struct Metrics {
    /// Jobs accepted into the queue.
    pub jobs_queued: Counter,
    /// Jobs currently executing (gauge).
    pub jobs_running: Counter,
    /// Jobs that completed with a result.
    pub jobs_completed: Counter,
    /// Jobs that failed (bad spec at execution time, panic, internal
    /// error).
    pub jobs_failed: Counter,
    /// Jobs cancelled by an aborting shutdown.
    pub jobs_cancelled: Counter,
    /// Jobs that hit their fuel or cycle deadline.
    pub jobs_deadline: Counter,
    /// Jobs the liveness watchdog declared deadlocked.
    pub stalls_detected: Counter,
    /// Jobs whose invariant-audit sweep found inconsistent simulator
    /// state (served as 500 with the forensic report).
    pub audit_violations: Counter,
    /// Submissions refused with `429` because the queue was full.
    pub jobs_rejected: Counter,
    /// Result-cache hits (response served without executing).
    pub cache_hits: Counter,
    /// Result-cache misses (job executed).
    pub cache_misses: Counter,
    /// Pipeline-trace events dropped by ring buffers across all served
    /// jobs.
    pub trace_ring_dropped: Counter,
    /// Instructions simulated across all completed jobs (committed for
    /// timing runs, functional steps for analysis).
    pub sim_instructions: Counter,
    /// Wall-clock execution time of completed jobs, in microseconds
    /// (execution only — queue wait excluded, so MIPS reflects
    /// simulator throughput, not queueing).
    pub sim_exec_micros: Counter,
    /// Panicked workers restarted by the supervisor.
    pub worker_restarts: Counter,
    /// Duplicate in-flight submissions joined to an already-running
    /// execution instead of re-running (single-flight dedup).
    pub singleflight_joined: Counter,
    /// Connections refused with `503` because the handler pool was
    /// saturated.
    pub conns_rejected: Counter,
    /// Cache entries recovered from disk at startup.
    pub cache_recovered: Counter,
    /// Torn or corrupt persisted records dropped at startup.
    pub cache_dropped_records: Counter,
    /// Simulation checkpoints written to disk by running jobs.
    pub checkpoints_written: Counter,
    /// Jobs that resumed from an on-disk checkpoint instead of starting
    /// from cycle zero (startup orphan recovery or a retried deadline).
    pub checkpoints_resumed: Counter,
    /// Torn or corrupt checkpoint files dropped during recovery.
    pub checkpoints_dropped_corrupt: Counter,
    /// Superseded checkpoints garbage-collected (keep-latest-N).
    pub checkpoints_gc_deleted: Counter,
    /// Distinct jobs admitted but not yet answered (gauge): incremented
    /// on enqueue, decremented when the result fans out. Unlike the
    /// point-in-time queue depth, this covers queued *and* executing
    /// jobs, so summing it across cluster nodes gives true in-flight
    /// load.
    pub jobs_inflight: Counter,
    /// Checkpoints accepted from another node over `POST /migrate`.
    pub migrations_in: Counter,
    /// Checkpoints shipped to another node while draining.
    pub migrations_out: Counter,
    /// Cache entries accepted from a gateway replication
    /// (`POST /cache`).
    pub replications_in: Counter,
    /// Per-kind job latency (queue wait + execution), indexed by
    /// [`JobKind::index`].
    pub latency: [Histogram; JobKind::ALL.len()],
}

impl Metrics {
    /// Records a finished job's latency under its kind.
    pub fn observe_latency(&self, kind: JobKind, seconds: f64) {
        self.latency[kind.index()].observe(seconds);
    }

    /// Renders the Prometheus text format. Queue depth and capacity are
    /// sampled by the caller (they live on the queue, not here). When
    /// `node` is set every sample line carries a `node="..."` label, so
    /// cluster dashboards can sum gauges like `recon_jobs_inflight`
    /// across nodes without relabeling at scrape time.
    #[must_use]
    pub fn render(&self, queue_depth: usize, queue_capacity: usize, node: Option<&str>) -> String {
        use std::fmt::Write as _;
        let lbl = node.map_or(String::new(), |n| {
            format!("{{node=\"{}\"}}", n.replace('"', "_"))
        });
        // The histogram path merges into an existing label set, so it
        // needs the bare `,node="..."` form.
        let hist_lbl = node.map_or(String::new(), |n| {
            format!(",node=\"{}\"", n.replace('"', "_"))
        });
        let mut out = String::with_capacity(2048);
        let mut counter = |name: &str, help: &str, value: u64| {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name}{lbl} {value}");
        };
        counter(
            "recon_jobs_queued_total",
            "Jobs accepted into the bounded queue.",
            self.jobs_queued.get(),
        );
        counter(
            "recon_jobs_completed_total",
            "Jobs that finished with a result.",
            self.jobs_completed.get(),
        );
        counter(
            "recon_jobs_failed_total",
            "Jobs that failed during execution.",
            self.jobs_failed.get(),
        );
        counter(
            "recon_jobs_cancelled_total",
            "Jobs cancelled by an aborting shutdown.",
            self.jobs_cancelled.get(),
        );
        counter(
            "recon_jobs_deadline_exceeded_total",
            "Jobs that hit their fuel or cycle deadline.",
            self.jobs_deadline.get(),
        );
        counter(
            "recon_stalls_detected_total",
            "Jobs the liveness watchdog declared deadlocked.",
            self.stalls_detected.get(),
        );
        counter(
            "recon_audit_violations_total",
            "Jobs whose invariant-audit sweep found inconsistent state.",
            self.audit_violations.get(),
        );
        counter(
            "recon_jobs_rejected_total",
            "Submissions refused with 429 (queue full).",
            self.jobs_rejected.get(),
        );
        counter(
            "recon_cache_hits_total",
            "Result-cache hits.",
            self.cache_hits.get(),
        );
        counter(
            "recon_cache_misses_total",
            "Result-cache misses.",
            self.cache_misses.get(),
        );
        counter(
            "recon_trace_ring_dropped_total",
            "Pipeline-trace events dropped by ring buffers.",
            self.trace_ring_dropped.get(),
        );
        counter(
            "recon_sim_instructions_total",
            "Instructions simulated across all completed jobs.",
            self.sim_instructions.get(),
        );
        counter(
            "recon_worker_restarts_total",
            "Panicked workers restarted by the supervisor.",
            self.worker_restarts.get(),
        );
        counter(
            "recon_singleflight_joined_total",
            "Duplicate submissions joined to an in-flight execution.",
            self.singleflight_joined.get(),
        );
        counter(
            "recon_conns_rejected_total",
            "Connections refused with 503 (handler pool saturated).",
            self.conns_rejected.get(),
        );
        counter(
            "recon_cache_recovered_total",
            "Cache entries recovered from disk at startup.",
            self.cache_recovered.get(),
        );
        counter(
            "recon_cache_dropped_records_total",
            "Torn or corrupt persisted records dropped at startup.",
            self.cache_dropped_records.get(),
        );
        counter(
            "recon_checkpoints_written_total",
            "Simulation checkpoints written to disk by running jobs.",
            self.checkpoints_written.get(),
        );
        counter(
            "recon_checkpoints_resumed_total",
            "Jobs resumed from an on-disk checkpoint.",
            self.checkpoints_resumed.get(),
        );
        counter(
            "recon_checkpoints_dropped_corrupt_total",
            "Torn or corrupt checkpoint files dropped during recovery.",
            self.checkpoints_dropped_corrupt.get(),
        );
        counter(
            "recon_checkpoints_gc_deleted_total",
            "Superseded checkpoints garbage-collected (keep-latest-N).",
            self.checkpoints_gc_deleted.get(),
        );
        counter(
            "recon_migrations_in_total",
            "Checkpoints accepted from another node over POST /migrate.",
            self.migrations_in.get(),
        );
        counter(
            "recon_migrations_out_total",
            "Checkpoints shipped to another node while draining.",
            self.migrations_out.get(),
        );
        counter(
            "recon_replications_in_total",
            "Cache entries accepted from a gateway replication.",
            self.replications_in.get(),
        );
        let exec_secs = self.sim_exec_micros.get() as f64 / 1e6;
        let _ = writeln!(
            out,
            "# HELP recon_sim_exec_seconds_total Wall-clock execution time of completed jobs."
        );
        let _ = writeln!(out, "# TYPE recon_sim_exec_seconds_total counter");
        let _ = writeln!(out, "recon_sim_exec_seconds_total{lbl} {exec_secs:.6}");
        let mips = if exec_secs > 0.0 {
            self.sim_instructions.get() as f64 / 1e6 / exec_secs
        } else {
            0.0
        };
        let _ = writeln!(
            out,
            "# HELP recon_sim_mips Aggregate simulated MIPS over completed jobs (instructions / execution time)."
        );
        let _ = writeln!(out, "# TYPE recon_sim_mips gauge");
        let _ = writeln!(out, "recon_sim_mips{lbl} {mips:.3}");
        let _ = writeln!(out, "# HELP recon_jobs_running Jobs currently executing.");
        let _ = writeln!(out, "# TYPE recon_jobs_running gauge");
        let _ = writeln!(out, "recon_jobs_running{lbl} {}", self.jobs_running.get());
        let _ = writeln!(
            out,
            "# HELP recon_jobs_inflight Jobs admitted but not yet answered (queued + executing)."
        );
        let _ = writeln!(out, "# TYPE recon_jobs_inflight gauge");
        let _ = writeln!(out, "recon_jobs_inflight{lbl} {}", self.jobs_inflight.get());
        let _ = writeln!(out, "# HELP recon_queue_depth Jobs waiting in the queue.");
        let _ = writeln!(out, "# TYPE recon_queue_depth gauge");
        let _ = writeln!(out, "recon_queue_depth{lbl} {queue_depth}");
        let _ = writeln!(out, "# HELP recon_queue_capacity Configured queue bound.");
        let _ = writeln!(out, "# TYPE recon_queue_capacity gauge");
        let _ = writeln!(out, "recon_queue_capacity{lbl} {queue_capacity}");
        let _ = writeln!(
            out,
            "# HELP recon_job_seconds Job latency (queue wait + execution) by kind."
        );
        let _ = writeln!(out, "# TYPE recon_job_seconds histogram");
        for kind in JobKind::ALL {
            self.latency[kind.index()].render(&mut out, kind.label(), &hist_lbl);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_cumulative() {
        let m = Metrics::default();
        m.observe_latency(JobKind::Run, 0.0004);
        m.observe_latency(JobKind::Run, 0.02);
        m.observe_latency(JobKind::Run, 99.0); // beyond the last bound
        let text = m.render(0, 4, None);
        assert!(text.contains("recon_job_seconds_bucket{kind=\"run\",le=\"0.001\"} 1"));
        assert!(text.contains("recon_job_seconds_bucket{kind=\"run\",le=\"0.05\"} 2"));
        assert!(text.contains("recon_job_seconds_bucket{kind=\"run\",le=\"10\"} 2"));
        assert!(text.contains("recon_job_seconds_bucket{kind=\"run\",le=\"+Inf\"} 3"));
        assert!(text.contains("recon_job_seconds_count{kind=\"run\"} 3"));
    }

    #[test]
    fn mips_gauge_divides_instructions_by_exec_time() {
        let m = Metrics::default();
        m.sim_instructions.add(3_000_000);
        m.sim_exec_micros.add(2_000_000); // 2 s → 1.5 MIPS
        let text = m.render(0, 4, None);
        assert!(
            text.contains("recon_sim_instructions_total 3000000"),
            "{text}"
        );
        assert!(
            text.contains("recon_sim_exec_seconds_total 2.000000"),
            "{text}"
        );
        assert!(text.contains("recon_sim_mips 1.500"), "{text}");
    }

    #[test]
    fn mips_gauge_is_zero_before_any_job() {
        let text = Metrics::default().render(0, 4, None);
        assert!(text.contains("recon_sim_mips 0.000"), "{text}");
    }

    #[test]
    fn counters_render() {
        let m = Metrics::default();
        m.jobs_queued.inc();
        m.jobs_queued.inc();
        m.cache_hits.add(5);
        m.jobs_running.inc();
        m.jobs_running.dec();
        let text = m.render(3, 16, None);
        assert!(text.contains("recon_jobs_queued_total 2"));
        assert!(text.contains("recon_cache_hits_total 5"));
        assert!(text.contains("recon_jobs_running 0"));
        assert!(text.contains("recon_queue_depth 3"));
        assert!(text.contains("recon_queue_capacity 16"));
    }

    #[test]
    fn node_label_lands_on_every_sample_line() {
        let m = Metrics::default();
        m.jobs_queued.inc();
        m.jobs_inflight.inc();
        m.observe_latency(JobKind::Run, 0.02);
        let text = m.render(1, 4, Some("n0"));
        assert!(
            text.contains("recon_jobs_queued_total{node=\"n0\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("recon_jobs_inflight{node=\"n0\"} 1"),
            "{text}"
        );
        assert!(text.contains("recon_queue_depth{node=\"n0\"} 1"), "{text}");
        assert!(
            text.contains("recon_job_seconds_bucket{kind=\"run\",node=\"n0\",le=\"0.05\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("recon_job_seconds_count{kind=\"run\",node=\"n0\"} 1"),
            "{text}"
        );
        // No sample line is left unlabeled (HELP/TYPE lines excepted).
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            assert!(line.contains("{"), "unlabeled sample: {line}");
        }
    }

    /// A metric set with every counter at a distinct value and fixed
    /// latencies observed under every kind.
    fn populated() -> Metrics {
        let m = Metrics::default();
        for (i, c) in [
            &m.jobs_queued,
            &m.jobs_running,
            &m.jobs_completed,
            &m.jobs_failed,
            &m.jobs_cancelled,
            &m.jobs_deadline,
            &m.stalls_detected,
            &m.audit_violations,
            &m.jobs_rejected,
            &m.cache_hits,
            &m.cache_misses,
            &m.trace_ring_dropped,
            &m.sim_instructions,
            &m.sim_exec_micros,
            &m.worker_restarts,
            &m.singleflight_joined,
            &m.conns_rejected,
            &m.cache_recovered,
            &m.cache_dropped_records,
            &m.checkpoints_written,
            &m.checkpoints_resumed,
            &m.checkpoints_dropped_corrupt,
            &m.checkpoints_gc_deleted,
            &m.jobs_inflight,
            &m.migrations_in,
            &m.migrations_out,
            &m.replications_in,
        ]
        .into_iter()
        .enumerate()
        {
            c.add(1_000 * (i as u64 + 1) + i as u64);
        }
        for (i, kind) in JobKind::ALL.into_iter().enumerate() {
            for seconds in [0.0004, 0.003, 0.07, 0.6, 42.0] {
                m.observe_latency(kind, seconds * (i + 1) as f64);
            }
        }
        m
    }

    #[test]
    fn render_is_byte_stable_without_a_node_label() {
        assert_eq!(
            populated().render(3, 16, None),
            include_str!("../tests/golden/metrics.txt")
        );
    }

    #[test]
    fn render_is_byte_stable_with_a_node_label() {
        assert_eq!(
            populated().render(3, 16, Some("n\"0")),
            include_str!("../tests/golden/metrics_node.txt")
        );
    }
}
