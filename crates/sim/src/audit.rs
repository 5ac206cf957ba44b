//! The cycle-level invariant auditor and the seeded soft-error
//! injection campaign that proves it works.
//!
//! ## Auditing
//!
//! With [`crate::Budget::audit_every_cycles`] set, a budgeted run
//! sweeps every layer's internal invariants (coherence SWMR, mask
//! subset relations, LPT slot mapping, ROB/LSQ age ordering, guard
//! bookkeeping — see [`recon::audit`]) at the given cadence. A
//! non-empty sweep stops the run with
//! [`crate::SimError::InvariantViolated`] carrying an [`AuditReport`]:
//! a structured forensic record (which invariants, where, at what
//! cycle) with a stable binary encoding so `recon serve` and the
//! checkpoint layer can persist it.
//!
//! ## Injection
//!
//! The auditor's claim — *silent state corruption is detected within a
//! bounded cycle window* — is only worth anything if demonstrated.
//! [`run_campaign`] injects seeded single-bit faults
//! ([`FaultSite`]: reveal masks, directory entries, LPT entries,
//! physical-register values, checkpoint bytes) into mid-flight runs and
//! classifies each outcome: detected by the auditor (with detection
//! latency), detected by checkpoint-load rejection, detected by the
//! liveness watchdog, detected by an end-of-run architectural digest
//! mismatch, or *masked* (the final digest equals the fault-free run's
//! — the flip landed in dead state). A fault that completes with a
//! matching digest after **differing** from the reference would be
//! silent corruption; the campaign counts those separately and the CI
//! gate requires zero.

use core::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

use recon::AuditViolation;
use recon_cpu::CoreConfig;
use recon_isa::rng::{Rng as _, SplitMix64};
use recon_isa::snap::{SnapError, SnapReader, SnapWriter};
use recon_mem::MemConfig;
use recon_secure::SecureConfig;
use recon_workloads::gen::parallel::{generate, ParKind, ParallelParams};
use recon_workloads::Workload;

use crate::error::{Budget, SimError};
use crate::system::System;

/// Default audit cadence in cycles: frequent enough to bound detection
/// latency to a small fraction of any run, rare enough that the sweep
/// cost stays within ~2% of host run time (`examples/benchmark` reports
/// the measured figure as `sim.audit_share` on a traced
/// `parsec4-monitored` run, which audits at this cadence).
pub const DEFAULT_AUDIT_EVERY_CYCLES: u64 = 1 << 14;

/// What one audit sweep found when it stopped a run: the violated
/// invariants plus where and when. Plain data with a stable binary
/// encoding (`ARP1`), mirroring [`crate::StallReport`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct AuditReport {
    /// Cycle at which the sweep fired.
    pub cycle: u64,
    /// Sweep cadence the run was audited at (bounds detection latency).
    pub cadence: u64,
    /// Every violation the sweep found, in layer order.
    pub violations: Vec<AuditViolation>,
}

impl AuditReport {
    /// One-line summary naming the first violation — the string error
    /// paths (`Display for SimError`) surface.
    #[must_use]
    pub fn summary(&self) -> String {
        match self.violations.first() {
            Some(v) => format!(
                "invariant violated at cycle {}: {v}{}",
                self.cycle,
                if self.violations.len() > 1 {
                    format!(" (+{} more)", self.violations.len() - 1)
                } else {
                    String::new()
                }
            ),
            None => format!("invariant violated at cycle {}", self.cycle),
        }
    }

    /// Serializes the report (an `ARP1`-tagged stream).
    pub fn save_snap(&self, w: &mut SnapWriter) {
        w.tag(b"ARP1");
        w.u64(self.cycle);
        w.u64(self.cadence);
        w.u32(self.violations.len() as u32);
        for v in &self.violations {
            w.str(&v.invariant);
            w.str(&v.site);
            w.str(&v.detail);
        }
    }

    /// Serializes the report to a standalone byte vector.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        self.save_snap(&mut w);
        w.into_bytes()
    }

    /// Reconstructs a report from [`AuditReport::save_snap`] bytes.
    ///
    /// # Errors
    ///
    /// Propagates decode errors from a truncated or corrupt stream.
    pub fn load_snap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.expect_tag(b"ARP1")?;
        let cycle = r.u64()?;
        let cadence = r.u64()?;
        let n = r.u32()? as usize;
        let mut violations = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            let invariant = r.str()?;
            let site = r.str()?;
            let detail = r.str()?;
            violations.push(AuditViolation::new(invariant, site, detail));
        }
        Ok(AuditReport {
            cycle,
            cadence,
            violations,
        })
    }

    /// Reconstructs a report from a standalone byte vector.
    ///
    /// # Errors
    ///
    /// As [`AuditReport::load_snap`], plus trailing-bytes detection.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapError> {
        let mut r = SnapReader::new(bytes);
        let report = Self::load_snap(&mut r)?;
        if !r.is_exhausted() {
            return Err(SnapError {
                what: "trailing bytes after audit report".to_string(),
                offset: r.offset(),
            });
        }
        Ok(report)
    }
}

impl fmt::Display for AuditReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "INVARIANT VIOLATION at cycle {} ({} violation(s), audit cadence {}):",
            self.cycle,
            self.violations.len(),
            self.cadence
        )?;
        for v in &self.violations {
            writeln!(f, "  {v}")?;
        }
        Ok(())
    }
}

/// Where a soft error is injected.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultSite {
    /// A reveal-mask bit in a random L1/L2/LLC line.
    RevealMask,
    /// A MESI/directory state (cache-line state or directory entry).
    DirState,
    /// An LPT entry field (address, tag, or active bit).
    Lpt,
    /// A live physical-register value.
    Regfile,
    /// A byte of a serialized checkpoint (exercises the loader's
    /// checksum rejection, not the running system).
    CkptBytes,
}

impl FaultSite {
    /// Every injection site, in campaign rotation order.
    pub const ALL: [FaultSite; 5] = [
        FaultSite::RevealMask,
        FaultSite::DirState,
        FaultSite::Lpt,
        FaultSite::Regfile,
        FaultSite::CkptBytes,
    ];

    /// Stable name used in reports and JSON.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::RevealMask => "reveal-mask",
            FaultSite::DirState => "dir-state",
            FaultSite::Lpt => "lpt",
            FaultSite::Regfile => "regfile",
            FaultSite::CkptBytes => "ckpt-bytes",
        }
    }

    /// Parses a site name as produced by [`FaultSite::name`].
    #[must_use]
    pub fn parse(name: &str) -> Option<FaultSite> {
        FaultSite::ALL.into_iter().find(|s| s.name() == name)
    }
}

impl fmt::Display for FaultSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Configuration of one injection campaign.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// Seed of the campaign's fault stream (site choice, injection
    /// cycle, bit position). The same seed reproduces the same faults.
    pub seed: u64,
    /// Number of faults to inject (rotated across all sites, schemes,
    /// and workloads).
    pub faults: usize,
    /// Audit cadence of the monitored runs.
    pub audit_every: u64,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            seed: 42,
            faults: 200,
            audit_every: 256,
        }
    }
}

/// Per-site outcome counters of a campaign.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SiteStats {
    /// Faults actually injected at this site.
    pub injected: u64,
    /// Detected by the invariant auditor ([`SimError::InvariantViolated`]).
    pub detected_audit: u64,
    /// Detected by an end-of-run architectural digest mismatch.
    pub detected_digest: u64,
    /// Detected by the checkpoint loader rejecting corrupt bytes.
    pub detected_ckpt_reject: u64,
    /// Detected by the liveness watchdog or cycle deadline (the fault
    /// wedged the run; it never completed).
    pub detected_stall: u64,
    /// The corrupted state tripped a model assertion (panic) before the
    /// next sweep — caught, but less gracefully than an audit.
    pub detected_crash: u64,
    /// The run completed with an architectural digest equal to the
    /// fault-free reference: the flip landed in dead state.
    pub masked: u64,
    /// Silent corruption: completed with a digest that differs from
    /// the reference yet no detector fired. **Must be zero** — the
    /// digest comparison itself is the last-resort detector, so this
    /// counter is definitionally zero; it exists to make the claim
    /// auditable in the JSON.
    pub silent: u64,
    /// Sum of auditor detection latencies (cycles from injection to
    /// the violating sweep), over `detected_audit` faults.
    pub latency_sum: u64,
    /// Worst auditor detection latency observed.
    pub latency_max: u64,
}

impl SiteStats {
    /// All detections, by any detector.
    #[must_use]
    pub fn detected(&self) -> u64 {
        self.detected_audit
            + self.detected_digest
            + self.detected_ckpt_reject
            + self.detected_stall
            + self.detected_crash
    }

    /// Mean auditor detection latency in cycles (0 when none).
    #[must_use]
    pub fn latency_mean(&self) -> f64 {
        if self.detected_audit == 0 {
            0.0
        } else {
            self.latency_sum as f64 / self.detected_audit as f64
        }
    }
}

/// The full result of an injection campaign — the content of
/// `BENCH_audit.json`.
#[derive(Clone, Debug)]
pub struct AuditCampaignReport {
    /// Campaign seed.
    pub seed: u64,
    /// Audit cadence the monitored runs used.
    pub audit_every: u64,
    /// Faults the campaign was asked for.
    pub faults_requested: usize,
    /// Faults that found no target (e.g. an empty LPT at the injection
    /// point) and were skipped.
    pub no_target: u64,
    /// Fault-free monitored runs that tripped the auditor — the
    /// false-positive count. **Must be zero.**
    pub false_positives: u64,
    /// Per-site outcome counters, in [`FaultSite::ALL`] order.
    pub sites: Vec<(FaultSite, SiteStats)>,
}

impl AuditCampaignReport {
    /// Total faults injected across sites.
    #[must_use]
    pub fn injected(&self) -> u64 {
        self.sites.iter().map(|(_, s)| s.injected).sum()
    }

    /// Total silent corruptions (must be zero).
    #[must_use]
    pub fn silent(&self) -> u64 {
        self.sites.iter().map(|(_, s)| s.silent).sum()
    }

    /// Total masked faults.
    #[must_use]
    pub fn masked(&self) -> u64 {
        self.sites.iter().map(|(_, s)| s.masked).sum()
    }

    /// Total detections, by any detector.
    #[must_use]
    pub fn detected(&self) -> u64 {
        self.sites.iter().map(|(_, s)| s.detected()).sum()
    }

    /// Renders the report as the `BENCH_audit.json` document.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str("  \"schema\": \"recon-bench-audit-v1\",\n");
        s.push_str(&format!("  \"seed\": {},\n", self.seed));
        s.push_str(&format!("  \"audit_every\": {},\n", self.audit_every));
        s.push_str(&format!(
            "  \"faults_requested\": {},\n",
            self.faults_requested
        ));
        s.push_str(&format!("  \"faults_injected\": {},\n", self.injected()));
        s.push_str(&format!("  \"no_target\": {},\n", self.no_target));
        s.push_str(&format!(
            "  \"false_positives\": {},\n",
            self.false_positives
        ));
        s.push_str(&format!("  \"detected\": {},\n", self.detected()));
        s.push_str(&format!("  \"masked\": {},\n", self.masked()));
        s.push_str(&format!("  \"silent\": {},\n", self.silent()));
        s.push_str("  \"sites\": [\n");
        for (i, (site, st)) in self.sites.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"site\": \"{}\", \"injected\": {}, \"detected_audit\": {}, \
                 \"detected_digest\": {}, \"detected_ckpt_reject\": {}, \
                 \"detected_stall\": {}, \"detected_crash\": {}, \"masked\": {}, \
                 \"silent\": {}, \"latency_mean_cycles\": {:.1}, \
                 \"latency_max_cycles\": {}}}{}\n",
                site.name(),
                st.injected,
                st.detected_audit,
                st.detected_digest,
                st.detected_ckpt_reject,
                st.detected_stall,
                st.detected_crash,
                st.masked,
                st.silent,
                st.latency_mean(),
                st.latency_max,
                if i + 1 < self.sites.len() { "," } else { "" }
            ));
        }
        s.push_str("  ]\n");
        s.push_str("}\n");
        s
    }
}

/// The tiny multicore workloads the campaign injects into: small enough
/// that hundreds of monitored runs stay cheap, parallel enough that the
/// directory, reveal masks, and cross-core sharing all carry live
/// state.
fn campaign_workloads() -> Vec<Workload> {
    [
        ParKind::SharedChase,
        ParKind::DataParallel { rotate: true },
        ParKind::ProducerConsumer,
    ]
    .into_iter()
    .map(|kind| {
        generate(ParallelParams {
            kind,
            slots: 64,
            cond_lines: 4,
            passes: 2,
            seed: 1,
        })
    })
    .collect()
}

fn fresh(workload: &Workload, secure: SecureConfig) -> System {
    System::new(
        workload,
        CoreConfig::tiny(),
        MemConfig::scaled(),
        secure,
        recon::ReconConfig::default(),
    )
}

/// Outcome classification of one monitored (post-injection) run.
enum RunOutcome {
    Completed(u64),
    Audit(u64),
    Stall,
    Crash,
    FalsePositiveCheckFailed,
}

/// Runs `sys` to completion under the audit cadence, classifying how it
/// ends. `Completed` carries the final architectural digest.
fn monitored_finish(sys: &mut System, max_cycles: u64, audit_every: u64) -> RunOutcome {
    let budget = Budget {
        audit_every_cycles: Some(audit_every),
        ..Budget::default()
    };
    let r = catch_unwind(AssertUnwindSafe(|| sys.run_budgeted(max_cycles, &budget)));
    match r {
        Err(_) => RunOutcome::Crash,
        Ok(Ok(_)) => RunOutcome::Completed(sys.arch_digest()),
        Ok(Err(SimError::InvariantViolated { report, .. })) => RunOutcome::Audit(report.cycle),
        Ok(Err(SimError::Stalled { .. } | SimError::DeadlineExceeded { .. })) => RunOutcome::Stall,
        Ok(Err(SimError::Cancelled { .. })) => RunOutcome::FalsePositiveCheckFailed,
    }
}

/// Runs the seeded soft-error injection campaign.
///
/// For each fault the campaign rotates through sites, schemes, and
/// workloads; runs a fault-free *reference* with identical staging (run
/// to the injection cycle, then continue under audit) to obtain the
/// reference digest; then repeats the run with the fault injected and
/// classifies the outcome. Identical staging makes the digest
/// comparison exact: any timing perturbation from the split applies to
/// both runs.
///
/// # Panics
///
/// Panics if a campaign workload cannot complete fault-free (that would
/// be a simulator bug, not a campaign result).
#[must_use]
pub fn run_campaign(cfg: &CampaignConfig) -> AuditCampaignReport {
    let mut rng = SplitMix64::new(cfg.seed);
    let workloads = campaign_workloads();
    let schemes = SecureConfig::ALL;
    // Fault-free total cycles per (workload, scheme), measured once.
    let mut total_cycles: Vec<Vec<Option<u64>>> = vec![vec![None; schemes.len()]; workloads.len()];

    let mut sites: Vec<(FaultSite, SiteStats)> = FaultSite::ALL
        .into_iter()
        .map(|s| (s, SiteStats::default()))
        .collect();
    let mut no_target = 0u64;
    let mut false_positives = 0u64;

    const MAX_CYCLES: u64 = 10_000_000;
    for i in 0..cfg.faults {
        let site = FaultSite::ALL[i % FaultSite::ALL.len()];
        let scheme_idx = (i / FaultSite::ALL.len()) % schemes.len();
        let wl_idx = (i / (FaultSite::ALL.len() * schemes.len())) % workloads.len();
        let scheme = schemes[scheme_idx];
        let workload = &workloads[wl_idx];

        let total = *total_cycles[wl_idx][scheme_idx].get_or_insert_with(|| {
            let mut sys = fresh(workload, scheme);
            let r = sys.run(MAX_CYCLES);
            assert!(r.completed, "campaign workload must complete fault-free");
            r.cycles
        });
        // Inject somewhere in the 10%..90% band of the run.
        let inject_cycle = (total * (10 + rng.next_u64() % 80) / 100).max(1);
        let stage = Budget {
            max_cycles: Some(inject_cycle),
            ..Budget::default()
        };

        // Fault-free reference with identical staging.
        let mut reference = fresh(workload, scheme);
        let _ = reference.run_budgeted(MAX_CYCLES, &stage);
        let digest_ref = match monitored_finish(&mut reference, MAX_CYCLES, cfg.audit_every) {
            RunOutcome::Completed(d) => d,
            _ => {
                // A fault-free run must be clean: anything else is a
                // false positive (or a campaign bug) and disqualifies
                // this fault's comparison.
                false_positives += 1;
                continue;
            }
        };

        // The faulted run, staged identically.
        let mut sys = fresh(workload, scheme);
        let _ = sys.run_budgeted(MAX_CYCLES, &stage);
        let stats = &mut sites[i % FaultSite::ALL.len()].1;

        if site == FaultSite::CkptBytes {
            // Corrupt serialized state instead of live state: drain,
            // snapshot, flip one byte, and demand the loader reject it.
            if !sys.drain(crate::system::DRAIN_BOUND_CYCLES) {
                no_target += 1;
                continue;
            }
            let mut bytes = sys.snapshot_bytes();
            let at = (rng.next_u64() as usize) % bytes.len();
            bytes[at] ^= 1 << (rng.next_u64() % 8);
            stats.injected += 1;
            let mut restored = fresh(workload, scheme);
            if restored.restore_bytes(&bytes).is_err() {
                stats.detected_ckpt_reject += 1;
            } else {
                // The flip slipped past the section checksums (should
                // be impossible); fall through to runtime detection.
                match monitored_finish(&mut restored, MAX_CYCLES, cfg.audit_every) {
                    RunOutcome::Completed(d) if d == digest_ref => stats.masked += 1,
                    RunOutcome::Completed(_) => stats.detected_digest += 1,
                    RunOutcome::Audit(cycle) => {
                        let lat = cycle.saturating_sub(inject_cycle);
                        stats.detected_audit += 1;
                        stats.latency_sum += lat;
                        stats.latency_max = stats.latency_max.max(lat);
                    }
                    RunOutcome::Stall => stats.detected_stall += 1,
                    RunOutcome::Crash => stats.detected_crash += 1,
                    RunOutcome::FalsePositiveCheckFailed => {}
                }
            }
            continue;
        }

        match sys.inject_fault(site, &mut rng) {
            None => {
                no_target += 1;
                continue;
            }
            Some(_desc) => stats.injected += 1,
        }
        match monitored_finish(&mut sys, MAX_CYCLES, cfg.audit_every) {
            RunOutcome::Completed(d) if d == digest_ref => stats.masked += 1,
            RunOutcome::Completed(_) => stats.detected_digest += 1,
            RunOutcome::Audit(cycle) => {
                let lat = cycle.saturating_sub(inject_cycle);
                stats.detected_audit += 1;
                stats.latency_sum += lat;
                stats.latency_max = stats.latency_max.max(lat);
            }
            RunOutcome::Stall => stats.detected_stall += 1,
            RunOutcome::Crash => stats.detected_crash += 1,
            RunOutcome::FalsePositiveCheckFailed => {}
        }
    }

    AuditCampaignReport {
        seed: cfg.seed,
        audit_every: cfg.audit_every,
        faults_requested: cfg.faults,
        no_target,
        false_positives,
        sites,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> AuditReport {
        AuditReport {
            cycle: 4_096,
            cadence: 256,
            violations: vec![
                AuditViolation::new("swmr", "mem.dir", "line 0x40: 2 writable copies"),
                AuditViolation::new("lpt-slot-map", "core1.lpt", "slot 3 holds tag 9"),
            ],
        }
    }

    #[test]
    fn report_bytes_round_trip() {
        let r = sample();
        let back = AuditReport::from_bytes(&r.to_bytes()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn corrupt_report_bytes_rejected() {
        let mut bytes = sample().to_bytes();
        bytes.truncate(bytes.len() / 2);
        assert!(AuditReport::from_bytes(&bytes).is_err());
    }

    #[test]
    fn summary_names_first_violation_and_count() {
        let s = sample().summary();
        assert!(s.contains("swmr"), "{s}");
        assert!(s.contains("+1 more"), "{s}");
        assert!(s.contains("4096"), "{s}");
    }

    #[test]
    fn display_lists_every_violation() {
        let text = sample().to_string();
        assert!(text.contains("INVARIANT VIOLATION"), "{text}");
        assert!(text.contains("mem.dir"), "{text}");
        assert!(text.contains("core1.lpt"), "{text}");
    }

    #[test]
    fn site_names_round_trip() {
        for site in FaultSite::ALL {
            assert_eq!(FaultSite::parse(site.name()), Some(site));
        }
        assert_eq!(FaultSite::parse("bogus"), None);
    }

    #[test]
    fn clean_runs_audit_clean_across_schemes() {
        // Zero-false-positive gate in miniature: every scheme runs a
        // parallel workload under a tight audit cadence and completes.
        let w = &campaign_workloads()[0];
        for scheme in SecureConfig::ALL {
            let mut sys = fresh(w, scheme);
            let budget = Budget {
                audit_every_cycles: Some(64),
                ..Budget::default()
            };
            let r = sys.run_budgeted(10_000_000, &budget);
            assert!(r.is_ok(), "{scheme}: {:?}", r.err().map(|e| e.to_string()));
        }
    }

    #[test]
    fn mini_campaign_finds_no_silent_corruption() {
        let report = run_campaign(&CampaignConfig {
            seed: 7,
            faults: 10,
            audit_every: 128,
        });
        assert_eq!(report.false_positives, 0, "{}", report.to_json());
        assert_eq!(report.silent(), 0, "{}", report.to_json());
        assert!(report.injected() >= 5, "{}", report.to_json());
        assert_eq!(
            report.detected() + report.masked(),
            report.injected(),
            "{}",
            report.to_json()
        );
    }

    #[test]
    fn campaign_json_has_schema_and_sites() {
        let report = AuditCampaignReport {
            seed: 42,
            audit_every: 256,
            faults_requested: 10,
            no_target: 1,
            false_positives: 0,
            sites: FaultSite::ALL
                .into_iter()
                .map(|s| {
                    (
                        s,
                        SiteStats {
                            injected: 2,
                            detected_audit: 1,
                            masked: 1,
                            latency_sum: 100,
                            latency_max: 100,
                            ..SiteStats::default()
                        },
                    )
                })
                .collect(),
        };
        let json = report.to_json();
        assert!(
            json.contains("\"schema\": \"recon-bench-audit-v1\""),
            "{json}"
        );
        assert!(json.contains("\"reveal-mask\""), "{json}");
        assert!(json.contains("\"ckpt-bytes\""), "{json}");
        assert!(json.contains("\"silent\": 0"), "{json}");
        assert!(json.contains("\"latency_mean_cycles\": 100.0"), "{json}");
        assert_eq!(report.injected(), 10);
        assert_eq!(report.detected(), 5);
        assert_eq!(report.silent(), 0);
    }
}
