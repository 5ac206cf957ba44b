//! Experiment runner: one benchmark under the paper's scheme matrix.

use recon::ReconConfig;
use recon_cpu::CoreConfig;
use recon_mem::MemConfig;
use recon_secure::SecureConfig;
use recon_workloads::{Benchmark, Workload};

use crate::error::{Budget, SimError};
use crate::system::{System, SystemResult};

/// Shared experiment parameters.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Experiment {
    /// Core configuration (Table 2 defaults).
    pub core: CoreConfig,
    /// Memory configuration (capacity-scaled by default; see DESIGN.md).
    pub mem: MemConfig,
    /// ReCon configuration used when a scheme stacks ReCon.
    pub recon: ReconConfig,
    /// Cycle budget per run.
    pub max_cycles: u64,
}

impl Default for Experiment {
    fn default() -> Self {
        Experiment {
            core: CoreConfig::paper(),
            mem: MemConfig::scaled(),
            recon: ReconConfig::default(),
            max_cycles: 200_000_000,
        }
    }
}

impl Experiment {
    /// Runs `workload` under `secure`, returning the system result.
    ///
    /// # Panics
    ///
    /// Panics if the run does not complete within the cycle budget —
    /// experiments are sized to terminate, so a timeout is a bug.
    #[must_use]
    pub fn run(&self, workload: &Workload, secure: SecureConfig) -> SystemResult {
        let mut sys = System::new(workload, self.core, self.mem, secure, self.recon);
        let r = sys.run(self.max_cycles);
        assert!(
            r.completed,
            "run exceeded {} cycles under {}",
            self.max_cycles, secure
        );
        r
    }

    /// Runs `workload` under `secure` within `budget`, returning the
    /// partial result as an error if a deadline fires or the job is
    /// cancelled — the fallible entry point `recon serve` jobs use.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] from the budgeted run; the partial
    /// statistics accumulated up to the stop point ride along.
    pub fn try_run(
        &self,
        workload: &Workload,
        secure: SecureConfig,
        budget: &Budget,
    ) -> Result<SystemResult, SimError> {
        let mut sys = System::new(workload, self.core, self.mem, secure, self.recon);
        sys.run_budgeted(self.max_cycles, budget)
    }

    /// Runs the full five-way scheme matrix on one benchmark.
    #[must_use]
    pub fn run_matrix(&self, bench: &Benchmark) -> SchemeMatrix {
        let w = &bench.workload;
        SchemeMatrix {
            name: bench.name,
            baseline: self.run(w, SecureConfig::unsafe_baseline()),
            nda: self.run(w, SecureConfig::nda()),
            nda_recon: self.run(w, SecureConfig::nda_recon()),
            stt: self.run(w, SecureConfig::stt()),
            stt_recon: self.run(w, SecureConfig::stt_recon()),
        }
    }
}

/// Results of the five evaluated configurations on one benchmark.
#[derive(Clone, Debug)]
pub struct SchemeMatrix {
    /// Benchmark name.
    pub name: &'static str,
    /// Unsafe baseline.
    pub baseline: SystemResult,
    /// NDA.
    pub nda: SystemResult,
    /// NDA + ReCon.
    pub nda_recon: SystemResult,
    /// STT.
    pub stt: SystemResult,
    /// STT + ReCon.
    pub stt_recon: SystemResult,
}

impl SchemeMatrix {
    /// The five results, in [`SecureConfig::ALL`](recon_secure::SecureConfig::ALL)
    /// order.
    #[must_use]
    pub fn results(&self) -> [&SystemResult; 5] {
        [
            &self.baseline,
            &self.nda,
            &self.nda_recon,
            &self.stt,
            &self.stt_recon,
        ]
    }

    /// IPC of `result` normalized to the unsafe baseline (Figures 5/6).
    #[must_use]
    pub fn normalized_ipc(&self, result: &SystemResult) -> f64 {
        let base = self.baseline.ipc();
        if base == 0.0 {
            0.0
        } else {
            result.ipc() / base
        }
    }

    /// Execution time of `result` normalized to the baseline (Figure 8).
    #[must_use]
    pub fn normalized_time(&self, result: &SystemResult) -> f64 {
        if self.baseline.cycles == 0 {
            0.0
        } else {
            result.cycles as f64 / self.baseline.cycles as f64
        }
    }

    /// Guarded ("tainted") loads of STT+ReCon normalized to STT
    /// (Figure 7).
    #[must_use]
    pub fn tainted_load_ratio(&self) -> f64 {
        let stt = self.stt.guarded_loads();
        if stt == 0 {
            0.0
        } else {
            self.stt_recon.guarded_loads() as f64 / stt as f64
        }
    }
}

/// Overhead of a scheme versus baseline, from normalized IPC
/// (`1 - ipc_norm`, clamped at 0).
#[must_use]
pub fn overhead_from_norm_ipc(norm: f64) -> f64 {
    (1.0 - norm).max(0.0)
}

/// Relative overhead reduction achieved by ReCon:
/// `(base_overhead - recon_overhead) / base_overhead` (the paper's
/// "reduces the overhead by X%" metric). Zero when there was no
/// overhead to recover.
#[must_use]
pub fn overhead_reduction(scheme_overhead: f64, recon_overhead: f64) -> f64 {
    if scheme_overhead <= 0.0 {
        0.0
    } else {
        ((scheme_overhead - recon_overhead) / scheme_overhead).max(0.0)
    }
}

/// Geometric mean of a non-empty slice (0.0 for empty).
#[must_use]
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(1e-12).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Arithmetic mean (0.0 for empty).
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recon_workloads::{find, Scale, Suite};

    #[test]
    fn geomean_and_mean() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-9);
        assert_eq!(geomean(&[]), 0.0);
        assert!((mean(&[1.0, 3.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn overhead_math() {
        assert!((overhead_from_norm_ipc(0.9) - 0.1).abs() < 1e-12);
        assert_eq!(overhead_from_norm_ipc(1.1), 0.0);
        assert!((overhead_reduction(0.10, 0.05) - 0.5).abs() < 1e-12);
        assert_eq!(overhead_reduction(0.0, 0.0), 0.0);
    }

    #[test]
    fn matrix_on_a_small_benchmark_orders_schemes() {
        let b = find(Suite::Spec2017, "xalancbmk", Scale::Quick).unwrap();
        let exp = Experiment {
            max_cycles: 500_000_000,
            ..Experiment::default()
        };
        let m = exp.run_matrix(&b);
        // The baseline is the fastest configuration.
        assert!(
            m.normalized_ipc(&m.stt) <= 1.001,
            "STT cannot beat baseline"
        );
        assert!(
            m.normalized_ipc(&m.nda) <= m.normalized_ipc(&m.stt) + 0.02,
            "NDA <= STT"
        );
        // ReCon recovers (or at least never hurts).
        assert!(
            m.normalized_ipc(&m.stt_recon) >= m.normalized_ipc(&m.stt) - 0.001,
            "STT+ReCon >= STT"
        );
        assert!(
            m.normalized_ipc(&m.nda_recon) >= m.normalized_ipc(&m.nda) - 0.001,
            "NDA+ReCon >= NDA"
        );
        // And reduces tainted loads.
        assert!(m.tainted_load_ratio() <= 1.0);
    }
}
