//! Deterministic fault injection: the chaos plane behind
//! `recon serve --chaos`.
//!
//! A [`FaultPlan`] is a SplitMix64-seeded oracle consulted at defined
//! seams in the serving path (the [`FaultSite`]s). Each decision is a
//! pure function of `(seed, site, key, draw-index)`, where `key` is the
//! job's content-addressed digest and the draw index is a per-`(site,
//! key)` counter — **not** a global stream. That keying is what makes
//! the chaos storm reproducible: the n-th time a given job passes a
//! given seam it always sees the same verdict, no matter how client
//! threads interleave, so the total number of injected faults converges
//! to the same fixed point on every run with the same seed (each
//! injected fault triggers exactly one retry, and retries draw the next
//! index).
//!
//! The plan never fires on non-job endpoints (`/metrics`, `/healthz`,
//! `/shutdown`) — the observability and control plane stays reliable
//! while the data plane is being broken on purpose.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use recon_isa::hash::FxHashMap;
use recon_isa::rng::{Rng, SplitMix64};

use crate::queue::lock_ignore_poison;

/// The seams where the chaos plane may inject a fault.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultSite {
    /// The worker thread panics after popping the job and before
    /// producing a result (exercises the supervisor + orphan
    /// resubmission path).
    WorkerPanic,
    /// Artificial latency before the job is admitted (exercises client
    /// timeouts and queueing under slow handlers).
    JobLatency,
    /// The connection is dropped after the request is read but before
    /// any response byte is written (the client observes a request that
    /// vanished mid-flight).
    DropRequest,
    /// The connection is dropped after roughly half the response bytes
    /// (the client observes a truncated response).
    DropResponse,
    /// The response is replaced by a truncated HTTP header section.
    TruncateHttp,
    /// The response is replaced by garbage bytes that parse as neither
    /// HTTP nor JSON.
    GarbageBytes,
    /// The submission is refused with a synthetic `429` as if the queue
    /// were saturated (a queue-saturation burst).
    QueueBurst,
    /// The job's newest on-disk checkpoint is truncated after the run,
    /// as if the process died mid-write (exercises torn-checkpoint
    /// recovery: the next resume must drop it, not trust it).
    CkptTorn,
}

impl FaultSite {
    /// Every site, in metric/spec order.
    pub const ALL: [FaultSite; 8] = [
        FaultSite::WorkerPanic,
        FaultSite::JobLatency,
        FaultSite::DropRequest,
        FaultSite::DropResponse,
        FaultSite::TruncateHttp,
        FaultSite::GarbageBytes,
        FaultSite::QueueBurst,
        FaultSite::CkptTorn,
    ];

    /// Stable spelling (spec key and metric label).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            FaultSite::WorkerPanic => "worker-panic",
            FaultSite::JobLatency => "latency",
            FaultSite::DropRequest => "drop-request",
            FaultSite::DropResponse => "drop-response",
            FaultSite::TruncateHttp => "truncate-http",
            FaultSite::GarbageBytes => "garbage",
            FaultSite::QueueBurst => "queue-burst",
            FaultSite::CkptTorn => "ckpt-torn",
        }
    }

    /// Index into per-site arrays.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            FaultSite::WorkerPanic => 0,
            FaultSite::JobLatency => 1,
            FaultSite::DropRequest => 2,
            FaultSite::DropResponse => 3,
            FaultSite::TruncateHttp => 4,
            FaultSite::GarbageBytes => 5,
            FaultSite::QueueBurst => 6,
            FaultSite::CkptTorn => 7,
        }
    }

    fn from_label(s: &str) -> Option<FaultSite> {
        FaultSite::ALL.into_iter().find(|site| site.label() == s)
    }

    /// A per-site salt so the same `(key, index)` draws independent
    /// bits at different seams.
    fn salt(self) -> u64 {
        // Arbitrary odd constants; only distinctness matters.
        [
            0x9E37_79B9_0000_0001,
            0x9E37_79B9_0000_0003,
            0x9E37_79B9_0000_0005,
            0x9E37_79B9_0000_0007,
            0x9E37_79B9_0000_0009,
            0x9E37_79B9_0000_000B,
            0x9E37_79B9_0000_000D,
            0x9E37_79B9_0000_000F,
        ][self.index()]
    }
}

/// How a `/jobs` response should be delivered, as decided by the plan.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ResponseFault {
    /// Deliver the response intact.
    None,
    /// Write about half the bytes, then close.
    DropMidWrite,
    /// Write a truncated HTTP header section, then close.
    TruncatedHttp,
    /// Write garbage bytes, then close.
    Garbage,
}

/// A seeded, deterministic fault-injection plan.
///
/// Probabilities are per-site in tenths of a percent (0‒1000 permil).
/// Injected faults are counted per site and exported through
/// `/metrics` as `recon_chaos_injected_total{site="..."}`.
pub struct FaultPlan {
    seed: u64,
    rate_permil: [u32; FaultSite::ALL.len()],
    injected: [AtomicU64; FaultSite::ALL.len()],
    /// Next draw index per `(site, key)`.
    counters: Mutex<FxHashMap<(u8, u64), u64>>,
    /// Upper bound on injected latency, in milliseconds.
    max_latency_ms: u64,
}

impl std::fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultPlan")
            .field("seed", &self.seed)
            .field("rate_permil", &self.rate_permil)
            .finish()
    }
}

impl FaultPlan {
    /// A plan with every rate at zero (useful as a base for tests).
    #[must_use]
    pub fn quiet(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            rate_permil: [0; FaultSite::ALL.len()],
            injected: Default::default(),
            counters: Mutex::new(FxHashMap::default()),
            max_latency_ms: 2,
        }
    }

    /// Parses the `--chaos` spec: `<seed>[,<site>=<permil>]...` with an
    /// optional `all=<permil>` applying one rate to every site and
    /// `max-latency-ms=<n>` bounding injected latency. Example:
    /// `42,all=100,latency=200` — seed 42, every fault class at 10%,
    /// latency bumped to 20%.
    ///
    /// # Errors
    ///
    /// A message naming the malformed part and the accepted site names.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut parts = spec.split(',');
        let seed_text = parts.next().unwrap_or("").trim();
        let seed: u64 = seed_text
            .parse()
            .map_err(|_| format!("chaos spec must start with a numeric seed, got '{seed_text}'"))?;
        let mut plan = FaultPlan::quiet(seed);
        for part in parts {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (name, value) = part
                .split_once('=')
                .ok_or_else(|| format!("chaos spec entry '{part}' is not <site>=<permil>"))?;
            let permil: u32 = value
                .parse()
                .ok()
                .filter(|&p| p <= 1000)
                .ok_or_else(|| format!("chaos rate '{value}' must be an integer 0..=1000"))?;
            match name.trim() {
                "all" => plan.rate_permil = [permil; FaultSite::ALL.len()],
                "max-latency-ms" => plan.max_latency_ms = u64::from(permil),
                site_name => match FaultSite::from_label(site_name) {
                    Some(site) => plan.rate_permil[site.index()] = permil,
                    None => {
                        let names: Vec<_> = FaultSite::ALL.iter().map(|s| s.label()).collect();
                        return Err(format!(
                            "unknown chaos site '{site_name}' (all|max-latency-ms|{})",
                            names.join("|")
                        ));
                    }
                },
            }
        }
        Ok(plan)
    }

    /// The seed the plan was built with.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The next deterministic draw for `(site, key)`: a full 64-bit
    /// word, with the draw index advanced.
    fn draw(&self, site: FaultSite, key: u64) -> u64 {
        let idx = {
            let mut counters = lock_ignore_poison(&self.counters);
            let c = counters.entry((site.index() as u8, key)).or_insert(0);
            let idx = *c;
            *c += 1;
            idx
        };
        // One splitmix step over the combined identity: stateless, so
        // the verdict depends only on (seed, site, key, idx).
        SplitMix64::new(
            self.seed ^ site.salt() ^ key.rotate_left(17) ^ idx.wrapping_mul(0xA076_1D64_78BD_642F),
        )
        .next_u64()
    }

    /// Decides whether the fault at `site` fires for this pass of job
    /// `key`, counting it when it does.
    #[must_use]
    pub fn decide(&self, site: FaultSite, key: u64) -> bool {
        let rate = self.rate_permil[site.index()];
        if rate == 0 {
            return false;
        }
        let fire = self.draw(site, key) % 1000 < u64::from(rate);
        if fire {
            self.injected[site.index()].fetch_add(1, Ordering::Relaxed);
        }
        fire
    }

    /// Latency to inject before admitting job `key` (zero when the
    /// latency site does not fire).
    #[must_use]
    pub fn latency(&self, key: u64) -> Duration {
        if !self.decide(FaultSite::JobLatency, key) {
            return Duration::ZERO;
        }
        // Deterministic magnitude in 1..=max, drawn separately so the
        // fire/no-fire bit keeps its meaning.
        let ms = if self.max_latency_ms == 0 {
            0
        } else {
            1 + self.draw(FaultSite::JobLatency, key ^ 0x5A5A) % self.max_latency_ms
        };
        Duration::from_millis(ms)
    }

    /// Picks the response-delivery fault for this pass of job `key`
    /// (first firing site wins, in drop → truncate → garbage order).
    #[must_use]
    pub fn response_fault(&self, key: u64) -> ResponseFault {
        if self.decide(FaultSite::DropResponse, key) {
            ResponseFault::DropMidWrite
        } else if self.decide(FaultSite::TruncateHttp, key) {
            ResponseFault::TruncatedHttp
        } else if self.decide(FaultSite::GarbageBytes, key) {
            ResponseFault::Garbage
        } else {
            ResponseFault::None
        }
    }

    /// Faults injected so far at `site`.
    #[must_use]
    pub fn injected(&self, site: FaultSite) -> u64 {
        self.injected[site.index()].load(Ordering::Relaxed)
    }

    /// Total faults injected across all sites.
    #[must_use]
    pub fn injected_total(&self) -> u64 {
        FaultSite::ALL.iter().map(|&s| self.injected(s)).sum()
    }

    /// Appends the per-site injected counters in Prometheus text
    /// format (rendered after the main metric set).
    #[must_use]
    pub fn render_metrics(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(512);
        let _ = writeln!(
            out,
            "# HELP recon_chaos_injected_total Faults injected by the chaos plane."
        );
        let _ = writeln!(out, "# TYPE recon_chaos_injected_total counter");
        for site in FaultSite::ALL {
            let _ = writeln!(
                out,
                "recon_chaos_injected_total{{site=\"{}\"}} {}",
                site.label(),
                self.injected(site)
            );
        }
        out
    }
}

/// Deterministic garbage bytes for [`ResponseFault::Garbage`]: not a
/// valid HTTP status line, not valid JSON, includes NULs and high bytes.
#[must_use]
pub fn garbage_bytes(seed: u64) -> Vec<u8> {
    let mut rng = SplitMix64::new(seed ^ 0x0BAD_5EED);
    let mut out = Vec::with_capacity(64);
    out.extend_from_slice(b"\x00\xfficky ");
    for _ in 0..56 {
        out.push((rng.next_u64() & 0xFF) as u8);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_seed_and_rates() {
        let p = FaultPlan::parse("42,all=100,latency=200,worker-panic=50").unwrap();
        assert_eq!(p.seed(), 42);
        assert_eq!(p.rate_permil[FaultSite::JobLatency.index()], 200);
        assert_eq!(p.rate_permil[FaultSite::WorkerPanic.index()], 50);
        assert_eq!(p.rate_permil[FaultSite::QueueBurst.index()], 100);
    }

    #[test]
    fn parse_rejects_bad_specs() {
        assert!(FaultPlan::parse("").is_err());
        assert!(FaultPlan::parse("x,all=10").is_err());
        assert!(FaultPlan::parse("1,bogus=10")
            .unwrap_err()
            .contains("bogus"));
        assert!(FaultPlan::parse("1,latency=1001").is_err());
        assert!(FaultPlan::parse("1,latency").is_err());
    }

    #[test]
    fn decisions_are_deterministic_per_site_key_and_index() {
        let a = FaultPlan::parse("7,all=500").unwrap();
        let b = FaultPlan::parse("7,all=500").unwrap();
        for key in [1u64, 2, 3] {
            for _ in 0..32 {
                assert_eq!(
                    a.decide(FaultSite::DropRequest, key),
                    b.decide(FaultSite::DropRequest, key)
                );
            }
        }
        assert_eq!(
            a.injected(FaultSite::DropRequest),
            b.injected(FaultSite::DropRequest)
        );
        assert!(a.injected(FaultSite::DropRequest) > 0, "50% over 96 draws");
    }

    #[test]
    fn interleaving_does_not_change_verdicts() {
        // The same (site, key) sequence gives the same verdicts whether
        // keys are interleaved or batched — the per-key counters are
        // independent.
        let a = FaultPlan::parse("9,all=300").unwrap();
        let b = FaultPlan::parse("9,all=300").unwrap();
        let mut batched = Vec::new();
        for key in 0..4u64 {
            for _ in 0..8 {
                batched.push((key, a.decide(FaultSite::QueueBurst, key)));
            }
        }
        let mut interleaved = Vec::new();
        for round in 0..8 {
            for key in 0..4u64 {
                let _ = round;
                interleaved.push((key, b.decide(FaultSite::QueueBurst, key)));
            }
        }
        batched.sort_unstable();
        interleaved.sort_unstable();
        assert_eq!(batched, interleaved);
    }

    #[test]
    fn different_seeds_differ() {
        let a = FaultPlan::parse("1,all=500").unwrap();
        let b = FaultPlan::parse("2,all=500").unwrap();
        let va: Vec<bool> = (0..64)
            .map(|_| a.decide(FaultSite::GarbageBytes, 11))
            .collect();
        let vb: Vec<bool> = (0..64)
            .map(|_| b.decide(FaultSite::GarbageBytes, 11))
            .collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn quiet_plan_never_fires() {
        let p = FaultPlan::quiet(3);
        for site in FaultSite::ALL {
            for key in 0..8 {
                assert!(!p.decide(site, key));
            }
        }
        assert_eq!(p.injected_total(), 0);
        assert_eq!(p.latency(1), Duration::ZERO);
        assert_eq!(p.response_fault(1), ResponseFault::None);
    }

    #[test]
    fn metrics_render_names_every_site() {
        let p = FaultPlan::parse("5,all=1000").unwrap();
        assert!(p.decide(FaultSite::WorkerPanic, 1));
        let text = p.render_metrics();
        for site in FaultSite::ALL {
            assert!(
                text.contains(&format!("site=\"{}\"", site.label())),
                "{text}"
            );
        }
        assert!(text.contains("site=\"worker-panic\"} 1"));
    }

    #[test]
    fn garbage_is_not_http() {
        let g = garbage_bytes(42);
        assert!(!g.starts_with(b"HTTP/"));
        assert_eq!(g, garbage_bytes(42));
        assert_ne!(g, garbage_bytes(43));
    }
}
