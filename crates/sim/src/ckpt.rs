//! Checkpoint files: versioned, checksummed snapshots of a running
//! simulation (`RCK1` format).
//!
//! A checkpoint is one file holding one drained-boundary snapshot
//! ([`crate::System::snapshot_bytes`]) plus enough metadata to rebuild
//! the system it came from (suite/bench/scheme/scale, cadence, budget).
//! The on-disk record follows the same discipline as `recon-serve`'s
//! cache log: magic, length, payload, and a trailing checksum over the
//! whole record, so a torn write (SIGKILL mid-checkpoint), a corrupted
//! byte, or a zero-length file is *detected* — recovery skips and
//! counts the bad file and falls back to an older checkpoint or a
//! from-scratch run, never to wrong bytes.
//!
//! Layout:
//!
//! ```text
//! "RCK1"            magic (4 bytes)
//! config_digest     u64 LE — identifies the (config, workload, cadence)
//! payload_len       u32 LE
//! payload           SnapWriter stream: tag "CKPT", cycle, meta, state
//! checksum          u64 LE — FxHash over digest || payload
//! ```
//!
//! Files are named `<digest:016x>-<cycle:020>.rck`, so a lexicographic
//! sort within one digest is a cycle sort and the newest checkpoint of
//! a job is `max()` over its files.

use std::fs;
use std::hash::Hasher;
use std::io;
use std::path::{Path, PathBuf};

use recon_isa::hash::FxHasher;
use recon_isa::snap::{SnapError, SnapReader, SnapWriter};
use recon_secure::SecureConfig;
use recon_workloads::Workload;

use crate::audit::AuditReport;
use crate::error::{Budget, SimError};
use crate::experiment::Experiment;
use crate::stall::StallReport;
use crate::system::{System, SystemResult};

/// File magic of the checkpoint format, version 1.
pub const MAGIC: [u8; 4] = *b"RCK1";

/// Extension used by checkpoint files.
pub const EXTENSION: &str = "rck";

/// A decoded checkpoint: the snapshot bytes plus identifying metadata.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Checkpoint {
    /// Digest of the run configuration (see [`config_digest`]); a
    /// checkpoint may only be restored into a system built from the
    /// same configuration.
    pub config_digest: u64,
    /// Simulated cycle the snapshot was taken at.
    pub cycle: u64,
    /// Ordered key/value metadata (suite, bench, scheme, scale,
    /// cadence, budget fields, optionally an embedded job spec).
    pub meta: Vec<(String, String)>,
    /// The [`crate::System::snapshot_bytes`] stream.
    pub state: Vec<u8>,
}

impl Checkpoint {
    /// Looks up a metadata value by key (first match).
    #[must_use]
    pub fn meta(&self, key: &str) -> Option<&str> {
        self.meta
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Encodes the checkpoint into the `RCK1` record bytes.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.tag(b"CKPT");
        w.u64(self.cycle);
        w.u32(self.meta.len() as u32);
        for (k, v) in &self.meta {
            w.str(k);
            w.str(v);
        }
        w.bytes(&self.state);
        let payload = w.into_bytes();

        let mut out = Vec::with_capacity(4 + 8 + 4 + payload.len() + 8);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&self.config_digest.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&payload);
        out.extend_from_slice(&checksum(self.config_digest, &payload).to_le_bytes());
        out
    }

    /// Decodes and verifies an `RCK1` record.
    ///
    /// # Errors
    ///
    /// Fails on bad magic, a length pointing past the end (torn write),
    /// a checksum mismatch (corruption), or a malformed payload. Every
    /// failure names what went wrong; none ever yields wrong state.
    pub fn decode(bytes: &[u8]) -> Result<Checkpoint, SnapError> {
        let fail = |what: &str, offset: usize| SnapError {
            what: what.to_string(),
            offset,
        };
        if bytes.len() < 4 + 8 + 4 + 8 {
            return Err(fail(
                "checkpoint shorter than its fixed header",
                bytes.len(),
            ));
        }
        if bytes[..4] != MAGIC {
            return Err(fail("bad checkpoint magic (want RCK1)", 0));
        }
        let config_digest = u64::from_le_bytes(bytes[4..12].try_into().expect("8 bytes"));
        let len = u32::from_le_bytes(bytes[12..16].try_into().expect("4 bytes")) as usize;
        let body_end = 16usize
            .checked_add(len)
            .ok_or_else(|| fail("checkpoint length overflows", 12))?;
        if body_end + 8 != bytes.len() {
            return Err(fail(
                "checkpoint length does not match the file (torn or truncated write)",
                12,
            ));
        }
        let payload = &bytes[16..body_end];
        let stored = u64::from_le_bytes(bytes[body_end..body_end + 8].try_into().expect("8"));
        if stored != checksum(config_digest, payload) {
            return Err(fail(
                "checkpoint checksum mismatch (corrupt record)",
                body_end,
            ));
        }

        let mut r = SnapReader::new(payload);
        r.expect_tag(b"CKPT")?;
        let cycle = r.u64()?;
        let meta_count = r.u32()? as usize;
        let mut meta = Vec::with_capacity(meta_count);
        for _ in 0..meta_count {
            let k = r.str()?;
            let v = r.str()?;
            meta.push((k, v));
        }
        let state = r.bytes()?.to_vec();
        Ok(Checkpoint {
            config_digest,
            cycle,
            meta,
            state,
        })
    }
}

/// The record checksum: FxHash over the config digest and the payload.
#[must_use]
pub fn checksum(config_digest: u64, payload: &[u8]) -> u64 {
    let mut h = FxHasher::default();
    h.write_u64(config_digest);
    h.write(payload);
    h.finish()
}

/// Digests a run configuration from its textual parts (Debug-formatted
/// configs, workload identity, checkpoint cadence). Checkpoints only
/// resume into a system whose parts digest identically.
#[must_use]
pub fn config_digest(parts: &[&str]) -> u64 {
    let mut h = FxHasher::default();
    for p in parts {
        h.write(p.as_bytes());
        h.write_u8(0x1f); // separator: ("ab","c") != ("a","bc")
    }
    h.finish()
}

/// The key of a persisted run: [`config_digest`] over `parts` (the
/// job's identity, cadence included) followed by every knob of `budget`
/// that changes the run's outcome and is set. `fast_forward` is spelled
/// as a bare decimal and `audit_every_cycles` as `audit{n}`, then come
/// `wd{n}`, `fuel{n}` and `max_cycles{n}`. Unset knobs add nothing, so
/// a run keeps the digest (and the records) it had before a knob
/// existed. Cancellation is not part of the key: a cancelled run
/// persists no outcome.
#[must_use]
pub fn run_digest(parts: &[&str], budget: &Budget) -> u64 {
    let knobs = [
        budget.fast_forward.map(|n| n.to_string()),
        budget.audit_every_cycles.map(|n| format!("audit{n}")),
        budget.watchdog_cycles.map(|n| format!("wd{n}")),
        budget.fuel.map(|n| format!("fuel{n}")),
        budget.max_cycles.map(|n| format!("max_cycles{n}")),
    ];
    let mut all = parts.to_vec();
    all.extend(knobs.iter().flatten().map(String::as_str));
    config_digest(&all)
}

/// Canonical file name of a checkpoint: digest then zero-padded cycle,
/// so a lexicographic sort within one digest is a cycle sort.
#[must_use]
pub fn file_name(config_digest: u64, cycle: u64) -> String {
    format!("{config_digest:016x}-{cycle:020}.{EXTENSION}")
}

/// Writes a checkpoint into `dir` under its canonical name, creating
/// the directory if needed. The bytes land in a `.tmp` sibling first
/// and are renamed into place, so a process killed mid-write never
/// leaves a partial file under the canonical name — a torn `.rck` can
/// only come from an OS-level crash (and [`Checkpoint::decode`]'s
/// checksum rejects it then).
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write(dir: &Path, ck: &Checkpoint) -> io::Result<PathBuf> {
    write_atomic(dir, &file_name(ck.config_digest, ck.cycle), ck)
}

/// Writes `ck` to `dir/name` through a `.tmp` sibling and a rename.
fn write_atomic(dir: &Path, name: &str, ck: &Checkpoint) -> io::Result<PathBuf> {
    fs::create_dir_all(dir)?;
    let path = dir.join(name);
    let tmp = path.with_extension("tmp");
    fs::write(&tmp, ck.encode())?;
    fs::rename(&tmp, &path)?;
    Ok(path)
}

/// Result of scanning a checkpoint directory.
#[derive(Debug, Default)]
pub struct Scan {
    /// Valid checkpoints, newest cycle first, grouped arbitrarily
    /// across digests.
    pub valid: Vec<(PathBuf, Checkpoint)>,
    /// Files that failed to decode (torn, corrupt, zero-length). The
    /// caller decides whether to delete them; scanning never does.
    pub corrupt: Vec<PathBuf>,
}

impl Scan {
    /// The newest valid checkpoint for `config_digest`, if any.
    #[must_use]
    pub fn latest_for(&self, config_digest: u64) -> Option<&(PathBuf, Checkpoint)> {
        self.valid
            .iter()
            .filter(|(_, c)| c.config_digest == config_digest)
            .max_by_key(|(_, c)| c.cycle)
    }
}

/// Scans `dir` for `*.rck` files, decoding each. A missing directory
/// scans as empty (a fresh run). Files are visited in sorted name
/// order, so the result is deterministic.
///
/// # Errors
///
/// Propagates filesystem errors other than the directory not existing.
pub fn scan(dir: &Path) -> io::Result<Scan> {
    let mut out = Scan::default();
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(out),
        Err(e) => return Err(e),
    };
    let mut paths: Vec<PathBuf> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == EXTENSION))
        .collect();
    paths.sort();
    for path in paths {
        match fs::read(&path).ok().as_deref().map(Checkpoint::decode) {
            Some(Ok(ck)) => out.valid.push((path, ck)),
            _ => out.corrupt.push(path),
        }
    }
    out.valid.sort_by_key(|e| std::cmp::Reverse(e.1.cycle));
    Ok(out)
}

/// Deletes all but the newest `keep` valid checkpoints of
/// `config_digest` in `dir`. Returns how many files were removed.
///
/// # Errors
///
/// Propagates filesystem errors (a file vanishing mid-GC is not one).
pub fn gc(dir: &Path, config_digest: u64, keep: usize) -> io::Result<usize> {
    let scan = scan(dir)?;
    let mut mine: Vec<&(PathBuf, Checkpoint)> = scan
        .valid
        .iter()
        .filter(|(_, c)| c.config_digest == config_digest)
        .collect();
    mine.sort_by_key(|e| std::cmp::Reverse(e.1.cycle));
    let mut deleted = 0;
    for (path, _) in mine.into_iter().skip(keep) {
        if fs::remove_file(path).is_ok() {
            deleted += 1;
        }
    }
    Ok(deleted)
}

/// Deletes every checkpoint file (valid or corrupt) of `config_digest`
/// in `dir` — called when the job they belong to completes. Returns
/// how many files were removed.
///
/// # Errors
///
/// Propagates filesystem errors from the scan.
pub fn delete_for_digest(dir: &Path, config_digest: u64) -> io::Result<usize> {
    let prefix = format!("{config_digest:016x}-");
    let scan = scan(dir)?;
    let mut deleted = 0;
    for path in scan.valid.iter().map(|(p, _)| p).chain(scan.corrupt.iter()) {
        let matches = path
            .file_name()
            .and_then(|n| n.to_str())
            .is_some_and(|n| n.starts_with(&prefix));
        if matches && fs::remove_file(path).is_ok() {
            deleted += 1;
        }
    }
    Ok(deleted)
}

/// Extension used by outcome records (suite resume).
pub const RESULT_EXTENSION: &str = "res";

/// Meta key distinguishing record kinds in a `.res` file: absent for a
/// completed run, else [`OUTCOME_STALLED`] or [`OUTCOME_AUDIT`].
pub const OUTCOME_KEY: &str = "outcome";

/// [`OUTCOME_KEY`] value for a persisted stall record.
pub const OUTCOME_STALLED: &str = "stalled";

/// [`OUTCOME_KEY`] value for a persisted invariant-violation record.
pub const OUTCOME_AUDIT: &str = "invariant-violated";

/// Writes the outcome record of a run, `<digest:016x>.res`: the `RCK1`
/// envelope around the (partial) [`SystemResult`]. A stall or an
/// invariant violation appends its serialized [`StallReport`] or
/// [`AuditReport`] and sets [`OUTCOME_KEY`] in the meta, so a restarted
/// server or suite explains the job's failure instead of re-running a
/// deterministic deadlock. Deadline and cancel outcomes depend on the
/// caller's patience, not on the configuration, so they are not
/// persisted.
///
/// Returns whether `outcome` is one that is persisted.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_record(
    dir: &Path,
    config_digest: u64,
    outcome: &Result<SystemResult, SimError>,
    meta: &[(String, String)],
) -> io::Result<bool> {
    let mut w = SnapWriter::new();
    let (result, label) = match outcome {
        Ok(r) => {
            r.save_snap(&mut w);
            (r, None)
        }
        Err(SimError::Stalled { partial, report }) => {
            partial.save_snap(&mut w);
            report.save_snap(&mut w);
            (&**partial, Some(OUTCOME_STALLED))
        }
        Err(SimError::InvariantViolated { partial, report }) => {
            partial.save_snap(&mut w);
            report.save_snap(&mut w);
            (&**partial, Some(OUTCOME_AUDIT))
        }
        Err(SimError::DeadlineExceeded { .. } | SimError::Cancelled { .. }) => return Ok(false),
    };
    let mut meta = meta.to_vec();
    if let Some(label) = label {
        meta.retain(|(k, _)| k != OUTCOME_KEY);
        meta.push((OUTCOME_KEY.to_string(), label.to_string()));
    }
    let ck = Checkpoint {
        config_digest,
        cycle: result.cycles,
        meta,
        state: w.into_bytes(),
    };
    write_atomic(
        dir,
        &format!("{config_digest:016x}.{RESULT_EXTENSION}"),
        &ck,
    )?;
    Ok(true)
}

/// Reads the outcome record of `config_digest` written by
/// [`write_record`]. Returns `None` when absent or unreadable — a
/// corrupt record simply means the job re-runs, never that wrong
/// numbers are reported.
#[must_use]
pub fn read_record(dir: &Path, config_digest: u64) -> Option<Result<SystemResult, SimError>> {
    let path = dir.join(format!("{config_digest:016x}.{RESULT_EXTENSION}"));
    let bytes = fs::read(path).ok()?;
    let ck = Checkpoint::decode(&bytes).ok()?;
    if ck.config_digest != config_digest {
        return None;
    }
    let mut r = SnapReader::new(&ck.state);
    let partial = Box::new(SystemResult::load_snap(&mut r).ok()?);
    Some(match ck.meta(OUTCOME_KEY) {
        Some(OUTCOME_STALLED) => Err(SimError::Stalled {
            partial,
            report: Box::new(StallReport::load_snap(&mut r).ok()?),
        }),
        Some(OUTCOME_AUDIT) => Err(SimError::InvariantViolated {
            partial,
            report: Box::new(AuditReport::load_snap(&mut r).ok()?),
        }),
        _ => Ok(*partial),
    })
}

/// The completed result recorded for `config_digest`, if any (a
/// stalled job never masquerades as a completed one).
#[must_use]
pub fn read_result(dir: &Path, config_digest: u64) -> Option<SystemResult> {
    read_record(dir, config_digest)?.ok()
}

/// What a checkpointed run did, for logs and metrics.
#[derive(Clone, Debug, Default)]
pub struct CkptRunInfo {
    /// The run was skipped entirely: a completion record existed.
    pub result_cached: bool,
    /// The run was skipped because a *stall* record existed: the job
    /// deterministically deadlocks and re-running it would only stall
    /// again, so the persisted diagnostic is replayed instead.
    pub stall_cached: bool,
    /// Cycle the run resumed from, when a valid checkpoint was found.
    pub resumed_from_cycle: Option<u64>,
    /// Checkpoints written during this run.
    pub checkpoints_written: u64,
    /// Corrupt/torn checkpoint files dropped during recovery.
    pub dropped_corrupt: u64,
    /// Checkpoint files GC'd (older than the keep window).
    pub gc_deleted: u64,
    /// Newest checkpoint file left on disk when the run stopped early
    /// (the resumable ref a deadline response can carry). `None` after
    /// a completed run: completion deletes the job's checkpoints.
    pub last_checkpoint: Option<PathBuf>,
}

/// Checkpointing policy for [`run_with_checkpoints`].
#[derive(Clone, Debug)]
pub struct CkptContext {
    /// Directory holding `*.rck` checkpoints and `*.res` records.
    pub dir: PathBuf,
    /// Snapshot cadence in cycles.
    pub cadence: u64,
    /// Checkpoints retained per job digest (older ones are GC'd).
    pub keep: usize,
}

impl CkptContext {
    /// A context with the default retention (2 checkpoints per job).
    #[must_use]
    pub fn new(dir: PathBuf, cadence: u64) -> Self {
        CkptContext {
            dir,
            cadence,
            keep: 2,
        }
    }
}

/// Runs one (workload, scheme) job with crash-safe checkpointing:
///
/// 1. a persisted outcome record ([`read_record`]) short-circuits the
///    run: a completed result replays (suite resume), a stall or an
///    invariant violation replays its original diagnostic — a
///    deterministic failure is explained, not silently re-run;
/// 2. otherwise the newest valid checkpoint of `digest` is restored
///    (corrupt/torn files are dropped and counted, never trusted);
/// 3. the run proceeds under `base` plus the checkpoint cadence,
///    writing a checkpoint file at every drained boundary and keeping
///    the newest `ctx.keep`;
/// 4. a completed, stalled or violated outcome writes its record
///    ([`write_record`]) and deletes the checkpoints; a deadline/cancel
///    stop leaves them for the next attempt and reports the newest as
///    `last_checkpoint`.
///
/// A record replays for every run under the same `digest`, so `digest`
/// must key each knob of `base` that changes the outcome (as
/// [`run_digest`] does).
///
/// On resume, `base.fuel` is ignored: the per-core fuel remaining at
/// the checkpoint rides in the snapshot, so the original budget stays
/// exact across kills.
///
/// # Errors
///
/// Exactly as [`System::run_budgeted`]; filesystem problems degrade to
/// running without persistence, never to wrong results.
pub fn run_with_checkpoints(
    exp: &Experiment,
    workload: &Workload,
    secure: SecureConfig,
    base: &Budget,
    ctx: &CkptContext,
    meta: &[(String, String)],
    digest: u64,
) -> (Result<SystemResult, SimError>, CkptRunInfo) {
    let mut info = CkptRunInfo::default();
    if let Some(outcome) = read_record(&ctx.dir, digest) {
        // Every persisted outcome is deterministic for its digest:
        // replay it instead of simulating (a stall would only burn the
        // watchdog window again to rediscover the deadlock).
        info.result_cached = outcome.is_ok();
        info.stall_cached = outcome.is_err();
        return (outcome, info);
    }

    let mut sys = System::new(workload, exp.core, exp.mem, secure, exp.recon);
    let mut budget = Budget {
        checkpoint_every_cycles: Some(ctx.cadence),
        ..base.clone()
    };
    if let Ok(found) = scan(&ctx.dir) {
        // Only drop corrupt files belonging to THIS job: a sibling
        // job's checkpoint mid-write scans as corrupt, and deleting it
        // would throw away someone else's progress.
        let own = format!("{digest:016x}-");
        // Stale `.tmp` siblings (a kill between write and rename) are
        // litter, never loaded: sweep this job's own (checkpoint and
        // result-record temps share the digest prefix).
        let own_any = format!("{digest:016x}");
        if let Ok(rd) = fs::read_dir(&ctx.dir) {
            for e in rd.filter_map(Result::ok) {
                let p = e.path();
                let stale_tmp = p.extension().is_some_and(|x| x == "tmp")
                    && p.file_name()
                        .and_then(|n| n.to_str())
                        .is_some_and(|n| n.starts_with(&own_any));
                if stale_tmp {
                    let _ = fs::remove_file(&p);
                }
            }
        }
        for p in &found.corrupt {
            let mine = p
                .file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with(&own));
            if mine && fs::remove_file(p).is_ok() {
                info.dropped_corrupt += 1;
            }
        }
        if let Some((path, ck)) = found.latest_for(digest) {
            if sys.restore_bytes(&ck.state).is_ok() {
                info.resumed_from_cycle = Some(ck.cycle);
                // The snapshot carries each core's remaining fuel.
                budget.fuel = None;
            } else {
                // A checkpoint that decodes but does not fit this
                // system's shape is stale: drop it and start over.
                let _ = fs::remove_file(path);
                info.dropped_corrupt += 1;
                sys = System::new(workload, exp.core, exp.mem, secure, exp.recon);
            }
        }
    }

    let mut written = 0u64;
    let mut gc_deleted = 0u64;
    let mut last = None;
    let r = sys.run_budgeted_checkpointed(exp.max_cycles, &budget, |cycle, bytes| {
        let ck = Checkpoint {
            config_digest: digest,
            cycle,
            meta: meta.to_vec(),
            state: bytes.to_vec(),
        };
        if let Ok(path) = write(&ctx.dir, &ck) {
            written += 1;
            last = Some(path);
            gc_deleted += gc(&ctx.dir, digest, ctx.keep).unwrap_or(0) as u64;
        }
    });
    info.checkpoints_written = written;
    info.gc_deleted = gc_deleted;
    info.last_checkpoint = last;
    // A persisted outcome ends the job, even if its record could not be
    // written; a deadline or cancel leaves the checkpoints for a retry.
    if write_record(&ctx.dir, digest, &r, meta).unwrap_or(true) {
        let _ = delete_for_digest(&ctx.dir, digest);
        info.last_checkpoint = None;
    }
    (r, info)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(cycle: u64) -> Checkpoint {
        Checkpoint {
            config_digest: 0xABCD,
            cycle,
            meta: vec![
                ("bench".to_string(), "leela".to_string()),
                ("scheme".to_string(), "stt".to_string()),
            ],
            state: vec![1, 2, 3, 4, 5],
        }
    }

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("recon-ckpt-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_result() -> SystemResult {
        SystemResult {
            completed: false,
            cycles: 9_000,
            cores: vec![],
            mem: recon_mem::MemStats::default(),
        }
    }

    fn sample_report() -> StallReport {
        StallReport {
            cycle: 9_000,
            window: 4_096,
            cores: vec![],
        }
    }

    #[test]
    fn stall_record_round_trips_and_hides_from_read_result() {
        let dir = tmpdir("stallrec");
        let partial = sample_result();
        let report = sample_report();
        let meta = vec![("bench".to_string(), "x".to_string())];
        let stalled = Err(SimError::Stalled {
            partial: Box::new(partial.clone()),
            report: Box::new(report.clone()),
        });
        assert!(write_record(&dir, 0x77, &stalled, &meta).unwrap());
        // A stall record must never surface as a completed result.
        assert!(read_result(&dir, 0x77).is_none());
        match read_record(&dir, 0x77) {
            Some(Err(SimError::Stalled {
                partial: p,
                report: r,
            })) => {
                assert_eq!(*p, partial);
                assert_eq!(*r, report);
            }
            other => panic!("expected stalled record, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn completed_record_still_reads_as_result() {
        let dir = tmpdir("complrec");
        let res = sample_result();
        assert!(write_record(&dir, 0x88, &Ok(res.clone()), &[]).unwrap());
        assert_eq!(read_result(&dir, 0x88), Some(res.clone()));
        assert!(matches!(
            read_record(&dir, 0x88),
            Some(Ok(r)) if r == res
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn deadline_and_cancel_outcomes_are_not_persisted() {
        let dir = tmpdir("norec");
        let stops = [
            SimError::DeadlineExceeded {
                partial: Box::new(sample_result()),
                reason: crate::DeadlineReason::Fuel,
            },
            SimError::Cancelled {
                partial: Box::new(sample_result()),
            },
        ];
        for e in stops {
            assert!(!write_record(&dir, 0x99, &Err(e), &[]).unwrap());
        }
        assert!(read_record(&dir, 0x99).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_digest_keys_exactly_the_set_knobs() {
        let parts = ["run", "mcf", "stt", "500000"];
        assert_eq!(
            run_digest(&parts, &Budget::default()),
            config_digest(&parts),
            "an unset knob adds nothing"
        );
        let ff = Budget {
            fast_forward: Some(1_000),
            ..Budget::default()
        };
        assert_eq!(
            run_digest(&parts, &ff),
            config_digest(&["run", "mcf", "stt", "500000", "1000"])
        );
        let knobs = [
            Budget {
                audit_every_cycles: Some(64),
                ..Budget::default()
            },
            Budget {
                watchdog_cycles: Some(20),
                ..Budget::default()
            },
            Budget {
                watchdog_cycles: Some(0),
                ..Budget::default()
            },
            Budget::with_fuel(1_000),
            Budget {
                max_cycles: Some(1_000),
                ..Budget::default()
            },
            ff,
        ];
        let mut digests: Vec<u64> = knobs.iter().map(|b| run_digest(&parts, b)).collect();
        digests.push(config_digest(&parts));
        digests.sort_unstable();
        digests.dedup();
        assert_eq!(digests.len(), knobs.len() + 1, "every knob keys the run");
        let cancel = Budget {
            cancel: Some(std::sync::Arc::default()),
            ..Budget::default()
        };
        assert_eq!(run_digest(&parts, &cancel), config_digest(&parts));
    }

    #[test]
    fn encode_decode_round_trips() {
        let ck = sample(42);
        let decoded = Checkpoint::decode(&ck.encode()).unwrap();
        assert_eq!(decoded, ck);
        assert_eq!(decoded.meta("bench"), Some("leela"));
        assert_eq!(decoded.meta("missing"), None);
    }

    #[test]
    fn every_truncation_is_rejected() {
        let bytes = sample(42).encode();
        for cut in 0..bytes.len() {
            assert!(
                Checkpoint::decode(&bytes[..cut]).is_err(),
                "torn record of {cut} bytes must not decode"
            );
        }
    }

    #[test]
    fn every_single_byte_flip_is_rejected() {
        let bytes = sample(42).encode();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x01;
            assert!(
                Checkpoint::decode(&bad).is_err(),
                "flip at byte {i} must not decode"
            );
        }
    }

    #[test]
    fn config_digest_separates_parts() {
        assert_ne!(config_digest(&["ab", "c"]), config_digest(&["a", "bc"]));
        assert_eq!(config_digest(&["a", "b"]), config_digest(&["a", "b"]));
    }

    #[test]
    fn file_names_sort_by_cycle() {
        let a = file_name(7, 99);
        let b = file_name(7, 100);
        assert!(a < b, "{a} < {b}");
    }

    #[test]
    fn scan_finds_latest_and_counts_corrupt() {
        let dir = tmpdir("scan");
        write(&dir, &sample(10)).unwrap();
        write(&dir, &sample(30)).unwrap();
        write(&dir, &sample(20)).unwrap();
        // A torn record and an empty file.
        fs::write(dir.join(file_name(0xABCD, 40)), &sample(40).encode()[..7]).unwrap();
        fs::write(dir.join(file_name(0xABCD, 50)), b"").unwrap();

        let scan = scan(&dir).unwrap();
        assert_eq!(scan.valid.len(), 3);
        assert_eq!(scan.corrupt.len(), 2);
        let (_, latest) = scan.latest_for(0xABCD).unwrap();
        assert_eq!(latest.cycle, 30, "corrupt newer files are skipped");
        assert!(scan.latest_for(0x9999).is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_directory_scans_empty() {
        let scan = scan(Path::new("/nonexistent/recon-ckpt")).unwrap();
        assert!(scan.valid.is_empty() && scan.corrupt.is_empty());
    }

    #[test]
    fn gc_keeps_newest_n() {
        let dir = tmpdir("gc");
        for cycle in [10, 20, 30, 40] {
            write(&dir, &sample(cycle)).unwrap();
        }
        let deleted = gc(&dir, 0xABCD, 2).unwrap();
        assert_eq!(deleted, 2);
        let scan = scan(&dir).unwrap();
        let cycles: Vec<u64> = scan.valid.iter().map(|(_, c)| c.cycle).collect();
        assert_eq!(cycles, vec![40, 30]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn delete_for_digest_removes_corrupt_too() {
        let dir = tmpdir("del");
        write(&dir, &sample(10)).unwrap();
        fs::write(dir.join(file_name(0xABCD, 20)), b"junk").unwrap();
        let mut other = sample(99);
        other.config_digest = 0x1111;
        write(&dir, &other).unwrap();

        assert_eq!(delete_for_digest(&dir, 0xABCD).unwrap(), 2);
        let scan = scan(&dir).unwrap();
        assert_eq!(scan.valid.len(), 1, "other digest untouched");
        assert_eq!(scan.valid[0].1.config_digest, 0x1111);
        fs::remove_dir_all(&dir).unwrap();
    }
}
