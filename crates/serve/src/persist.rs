//! Crash-safe persistence for the result cache: a checksummed snapshot
//! plus an append-only log under `--cache-dir`.
//!
//! Both files are a sequence of records in the envelope checkpoint
//! files also use ([`recon_isa::snap::seal`]): magic `RCC1`, the cache
//! key as digest, the payload length (capped at [`MAX_BODY`]), the JSON
//! body, and a checksum over key and body.
//!
//! Recovery reads `cache.snap` (the last compaction) and then
//! `cache.log` (appends since), stopping at the first record that is
//! torn or fails its checksum. The damaged tail is **truncated, never
//! served**: a crash mid-append costs at most the record being written,
//! and the count of dropped records is reported so operators can see it
//! (`recon_cache_dropped_records_total`). After recovery the surviving
//! entries are compacted back into a fresh snapshot (written to a
//! temporary file and atomically renamed) and the log is reset, so the
//! log only ever holds the delta since startup.

use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};

use recon_isa::snap;

use crate::http::MAX_BODY;

/// Record magic.
const MAGIC: [u8; 4] = *b"RCC1";

/// Snapshot file name inside the cache directory.
const SNAP_NAME: &str = "cache.snap";

/// Append-log file name inside the cache directory.
const LOG_NAME: &str = "cache.log";

/// What recovery found when opening a cache directory.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct RecoveryStats {
    /// Entries recovered (last write per digest wins).
    pub recovered: u64,
    /// Torn or corrupt records dropped from file tails.
    pub dropped: u64,
    /// Bytes truncated off damaged tails.
    pub truncated_bytes: u64,
}

/// The persistence handle: an open append log plus the directory paths.
#[derive(Debug)]
pub struct CacheStore {
    dir: PathBuf,
    log: BufWriter<File>,
}

/// Replays one file into `out`, truncating a damaged tail in place.
fn replay_file(
    path: &Path,
    out: &mut Vec<(u64, String)>,
    stats: &mut RecoveryStats,
) -> io::Result<()> {
    let Ok(bytes) = std::fs::read(path) else {
        return Ok(()); // absent file: nothing to recover
    };
    let mut rest = &bytes[..];
    while !rest.is_empty() {
        let record = snap::open(rest, &MAGIC, MAX_BODY)
            .ok()
            .and_then(|(digest, payload, tail)| {
                Some((digest, String::from_utf8(payload.to_vec()).ok()?, tail))
            });
        let Some((digest, payload, tail)) = record else {
            // Torn or corrupt from here on: count what we can no
            // longer trust as one dropped tail record, truncate, and
            // stop. Nothing past this point is served.
            let good_end = bytes.len() - rest.len();
            stats.dropped += 1;
            stats.truncated_bytes += rest.len() as u64;
            OpenOptions::new()
                .write(true)
                .open(path)?
                .set_len(good_end as u64)?;
            break;
        };
        out.push((digest, payload));
        rest = tail;
    }
    Ok(())
}

/// What [`CacheStore::open`] hands back: the store, the recovered
/// `(digest, payload)` entries, and the recovery statistics.
pub type Opened = (CacheStore, Vec<(u64, String)>, RecoveryStats);

impl CacheStore {
    /// Opens (creating if needed) a cache directory, recovering every
    /// intact entry and compacting them into a fresh snapshot.
    ///
    /// # Errors
    ///
    /// I/O errors creating the directory or files. Corrupt *contents*
    /// are never an error — damaged tails are truncated and counted in
    /// the returned [`RecoveryStats`].
    pub fn open(dir: &Path) -> io::Result<Opened> {
        std::fs::create_dir_all(dir)?;
        let mut stats = RecoveryStats::default();
        let mut entries = Vec::new();
        replay_file(&dir.join(SNAP_NAME), &mut entries, &mut stats)?;
        replay_file(&dir.join(LOG_NAME), &mut entries, &mut stats)?;

        // Last write per digest wins; earlier duplicates are dropped
        // (determinism makes duplicates identical, but the rule is
        // still stated).
        entries.reverse();
        let mut seen = std::collections::HashSet::new();
        entries.retain(|(digest, _)| seen.insert(*digest));
        entries.reverse();
        stats.recovered = entries.len() as u64;

        // Compact: snapshot = everything recovered, log = empty.
        let tmp = dir.join("cache.snap.tmp");
        {
            let mut w = BufWriter::new(File::create(&tmp)?);
            for (digest, payload) in &entries {
                w.write_all(&snap::seal(&MAGIC, *digest, payload.as_bytes()))?;
            }
            w.flush()?;
            w.get_ref().sync_all()?;
        }
        std::fs::rename(&tmp, dir.join(SNAP_NAME))?;
        let log_file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(dir.join(LOG_NAME))?;
        let store = CacheStore {
            dir: dir.to_path_buf(),
            log: BufWriter::new(log_file),
        };
        Ok((store, entries, stats))
    }

    /// Appends one entry to the log and flushes it to the OS, so a
    /// `kill -9` after this call never loses the record (a power
    /// failure may cost the tail — which recovery then truncates).
    ///
    /// # Errors
    ///
    /// File I/O errors (callers log and continue: persistence is an
    /// accelerator, never a correctness dependency).
    pub fn append(&mut self, digest: u64, payload: &str) -> io::Result<()> {
        self.log
            .write_all(&snap::seal(&MAGIC, digest, payload.as_bytes()))?;
        self.log.flush()
    }

    /// The directory this store persists into.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("recon-persist-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn round_trips_across_reopen() {
        let dir = tmp_dir("roundtrip");
        {
            let (mut store, entries, stats) = CacheStore::open(&dir).unwrap();
            assert!(entries.is_empty());
            assert_eq!(stats, RecoveryStats::default());
            store.append(7, "{\"a\":1}").unwrap();
            store.append(9, "{\"b\":2}").unwrap();
        }
        let (_store, entries, stats) = CacheStore::open(&dir).unwrap();
        assert_eq!(stats.recovered, 2);
        assert_eq!(stats.dropped, 0);
        assert_eq!(
            entries,
            vec![(7, "{\"a\":1}".to_string()), (9, "{\"b\":2}".to_string())]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_not_served() {
        let dir = tmp_dir("torn");
        {
            let (mut store, _, _) = CacheStore::open(&dir).unwrap();
            store.append(1, "{\"ok\":true}").unwrap();
            store.append(2, "{\"ok\":true}").unwrap();
        }
        // Tear the log mid-record: keep the first record plus a few
        // bytes of the second.
        let log = dir.join(LOG_NAME);
        let len = std::fs::metadata(&log).unwrap().len();
        let f = OpenOptions::new().write(true).open(&log).unwrap();
        f.set_len(len - 5).unwrap();
        drop(f);

        let (_store, entries, stats) = CacheStore::open(&dir).unwrap();
        assert_eq!(stats.recovered, 1, "only the intact record survives");
        assert_eq!(stats.dropped, 1, "the torn tail is counted");
        assert!(stats.truncated_bytes > 0);
        assert_eq!(entries[0].0, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_log_cut_anywhere_keeps_exactly_the_whole_records_before_the_cut() {
        let dir = tmp_dir("cuts");
        let payloads = ["{\"a\":1}", "{\"bb\":22}", "{\"ccc\":333}"];
        {
            let (mut store, _, _) = CacheStore::open(&dir).unwrap();
            for (i, p) in payloads.iter().enumerate() {
                store.append(i as u64, p).unwrap();
            }
        }
        let log = std::fs::read(dir.join(LOG_NAME)).unwrap();
        let mut ends = vec![0];
        for p in payloads {
            ends.push(ends.last().unwrap() + snap::ENVELOPE_BYTES + p.len());
        }
        assert_eq!(*ends.last().unwrap(), log.len());
        for cut in 0..=log.len() {
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(dir.join(LOG_NAME), &log[..cut]).unwrap();
            let (_store, entries, stats) = CacheStore::open(&dir).unwrap();
            let whole = ends.iter().rposition(|&e| e <= cut).unwrap();
            let kept: Vec<&str> = entries.iter().map(|(_, p)| p.as_str()).collect();
            assert_eq!(kept, payloads[..whole], "cut at {cut}");
            let torn = cut != ends[whole];
            assert_eq!(stats.dropped, u64::from(torn), "cut at {cut}");
            assert_eq!(stats.truncated_bytes, (cut - ends[whole]) as u64);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_checksum_is_dropped() {
        let dir = tmp_dir("corrupt");
        {
            let (mut store, _, _) = CacheStore::open(&dir).unwrap();
            store.append(1, "{\"k\":1}").unwrap();
            store.append(2, "{\"k\":2}").unwrap();
        }
        // Flip a payload byte inside the *second* record.
        let log = dir.join(LOG_NAME);
        let mut bytes = std::fs::read(&log).unwrap();
        let n = bytes.len();
        bytes[n - 12] ^= 0xFF;
        std::fs::write(&log, &bytes).unwrap();

        let (_store, entries, stats) = CacheStore::open(&dir).unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(stats.dropped, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovery_compacts_into_the_snapshot() {
        let dir = tmp_dir("compact");
        {
            let (mut store, _, _) = CacheStore::open(&dir).unwrap();
            store.append(1, "{\"x\":1}").unwrap();
        }
        {
            let (mut store, entries, _) = CacheStore::open(&dir).unwrap();
            assert_eq!(entries.len(), 1);
            // After compaction the log is empty and the snapshot holds
            // the entry.
            assert_eq!(std::fs::metadata(dir.join(LOG_NAME)).unwrap().len(), 0);
            assert!(std::fs::metadata(dir.join(SNAP_NAME)).unwrap().len() > 0);
            store.append(2, "{\"x\":2}").unwrap();
        }
        let (_store, entries, stats) = CacheStore::open(&dir).unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(stats.recovered, 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn duplicate_digests_keep_the_last_write() {
        let dir = tmp_dir("dup");
        {
            let (mut store, _, _) = CacheStore::open(&dir).unwrap();
            store.append(5, "{\"v\":\"old\"}").unwrap();
            store.append(5, "{\"v\":\"new\"}").unwrap();
        }
        let (_store, entries, _) = CacheStore::open(&dir).unwrap();
        assert_eq!(entries, vec![(5, "{\"v\":\"new\"}".to_string())]);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
