//! Byte pins of the result cache's two files.
//!
//! `cache.snap` and `cache.log` outlive the server that wrote them: a
//! restarted `recon serve --cache-dir` replays them. Their bytes are an
//! on-disk format, pinned here after two appends, after the reopen that
//! compacts them, and after one more append.

use std::path::Path;

use recon_serve::persist::CacheStore;

fn hex(path: &Path) -> String {
    std::fs::read(path)
        .expect("cache file exists")
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect()
}

#[test]
fn cache_files_are_byte_identical_across_appends_and_a_reopen() {
    let dir = std::env::temp_dir().join(format!("recon-cache-format-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (snap, log) = (dir.join("cache.snap"), dir.join("cache.log"));
    {
        let (mut store, entries, _) = CacheStore::open(&dir).expect("open empty");
        assert!(entries.is_empty());
        store.append(7, "{\"a\":1}").expect("append");
        store
            .append(0xFEED_F00D_0000_0009, "{\"b\":[2,3]}")
            .expect("append");
    }
    let two_appends = hex(&log);
    assert_eq!(
        two_appends,
        concat!(
            "524343310700000000000000070000007b2261223a317d9c8aad3021e421b0",
            "52434331090000000df0edfe0b0000007b2262223a5b322c335d7d2bae01df3fb8a7dd",
        ),
        "log after two appends"
    );
    assert_eq!(hex(&snap), "", "snapshot of the empty cache");

    let (mut store, entries, stats) = CacheStore::open(&dir).expect("reopen");
    assert_eq!(entries.len(), 2);
    assert_eq!((stats.recovered, stats.dropped), (2, 0));
    assert_eq!(hex(&snap), two_appends, "the reopen compacts the log");
    assert_eq!(hex(&log), "", "the reopen resets the log");

    store.append(11, "{\"c\":\"d\"}").expect("append");
    assert_eq!(
        hex(&log),
        "524343310b00000000000000090000007b2263223a2264227d2b3fdcda4fd57021",
        "log after one append past the reopen"
    );
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}
