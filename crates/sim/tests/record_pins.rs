//! Byte pins of every persisted record, with every field distinct.
//!
//! `ckpt_goldens` pins the `.res` files of a run whose counters are
//! mostly zero, so two swapped zero-valued fields would still pass it.
//! Here every counter of a two-core [`SystemResult`] is distinct and
//! non-zero, the [`StallReport`] carries one head with every option
//! present and one with every option absent, and the [`AuditReport`]
//! holds two violations. Each is pinned standalone, inside its `.res`
//! record, and (for the system) as the snapshot of a drained four-core
//! run. A pin is the record's length and the FxHash of its bytes.
//!
//! Every proper prefix of each pinned record must also fail to decode:
//! a torn record is never read as a shorter valid one.

use std::fs;
use std::hash::Hasher;
use std::path::PathBuf;

use recon::{AuditViolation, LptStats};
use recon_cpu::{CoreConfig, CoreStallInfo, CoreStats, HeadForensics, QueueOcc};
use recon_isa::hash::FxHasher;
use recon_isa::snap::{Record as _, SnapReader, SnapWriter};
use recon_mem::{MemConfig, MemStats};
use recon_secure::SecureConfig;
use recon_sim::ckpt::{self, Checkpoint};
use recon_sim::{AuditReport, Budget, SimError, StallReport, System, SystemResult};
use recon_workloads::gen::list::{self, ListParams};
use recon_workloads::gen::parallel::{generate, ParKind, ParallelParams};

/// `(length, FxHash)` of a byte string.
fn pin(bytes: &[u8]) -> (usize, u64) {
    let mut h = FxHasher::default();
    h.write(bytes);
    (bytes.len(), h.finish())
}

/// Every counter of a core distinct, offset by `base`.
fn distinct_core(base: u64) -> CoreStats {
    CoreStats {
        cycles: base + 1,
        committed: base + 2,
        loads_committed: base + 3,
        stores_committed: base + 4,
        branches_committed: base + 5,
        branch_mispredicts: base + 6,
        memory_violations: base + 7,
        squashed: base + 8,
        guarded_loads: base + 9,
        guarded_loads_committed: base + 10,
        loads_delayed_by_scheme: base + 11,
        scheme_delay_cycles: base + 12,
        revealed_loads_committed: base + 13,
        reveals_requested: base + 14,
        lpt: LptStats {
            loads_committed: base + 15,
            pairs_detected: base + 16,
            tag_conflicts: base + 17,
            deactivations: base + 18,
            installs_skipped_revealed: base + 19,
        },
        trace_dropped: base + 20,
        stall_head_load: base + 21,
        stall_head_store: base + 22,
        stall_head_branch: base + 23,
        stall_head_other: base + 24,
        stall_empty: base + 25,
    }
}

fn distinct_result() -> SystemResult {
    SystemResult {
        completed: true,
        cycles: 77_777,
        cores: vec![distinct_core(1_000), distinct_core(2_000)],
        mem: MemStats {
            l1_hits: 3_001,
            l2_hits: 3_002,
            llc_hits: 3_003,
            mem_fetches: 3_004,
            stores_performed: 3_005,
            upgrades: 3_006,
            remote_forwards: 3_007,
            invalidations: 3_008,
            reveals_set: 3_009,
            reveals_dropped: 3_010,
            conceals: 3_011,
            revealed_loads: 3_012,
            mask_bits_lost_inval: 3_013,
            mask_bits_lost_evict: 3_014,
            mask_merges: 3_015,
        },
    }
}

fn distinct_stall() -> StallReport {
    StallReport {
        cycle: 55_555,
        window: 10_000,
        cores: vec![
            CoreStallInfo {
                core: 0,
                committed: 41,
                halted: false,
                out_of_fuel: true,
                fetch_pc: 12,
                queues: vec![
                    QueueOcc {
                        name: "rob".into(),
                        len: 3,
                        cap: 32,
                    },
                    QueueOcc {
                        name: "sq".into(),
                        len: 1,
                        cap: 8,
                    },
                ],
                shadows: 2,
                guards_active: 4,
                head: Some(HeadForensics {
                    seq: 91,
                    pc: 6,
                    inst: "amoadd r3, [r1+0x0], r2".into(),
                    status: "waiting-issue".into(),
                    wait: "amo at head blocked on 1 younger store(s)".into(),
                    addr: Some(0x4000),
                    speculative: true,
                    delayed_by_scheme: true,
                    guarded_operands: vec![(5, 88), (9, 89)],
                    l1_state: Some("Modified".into()),
                    l2_state: Some("Shared".into()),
                    dir_state: Some("Owned".into()),
                    word_revealed: Some(true),
                    lpt_entry: Some(0x4010),
                }),
            },
            CoreStallInfo {
                core: 1,
                committed: 43,
                halted: true,
                out_of_fuel: false,
                fetch_pc: 14,
                queues: vec![QueueOcc {
                    name: "iq".into(),
                    len: 0,
                    cap: 16,
                }],
                shadows: 0,
                guards_active: 0,
                head: Some(HeadForensics {
                    seq: 95,
                    pc: 7,
                    inst: "ld r4, [r2+0x8]".into(),
                    status: "done".into(),
                    wait: "none".into(),
                    addr: None,
                    speculative: false,
                    delayed_by_scheme: false,
                    guarded_operands: Vec::new(),
                    l1_state: None,
                    l2_state: None,
                    dir_state: None,
                    word_revealed: None,
                    lpt_entry: None,
                }),
            },
        ],
    }
}

fn distinct_audit() -> AuditReport {
    AuditReport {
        cycle: 66_666,
        cadence: 256,
        violations: vec![
            AuditViolation::new("swmr", "mem.dir", "line 0x40: 2 writable copies"),
            AuditViolation::new("lpt-slot-map", "core1.lpt", "slot 3 holds tag 9"),
        ],
    }
}

fn result_bytes(r: &SystemResult) -> Vec<u8> {
    let mut w = SnapWriter::new();
    r.save_snap(&mut w);
    w.into_bytes()
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("recon-record-pins-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// The three persisted outcomes of [`distinct_result`].
fn outcomes() -> [(&'static str, Result<SystemResult, SimError>); 3] {
    let partial = SystemResult {
        completed: false,
        ..distinct_result()
    };
    [
        ("completed", Ok(distinct_result())),
        (
            "stalled",
            Err(SimError::Stalled {
                partial: Box::new(partial.clone()),
                report: Box::new(distinct_stall()),
            }),
        ),
        (
            "invariant-violated",
            Err(SimError::InvariantViolated {
                partial: Box::new(partial),
                report: Box::new(distinct_audit()),
            }),
        ),
    ]
}

/// The `.res` bytes of each outcome in [`outcomes`].
fn res_records() -> Vec<(&'static str, Vec<u8>)> {
    let dir = scratch("res");
    let meta = vec![("kind".to_string(), "pin".to_string())];
    let out = outcomes()
        .iter()
        .enumerate()
        .map(|(i, (name, outcome))| {
            let digest = 0xD15_0000 + i as u64;
            assert!(ckpt::write_record(&dir, digest, outcome, &meta).expect("write"));
            let bytes = fs::read(dir.join(format!("{digest:016x}.res"))).expect("read");
            let back = ckpt::read_record(&dir, digest).expect("record replays");
            match (&back, outcome) {
                (Ok(a), Ok(b)) => assert_eq!(a, b, "{name}"),
                (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string(), "{name}"),
                _ => panic!("{name}: outcome kind changed on replay"),
            }
            (*name, bytes)
        })
        .collect();
    let _ = fs::remove_dir_all(&dir);
    out
}

#[test]
fn outcome_records_are_pinned_with_every_field_distinct() {
    assert_eq!(
        pin(&result_bytes(&distinct_result())),
        (537, 7_734_097_544_276_188_927),
        "result"
    );
    assert_eq!(
        pin(&distinct_stall().to_bytes()),
        (474, 3_707_025_837_397_366_751),
        "stall"
    );
    assert_eq!(
        pin(&distinct_audit().to_bytes()),
        (126, 708_982_758_489_597_464),
        "audit"
    );

    assert_eq!(
        StallReport::from_bytes(&distinct_stall().to_bytes()),
        Ok(distinct_stall())
    );
    assert_eq!(
        AuditReport::from_bytes(&distinct_audit().to_bytes()),
        Ok(distinct_audit())
    );
    let bytes = result_bytes(&distinct_result());
    let mut r = SnapReader::new(&bytes);
    assert_eq!(SystemResult::load_snap(&mut r), Ok(distinct_result()));
    assert!(r.is_exhausted());
}

#[test]
fn res_records_are_pinned_with_every_field_distinct() {
    let pins: Vec<(&str, (usize, u64))> = res_records()
        .iter()
        .map(|(name, bytes)| (*name, pin(bytes)))
        .collect();
    assert_eq!(
        pins,
        [
            ("completed", (596, 8_317_213_232_481_149_731)),
            ("stalled", (1_092, 10_559_054_564_015_946_601)),
            ("invariant-violated", (755, 17_859_905_542_094_152_602)),
        ]
    );
}

#[test]
fn every_proper_prefix_of_a_pinned_record_is_rejected() {
    let result = result_bytes(&distinct_result());
    for cut in 0..result.len() {
        let mut r = SnapReader::new(&result[..cut]);
        assert!(SystemResult::load_snap(&mut r).is_err(), "result cut {cut}");
    }
    let stall = distinct_stall().to_bytes();
    for cut in 0..stall.len() {
        assert!(
            StallReport::from_bytes(&stall[..cut]).is_err(),
            "stall cut {cut}"
        );
    }
    let audit = distinct_audit().to_bytes();
    for cut in 0..audit.len() {
        assert!(
            AuditReport::from_bytes(&audit[..cut]).is_err(),
            "audit cut {cut}"
        );
    }
    for (name, bytes) in res_records() {
        for cut in 0..bytes.len() {
            assert!(
                Checkpoint::decode(&bytes[..cut]).is_err(),
                "{name} .res cut {cut}"
            );
        }
    }
}

#[test]
fn drained_four_core_snapshot_is_pinned() {
    let w = generate(ParallelParams {
        kind: ParKind::ProducerConsumer,
        slots: 64,
        cond_lines: 4,
        passes: 2,
        seed: 1,
    });
    let mut sys = System::new(
        &w,
        CoreConfig::tiny(),
        MemConfig::scaled(),
        SecureConfig::stt_recon(),
        recon::ReconConfig::default(),
    );
    let budget = Budget {
        max_cycles: Some(2_000),
        ..Budget::default()
    };
    let partial = sys
        .run_budgeted(10_000_000, &budget)
        .expect_err("the cycle cap stops the run")
        .into_partial();
    assert!(
        sys.drain(recon_sim::system::DRAIN_BOUND_CYCLES),
        "the pipelines drain"
    );
    assert_eq!(partial.cores.len(), 4);
    assert!(partial.cores.iter().any(|c| c.lpt.pairs_detected > 0));
    assert!(partial.mem.reveals_set > 0 && partial.mem.remote_forwards > 0);
    let bytes = sys.snapshot_bytes();
    assert_eq!(pin(&bytes), (23_277, 269_273_446_175_531_476), "snapshot");

    // The snapshot restores into a fresh system and re-encodes to the
    // same bytes.
    let mut fresh = System::new(
        &w,
        CoreConfig::tiny(),
        MemConfig::scaled(),
        SecureConfig::stt_recon(),
        recon::ReconConfig::default(),
    );
    fresh.restore_bytes(&bytes).expect("restores");
    assert!(fresh.snapshot_bytes() == bytes, "restore re-encodes");
}

/// Snapshots hold what the run changed: cache slots ever filled and
/// memory pages that differ from the program image. The drained
/// four-core snapshot above is 23,277 bytes (266,826 when it held every
/// way and every resident page), and the first checkpoint of a PARSEC
/// quick benchmark at a 20,000-cycle cadence stays under 1 MiB (about
/// 5 MB when it held every image page).
#[test]
fn a_parsec_checkpoint_holds_what_the_run_touched() {
    let bench = recon_workloads::find(
        recon_workloads::Suite::Parsec,
        "canneal",
        recon_workloads::Scale::Quick,
    )
    .expect("benchmark");
    let mut sys = System::new(
        &bench.workload,
        CoreConfig::default(),
        MemConfig::scaled_multicore(),
        SecureConfig::stt_recon(),
        recon::ReconConfig::default(),
    );
    let budget = Budget {
        checkpoint_every_cycles: Some(20_000),
        max_cycles: Some(20_001),
        ..Budget::default()
    };
    let mut first = None;
    let _ = sys.run_budgeted_checkpointed(u64::MAX, &budget, |cycle, bytes| {
        let ck = Checkpoint {
            config_digest: 0,
            cycle,
            meta: Vec::new(),
            state: bytes.to_vec(),
        };
        first.get_or_insert(ck.encode().len());
    });
    let bytes = first.expect("the run reached a checkpoint");
    assert!(bytes < 1 << 20, "{bytes} B");
}

/// A one-core system recording its pipeline trace (into a small ring
/// that has overflowed) and its load observations, so the snapshot
/// carries `TRCL` events and the observation list the four-core pin
/// leaves empty.
fn traced_one_core() -> System {
    let w = recon_workloads::Workload::single(list::generate(ListParams {
        nodes: 64,
        chains: 2,
        visits: 64,
        cond_lines: 4,
        payload_slots: 16,
        seed: 1,
    }));
    let core = CoreConfig {
        trace_capacity: 256,
        ..CoreConfig::tiny()
    };
    System::new(
        &w,
        core,
        MemConfig::scaled(),
        SecureConfig::stt_recon(),
        recon::ReconConfig::default(),
    )
}

#[test]
fn drained_traced_one_core_snapshot_is_pinned() {
    let mut sys = traced_one_core();
    sys.cores_mut()[0].record_trace(true);
    sys.cores_mut()[0].record_observations(true);
    let budget = Budget {
        max_cycles: Some(2_000),
        ..Budget::default()
    };
    sys.run_budgeted(10_000_000, &budget)
        .expect_err("the cycle cap stops the run");
    assert!(
        sys.drain(recon_sim::system::DRAIN_BOUND_CYCLES),
        "the pipeline drains"
    );
    assert!(sys.cores()[0].trace_dropped() > 0, "the ring overflowed");
    let bytes = sys.snapshot_bytes();
    assert_eq!(
        pin(&bytes),
        (17_628, 11_163_508_936_385_267_279),
        "traced snapshot"
    );

    let mut fresh = traced_one_core();
    fresh.restore_bytes(&bytes).expect("restores");
    assert!(fresh.snapshot_bytes() == bytes, "restore re-encodes");
    let core = &mut fresh.cores_mut()[0];
    assert!(!core.take_trace().is_empty(), "the ring holds events");
    assert!(!core.take_observations().is_empty(), "loads were observed");
}
