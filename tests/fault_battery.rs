//! The fault battery: deterministic failure injection across the whole
//! service stack.
//!
//! Locks down the robustness contract end to end:
//!
//! * a crash during a snapshot write **at every byte offset** leaves the
//!   store recoverable to the last good epoch bit-exactly;
//! * the codec round-trips bit-exactly through hostile I/O (1-byte-at-a-
//!   time, `ErrorKind::Interrupted` noise);
//! * `.quarantined` forensics files stay bounded by the store's retention
//!   under sustained rot;
//! * re-ingesting chunked column batches into a fresh same-seed sampler
//!   converges to the undisturbed summary, and a multi-seed stress run
//!   (`CWS_FAULT_SEEDS=1,2,3 …`) rots one plan-chosen byte of it at rest
//!   and proves the scrubber catches it.

use std::io::ErrorKind;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use coordinated_sampling::core::fault::{
    FailingWriter, InterruptingReader, InterruptingWriter, ShortReader, ShortWriter,
};
use coordinated_sampling::prelude::*;
use coordinated_sampling::stream::MultiAssignmentStreamSampler;
use cws_engine::store::{Scrubber, SnapshotStore};

/// A fresh scratch directory under the OS temp dir (no tempfile crate in
/// the offline build).
fn scratch_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let unique = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("cws-fault-{tag}-{}-{unique}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).unwrap();
    }
    dir
}

/// A small dispersed-layout pipeline (tiny `k` keeps encoded snapshots a
/// few hundred bytes, so every-byte crash loops stay fast).
fn small_builder() -> PipelineBuilder {
    Pipeline::builder().assignments(2).k(4).layout(Layout::Dispersed).seed(77)
}

fn small_summary(keys: std::ops::Range<u64>) -> Summary {
    let mut pipeline = small_builder().build().unwrap();
    for key in keys {
        pipeline.push_record(key, &[((key % 7) + 1) as f64, ((key % 3) + 1) as f64]).unwrap();
    }
    pipeline.finalize().unwrap()
}

/// Crash-during-write at **every byte offset** of a snapshot: whether the
/// torn prefix is left as an uncommitted `.tmp` (the atomic-publish case)
/// or under a final epoch name (disk corruption), recovery must quarantine
/// or remove it and resume from the last good epoch **bit-exactly**.
#[test]
fn crash_at_every_byte_offset_recovers_to_last_good_epoch() {
    let epoch1 = small_summary(0..120);
    let epoch1_bytes = epoch1.to_bytes();
    let epoch2 = small_summary(120..260);
    let epoch2_bytes = epoch2.to_bytes();

    let dir = scratch_dir("everybyte");
    let mut store = SnapshotStore::open(&dir, 16).unwrap();
    store.publish(1, &epoch1).unwrap();
    let torn_final = store.epoch_path(2);
    let torn_temp = dir.join("epoch-00000000000000000003.cws.tmp");

    for offset in 0..epoch2_bytes.len() {
        // Model the crash with the seedable fault framework: a writer that
        // dies at `offset` leaves exactly the prefix a real crash would.
        let mut writer = FailingWriter::new(Vec::new(), offset as u64, ErrorKind::WriteZero);
        assert!(epoch2.write_to(&mut writer).is_err(), "offset {offset}");
        let torn = writer.into_inner();
        assert_eq!(torn, &epoch2_bytes[..offset]);

        std::fs::write(&torn_final, &torn).unwrap();
        std::fs::write(&torn_temp, &torn).unwrap();

        let report = store.recover().unwrap();
        assert_eq!(report.removed_temps, 1, "offset {offset}");
        assert_eq!(report.quarantined.len(), 1, "offset {offset}");
        assert_eq!(report.quarantined[0].epoch, 2);
        let (epoch, recovered) = report.last_good.expect("epoch 1 must survive");
        assert_eq!(epoch, 1, "offset {offset}");
        assert_eq!(
            recovered.to_bytes(),
            epoch1_bytes,
            "recovery must be bit-exact at offset {offset}"
        );
        assert!(!torn_temp.exists());
        assert!(!torn_final.exists(), "the torn file must be quarantined away");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Satellite: `write_to`/`read_from` driven through 1-byte-at-a-time I/O
/// round-trip bit-exactly for both layouts.
#[test]
fn codec_roundtrips_through_one_byte_io() {
    let dispersed = small_summary(0..200);
    let colocated = {
        let mut pipeline = Pipeline::builder()
            .assignments(3)
            .k(8)
            .layout(Layout::Colocated)
            .seed(5)
            .build()
            .unwrap();
        for key in 0..150u64 {
            pipeline.push_record(key, &[(key % 4) as f64, ((key % 6) + 1) as f64, 1.0]).unwrap();
        }
        pipeline.finalize().unwrap()
    };
    for summary in [dispersed, colocated] {
        let reference = summary.to_bytes();
        let mut writer = ShortWriter::new(Vec::new(), 1);
        summary.write_to(&mut writer).unwrap();
        let written = writer.into_inner();
        assert_eq!(written, reference, "1-byte writes must not alter the stream");
        let mut reader = ShortReader::new(written.as_slice(), 1);
        let decoded = Summary::read_from(&mut reader).unwrap();
        assert_eq!(decoded, summary);
        assert_eq!(decoded.to_bytes(), reference);
    }
}

/// Satellite: `ErrorKind::Interrupted` noise on a seeded schedule must be
/// absorbed by the codec's retry loops — bit-exact round-trip, typed error
/// never.
#[test]
fn codec_roundtrips_through_interrupted_io() {
    let summary = small_summary(0..250);
    let reference = summary.to_bytes();
    for seed in [1u64, 2, 3, 4, 5] {
        let mut writer = InterruptingWriter::new(Vec::new(), FaultPlan::new(seed), 2);
        summary.write_to(&mut writer).unwrap();
        let written = writer.into_inner();
        assert_eq!(written, reference, "seed {seed}");
        let mut reader =
            InterruptingReader::new(written.as_slice(), FaultPlan::new(seed.wrapping_mul(31)), 2);
        let decoded = Summary::read_from(&mut reader).unwrap();
        assert_eq!(decoded.to_bytes(), reference, "seed {seed}");
    }
}

/// Satellite: `.quarantined` forensics files must not accumulate without
/// bound — recovery and scrubbing both prune them to the store's epoch
/// retention (or the scrubber's own override).
#[test]
fn quarantined_file_accumulation_is_bounded() {
    let dir = scratch_dir("qbound");
    let retention = 3usize;
    let mut store = SnapshotStore::open(&dir, retention).unwrap();
    let good = small_summary(0..100);
    store.publish(1, &good).unwrap();

    // Years of rot: many epochs corrupted on disk, quarantined one by one.
    let scrubber = Scrubber::new();
    for epoch in 2..=12u64 {
        store.publish(epoch, &good).unwrap();
        let path = store.epoch_path(epoch);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let report = scrubber.scrub(&mut store).unwrap();
        assert_eq!(report.quarantined.len(), 1, "epoch {epoch}");
        let forensics = std::fs::read_dir(&dir)
            .unwrap()
            .filter(|entry| {
                entry.as_ref().unwrap().file_name().to_string_lossy().ends_with(".quarantined")
            })
            .count();
        assert!(
            forensics <= retention,
            "epoch {epoch}: {forensics} forensics files exceed retention {retention}"
        );
    }

    // Recovery applies the same bound, and a zero-retention scrub empties
    // the forensics shelf entirely.
    let report = store.recover().unwrap();
    assert!(report.last_good.is_some());
    let report = Scrubber::new().with_quarantine_retention(0).scrub(&mut store).unwrap();
    assert!(report.pruned_quarantined > 0);
    let leftover = std::fs::read_dir(&dir)
        .unwrap()
        .filter(|entry| {
            entry.as_ref().unwrap().file_name().to_string_lossy().ends_with(".quarantined")
        })
        .count();
    assert_eq!(leftover, 0);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Re-ingesting the durable source as chunked column batches into a fresh
/// same-seed sampler must converge to the undisturbed record-at-a-time
/// summary bit-exactly. Each seed then derives an at-rest fault (which
/// byte rots, and how) from a [`FaultPlan`].
///
/// CI's stress job widens coverage with `CWS_FAULT_SEEDS=1,2,3,…` in
/// release mode; the default single seed keeps tier-1 fast.
#[test]
fn multi_seed_fault_stress_converges_after_reingest() {
    let seeds: Vec<u64> = std::env::var("CWS_FAULT_SEEDS")
        .unwrap_or_else(|_| "1".to_string())
        .split(',')
        .filter(|s| !s.trim().is_empty())
        .map(|s| s.trim().parse().expect("CWS_FAULT_SEEDS must be comma-separated integers"))
        .collect();

    const ASSIGNMENTS: usize = 5;
    let config = coordinated_sampling::core::summary::SummaryConfig::new(
        16,
        RankFamily::Ipps,
        CoordinationMode::SharedSeed,
        21,
    );
    let records: Vec<(u64, [f64; ASSIGNMENTS])> = (0..600u64)
        .map(|key| {
            (key, std::array::from_fn(|b| ((key * (b as u64 + 3)) % (11 + b as u64)) as f64))
        })
        .collect();
    let batches: Vec<RecordColumns> = records
        .chunks(64)
        .map(|chunk| {
            let mut batch = RecordColumns::new(ASSIGNMENTS);
            for (key, weights) in chunk {
                batch.push(*key, weights);
            }
            batch
        })
        .collect();
    let mut sequential = MultiAssignmentStreamSampler::new(config, ASSIGNMENTS);
    for (key, weights) in &records {
        sequential.push_record(*key, weights).unwrap();
    }
    let expected = sequential.finalize();

    // Recovery: re-ingest the durable source into a fresh same-seed
    // sampler, one column batch at a time.
    let mut fresh = MultiAssignmentStreamSampler::new(config, ASSIGNMENTS);
    for batch in &batches {
        fresh.push_columns(batch).unwrap();
    }
    let recovered = fresh.finalize();
    assert_eq!(recovered, expected, "recovery must be bit-exact");

    // Scrub phase: persist the recovered epoch, rot one plan-chosen byte at
    // rest, and prove the scrubber catches it while recovery still restores
    // the previous good epoch bit-exactly.
    for &seed in &seeds {
        let mut plan = FaultPlan::new(seed);
        let dir = scratch_dir(&format!("stress-scrub-{seed}"));
        let mut store = SnapshotStore::open(&dir, 4).unwrap();
        let good = Summary::Dispersed(expected.clone());
        store.publish(1, &good).unwrap();
        store.publish(2, &Summary::Dispersed(recovered.clone())).unwrap();
        let rotten_path = store.epoch_path(2);
        let mut bytes = std::fs::read(&rotten_path).unwrap();
        let offset = plan.next_below(bytes.len() as u64) as usize;
        bytes[offset] ^= 1 + plan.next_below(255) as u8;
        std::fs::write(&rotten_path, &bytes).unwrap();
        let report = Scrubber::new().scrub(&mut store).unwrap();
        assert_eq!(
            report.quarantined.len(),
            1,
            "seed {seed}: the scrubber must catch the flip at offset {offset}"
        );
        assert_eq!(report.quarantined[0].epoch, 2);
        assert_eq!(report.verified, vec![1], "seed {seed}");
        let (epoch, from_disk) = store.recover().unwrap().last_good.expect("epoch 1 survives");
        assert_eq!(epoch, 1, "seed {seed}");
        assert_eq!(from_disk.to_bytes(), good.to_bytes(), "seed {seed}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
