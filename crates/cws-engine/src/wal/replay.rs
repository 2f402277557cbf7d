//! Crash recovery: highest clean snapshot + bit-exact WAL tail replay.

use std::sync::Arc;

use cws_core::{CwsError, Result};

use crate::continuous::EpochedPipeline;
use crate::pipeline::PipelineBuilder;
use crate::store::{RecoveryReport, SnapshotStore};

/// What replaying the journal tail did — the WAL half of a
/// [`DurableRecovery`].
#[derive(Debug, Clone, Default)]
pub struct ReplayReport {
    /// Data frames whose records were replayed into the current epoch.
    pub frames_replayed: usize,
    /// Records/elements the replayed pushes accepted (the growth of the
    /// pipeline's `processed()` count). Each frame replays through the
    /// batch call that journaled it, so this equals what the original run
    /// ingested from the same frames.
    pub records_replayed: u64,
    /// Records/elements skipped because a durable snapshot already covers
    /// their epoch (their segments simply had not been pruned yet).
    pub records_skipped: u64,
    /// Replayed records the pipeline rejected or quarantined — exactly the
    /// records the original run did not ingest, so these were never in any
    /// summary. Exact because each frame replays through the call that
    /// journaled it (`push_columns` for records, `push_elements` for
    /// elements, the scalar calls for their one-record / one-element
    /// frames) with its weights bit-exact, and a summary is a
    /// deterministic function of its pushes: a batch the original run
    /// rejected part-way (whole chunks, the whole batch, or the records
    /// from the bad one on, depending on the back-end) is rejected
    /// identically. The one limit is a push larger than one frame (about
    /// 932k records at 8 assignments, or 3.36M elements), which replays
    /// frame by frame.
    pub rejected_records: u64,
    /// Bytes removed by torn-tail truncation when the journal was opened.
    pub truncated_bytes: u64,
    /// Journal segments condemned and quarantined when it was opened.
    pub quarantined_segments: usize,
    /// Abandoned temp files removed when the journal was opened.
    pub removed_temps: usize,
}

/// The result of [`recover_from_store_and_wal`]: a serving pipeline plus
/// the reports of both recovery layers.
#[derive(Debug)]
pub struct DurableRecovery {
    /// Ready to serve: `latest()` answers from the recovered snapshot (if
    /// any) and the current epoch already holds the replayed WAL tail.
    pub pipeline: EpochedPipeline,
    /// What [`SnapshotStore::recover`] found and did.
    pub store: RecoveryReport,
    /// What the journal replay found and did.
    pub replay: ReplayReport,
}

/// The 1-call recovery procedure for a journaled pipeline.
///
/// Opens the journal (truncating torn tails, quarantining condemned
/// segments), recovers the snapshot store, resumes serving from the
/// highest clean snapshot, and replays the journal tail — every frame not
/// covered by a durable snapshot — through the call that journaled it
/// ([`Ingest::push_columns`] for records, `push_elements` for elements,
/// the scalar calls for their one-record / one-element frames). Because a coordinated summary is a deterministic function
/// of `(records, seed)` and weights are journaled as raw bit patterns, the
/// recovered pipeline's next publish is **bit-identical** to the
/// undisturbed run's, down to which records of a partly rejected batch
/// were ingested.
///
/// A record is replayed when its epoch tag is newer than the last good
/// snapshot, *or* when its epoch has no snapshot on disk (a publish that
/// failed at the store layer, or a snapshot that was itself corrupted and
/// quarantined) — replay is conservative toward re-ingesting, never toward
/// losing.
///
/// [`Ingest::push_columns`]: crate::ingest::Ingest::push_columns
///
/// # Errors
/// [`CwsError::InvalidParameter`] when `builder` has no
/// [`journal`](PipelineBuilder::journal) configured; otherwise as
/// [`EpochedPipeline::new`] and [`SnapshotStore::recover`]. On-disk
/// corruption is never an error — it is truncated or quarantined and
/// reported.
pub fn recover_from_store_and_wal(
    builder: PipelineBuilder,
    store: &mut SnapshotStore,
) -> Result<DurableRecovery> {
    if !builder.has_journal() {
        return Err(CwsError::InvalidParameter {
            name: "journal",
            message: "recover_from_store_and_wal needs a journaled pipeline; \
                      configure PipelineBuilder::journal(WalConfig)"
                .to_string(),
        });
    }
    let mut pipeline = EpochedPipeline::new(builder)?;
    let store_report = store.recover()?;
    if let Some((epoch, summary)) = &store_report.last_good {
        pipeline.resume_from(*epoch, Arc::clone(summary));
    }
    let stored_epochs = store.epochs()?;
    let replay = pipeline.replay_journal(&stored_epochs)?;
    Ok(DurableRecovery { pipeline, store: store_report, replay })
}
