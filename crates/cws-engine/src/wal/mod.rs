//! Write-ahead ingestion journal: crash-consistent recovery with bit-exact
//! replay.
//!
//! A coordinated bottom-k summary is a *deterministic* function of the
//! input records and the hash seed — the property every estimator in this
//! workspace builds on. This module exploits the same property for
//! durability: the one state a crash can destroy (records ingested since
//! the last published epoch) can be reconstructed **bit-exactly** by
//! replaying a durable log of the pushes, each frame through the call
//! that journaled it: a records frame is one [`Ingest::push_columns`], an
//! elements frame one `push_elements`, and the one-record / one-element
//! frames of the scalar calls go back through those calls. Replay
//! therefore accepts, rejects and flushes early exactly where the
//! original run did. The one limit: a push larger than one frame (about
//! 932k records at 8 assignments, or 3.36M elements) is journaled as
//! several frames and replays frame by frame.
//!
//! The pieces, bottom-up:
//!
//! * `frame` — length-prefixed, checksummed record batches, encoded
//!   straight from a [`RecordColumns`](cws_core::columns::RecordColumns)
//!   batch and decoded back into one. Every frame carries the **epoch
//!   tag** it will publish under; weights travel as raw IEEE-754 bit
//!   patterns, the summary codec's convention.
//! * `segment` — `wal-<seq>.cwsj` files with a checksummed header,
//!   created through the shared atomic-write sequence.
//! * `journal` — the segmented log: appends, rotation at a byte cap,
//!   the [`SyncPolicy`] fsync knob, open-time torn-tail recovery that
//!   truncates exactly at the last clean frame, disk governance via
//!   [`ResourceBudget`](cws_core::budget::ResourceBudget) (a full journal
//!   is a typed `BudgetExceeded`, never silent truncation), and epoch
//!   watermarks: once a snapshot covers an epoch, the sealed segments
//!   holding it are pruned.
//! * `replay` — [`recover_from_store_and_wal`], the 1-call recovery
//!   procedure: highest clean snapshot from the
//!   [`SnapshotStore`](crate::store::SnapshotStore), then the journal tail
//!   replayed into the current epoch.
//!
//! Attach a journal with
//! [`PipelineBuilder::journal`](crate::pipeline::PipelineBuilder::journal);
//! the epoched pipeline journals every push *before* ingesting it and
//! writes an epoch barrier inside
//! [`publish_into`](crate::continuous::EpochedPipeline::publish_into).
//!
//! [`Ingest::push_columns`]: crate::ingest::Ingest::push_columns

pub(crate) mod frame;
pub(crate) mod journal;
pub(crate) mod replay;
pub(crate) mod segment;

pub use journal::{Journal, SyncPolicy, WalConfig, WalOpenReport};
pub use replay::{recover_from_store_and_wal, DurableRecovery, ReplayReport};
