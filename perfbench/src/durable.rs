//! `durable_columns`: the write path with durability on.
//!
//! One producer pushes `RecordColumns` batches through a journaled
//! `EpochedPipeline` (default `WalConfig`: fsync per batch, 1 MiB segments)
//! and publishes into a `SnapshotStore` every few batches. At the end it
//! pushes an unpublished tail, drops the pipeline as a crash would, and
//! times `recover_from_store_and_wal` on copies of the on-disk state.

use std::path::Path;
use std::time::{Duration, Instant};

use cws_core::columns::RecordColumns;
use cws_core::summary::SummaryConfig;
use cws_core::{CoordinationMode, RankFamily};
use cws_engine::{
    recover_from_store_and_wal, EpochedPipeline, Ingest, Layout, Pipeline, PipelineBuilder,
    SnapshotStore, Summary, WalConfig,
};
use cws_stream::MultiAssignmentStreamSampler;

use crate::common::{
    copy_dir, hash_seed, median_epoch_rate, ms, zipf_columns, Counters, Tally, ASSIGNMENTS,
};
use crate::trace::{timed, Tracer};
use crate::{Phase, Shape};

/// Snapshots the store keeps.
const RETENTION: usize = 4;

/// The generated stream, cut into push batches.
pub struct Fixture {
    batches: Vec<RecordColumns>,
    seed: u64,
}

/// Generates the correlated-Zipf stream of `shape.keys` records.
pub fn setup(shape: &Shape, seed: u64) -> Fixture {
    let batches = zipf_columns(shape.keys, seed).split(shape.batch);
    Fixture { batches, seed: hash_seed(seed) }
}

fn builder(shape: &Shape, seed: u64) -> PipelineBuilder {
    Pipeline::builder()
        .assignments(ASSIGNMENTS)
        .k(shape.k)
        .rank(RankFamily::Ipps)
        .coordination(CoordinationMode::SharedSeed)
        .layout(Layout::Dispersed)
        .seed(seed)
}

/// The same input fed through the layers beneath, one layer at a time.
struct Beneath {
    pipeline: Pipeline,
    sampler: MultiAssignmentStreamSampler,
    epoched: EpochedPipeline,
    store: SnapshotStore,
    last_bytes: Vec<u8>,
}

impl Beneath {
    fn new(shape: &Shape, seed: u64, dir: &Path) -> cws_core::Result<Self> {
        Ok(Self {
            pipeline: builder(shape, seed).build()?,
            sampler: Self::sampler(shape, seed),
            epoched: EpochedPipeline::new(builder(shape, seed))?,
            store: SnapshotStore::open(dir.join("beneath-store"), RETENTION)?,
            last_bytes: Vec::new(),
        })
    }

    fn sampler(shape: &Shape, seed: u64) -> MultiAssignmentStreamSampler {
        let config =
            SummaryConfig::new(shape.k, RankFamily::Ipps, CoordinationMode::SharedSeed, seed);
        MultiAssignmentStreamSampler::new(config, ASSIGNMENTS)
    }
}

/// Runs the closed loop for about `budget`, then the crash and the
/// recoveries. With `origin`, every call is traced and the layers beneath
/// are timed on the same input.
pub fn run(
    fx: &Fixture,
    shape: &Shape,
    budget: Duration,
    dir: &Path,
    origin: Option<Instant>,
) -> Phase {
    let mut tally = Tally::default();
    let mut phase = Phase::default();
    let mut tracer = origin.map(Tracer::new);
    let mut counters = Counters::default();
    let wal_dir = dir.join("wal");
    let store_dir = dir.join("store");
    let journaled = || builder(shape, fx.seed).journal(WalConfig::new(&wal_dir));
    let Some(mut pipeline) = tally.op("EpochedPipeline::new", EpochedPipeline::new(journaled()))
    else {
        return phase.failed(tally);
    };
    let Some(mut store) =
        tally.op("SnapshotStore::open", SnapshotStore::open(&store_dir, RETENTION))
    else {
        return phase.failed(tally);
    };
    let mut beneath = match tracer {
        Some(_) => tally.op("beneath", Beneath::new(shape, fx.seed, dir)),
        None => None,
    };

    let mut push_ms = Vec::new();
    let mut publish_ms = Vec::new();
    let mut cursor = 0usize;
    let mut offered = 0u64;
    let mut reported = 0u64;
    let mut epoch_ms = Vec::new();
    let start = Instant::now();
    let mut epoch_start = start;
    let root = tracer.as_mut().map(|t| t.enter("workload.durable"));
    let mut push = |pipeline: &mut EpochedPipeline,
                    tracer: &mut Option<Tracer>,
                    beneath: &mut Option<Beneath>,
                    counters: &mut Counters,
                    tally: &mut Tally,
                    batch: &RecordColumns| {
        let (result, elapsed) = match (tracer.as_mut(), beneath.as_mut()) {
            (Some(tracer), Some(beneath)) => {
                let before = pipeline.journal().map_or(0, |j| j.total_bytes());
                let id = tracer.enter("EpochedPipeline::push_columns");
                let out = timed(|| pipeline.push_columns(batch));
                tracer.exit(id);
                let after = pipeline.journal().map_or(0, |j| j.total_bytes());
                counters.wal_bytes += after.saturating_sub(before);
                counters.wal_records += batch.len() as u64;
                let (pipeline_time, sampler_time) = tracer.exclude(|| {
                    let pipeline_time = timed(|| beneath.pipeline.push_columns(batch)).1;
                    let sampler_time = timed(|| beneath.sampler.push_columns(batch)).1;
                    let _ = beneath.epoched.push_columns(batch);
                    (pipeline_time, sampler_time)
                });
                let ids = tracer.place(id, &[("Pipeline::push_columns", pipeline_time)]);
                tracer
                    .place(ids[0], &[("MultiAssignmentStreamSampler::push_columns", sampler_time)]);
                out
            }
            _ => timed(|| pipeline.push_columns(batch)),
        };
        push_ms.push(ms(elapsed));
        tally.op("EpochedPipeline::push_columns", result);
    };

    loop {
        for _ in 0..shape.batches_per_epoch {
            let batch = &fx.batches[cursor % fx.batches.len()];
            cursor += 1;
            offered += batch.len() as u64;
            push(&mut pipeline, &mut tracer, &mut beneath, &mut counters, &mut tally, batch);
        }
        let result = match (tracer.as_mut(), beneath.as_mut()) {
            (Some(tracer), Some(beneath)) => {
                counters
                    .wal_segments
                    .add(pipeline.journal().map_or(0, |j| j.num_segments()) as f64);
                let id = tracer.enter("EpochedPipeline::publish_into");
                let out = timed(|| pipeline.publish_into(&mut store));
                tracer.exit(id);
                let parts = tracer.exclude(|| time_publish_beneath(beneath, shape, fx.seed));
                match parts {
                    Ok((publish_time, store_time, finalize_time, encode_time)) => {
                        let ids = tracer.place(
                            id,
                            &[
                                ("EpochedPipeline::publish", publish_time),
                                ("SnapshotStore::publish", store_time),
                            ],
                        );
                        tracer.place(
                            ids[0],
                            &[("MultiAssignmentStreamSampler::finalize", finalize_time)],
                        );
                        tracer.place(ids[1], &[("Summary::to_bytes", encode_time)]);
                        counters.snapshot_bytes.add(beneath.last_bytes.len() as f64);
                    }
                    Err(error) => {
                        tally.op::<(), _>("publish through the layers beneath", Err(error));
                    }
                }
                out
            }
            _ => timed(|| pipeline.publish_into(&mut store)),
        };
        publish_ms.push(ms(result.1));
        if let Some(report) = tally.op("EpochedPipeline::publish_into", result.0) {
            reported += report.records;
            let distinct = report.summary.num_distinct_keys() as f64;
            counters.union_keys_ratio.add(distinct / (ASSIGNMENTS * shape.k) as f64);
        }
        let now = Instant::now();
        epoch_ms.push(ms(now - epoch_start));
        epoch_start = now;
        if start.elapsed() >= budget {
            break;
        }
    }
    let published = offered;
    let tail_start = cursor;
    for _ in 0..shape.tail_batches {
        let batch = &fx.batches[cursor % fx.batches.len()];
        cursor += 1;
        offered += batch.len() as u64;
        push(&mut pipeline, &mut tracer, &mut beneath, &mut counters, &mut tally, batch);
    }
    let ingest_wall = start.elapsed();
    let ingest_excluded = tracer.as_ref().map_or(Duration::ZERO, Tracer::excluded);

    tally.check(reported == published, || {
        format!("epoch reports add up to {reported} records, {published} were offered")
    });
    tally.check(pipeline.quarantined_lifetime().is_none(), || {
        "records were quarantined from a valid stream".to_string()
    });
    let epochs = pipeline.epochs_published();
    // The crash: everything since the last publish lives only in the WAL.
    drop(pipeline);

    let tail_records = offered - published;
    let reference = match &mut tracer {
        Some(tracer) => tracer.exclude(|| tail_reference(fx, shape, tail_start)),
        None => tail_reference(fx, shape, tail_start),
    };
    let reference = tally.op("undisturbed tail", reference);
    let mut recover_ms = Vec::new();
    for attempt in 0..shape.recoveries {
        let copy = dir.join(format!("recover-{attempt}"));
        let copy_beneath = dir.join(format!("recover-beneath-{attempt}"));
        let prepared = match &mut tracer {
            Some(tracer) => tracer.exclude(|| {
                copy_dir(&wal_dir, &copy.join("wal"))?;
                copy_dir(&store_dir, &copy.join("store"))?;
                copy_dir(&store_dir, &copy_beneath)
            }),
            None => copy_dir(&wal_dir, &copy.join("wal"))
                .and_then(|()| copy_dir(&store_dir, &copy.join("store"))),
        };
        if tally.op("copy the crashed state", prepared).is_none() {
            continue;
        }
        let Some(mut copied_store) =
            tally.op("SnapshotStore::open", SnapshotStore::open(copy.join("store"), RETENTION))
        else {
            continue;
        };
        let builder = builder(shape, fx.seed).journal(WalConfig::new(copy.join("wal")));
        let (result, elapsed) = match &mut tracer {
            Some(tracer) => {
                let id = tracer.enter("recover_from_store_and_wal");
                let out = timed(|| recover_from_store_and_wal(builder, &mut copied_store));
                tracer.exit(id);
                let last_bytes = beneath.as_ref().map_or(&[][..], |b| &b.last_bytes[..]);
                let parts = tracer.exclude(|| {
                    let recover =
                        SnapshotStore::open(&copy_beneath, RETENTION).and_then(|mut store| {
                            let epochs = store.epochs()?.len();
                            Ok((timed(|| store.recover()).1, epochs))
                        });
                    let decode = timed(|| Summary::from_bytes(last_bytes)).1;
                    recover.map(|(recover, epochs)| (recover, decode, epochs))
                });
                if let Some((recover_time, decode_time, files)) =
                    tally.op("SnapshotStore::recover beneath", parts)
                {
                    let ids = tracer.place(id, &[("SnapshotStore::recover", recover_time)]);
                    // Recovery decodes every retained snapshot, then re-reads
                    // the newest one.
                    let decodes = vec![("Summary::from_bytes", decode_time); files + 1];
                    tracer.place(ids[0], &decodes);
                }
                out
            }
            None => timed(|| recover_from_store_and_wal(builder, &mut copied_store)),
        };
        recover_ms.push(ms(elapsed));
        if let Some(recovered) = tally.op("recover_from_store_and_wal", result) {
            counters.records_replayed.add(recovered.replay.records_replayed as f64);
            tally.check(recovered.replay.records_replayed == tail_records, || {
                format!(
                    "recovery replayed {} records, the unpublished tail held {tail_records}",
                    recovered.replay.records_replayed
                )
            });
            tally.check(recovered.pipeline.epochs_published() == epochs, || {
                "recovery resumed from an older epoch than the last published".to_string()
            });
            if attempt == 0 {
                if let (Some(reference), Some(summary)) = (
                    &reference,
                    tally.op("finalize the recovered tail", recovered.pipeline.finalize()),
                ) {
                    tally.check(summary.to_bytes() == *reference, || {
                        "the recovered tail epoch differs from an undisturbed pipeline's"
                            .to_string()
                    });
                }
            }
        }
        let _ = std::fs::remove_dir_all(&copy);
        let _ = std::fs::remove_dir_all(&copy_beneath);
    }
    if let (Some(tracer), Some(root)) = (tracer.as_mut(), root) {
        tracer.exit(root);
    }

    let ingest_s = ingest_wall.as_secs_f64();
    phase.rates.push(("ingest_rec_per_s", offered as f64 / ingest_s, "rec/s"));
    phase.work = (offered as f64, ingest_s - ingest_excluded.as_secs_f64());
    phase.throughput_per_s = median_epoch_rate(&epoch_ms, shape);
    phase.series = vec![
        ("push", push_ms),
        ("publish", publish_ms),
        ("epoch", epoch_ms),
        ("recover", recover_ms),
    ];
    phase.tally = tally;
    phase.counters = counters;
    phase.threads = tracer.map(|t| vec![t.into_spans()]).unwrap_or_default();
    phase
}

/// Publishes the layers beneath: the unjournaled `EpochedPipeline`, the
/// store, the raw sampler's finalize and the codec, each timed alone.
fn time_publish_beneath(
    beneath: &mut Beneath,
    shape: &Shape,
    seed: u64,
) -> cws_core::Result<(Duration, Duration, Duration, Duration)> {
    let (report, publish_time) = timed(|| beneath.epoched.publish());
    let report = report?;
    let (bytes, encode_time) = timed(|| report.summary.to_bytes());
    let (stored, store_time) = timed(|| beneath.store.publish(report.epoch, &report.summary));
    stored?;
    let sampler = std::mem::replace(&mut beneath.sampler, Beneath::sampler(shape, seed));
    let finalize_time = timed(|| sampler.finalize()).1;
    beneath.pipeline = builder(shape, seed).build()?;
    beneath.last_bytes = bytes;
    Ok((publish_time, store_time, finalize_time, encode_time))
}

/// The tail epoch as an undisturbed pipeline summarises it.
fn tail_reference(fx: &Fixture, shape: &Shape, tail_start: usize) -> cws_core::Result<Vec<u8>> {
    let mut pipeline = builder(shape, fx.seed).build()?;
    for index in tail_start..tail_start + shape.tail_batches {
        pipeline.push_columns(&fx.batches[index % fx.batches.len()])?;
    }
    Ok(pipeline.finalize()?.to_bytes())
}
