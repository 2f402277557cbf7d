//! `raw_log_mixed`: unaggregated writes beside reads.
//!
//! A writer feeds an unaggregated element stream (every `(key,
//! assignment)` slot split into 2–5 interleaved fragments, the way flow
//! logs arrive) through a `SumByKey` `EpochedPipeline` with no journal and
//! publishes every few batches. Meanwhile one reader thread runs the query
//! fleet in a closed loop against the newest published snapshot.

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use cws_core::summary::SummaryConfig;
use cws_core::{CoordinationMode, RankFamily};
use cws_data::synthetic::{element_stream, Element};
use cws_engine::{
    Aggregation, EpochedPipeline, KeyAggregator, Layout, Pipeline, PipelineBuilder, Summary,
};

use crate::common::{
    hash_seed, median_epoch_rate, ms, zipf_columns, Counters, Fleet, QueryClient, Tally,
    ASSIGNMENTS,
};
use cws_stream::ColocatedStreamSampler;

use crate::trace::{timed, Span, Tracer};
use crate::{Phase, Shape};

/// The element stream and the reader's fleet.
pub struct Fixture {
    elements: Vec<Element>,
    fleet: Fleet,
    seed: u64,
}

/// Generates `shape.keys` correlated-Zipf records and shreds them into an
/// interleaved element stream.
pub fn setup(shape: &Shape, seed: u64) -> Fixture {
    let columns = zipf_columns(shape.keys, seed);
    let elements = element_stream(&columns, 2, 5, seed ^ 0xE1E);
    Fixture { elements, fleet: Fleet::new(shape.lanes), seed: hash_seed(seed) }
}

fn builder(shape: &Shape, seed: u64) -> PipelineBuilder {
    Pipeline::builder()
        .assignments(ASSIGNMENTS)
        .k(shape.k)
        .rank(RankFamily::Ipps)
        .coordination(CoordinationMode::SharedSeed)
        .layout(Layout::Colocated)
        .aggregation(Aggregation::SumByKey)
        .seed(seed)
}

/// The same elements fed through the layers beneath, one layer at a time.
struct Beneath {
    pipeline: Pipeline,
    aggregator: KeyAggregator,
}

impl Beneath {
    fn new(shape: &Shape, seed: u64) -> cws_core::Result<Self> {
        Ok(Self {
            pipeline: builder(shape, seed).build()?,
            aggregator: KeyAggregator::new(Aggregation::SumByKey, ASSIGNMENTS, seed),
        })
    }
}

/// What the reader thread measured.
struct Reader {
    latencies_ms: Vec<f64>,
    answered: u64,
    wall: Duration,
    tally: Tally,
    spans: Option<Vec<Span>>,
    counters: Counters,
}

/// Runs writer and reader for about `budget`. With `origin`, both threads
/// trace their calls and the writer times the layers beneath alone.
pub fn run(
    fx: &Fixture,
    shape: &Shape,
    budget: Duration,
    _dir: &Path,
    origin: Option<Instant>,
) -> Phase {
    let mut tally = Tally::default();
    let mut phase = Phase::default();
    let Some(mut pipeline) =
        tally.op("EpochedPipeline::new", EpochedPipeline::new(builder(shape, fx.seed)))
    else {
        return phase.failed(tally);
    };
    let mut tracer = origin.map(Tracer::new);
    let mut beneath = match tracer {
        Some(_) => tally.op("layers beneath", Beneath::new(shape, fx.seed)),
        None => None,
    };
    let mut counters = Counters::default();
    let latest: Mutex<Option<Arc<Summary>>> = Mutex::new(None);
    let stop = AtomicBool::new(false);
    let batches: Vec<&[Element]> = fx.elements.chunks_exact(shape.batch).collect();
    let mut push_ms = Vec::new();
    let mut publish_ms = Vec::new();
    let mut offered = 0u64;
    let mut reported = 0u64;
    let mut cursor = 0usize;
    let mut epoch_ms = Vec::new();

    let (wall, reader) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| read(&fx.fleet, &latest, &stop, origin));
        let start = Instant::now();
        let mut epoch_start = start;
        let root = tracer.as_mut().map(|t| t.enter("workload.writer"));
        loop {
            for _ in 0..shape.batches_per_epoch {
                let batch = batches[cursor % batches.len()];
                cursor += 1;
                offered += batch.len() as u64;
                let (result, elapsed) = match (tracer.as_mut(), beneath.as_mut()) {
                    (Some(tracer), Some(beneath)) => {
                        let id = tracer.enter("EpochedPipeline::push_elements");
                        let out = timed(|| pipeline.push_elements(batch));
                        tracer.exit(id);
                        let (pipeline_time, absorb_time) = tracer.exclude(|| {
                            (
                                timed(|| beneath.pipeline.push_elements(batch)).1,
                                timed(|| beneath.aggregator.absorb_elements(batch)).1,
                            )
                        });
                        let ids = tracer.place(id, &[("Pipeline::push_elements", pipeline_time)]);
                        tracer.place(ids[0], &[("KeyAggregator::absorb_elements", absorb_time)]);
                        out
                    }
                    _ => timed(|| pipeline.push_elements(batch)),
                };
                push_ms.push(ms(elapsed));
                tally.op("EpochedPipeline::push_elements", result);
            }
            let (result, elapsed) = match (tracer.as_mut(), beneath.as_mut()) {
                (Some(tracer), Some(beneath)) => {
                    let id = tracer.enter("EpochedPipeline::publish");
                    let out = timed(|| pipeline.publish());
                    tracer.exit(id);
                    let drained = tracer.exclude(|| {
                        let keys = beneath.aggregator.num_keys();
                        let absorbed = beneath.aggregator.absorbed();
                        let fresh = KeyAggregator::new(Aggregation::SumByKey, ASSIGNMENTS, fx.seed);
                        let full = std::mem::replace(&mut beneath.aggregator, fresh);
                        let (columns, drain_time) = timed(|| full.into_columns());
                        // The drained epoch through the colocated sampler
                        // the pipeline finalizes into.
                        let config = SummaryConfig::new(
                            shape.k,
                            RankFamily::Ipps,
                            CoordinationMode::SharedSeed,
                            fx.seed,
                        );
                        let mut sampler = ColocatedStreamSampler::new(config, ASSIGNMENTS);
                        let (pushed, push_time) = timed(|| sampler.push_columns(&columns));
                        let finalize_time = timed(|| sampler.finalize()).1;
                        beneath.pipeline = builder(shape, fx.seed).build()?;
                        pushed.map(|()| {
                            let parts = [
                                ("KeyAggregator::into_columns", drain_time),
                                ("ColocatedStreamSampler::push_columns", push_time),
                                ("ColocatedStreamSampler::finalize", finalize_time),
                            ];
                            (keys, absorbed, parts)
                        })
                    });
                    if let Some((keys, absorbed, parts)) = tally.op("layers beneath", drained) {
                        counters.elements_per_key.add(absorbed as f64 / keys.max(1) as f64);
                        tracer.place(id, &parts);
                    }
                    out
                }
                _ => timed(|| pipeline.publish()),
            };
            publish_ms.push(ms(elapsed));
            if let Some(report) = tally.op("EpochedPipeline::publish", result) {
                reported += report.records;
                *latest.lock().expect("the reader never panics holding the snapshot lock") =
                    Some(report.summary);
            }
            let now = Instant::now();
            epoch_ms.push(ms(now - epoch_start));
            epoch_start = now;
            if start.elapsed() >= budget {
                break;
            }
        }
        let wall = start.elapsed();
        if let (Some(tracer), Some(root)) = (tracer.as_mut(), root) {
            tracer.exit(root);
        }
        stop.store(true, Ordering::SeqCst);
        (wall, reader.join().expect("the reader thread does not panic"))
    });

    tally.check(reported == offered, || {
        format!("epoch reports add up to {reported} elements, {offered} were offered")
    });
    tally.check(pipeline.quarantined_lifetime().is_none(), || {
        "elements were quarantined from a valid stream".to_string()
    });
    tally.absorb(reader.tally);

    let excluded = tracer.as_ref().map_or(Duration::ZERO, Tracer::excluded);
    let wall_s = wall.as_secs_f64();
    phase.rates.push(("ingest_rec_per_s", offered as f64 / wall_s, "elem/s"));
    phase.rates.push(("query_per_s", reader.answered as f64 / reader.wall.as_secs_f64(), "1/s"));
    phase.work = (offered as f64, wall_s - excluded.as_secs_f64());
    phase.throughput_per_s = median_epoch_rate(&epoch_ms, shape);
    phase.series = vec![
        ("push", push_ms),
        ("publish", publish_ms),
        ("epoch", epoch_ms),
        ("query", reader.latencies_ms),
    ];
    phase.tally = tally;
    counters.kernels = reader.counters.kernels;
    counters.specs_per_kernel = reader.counters.specs_per_kernel;
    counters.keys_folded = reader.counters.keys_folded;
    phase.counters = counters;
    if let (Some(tracer), Some(spans)) = (tracer, reader.spans) {
        phase.threads = vec![tracer.into_spans(), spans];
    }
    phase
}

/// The reader: the fleet in a closed loop against the newest snapshot,
/// until the writer stops and at least two batches ran (so the bit-identity
/// check always has a pair to compare).
fn read(
    fleet: &Fleet,
    latest: &Mutex<Option<Arc<Summary>>>,
    stop: &AtomicBool,
    origin: Option<Instant>,
) -> Reader {
    let mut tally = Tally::default();
    let mut tracer = origin.map(Tracer::new);
    let mut counters = Counters::default();
    let mut client = QueryClient::new(fleet);
    let mut root = None;
    let mut started: Option<Instant> = None;
    loop {
        let stopping = stop.load(Ordering::SeqCst);
        let snapshot = latest.lock().expect("the writer never panics holding the lock").clone();
        let Some(snapshot) = snapshot else {
            if stopping {
                break;
            }
            // Nothing published yet: the first epoch is still filling.
            std::thread::sleep(Duration::from_millis(1));
            continue;
        };
        if stopping && client.batches() >= 2 {
            break;
        }
        started.get_or_insert_with(Instant::now);
        if root.is_none() {
            root = tracer.as_mut().map(|t| t.enter("workload.reader"));
        }
        client.submit(&snapshot, &mut tally, tracer.as_mut().map(|t| (t, &mut counters)));
    }
    let wall = started.map_or(Duration::ZERO, |s| s.elapsed());
    if let (Some(tracer), Some(root)) = (tracer.as_mut(), root) {
        tracer.exit(root);
    }
    Reader {
        latencies_ms: client.latencies_ms,
        answered: client.answered,
        wall,
        tally,
        spans: tracer.map(Tracer::into_spans),
        counters,
    }
}
