//! `query_fleet`: the read path.
//!
//! One client submits the same multi-assignment `QueryBatch` in a closed
//! loop against a dispersed snapshot built during setup, and the first
//! batch's estimates are scored against exact aggregates.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cws_core::{CoordinationMode, RankFamily};
use cws_engine::{Ingest, Layout, Pipeline, Summary};

use crate::common::{hash_seed, zipf_columns, Counters, Fleet, QueryClient, Tally, ASSIGNMENTS};
use crate::trace::Tracer;
use crate::{Phase, Shape};

/// The snapshot, the fleet and the exact answers.
pub struct Fixture {
    summary: Arc<Summary>,
    fleet: Fleet,
    exact: Vec<f64>,
}

/// Generates the stream, summarises it, and computes the exact answer of
/// every spec.
pub fn setup(shape: &Shape, seed: u64) -> cws_core::Result<Fixture> {
    let columns = zipf_columns(shape.keys, seed);
    let mut pipeline = Pipeline::builder()
        .assignments(ASSIGNMENTS)
        .k(shape.k)
        .rank(RankFamily::Ipps)
        .coordination(CoordinationMode::SharedSeed)
        .layout(Layout::Dispersed)
        .seed(hash_seed(seed))
        .build()?;
    pipeline.push_columns(&columns)?;
    let summary = Arc::new(pipeline.finalize()?);
    let fleet = Fleet::new(shape.lanes);
    let exact = fleet.exact(&columns);
    Ok(Fixture { summary, fleet, exact })
}

/// Runs the client for about `budget`. With `origin`, every batch is
/// traced and its planning and estimator passes are timed alone.
pub fn run(
    fx: &Fixture,
    _shape: &Shape,
    budget: Duration,
    _dir: &Path,
    origin: Option<Instant>,
) -> Phase {
    let mut tally = Tally::default();
    let mut tracer = origin.map(Tracer::new);
    let mut counters = Counters::default();
    let mut client = QueryClient::new(&fx.fleet);
    let start = Instant::now();
    let root = tracer.as_mut().map(|t| t.enter("workload.client"));
    while client.batches() < 2 || start.elapsed() < budget {
        client.submit(&fx.summary, &mut tally, tracer.as_mut().map(|t| (t, &mut counters)));
    }
    if let (Some(tracer), Some(root)) = (tracer.as_mut(), root) {
        tracer.exit(root);
    }
    let wall = start.elapsed().as_secs_f64();
    let excluded = tracer.as_ref().map_or(Duration::ZERO, Tracer::excluded).as_secs_f64();

    let mut phase = Phase::default();
    let kernels = fx.fleet.batch.plan().map(|plan| plan.num_kernels()).ok();
    tally.check(kernels == Some(fx.fleet.kernels.len()), || {
        format!("the fleet planned into {kernels:?} kernels, {} expected", fx.fleet.kernels.len())
    });
    if let Some(estimates) = &client.first_values {
        tally.check(estimates.len() == fx.exact.len(), || "one estimate per spec".to_string());
        let mut error = 0.0;
        for (&estimate, &exact) in estimates.iter().zip(&fx.exact) {
            tally.check(exact > 0.0 && estimate.is_finite(), || {
                format!("spec with exact answer {exact} estimated as {estimate}")
            });
            error += (estimate - exact).abs() / exact;
        }
        phase.rates.push(("est_rel_err", error / fx.exact.len() as f64, "ratio"));
    }
    let batches = client.batches() as f64;
    phase.rates.push(("query_per_s", client.answered as f64 / wall, "1/s"));
    phase.work = (batches, wall - excluded);
    phase.throughput_per_s = client.answered as f64 / wall;
    phase.series = vec![("query", client.latencies_ms)];
    phase.tally = tally;
    phase.counters = counters;
    phase.threads = tracer.map(|t| vec![t.into_spans()]).unwrap_or_default();
    phase
}
