//! Pieces the three workloads share: inputs, the query fleet, the query
//! client, the failure tally and the per-layer counters.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use cws_core::columns::RecordColumns;
use cws_data::synthetic::correlated_zipf_columns;
use cws_engine::{Query, QueryBatch, QuerySpec, Summary};

use crate::trace::{timed, Tracer};
use crate::{stats, Shape};

/// Weight assignments per record in every workload.
pub const ASSIGNMENTS: usize = 8;

/// Milliseconds in a duration.
pub fn ms(duration: Duration) -> f64 {
    duration.as_secs_f64() * 1e3
}

/// The pipelines' hash seed, derived from the workload seed so that a seed
/// fixes both the data and the sample.
pub fn hash_seed(seed: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xC05_2009
}

/// The correlated-Zipf stream: `keys` records of [`ASSIGNMENTS`] weights,
/// keys `0..keys`, Zipf exponent 1.1, correlation 0.7, churn 0.1.
pub fn zipf_columns(keys: usize, seed: u64) -> RecordColumns {
    correlated_zipf_columns(keys, ASSIGNMENTS, 1.1, 0.7, 0.1, seed)
}

/// Records or elements per second of the median epoch (its pushes and its
/// publish): unlike the whole-loop rate, it shrugs off the occasional
/// stalled fsync or descheduled thread.
pub fn median_epoch_rate(epoch_ms: &[f64], shape: &Shape) -> f64 {
    let per_epoch = (shape.batches_per_epoch * shape.batch) as f64;
    stats::percentile(epoch_ms, 50.0)
        .and_then(|median| stats::ratio(per_epoch * 1e3, median))
        .unwrap_or(0.0)
}

/// Counts operations and correctness checks, and the ones that failed.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations and checks attempted.
    pub attempted: u64,
    /// Operations that returned an error and checks that did not hold.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
}

impl Tally {
    const KEPT_MESSAGES: usize = 8;

    /// Counts one operation; returns its value when it succeeded.
    pub fn op<T, E: std::fmt::Display>(&mut self, what: &str, result: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(value) => Some(value),
            Err(error) => {
                self.fail(format!("{what}: {error}"));
                None
            }
        }
    }

    /// Counts one correctness check.
    pub fn check(&mut self, holds: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !holds {
            self.fail(what());
        }
    }

    fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.failures.len() < Self::KEPT_MESSAGES {
            self.failures.push(message);
        }
    }

    /// Adds another thread's tally to this one.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = Self::KEPT_MESSAGES.saturating_sub(self.failures.len());
        self.failures.extend(other.failures.into_iter().take(room));
    }
}

/// A running mean of per-event counts (zero when nothing was counted).
#[derive(Debug, Clone, Copy, Default)]
pub struct Mean {
    sum: f64,
    n: u64,
}

impl Mean {
    /// Adds one observation.
    pub fn add(&mut self, value: f64) {
        self.sum += value;
        self.n += 1;
    }

    /// The mean, or zero with no observations.
    pub fn value(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum / self.n as f64
        }
    }
}

/// Per-layer counts gathered at the layer boundaries of a traced run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// Distinct keys ÷ (assignments · k) of each published summary.
    pub union_keys_ratio: Mean,
    /// Journal bytes appended by pushes.
    pub wal_bytes: u64,
    /// Records those pushes carried.
    pub wal_records: u64,
    /// Live journal segments just before each publish.
    pub wal_segments: Mean,
    /// Records each recovery replayed from the journal.
    pub records_replayed: Mean,
    /// Encoded size of each published summary.
    pub snapshot_bytes: Mean,
    /// Elements absorbed ÷ distinct keys held, per epoch.
    pub elements_per_key: Mean,
    /// Kernels of each planned batch.
    pub kernels: Mean,
    /// Specs ÷ kernels of each planned batch.
    pub specs_per_kernel: Mean,
    /// Σ `observed_keys` over the specs of each batch.
    pub keys_folded: Mean,
    /// Traced ÷ untraced wall time per unit of work, minus one.
    pub overhead: f64,
}

/// One aggregate of the query fleet, with the key lane its filter selects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetAggregate {
    /// `Σ w_a` over the lane.
    Sum(usize),
    /// Keys of the lane with `w_a > 0`.
    Count(usize),
    /// `Σ |w_a − w_b|` over the lane.
    L1(usize, usize),
    /// `Σ max(w_a, w_b)` over the lane.
    Max(usize, usize),
}

/// The query fleet: `lanes` key lanes (`key % lanes`) × {sum(a), count(a),
/// L1(0, b), max(2, 3)} with `a = lane % 8` and `b = 1 + lane % 7`. With 16
/// lanes the planner folds its 64 specs into 16 kernels: 8 single-
/// assignment passes, 7 L1 passes and one max pass.
pub struct Fleet {
    /// The batch every client submits.
    pub batch: QueryBatch,
    /// `(lane, aggregate)` of each spec, in batch order.
    pub specs: Vec<(usize, FleetAggregate)>,
    /// One aggregate per kernel the planner forms, for timing the
    /// estimator's shared pass on its own.
    pub kernels: Vec<FleetAggregate>,
}

impl Fleet {
    /// Builds the fleet over `lanes` key lanes.
    pub fn new(lanes: usize) -> Self {
        let mut batch = QueryBatch::new();
        let mut specs = Vec::with_capacity(4 * lanes);
        for lane in 0..lanes {
            let a = lane % ASSIGNMENTS;
            let b = 1 + lane % (ASSIGNMENTS - 1);
            let modulus = lanes as u64;
            let target = lane as u64;
            let in_lane = move |key: u64| key % modulus == target;
            batch = batch
                .push(QuerySpec::sum(a).filter(in_lane))
                .push(QuerySpec::count(a).filter(in_lane))
                .push(QuerySpec::l1(0, b).filter(in_lane))
                .push(QuerySpec::max(2, 3).filter(in_lane));
            specs.extend([
                (lane, FleetAggregate::Sum(a)),
                (lane, FleetAggregate::Count(a)),
                (lane, FleetAggregate::L1(0, b)),
                (lane, FleetAggregate::Max(2, 3)),
            ]);
        }
        let mut kernels = Vec::new();
        for &(_, aggregate) in &specs {
            // Sums and counts of one assignment share a pass.
            let kernel = match aggregate {
                FleetAggregate::Count(a) => FleetAggregate::Sum(a),
                other => other,
            };
            if !kernels.contains(&kernel) {
                kernels.push(kernel);
            }
        }
        Self { batch, specs, kernels }
    }

    /// Re-runs planning, and on a dispersed summary each kernel's estimator
    /// pass, on their own: the durations to lay inside a traced batch.
    fn time_parts(
        &self,
        summary: &Summary,
        counters: &mut Counters,
    ) -> Vec<(&'static str, Duration)> {
        let (plan, plan_time) = timed(|| self.batch.plan());
        if let Ok(plan) = plan {
            counters.kernels.add(plan.num_kernels() as f64);
            counters.specs_per_kernel.add(plan.num_specs() as f64 / plan.num_kernels() as f64);
        }
        let mut parts = vec![("QueryBatch::plan", plan_time)];
        // A colocated summary shares one probability pass across kernels,
        // which `Query::adjusted_weights` cannot; only dispersed kernels are
        // timed on their own.
        if summary.as_dispersed().is_some() {
            for kernel in &self.kernels {
                let query = match *kernel {
                    FleetAggregate::Sum(a) | FleetAggregate::Count(a) => Query::single(a),
                    FleetAggregate::L1(a, b) => Query::l1([a, b]),
                    FleetAggregate::Max(a, b) => Query::max([a, b]),
                };
                parts
                    .push(("Query::adjusted_weights", timed(|| query.adjusted_weights(summary)).1));
            }
        }
        parts
    }

    /// The exact answer to every spec over `columns` — the oracle the
    /// estimates are scored against.
    pub fn exact(&self, columns: &RecordColumns) -> Vec<f64> {
        let lanes = self.specs.iter().map(|&(lane, _)| lane + 1).max().unwrap_or(1) as u64;
        let weight = |assignment: usize, row: usize| columns.lane(assignment)[row];
        self.specs
            .iter()
            .map(|&(lane, aggregate)| {
                let rows = columns
                    .keys()
                    .iter()
                    .enumerate()
                    .filter(|&(_, &key)| key % lanes == lane as u64)
                    .map(|(row, _)| row);
                match aggregate {
                    FleetAggregate::Sum(a) => rows.map(|row| weight(a, row)).sum(),
                    FleetAggregate::Count(a) => {
                        rows.filter(|&row| weight(a, row) > 0.0).count() as f64
                    }
                    FleetAggregate::L1(a, b) => {
                        rows.map(|row| (weight(a, row) - weight(b, row)).abs()).sum()
                    }
                    FleetAggregate::Max(a, b) => {
                        rows.map(|row| weight(a, row).max(weight(b, row))).sum()
                    }
                }
            })
            .collect()
    }
}

/// A closed-loop query client: submits the fleet batch, times it, and
/// checks that every batch on a snapshot returns the bits of the first.
pub struct QueryClient<'a> {
    fleet: &'a Fleet,
    /// Milliseconds per batch.
    pub latencies_ms: Vec<f64>,
    /// Specs answered.
    pub answered: u64,
    snapshot: Option<Arc<Summary>>,
    first: Option<Vec<(u64, usize)>>,
    /// The first batch's values on the first snapshot.
    pub first_values: Option<Vec<f64>>,
}

impl<'a> QueryClient<'a> {
    /// A client of `fleet` that has run nothing yet.
    pub fn new(fleet: &'a Fleet) -> Self {
        Self {
            fleet,
            latencies_ms: Vec::new(),
            answered: 0,
            snapshot: None,
            first: None,
            first_values: None,
        }
    }

    /// Batches submitted so far.
    pub fn batches(&self) -> usize {
        self.latencies_ms.len()
    }

    /// Submits one batch against `summary`. With a tracer, the call is a
    /// span, and planning (plus, on a dispersed summary, each kernel's
    /// estimator pass) is re-run on its own and laid inside it.
    pub fn submit(
        &mut self,
        summary: &Arc<Summary>,
        tally: &mut Tally,
        traced: Option<(&mut Tracer, &mut Counters)>,
    ) {
        if !self.snapshot.as_ref().is_some_and(|current| Arc::ptr_eq(current, summary)) {
            self.snapshot = Some(Arc::clone(summary));
            self.first = None;
        }
        let fleet = self.fleet;
        let (result, elapsed) = match traced {
            None => timed(|| fleet.batch.execute(summary)),
            Some((tracer, counters)) => {
                let id = tracer.enter("QueryBatch::execute");
                let (result, elapsed) = timed(|| fleet.batch.execute(summary));
                tracer.exit(id);
                let children = tracer.exclude(|| fleet.time_parts(summary, counters));
                tracer.place(id, &children);
                if let Ok(reports) = &result {
                    counters.keys_folded.add(reports.iter().map(|r| r.observed_keys as f64).sum());
                }
                (result, elapsed)
            }
        };
        self.latencies_ms.push(ms(elapsed));
        let Some(reports) = tally.op("QueryBatch::execute", result) else { return };
        self.answered += reports.len() as u64;
        let bits: Vec<(u64, usize)> =
            reports.iter().map(|r| (r.value.to_bits(), r.observed_keys)).collect();
        if self.first_values.is_none() {
            self.first_values = Some(reports.iter().map(|r| r.value).collect());
        }
        match &self.first {
            None => self.first = Some(bits),
            Some(first) => tally.check(*first == bits, || {
                "a fleet batch differs from the first batch on the same snapshot".to_string()
            }),
        }
    }
}

/// A scratch directory of the run, removed when dropped.
pub struct WorkDir(PathBuf);

impl WorkDir {
    /// Creates `path` afresh.
    pub fn create(path: PathBuf) -> std::io::Result<Self> {
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        Ok(Self(path))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Copies the files of directory `from` into a fresh directory `to`.
pub fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    if to.exists() {
        std::fs::remove_dir_all(to)?;
    }
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name()))?;
        }
    }
    Ok(())
}
