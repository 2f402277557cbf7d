//! End-to-end benchmark of the coordinated-sampling workspace.
//!
//! ```text
//! perfbench --workload <durable_columns|raw_log_mixed|query_fleet>
//!           --seed <n> --seconds <s> --trace <0|1> [--repeat <runs>]
//! ```
//!
//! One run generates its inputs from the seed, sets up five times (the
//! median is `setup_s`), runs the workload's closed loop for `--seconds`,
//! checks every output, and prints `metric <name> <value> <unit>` lines
//! followed by one JSON result line. `--trace 0` reports the end-to-end
//! metrics. `--trace 1` runs the loop untraced for half the time and traced
//! for the other half, writes the spans to `.bench_run/traces/`, and
//! reports the per-layer ledger. `--repeat N` runs the command N times with
//! seeds `n..n+N` and prints each metric's median and quartiles.
//!
//! Any failed operation or check makes the run exit with code 1.

mod common;
mod durable;
mod fleet;
mod rawlog;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use common::{Counters, Tally, WorkDir};
use trace::{timed, Ledger, Span};

/// Times the workload is set up in one run; `setup_s` is their median.
const SETUPS: usize = 5;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Journaled columnar ingest with snapshot publishes and recovery.
    DurableColumns,
    /// Unaggregated element ingest beside a concurrent query reader.
    RawLogMixed,
    /// Batched multi-assignment queries against one snapshot.
    QueryFleet,
}

impl Workload {
    const ALL: [Workload; 3] = [Self::DurableColumns, Self::RawLogMixed, Self::QueryFleet];

    fn name(self) -> &'static str {
        match self {
            Self::DurableColumns => "durable_columns",
            Self::RawLogMixed => "raw_log_mixed",
            Self::QueryFleet => "query_fleet",
        }
    }

    fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The measured sizes.
    fn shape(self) -> Shape {
        match self {
            Self::DurableColumns => Shape {
                keys: 262_144,
                batch: 4_096,
                batches_per_epoch: 8,
                k: 256,
                tail_batches: 7,
                recoveries: 20,
                lanes: 0,
            },
            Self::RawLogMixed => Shape {
                keys: 65_536,
                batch: 16_384,
                batches_per_epoch: 16,
                k: 256,
                tail_batches: 0,
                recoveries: 0,
                lanes: 16,
            },
            Self::QueryFleet => Shape {
                keys: 262_144,
                batch: 0,
                batches_per_epoch: 0,
                k: 1_024,
                tail_batches: 0,
                recoveries: 0,
                lanes: 16,
            },
        }
    }
}

/// The sizes of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Distinct keys of the generated stream.
    pub keys: usize,
    /// Records or elements per push.
    pub batch: usize,
    /// Pushes between publishes.
    pub batches_per_epoch: usize,
    /// Sample size per assignment.
    pub k: usize,
    /// Pushes left unpublished before the crash.
    pub tail_batches: usize,
    /// Timed recoveries after the crash.
    pub recoveries: usize,
    /// Key lanes of the query fleet (4 specs each).
    pub lanes: usize,
}

/// What one run of a workload's loop measured.
#[derive(Debug, Default)]
pub struct Phase {
    /// Latency samples per call kind, in milliseconds.
    pub series: Vec<(&'static str, Vec<f64>)>,
    /// Rates and scores: `(name, value, unit)`.
    pub rates: Vec<(&'static str, f64, &'static str)>,
    /// Records, elements or specs the loop completed per second.
    pub throughput_per_s: f64,
    /// `(units of work, seconds)` with benchmark-only work taken out, for
    /// the tracing overhead.
    pub work: (f64, f64),
    /// Operations and checks.
    pub tally: Tally,
    /// Counts taken at layer boundaries (traced runs).
    pub counters: Counters,
    /// Spans of every thread (traced runs).
    pub threads: Vec<Vec<Span>>,
}

impl Phase {
    fn failed(mut self, tally: Tally) -> Self {
        self.tally = tally;
        self
    }
}

enum Fixture {
    Durable(durable::Fixture),
    RawLog(rawlog::Fixture),
    Fleet(fleet::Fixture),
}

fn setup(workload: Workload, shape: &Shape, seed: u64) -> Result<Fixture, String> {
    Ok(match workload {
        Workload::DurableColumns => Fixture::Durable(durable::setup(shape, seed)),
        Workload::RawLogMixed => Fixture::RawLog(rawlog::setup(shape, seed)),
        Workload::QueryFleet => {
            Fixture::Fleet(fleet::setup(shape, seed).map_err(|e| format!("setup: {e}"))?)
        }
    })
}

fn run_phase(
    fixture: &Fixture,
    shape: &Shape,
    budget: Duration,
    dir: &Path,
    origin: Option<Instant>,
) -> Phase {
    match fixture {
        Fixture::Durable(fx) => durable::run(fx, shape, budget, dir, origin),
        Fixture::RawLog(fx) => rawlog::run(fx, shape, budget, dir, origin),
        Fixture::Fleet(fx) => fleet::run(fx, shape, budget, dir, origin),
    }
}

/// One named figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric { name: name.into(), value, unit }
}

/// The end-to-end metrics every workload reports in its result line, with
/// their units. Call latencies are printed but not in the result line: on a
/// shared host, the p50 of a query batch flips between a fast and a slow
/// mode from run to run, and the p90 of a journaled push follows the
/// disk's neighbours; both spread across runs by about the widest bound.
const END_TO_END: [(&str, &str); 3] =
    [("setup_s", "s"), ("throughput_per_s", "1/s"), ("peak_rss_mb", "MB")];

/// Per-layer time metrics: mean self time per call of these spans.
const LAYER_SPANS: [(&str, &[&str]); 16] = [
    (
        "stream.push_ms",
        &["MultiAssignmentStreamSampler::push_columns", "ColocatedStreamSampler::push_columns"],
    ),
    (
        "stream.finalize_ms",
        &["MultiAssignmentStreamSampler::finalize", "ColocatedStreamSampler::finalize"],
    ),
    ("engine.pipeline.self_ms", &["Pipeline::push_columns", "Pipeline::push_elements"]),
    ("engine.wal.append_ms", &["EpochedPipeline::push_columns"]),
    ("engine.wal.barrier_ms", &["EpochedPipeline::publish_into"]),
    ("engine.wal.open_replay_ms", &["recover_from_store_and_wal"]),
    ("engine.continuous.publish_ms", &["EpochedPipeline::publish"]),
    ("core.codec.encode_ms", &["Summary::to_bytes"]),
    ("core.codec.decode_ms", &["Summary::from_bytes"]),
    ("engine.store.publish_ms", &["SnapshotStore::publish"]),
    ("engine.store.recover_ms", &["SnapshotStore::recover"]),
    ("engine.aggregation.absorb_ms", &["KeyAggregator::absorb_elements"]),
    ("engine.aggregation.drain_ms", &["KeyAggregator::into_columns"]),
    ("engine.plan.plan_ms", &["QueryBatch::plan"]),
    ("engine.plan.execute_ms", &["QueryBatch::execute"]),
    ("core.estimate.pass_ms", &["Query::adjusted_weights"]),
];

/// The per-layer metrics of a traced run: span self times from the ledger,
/// then the counts taken at the layer boundaries.
fn layer_metrics(ledger: &Ledger, counters: &Counters) -> Vec<Metric> {
    let mut out: Vec<Metric> = LAYER_SPANS
        .iter()
        .map(|(name, spans)| {
            let (calls, self_ns) = spans
                .iter()
                .map(|s| ledger.layer(s))
                .fold((0u64, 0u64), |(calls, self_ns), totals| {
                    (calls + totals.calls, self_ns + totals.self_ns)
                });
            let mean = stats::ratio(self_ns as f64 / 1e6, calls as f64).unwrap_or(0.0);
            metric(*name, mean, "ms")
        })
        .collect();
    let per_record =
        stats::ratio(counters.wal_bytes as f64, counters.wal_records as f64).unwrap_or(0.0);
    out.extend([
        metric("stream.union_keys_ratio", counters.union_keys_ratio.value(), "ratio"),
        metric("engine.wal.bytes_per_rec", per_record, "B/rec"),
        metric("engine.wal.segments", counters.wal_segments.value(), "count"),
        metric("engine.wal.records_replayed", counters.records_replayed.value(), "count"),
        metric("core.codec.snapshot_bytes", counters.snapshot_bytes.value(), "B"),
        metric("engine.aggregation.elements_per_key", counters.elements_per_key.value(), "ratio"),
        metric("engine.plan.kernels", counters.kernels.value(), "count"),
        metric("engine.plan.specs_per_kernel", counters.specs_per_kernel.value(), "ratio"),
        metric("engine.plan.keys_folded", counters.keys_folded.value(), "count"),
        metric("trace.overhead", counters.overhead, "ratio"),
        metric("trace.unattributed_share", ledger.unattributed_share(), "share"),
    ]);
    out
}

/// Peak resident set size of this process (VmHWM), in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The end-to-end figures of an untraced phase, by the names the workload
/// documentation uses, plus the result-line metrics.
fn end_to_end(phase: &Phase, setup_s: f64, peak_mb: f64) -> (Vec<Metric>, Vec<Metric>) {
    let mut lines = vec![metric("setup_s", setup_s, "s")];
    for (name, samples) in &phase.series {
        for (label, p) in [("p50", 50.0), ("p90", 90.0), ("p99", 99.0)] {
            if let Some(value) = stats::percentile(samples, p) {
                lines.push(metric(format!("{name}_{label}_ms"), value, "ms"));
            }
        }
        if let Some(mean) = stats::ratio(samples.iter().sum(), samples.len() as f64) {
            lines.push(metric(format!("{name}_mean_ms"), mean, "ms"));
        }
    }
    for &(name, value, unit) in &phase.rates {
        lines.push(metric(name, value, unit));
    }
    lines.push(metric("peak_rss_mb", peak_mb, "MB"));
    let error_rate =
        stats::ratio(phase.tally.failed as f64, phase.tally.attempted as f64).unwrap_or(1.0);
    lines.push(metric("error_rate", error_rate, "ratio"));

    let values = [setup_s, phase.throughput_per_s, peak_mb];
    let result: Vec<Metric> =
        END_TO_END.iter().zip(values).map(|(&(name, unit), v)| metric(name, v, unit)).collect();
    for m in &result {
        if !lines.iter().any(|line| line.name == m.name) {
            lines.push(m.clone());
        }
    }
    (lines, result)
}

/// Everything one run printed and decided.
struct Outcome {
    lines: Vec<String>,
    result: Vec<Metric>,
    tally: Tally,
}

/// Sets up, runs and checks one workload.
fn execute(
    workload: Workload,
    shape: &Shape,
    seed: u64,
    seconds: f64,
    traced: bool,
    root: &Path,
) -> Outcome {
    let mut lines = Vec::new();
    let mut tally = Tally::default();
    let mut fixture = None;
    let mut setup_times = Vec::with_capacity(SETUPS);
    for _ in 0..SETUPS {
        drop(fixture.take());
        let (built, elapsed) = timed(|| setup(workload, shape, seed));
        setup_times.push(elapsed.as_secs_f64());
        fixture = tally.op("setup", built);
    }
    let setup_s = stats::percentile(&setup_times, 50.0).unwrap_or(f64::NAN);
    let Some(fixture) = fixture else {
        return Outcome { lines, result: Vec::new(), tally };
    };
    let dir =
        match WorkDir::create(root.join(format!("{}-{}", workload.name(), std::process::id()))) {
            Ok(dir) => dir,
            Err(error) => {
                tally.op::<(), _>("create the run directory", Err(error));
                return Outcome { lines, result: Vec::new(), tally };
            }
        };
    let budget = Duration::from_secs_f64(if traced { seconds / 2.0 } else { seconds });
    let untraced = run_phase(&fixture, shape, budget, &dir.path().join("untraced"), None);
    let peak_mb = peak_rss_mb();
    tally.check(peak_mb.is_some(), || "VmHWM is readable from /proc/self/status".to_string());
    let (figures, mut result) = end_to_end(&untraced, setup_s, peak_mb.unwrap_or(f64::NAN));
    for m in &result {
        tally.check(m.value.is_finite(), || format!("{} is {}", m.name, m.value));
    }
    for m in &figures {
        lines.push(format!("metric {} {} {}", m.name, m.value, m.unit));
    }
    for (name, samples) in &untraced.series {
        lines.push(format!(
            "samples {name}: n={} beyond_p90={} beyond_p99={}",
            samples.len(),
            stats::samples_beyond(samples.len(), 90.0),
            stats::samples_beyond(samples.len(), 99.0)
        ));
    }
    tally.absorb(untraced.tally);

    if traced {
        let origin = Instant::now();
        let mut phase =
            run_phase(&fixture, shape, budget, &dir.path().join("traced"), Some(origin));
        let per_unit = |(units, secs): (f64, f64)| stats::ratio(secs, units);
        phase.counters.overhead = match (per_unit(phase.work), per_unit(untraced.work)) {
            (Some(traced), Some(plain)) => stats::ratio(traced, plain).map_or(0.0, |r| r - 1.0),
            _ => 0.0,
        };
        let ledger = Ledger::from_threads(&phase.threads);
        for (name, totals) in &ledger.layers {
            lines.push(format!(
                "layer {name}: calls={} self_ms={:.3} total_ms={:.3} wall_share={:.4}",
                totals.calls,
                totals.self_ns as f64 / 1e6,
                totals.total_ns as f64 / 1e6,
                stats::ratio(totals.self_ns as f64, ledger.wall_ns as f64).unwrap_or(0.0)
            ));
        }
        result = layer_metrics(&ledger, &phase.counters);
        for m in &result {
            lines.push(format!("metric {} {} {}", m.name, m.value, m.unit));
        }
        let file = root.join("traces").join(format!("{}-seed{seed}.jsonl", workload.name()));
        let written = std::fs::create_dir_all(root.join("traces"))
            .and_then(|()| std::fs::write(&file, trace::to_json_lines(seed, &phase.threads)));
        if tally.op("write the trace file", written).is_some() {
            lines.push(format!("trace {}", file.display()));
        }
        tally.absorb(phase.tally);
    }
    Outcome { lines, result, tally }
}

/// The result line: `correct`, `attempted`, `failed` and the metrics.
fn result_json(outcome: &Outcome) -> String {
    let mut metrics = String::new();
    for (i, m) in outcome.result.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.tally.failed == 0,
        outcome.tally.attempted.max(1),
        outcome.tally.failed
    )
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    repeat: Option<usize>,
}

const USAGE: &str = "usage: perfbench --workload <durable_columns|raw_log_mixed|query_fleet> \
                     --seed <n> --seconds <s> --trace <0|1> [--repeat <runs>]";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut traced = false;
    let mut repeat = None;
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad("expected seconds"))?;
                if !(0.0..=3600.0).contains(&seconds) {
                    return Err(bad("expected 0 to 3600 seconds"));
                }
            }
            "--trace" => {
                traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            "--repeat" => {
                repeat = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|&n: &usize| n >= 1)
                        .ok_or_else(|| bad("expected a positive count"))?,
                )
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, traced, repeat })
}

/// Runs this program `runs` times with consecutive seeds and prints each
/// metric's median and quartiles.
fn repeat(args: &Args, runs: usize) -> ExitCode {
    let Ok(exe) = std::env::current_exe() else {
        eprintln!("cannot locate the benchmark executable");
        return ExitCode::FAILURE;
    };
    let mut values: Vec<(String, String, Vec<f64>)> = Vec::new();
    let mut failures = 0;
    for run in 0..runs {
        let seed = args.seed + run as u64;
        let output = std::process::Command::new(&exe)
            .args(["--workload", args.workload.name()])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.traced { "1" } else { "0" }])
            .output();
        let output = match output {
            Ok(output) => output,
            Err(error) => {
                eprintln!("run {run}: {error}");
                failures += 1;
                continue;
            }
        };
        if !output.status.success() {
            eprintln!(
                "run {run} (seed {seed}) failed: {}",
                String::from_utf8_lossy(&output.stderr)
            );
            failures += 1;
        }
        for line in String::from_utf8_lossy(&output.stdout).lines() {
            let mut parts = line.split_whitespace();
            if parts.next() != Some("metric") {
                continue;
            }
            let (Some(name), Some(Ok(value)), Some(unit)) =
                (parts.next(), parts.next().map(str::parse::<f64>), parts.next())
            else {
                continue;
            };
            match values.iter_mut().find(|(n, _, _)| n == name) {
                Some((_, _, samples)) => samples.push(value),
                None => values.push((name.to_string(), unit.to_string(), vec![value])),
            }
        }
        eprintln!("run {}/{runs} done (seed {seed})", run + 1);
    }
    println!(
        "{} runs of {} (seconds {}, trace {})",
        runs,
        args.workload.name(),
        args.seconds,
        u8::from(args.traced)
    );
    println!("{:<40} {:>14} {:>14} {:>14} {:>8}  unit", "metric", "q1", "median", "q3", "spread");
    for (name, unit, samples) in &values {
        if let Some([q1, median, q3]) = stats::quartiles(samples) {
            let spread =
                stats::relative_spread(samples).map_or("-".to_string(), |s| format!("{s:.4}"));
            println!("{name:<40} {q1:>14.6} {median:>14.6} {q3:>14.6} {spread:>8}  {unit}");
        }
    }
    if failures == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("{failures} of {runs} runs failed");
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(error) => {
            eprintln!("{error}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(runs) = args.repeat {
        return repeat(&args, runs);
    }
    let root = PathBuf::from(".bench_run");
    let outcome =
        execute(args.workload, &args.workload.shape(), args.seed, args.seconds, args.traced, &root);
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.traced)
    );
    for line in &outcome.lines {
        println!("{line}");
    }
    for failure in &outcome.tally.failures {
        eprintln!("FAILED: {failure}");
    }
    if outcome.result.is_empty() {
        eprintln!("no result: the workload could not be set up");
        return ExitCode::FAILURE;
    }
    println!("{}", result_json(&outcome));
    if outcome.tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sizes small enough for a unit test; every check still runs.
    fn tiny(workload: Workload) -> Shape {
        match workload {
            Workload::DurableColumns => Shape {
                keys: 2_048,
                batch: 256,
                batches_per_epoch: 2,
                k: 16,
                tail_batches: 3,
                recoveries: 2,
                lanes: 0,
            },
            Workload::RawLogMixed => Shape {
                keys: 512,
                batch: 512,
                batches_per_epoch: 2,
                k: 16,
                tail_batches: 0,
                recoveries: 0,
                lanes: 4,
            },
            Workload::QueryFleet => Shape {
                keys: 2_048,
                batch: 0,
                batches_per_epoch: 0,
                k: 64,
                tail_batches: 0,
                recoveries: 0,
                lanes: 4,
            },
        }
    }

    fn smoke(workload: Workload, traced: bool) -> Outcome {
        let root = PathBuf::from(".bench_run").join(format!("test-{}-{traced}", workload.name()));
        let outcome = execute(workload, &tiny(workload), 7, 0.0, traced, &root);
        let _ = std::fs::remove_dir_all(&root);
        assert_eq!(outcome.tally.failures, Vec::<String>::new());
        assert_eq!(outcome.tally.failed, 0);
        assert!(outcome.tally.attempted > 0);
        outcome
    }

    fn names(metrics: &[Metric]) -> Vec<&str> {
        metrics.iter().map(|m| m.name.as_str()).collect()
    }

    #[test]
    fn every_workload_passes_its_checks_at_tiny_size() {
        let expected: Vec<&str> = END_TO_END.iter().map(|(name, _)| *name).collect();
        for workload in Workload::ALL {
            let outcome = smoke(workload, false);
            assert_eq!(names(&outcome.result), expected, "{}", workload.name());
            assert!(outcome.result.iter().all(|m| m.value.is_finite() && m.value > 0.0));
            assert!(outcome.lines.iter().any(|l| l.starts_with("metric error_rate 0 ")));
        }
    }

    #[test]
    fn traced_runs_report_every_layer_metric() {
        let expected = layer_metrics(&Ledger::default(), &Counters::default());
        for workload in Workload::ALL {
            let outcome = smoke(workload, true);
            assert_eq!(names(&outcome.result), names(&expected), "{}", workload.name());
            let value = |name: &str| {
                outcome.result.iter().find(|m| m.name == name).map_or(f64::NAN, |m| m.value)
            };
            let share = value("trace.unattributed_share");
            assert!((0.0..=1.0).contains(&share), "{share}");
            match workload {
                Workload::DurableColumns => {
                    assert!(value("stream.push_ms") > 0.0);
                    assert!(value("engine.wal.bytes_per_rec") > 0.0);
                    assert_eq!(value("engine.wal.records_replayed"), 3.0 * 256.0);
                    assert_eq!(value("engine.plan.kernels"), 0.0);
                }
                Workload::RawLogMixed => {
                    assert!(value("engine.aggregation.absorb_ms") > 0.0);
                    assert!(value("engine.aggregation.elements_per_key") > 1.0);
                    assert!(value("stream.finalize_ms") > 0.0);
                    assert_eq!(value("engine.wal.append_ms"), 0.0);
                }
                Workload::QueryFleet => {
                    assert!(value("core.estimate.pass_ms") > 0.0);
                    // 4 lanes: assignments 0..4 single passes, L1(0, 1..5), max(2, 3).
                    assert_eq!(value("engine.plan.kernels"), 9.0);
                    assert_eq!(value("engine.plan.specs_per_kernel"), 16.0 / 9.0);
                }
            }
        }
    }

    /// The `"name"` entries of one top-level section of `BENCHMARK.json`.
    fn section_names<'a>(json: &'a str, section: &str) -> Vec<&'a str> {
        let start = json.find(&format!("\"{section}\"")).expect("section present");
        let body = &json[start..];
        let end = body.find(']').expect("section is a list");
        body[..end].split("\"name\":").skip(1).filter_map(|entry| entry.split('"').nth(1)).collect()
    }

    #[test]
    fn benchmark_json_names_what_the_runs_print() {
        let json = include_str!("../../BENCHMARK.json");
        let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(section_names(json, "workloads"), workloads);
        let end_to_end: Vec<&str> = END_TO_END.iter().map(|(name, _)| *name).collect();
        assert_eq!(section_names(json, "end_to_end"), end_to_end);
        let layers = layer_metrics(&Ledger::default(), &Counters::default());
        assert_eq!(section_names(json, "per_layer"), names(&layers));
    }

    #[test]
    fn arguments_are_checked() {
        let args =
            |list: &[&str]| parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>());
        let ok =
            args(&["--workload", "query_fleet", "--seed", "3", "--seconds", "2", "--trace", "1"])
                .expect("valid arguments");
        assert_eq!(
            (ok.workload, ok.seed, ok.seconds, ok.traced),
            (Workload::QueryFleet, 3, 2.0, true)
        );
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--seed", "1"]).is_err());
        assert!(args(&["--workload", "query_fleet", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "query_fleet", "--seconds"]).is_err());
        assert!(args(&["--workload", "query_fleet", "--repeat", "0"]).is_err());
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let outcome = Outcome {
            lines: Vec::new(),
            result: vec![metric("setup_s", 0.5, "s"), metric("peak_rss_mb", 1.25, "MB")],
            tally: Tally { attempted: 10, failed: 1, failures: Vec::new() },
        };
        assert_eq!(
            result_json(&outcome),
            "{\"correct\": false, \"attempted\": 10, \"failed\": 1, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \
             \"peak_rss_mb\": {\"value\": 1.25, \"unit\": \"MB\"}}}"
        );
    }
}
