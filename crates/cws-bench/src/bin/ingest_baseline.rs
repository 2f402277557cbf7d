//! Regenerates the ingestion- and query-performance baseline
//! (`BENCH_pr16.json`).
//!
//! Measures the layers of the ingestion hot path — single-assignment push
//! throughput (scalar and batched), per-assignment hashing vs the hash-once
//! row and column paths, and the `Pipeline` facade's `SumByKey`
//! pre-aggregation stage over an unaggregated element stream (ungoverned
//! and under a byte-tracking budget, which also records the stage's peak
//! tracked bytes) — on the synthetic Zipf workload, and emits a JSON
//! snapshot so later PRs have a perf trajectory to compare against.
//!
//! Since schema v6 the baseline also measures the query-serving path: a
//! fleet of 64 subpopulation sums over disjoint key lanes, evaluated
//! naively (one summary pass per query) and through the batched planner
//! (one shared pass), on both summary layouts. The two routes are
//! bit-identical per query — `tests/planner_parity.rs` pins that — so the
//! recorded `shared_pass_speedup` is a pure cost comparison.
//!
//! Since schema v7 the baseline also quantifies the write-ahead journal:
//! epoched per-record ingestion with no journal and with a journal under
//! each fsync policy (`PerBatch`, `EveryN(32)`, `OnRotate`), recording the
//! per-policy overhead so operators can price the durability knob —
//! `tests/wal_battery.rs` pins that all three recover bit-exactly, so the
//! recorded overhead is a pure cost comparison too.
//!
//! Usage:
//!
//! ```text
//! ingest_baseline [--quick] [--out PATH]
//! ingest_baseline --check PATH      # schema drift guard (used by CI)
//! ```
//!
//! `--check` regenerates the baseline in quick mode and fails (exit code 1)
//! if the committed file's JSON key structure no longer matches what the
//! binary produces — the signal that the schema drifted without the baseline
//! being regenerated.

use std::process::ExitCode;
use std::time::Instant;

use cws_bench::{ingestion_columns, ingestion_dataset, ingestion_elements, workloads};
use cws_core::coordination::{CoordinationMode, RankGenerator};
use cws_core::ranks::RankFamily;
use cws_core::summary::SummaryConfig;
use cws_core::weights::MultiWeighted;

const ASSIGNMENTS: usize = 8;
const K: usize = 256;

struct Options {
    quick: bool,
    out: Option<String>,
    check: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut options = Options { quick: false, out: None, check: None };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--quick" => options.quick = true,
            "--out" => {
                options.out = Some(iter.next().ok_or("--out requires a path")?.clone());
            }
            "--check" => {
                options.check = Some(iter.next().ok_or("--check requires a path")?.clone());
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(options)
}

/// Best-of-`reps` wall-clock throughput of `routine` in records per second.
fn measure<F: FnMut() -> usize>(records: usize, reps: usize, mut routine: F) -> f64 {
    // Warm-up run (page in the dataset, warm the branch predictors).
    let mut guard = routine();
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        guard = guard.wrapping_add(routine());
        best = best.min(start.elapsed().as_secs_f64());
    }
    std::hint::black_box(guard);
    records as f64 / best
}

struct Baseline {
    quick: bool,
    num_keys: usize,
    single_keys_per_sec: f64,
    single_batch_keys_per_sec: f64,
    per_assignment_records_per_sec: f64,
    hash_once_records_per_sec: f64,
    hash_once_batch_records_per_sec: f64,
    hash_once_columns_records_per_sec: f64,
    /// Size of the unaggregated element stream (2–5 fragments per slot).
    num_elements: usize,
    /// The `SumByKey` pre-aggregation stage, in elements per second.
    sum_by_key_elements_per_sec: f64,
    /// The same stage under a byte-tracking budget (accounting on every
    /// batch, cap never binding), in elements per second.
    sum_by_key_governed_elements_per_sec: f64,
    /// The aggregation stage's memory high-water mark under the
    /// byte-tracking budget, in bytes.
    peak_tracked_bytes: u64,
    /// Per layout ("colocated" / "dispersed"): naive and batched
    /// queries per second for the 64-query lane-sum fleet.
    fleet_queries_per_sec: Vec<(&'static str, f64, f64)>,
    /// Records in the (smaller) journaled-ingest dataset — fsync-bound
    /// workloads cannot honestly reuse the full-size one.
    journal_records: usize,
    /// Epoched per-record ingestion with no journal, in records per second.
    unjournaled_records_per_sec: f64,
    /// Per fsync policy ("per_batch" / "every_n_32" / "on_rotate"):
    /// journaled records per second.
    journaled_records_per_sec: Vec<(&'static str, f64)>,
}

fn run_baseline(quick: bool) -> Baseline {
    let num_keys = if quick { 10_000 } else { 200_000 };
    let reps = if quick { 3 } else { 7 };
    let data: MultiWeighted = ingestion_dataset(num_keys, ASSIGNMENTS);
    let columns = ingestion_columns(num_keys, ASSIGNMENTS);
    let config = SummaryConfig::new(K, RankFamily::Ipps, CoordinationMode::SharedSeed, 7);
    let generator = RankGenerator::new(RankFamily::Ipps, CoordinationMode::SharedSeed, 7)
        .expect("valid combination");

    eprintln!("[ingest_baseline] dataset: {num_keys} keys x {ASSIGNMENTS} assignments, k={K}");

    let single_keys_per_sec =
        measure(num_keys, reps, || workloads::single_push(&data, generator, K));
    eprintln!("[ingest_baseline] single-assignment push: {single_keys_per_sec:.3e} keys/s");

    let single_batch_keys_per_sec =
        measure(num_keys, reps, || workloads::single_push_batch(&columns, generator, K));
    eprintln!(
        "[ingest_baseline] single-assignment batch push: {single_batch_keys_per_sec:.3e} keys/s"
    );

    let per_assignment_records_per_sec =
        measure(num_keys, reps, || workloads::per_assignment(&data, config));
    eprintln!(
        "[ingest_baseline] per-assignment hashing: {per_assignment_records_per_sec:.3e} records/s"
    );

    let hash_once_records_per_sec = measure(num_keys, reps, || workloads::hash_once(&data, config));
    eprintln!("[ingest_baseline] hash-once: {hash_once_records_per_sec:.3e} records/s");

    let hash_once_batch_records_per_sec =
        measure(num_keys, reps, || workloads::hash_once_batch(&data, config));
    eprintln!("[ingest_baseline] hash-once batch: {hash_once_batch_records_per_sec:.3e} records/s");

    let hash_once_columns_records_per_sec =
        measure(num_keys, reps, || workloads::hash_once_columns(&columns, config));
    eprintln!(
        "[ingest_baseline] hash-once columns: {hash_once_columns_records_per_sec:.3e} records/s"
    );

    let elements = ingestion_elements(num_keys, ASSIGNMENTS);
    let sum_by_key_elements_per_sec = measure(elements.len(), reps, || {
        workloads::sum_by_key_elements(&elements, config, ASSIGNMENTS)
    });
    eprintln!(
        "[ingest_baseline] SumByKey pre-aggregation: {sum_by_key_elements_per_sec:.3e} elements/s \
         over {} elements",
        elements.len()
    );

    let mut peak_tracked_bytes = 0u64;
    let sum_by_key_governed_elements_per_sec = measure(elements.len(), reps, || {
        let (size, peak) = workloads::sum_by_key_elements_governed(&elements, config, ASSIGNMENTS);
        peak_tracked_bytes = peak_tracked_bytes.max(peak);
        size
    });
    eprintln!(
        "[ingest_baseline] governed SumByKey: {sum_by_key_governed_elements_per_sec:.3e} \
         elements/s, peak tracked bytes {peak_tracked_bytes}"
    );

    let queries = workloads::fleet_queries();
    let batch = workloads::fleet_batch();
    let (colocated, dispersed) = workloads::query_summaries(&data, &config);
    let mut fleet_queries_per_sec = Vec::new();
    for (layout, summary) in [("colocated", &colocated), ("dispersed", &dispersed)] {
        let naive_rate =
            measure(workloads::FLEET_QUERIES, reps, || workloads::naive_fleet(summary, &queries));
        let batched_rate =
            measure(workloads::FLEET_QUERIES, reps, || workloads::batched_fleet(summary, &batch));
        eprintln!(
            "[ingest_baseline] query fleet ({layout}): {naive_rate:.3e} queries/s naive, \
             {batched_rate:.3e} queries/s batched ({:.1}x)",
            batched_rate / naive_rate
        );
        fleet_queries_per_sec.push((layout, naive_rate, batched_rate));
    }

    // Durability: the journaled dataset is deliberately small (the
    // interesting policies are fsync-bound, not CPU-bound) and the journal
    // lands in a scratch directory wiped per run.
    let journal_records = if quick { 1_000 } else { 4_000 };
    let journal_data: MultiWeighted = ingestion_dataset(journal_records, ASSIGNMENTS);
    let journal_dir = std::env::temp_dir().join(format!("cws-bench-wal-{}", std::process::id()));
    let unjournaled_records_per_sec =
        measure(journal_records, reps, || workloads::journaled_ingest(&journal_data, config, None));
    eprintln!(
        "[ingest_baseline] epoched ingest, no journal: {unjournaled_records_per_sec:.3e} records/s"
    );
    let mut journaled_records_per_sec = Vec::new();
    for (name, policy) in [
        ("per_batch", cws_engine::SyncPolicy::PerBatch),
        ("every_n_32", cws_engine::SyncPolicy::EveryN(32)),
        ("on_rotate", cws_engine::SyncPolicy::OnRotate),
    ] {
        let rate = measure(journal_records, reps, || {
            workloads::journaled_ingest(&journal_data, config, Some((&journal_dir, policy)))
        });
        eprintln!(
            "[ingest_baseline] journaled ingest ({name}): {rate:.3e} records/s \
             ({:.1}x overhead)",
            unjournaled_records_per_sec / rate
        );
        journaled_records_per_sec.push((name, rate));
    }
    let _ = std::fs::remove_dir_all(&journal_dir);

    Baseline {
        quick,
        num_keys,
        single_keys_per_sec,
        single_batch_keys_per_sec,
        per_assignment_records_per_sec,
        hash_once_records_per_sec,
        hash_once_batch_records_per_sec,
        hash_once_columns_records_per_sec,
        num_elements: elements.len(),
        sum_by_key_elements_per_sec,
        sum_by_key_governed_elements_per_sec,
        peak_tracked_bytes,
        fleet_queries_per_sec,
        journal_records,
        unjournaled_records_per_sec,
        journaled_records_per_sec,
    }
}

/// Hand-rolled JSON (the workspace builds without crates.io, so no serde).
fn to_json(b: &Baseline) -> String {
    let speedup = b.hash_once_batch_records_per_sec / b.per_assignment_records_per_sec;
    let columns_speedup = b.hash_once_columns_records_per_sec / b.per_assignment_records_per_sec;
    let batch_speedup = b.single_batch_keys_per_sec / b.single_keys_per_sec;
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": \"cws-ingestion-baseline/v8\",\n");
    out.push_str(
        "  \"generated_by\": \"cargo run --release -p cws-bench --bin ingest_baseline\",\n",
    );
    out.push_str(&format!("  \"quick\": {},\n", b.quick));
    out.push_str("  \"dataset\": {\n");
    out.push_str(&format!("    \"num_keys\": {},\n", b.num_keys));
    out.push_str(&format!("    \"num_assignments\": {ASSIGNMENTS},\n"));
    out.push_str("    \"zipf_exponent\": 1.1,\n");
    out.push_str(&format!("    \"k\": {K}\n"));
    out.push_str("  },\n");
    out.push_str("  \"single_assignment\": {\n");
    out.push_str(&format!("    \"keys_per_sec\": {:.1},\n", b.single_keys_per_sec));
    out.push_str(&format!("    \"batch_keys_per_sec\": {:.1},\n", b.single_batch_keys_per_sec));
    out.push_str(&format!("    \"batch_speedup\": {batch_speedup:.2}\n"));
    out.push_str("  },\n");
    out.push_str("  \"multi_assignment\": {\n");
    out.push_str(&format!(
        "    \"per_assignment_records_per_sec\": {:.1},\n",
        b.per_assignment_records_per_sec
    ));
    out.push_str(&format!(
        "    \"hash_once_records_per_sec\": {:.1},\n",
        b.hash_once_records_per_sec
    ));
    out.push_str(&format!(
        "    \"hash_once_batch_records_per_sec\": {:.1},\n",
        b.hash_once_batch_records_per_sec
    ));
    out.push_str(&format!(
        "    \"hash_once_columns_records_per_sec\": {:.1},\n",
        b.hash_once_columns_records_per_sec
    ));
    out.push_str(&format!("    \"hash_once_speedup\": {speedup:.2},\n"));
    out.push_str(&format!("    \"hash_once_columns_speedup\": {columns_speedup:.2}\n"));
    out.push_str("  },\n");
    out.push_str("  \"aggregation\": {\n");
    out.push_str(&format!("    \"num_elements\": {},\n", b.num_elements));
    out.push_str("    \"fragments_per_slot\": \"2-5\",\n");
    out.push_str(&format!(
        "    \"sum_by_key_elements_per_sec\": {:.1},\n",
        b.sum_by_key_elements_per_sec
    ));
    out.push_str(&format!(
        "    \"sum_by_key_governed_elements_per_sec\": {:.1},\n",
        b.sum_by_key_governed_elements_per_sec
    ));
    out.push_str(&format!(
        "    \"governance_overhead\": {:.3},\n",
        b.sum_by_key_elements_per_sec / b.sum_by_key_governed_elements_per_sec
    ));
    out.push_str(&format!("    \"peak_tracked_bytes\": {}\n", b.peak_tracked_bytes));
    out.push_str("  },\n");
    out.push_str("  \"batched_query\": {\n");
    out.push_str(&format!("    \"num_queries\": {},\n", cws_bench::workloads::FLEET_QUERIES));
    out.push_str("    \"workload\": \"sum over assignment 0, one disjoint key lane per query\",\n");
    for (i, &(layout, naive_rate, batched_rate)) in b.fleet_queries_per_sec.iter().enumerate() {
        let comma = if i + 1 < b.fleet_queries_per_sec.len() { "," } else { "" };
        out.push_str(&format!(
            "    \"{layout}\": {{ \"naive_queries_per_sec\": {naive_rate:.1}, \
             \"batched_queries_per_sec\": {batched_rate:.1}, \
             \"shared_pass_speedup\": {:.2} }}{comma}\n",
            batched_rate / naive_rate
        ));
    }
    out.push_str("  },\n");
    out.push_str("  \"durability\": {\n");
    out.push_str(&format!("    \"journal_records\": {},\n", b.journal_records));
    out.push_str(&format!(
        "    \"unjournaled_records_per_sec\": {:.1},\n",
        b.unjournaled_records_per_sec
    ));
    out.push_str("    \"journaled\": [\n");
    for (i, &(name, rate)) in b.journaled_records_per_sec.iter().enumerate() {
        let comma = if i + 1 < b.journaled_records_per_sec.len() { "," } else { "" };
        out.push_str(&format!(
            "      {{ \"sync\": \"{name}\", \"records_per_sec\": {rate:.1}, \
             \"overhead_x\": {:.2} }}{comma}\n",
            b.unjournaled_records_per_sec / rate
        ));
    }
    out.push_str("    ]\n");
    out.push_str("  }\n");
    out.push_str("}\n");
    out
}

/// The ordered list of JSON object keys in `text` — the schema signature the
/// drift guard compares. (A full parser is overkill: keys are exactly the
/// quoted strings immediately followed by a colon.)
fn schema_signature(text: &str) -> Vec<String> {
    let mut keys = Vec::new();
    let bytes = text.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'"' {
            let start = i + 1;
            let mut j = start;
            while j < bytes.len() && bytes[j] != b'"' {
                if bytes[j] == b'\\' {
                    j += 1;
                }
                j += 1;
            }
            let after = j + 1;
            let mut k = after;
            while k < bytes.len() && (bytes[k] == b' ' || bytes[k] == b'\n') {
                k += 1;
            }
            if k < bytes.len() && bytes[k] == b':' {
                keys.push(text[start..j].to_string());
            }
            i = after;
        } else {
            i += 1;
        }
    }
    keys
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_args(&args) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!("usage: ingest_baseline [--quick] [--out PATH] | --check PATH");
            return ExitCode::FAILURE;
        }
    };

    if let Some(path) = options.check {
        let committed = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(err) => {
                eprintln!("error: cannot read `{path}`: {err}");
                return ExitCode::FAILURE;
            }
        };
        let fresh = to_json(&run_baseline(true));
        let expected = schema_signature(&fresh);
        let actual = schema_signature(&committed);
        if expected != actual {
            eprintln!("error: `{path}` does not match the baseline schema");
            eprintln!("  expected keys: {expected:?}");
            eprintln!("  found keys:    {actual:?}");
            eprintln!(
                "regenerate with: cargo run --release -p cws-bench --bin ingest_baseline \
                       -- --out {path}"
            );
            return ExitCode::FAILURE;
        }
        eprintln!("[ingest_baseline] `{path}` matches the baseline schema");
        return ExitCode::SUCCESS;
    }

    let json = to_json(&run_baseline(options.quick));
    match options.out {
        Some(path) => {
            if let Err(err) = std::fs::write(&path, &json) {
                eprintln!("error: cannot write `{path}`: {err}");
                return ExitCode::FAILURE;
            }
            eprintln!("[ingest_baseline] wrote {path}");
        }
        None => print!("{json}"),
    }
    ExitCode::SUCCESS
}
