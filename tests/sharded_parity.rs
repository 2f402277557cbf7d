//! Bit-exactness of the ingestion engine: the hash-once multi-assignment
//! sampler, alone or behind a dispersed [`Pipeline`], must produce
//! summaries **bit-identical** to per-assignment ingestion and to the
//! offline builder, for every rank family, dispersable coordination mode,
//! ingestion API (per-record, one column batch, chunked column batches)
//! and arrival order.

mod common;

use common::{arb_multiweighted, case_rng, shuffle, MASTER_SEED};
use coordinated_sampling::prelude::*;
use coordinated_sampling::stream::{DispersedStreamSampler, MultiAssignmentStreamSampler};
use cws_core::columns::RecordColumns;
use cws_hash::RandomSource;

const CASES: u64 = 24;

/// All (family, mode) combinations realizable in the dispersed model.
fn dispersable_configs(k: usize, seed: u64) -> Vec<SummaryConfig> {
    let mut configs = Vec::new();
    for family in [RankFamily::Ipps, RankFamily::Exp] {
        for mode in [CoordinationMode::SharedSeed, CoordinationMode::Independent] {
            configs.push(SummaryConfig::new(k, family, mode, seed));
        }
    }
    configs
}

/// Asserts full structural equality plus explicit bit-equality of the
/// per-assignment rank tails (`r_{k+1}` is easy to get "approximately right"
/// while breaking estimators, so it is checked to the bit).
fn assert_bit_identical(a: &DispersedSummary, b: &DispersedSummary, context: &str) {
    assert_eq!(a, b, "{context}");
    for (sa, sb) in a.sketches().iter().zip(b.sketches()) {
        assert_eq!(sa.next_rank().to_bits(), sb.next_rank().to_bits(), "{context}: next_rank");
        assert_eq!(sa.kth_rank().to_bits(), sb.kth_rank().to_bits(), "{context}: kth_rank");
        for (ea, eb) in sa.entries().iter().zip(sb.entries()) {
            assert_eq!(ea.key, eb.key, "{context}");
            assert_eq!(ea.rank.to_bits(), eb.rank.to_bits(), "{context}: entry rank");
            assert_eq!(ea.weight.to_bits(), eb.weight.to_bits(), "{context}: entry weight");
        }
    }
}

/// A dispersed pipeline over `config`.
fn dispersed_pipeline(config: &SummaryConfig, assignments: usize) -> Pipeline {
    Pipeline::builder()
        .assignments(assignments)
        .k(config.k)
        .rank(config.family)
        .coordination(config.mode)
        .layout(Layout::Dispersed)
        .seed(config.seed)
        .build()
        .unwrap()
}

fn finalize_dispersed(pipeline: Pipeline) -> DispersedSummary {
    pipeline.finalize().unwrap().as_dispersed().expect("dispersed layout").clone()
}

/// Shuffled records of a seeded random data set, both as rows and columns.
fn shuffled_records(case: u64, label: &str) -> (Vec<(Key, Vec<f64>)>, RecordColumns, usize) {
    let rng = &mut case_rng(label, case);
    let data = arb_multiweighted(rng, 120);
    let assignments = data.num_assignments();
    let mut records: Vec<(Key, Vec<f64>)> =
        data.iter().map(|(key, weights)| (key, weights.to_vec())).collect();
    shuffle(&mut records, rng);
    let mut columns = RecordColumns::with_capacity(assignments, records.len());
    for (key, weights) in &records {
        columns.push(*key, weights);
    }
    (records, columns, assignments)
}

/// Pipeline ingestion equals record-at-a-time hash-once ingestion for every
/// rank family × coordination mode × ingestion API, over seeded shuffled
/// streams.
#[test]
fn sharded_equals_sequential_for_all_families_and_shard_counts() {
    for case in 0..CASES {
        let (records, columns, assignments) = shuffled_records(case, "sharded_parity");
        let rng = &mut case_rng("sharded_parity_k", case);
        let k = 1 + rng.next_below(14) as usize;

        for config in dispersable_configs(k, MASTER_SEED ^ case) {
            let mut sequential = MultiAssignmentStreamSampler::new(config, assignments);
            for (key, weights) in &records {
                sequential.push_record(*key, weights).unwrap();
            }
            let expected = sequential.finalize();
            let context = format!("case {case}: {:?}/{:?} k={k}", config.family, config.mode);

            // Per-record route.
            let mut pipeline = dispersed_pipeline(&config, assignments);
            for (key, weights) in &records {
                pipeline.push_record(*key, weights).unwrap();
            }
            assert_bit_identical(&finalize_dispersed(pipeline), &expected, &context);

            // One column batch.
            let mut pipeline = dispersed_pipeline(&config, assignments);
            pipeline.push_columns(&columns).unwrap();
            assert_bit_identical(
                &finalize_dispersed(pipeline),
                &expected,
                &format!("{context} [columns]"),
            );

            // Many small column batches.
            let mut pipeline = dispersed_pipeline(&config, assignments);
            for chunk in columns.split(13) {
                pipeline.push_columns(&chunk).unwrap();
            }
            assert_bit_identical(
                &finalize_dispersed(pipeline),
                &expected,
                &format!("{context} [chunked columns]"),
            );
        }
    }
}

/// The hash-once sampler equals the per-assignment dispersed sampler and the
/// offline builder on shuffled streams — one key hash per record loses
/// nothing, whether records arrive as rows or as columns.
#[test]
fn hash_once_equals_per_assignment_and_offline() {
    for case in 0..CASES {
        let (records, columns, assignments) = shuffled_records(case, "hash_once_parity");
        let rng = &mut case_rng("hash_once_parity_k", case);
        let k = 1 + rng.next_below(14) as usize;
        let mut builder = MultiWeighted::builder(assignments);
        for (key, weights) in &records {
            builder.add_vector(*key, weights);
        }
        let data = builder.build();

        for config in dispersable_configs(k, MASTER_SEED ^ (case << 1)) {
            let offline = DispersedSummary::build(&data, &config);

            let mut once = MultiAssignmentStreamSampler::new(config, assignments);
            let mut columnar = MultiAssignmentStreamSampler::new(config, assignments);
            let mut per = DispersedStreamSampler::new(config, assignments);
            for (key, weights) in &records {
                once.push_record(*key, weights).unwrap();
                for (b, &w) in weights.iter().enumerate() {
                    per.push(b, *key, w).unwrap();
                }
            }
            columnar.push_columns(&columns).unwrap();
            let context = format!("case {case}: {:?}/{:?} k={k}", config.family, config.mode);
            let once = once.finalize();
            assert_bit_identical(&once, &per.finalize(), &context);
            assert_bit_identical(&once, &offline, &context);
            let columnar = columnar.finalize();
            assert_bit_identical(&once, &columnar, &format!("{context} [columns]"));
        }
    }
}

/// Pipeline ingestion never loses or duplicates a record across call
/// shapes: the progress count equals the stream length, and the summary's
/// union keys all exist in the input.
#[test]
fn sharded_record_accounting() {
    let rng = &mut case_rng("sharded_accounting", 0);
    let data = arb_multiweighted(rng, 200);
    let assignments = data.num_assignments();
    let config = SummaryConfig::new(8, RankFamily::Ipps, CoordinationMode::SharedSeed, 5);

    let mut pipeline = dispersed_pipeline(&config, assignments);
    pipeline.push_columns(&data.to_columns()).unwrap();
    assert_eq!(pipeline.processed(), data.num_keys() as u64);
    for (key, weights) in data.iter() {
        pipeline.push_record(key + 1_000_000, weights).unwrap();
    }
    assert_eq!(pipeline.processed(), 2 * data.num_keys() as u64);
    let summary = finalize_dispersed(pipeline);
    for key in summary.union_keys() {
        let key = key % 1_000_000;
        assert!((key as usize) < data.num_keys(), "unknown key {key} in summary");
    }
}
