//! Bit-exactness of the structure-of-arrays batch path (ISSUE 3,
//! satellite 3): `BottomKStreamSampler::push_batch` and
//! `MultiAssignmentStreamSampler::push_columns` must match per-record
//! ingestion to the bit under duplicate keys, zero weights and batch sizes
//! around the sample size (`1`, `k-1`, `k`, `4k`), for both rank families.

mod common;

use common::{case_rng, MASTER_SEED};
use coordinated_sampling::prelude::*;
use coordinated_sampling::stream::{BottomKStreamSampler, MultiAssignmentStreamSampler};
use cws_core::columns::RecordColumns;
use cws_hash::RandomSource;

const K: usize = 16;

/// A stream with adversarial structure: ~20% duplicated keys (re-offers of
/// live candidates and of evicted keys), ~25% zero weights, heavy-tailed
/// weight spread.
fn adversarial_records(case: u64, len: usize, assignments: usize) -> Vec<(Key, Vec<f64>)> {
    let rng = &mut case_rng("soa_parity", case);
    let mut records: Vec<(Key, Vec<f64>)> = Vec::with_capacity(len);
    for i in 0..len {
        let key = if i > 0 && rng.next_below(5) == 0 {
            // Re-offer an earlier key (possibly already evicted).
            records[rng.next_below(i as u64) as usize].0
        } else {
            rng.next_u64() >> 20
        };
        let weights: Vec<f64> = (0..assignments)
            .map(|_| {
                if rng.next_below(4) == 0 {
                    0.0
                } else {
                    let magnitude = rng.next_below(6);
                    (1 + rng.next_below(1000)) as f64 * 10f64.powi(magnitude as i32 - 3)
                }
            })
            .collect();
        records.push((key, weights));
    }
    records
}

fn columns_of(records: &[(Key, Vec<f64>)], assignments: usize) -> RecordColumns {
    let mut columns = RecordColumns::with_capacity(assignments, records.len());
    for (key, weights) in records {
        columns.push(*key, weights);
    }
    columns
}

fn assert_sketch_bits(a: &BottomKSketch, b: &BottomKSketch, context: &str) {
    assert_eq!(a, b, "{context}");
    assert_eq!(a.next_rank().to_bits(), b.next_rank().to_bits(), "{context}: next_rank");
    for (ea, eb) in a.entries().iter().zip(b.entries()) {
        assert_eq!(ea.key, eb.key, "{context}");
        assert_eq!(ea.rank.to_bits(), eb.rank.to_bits(), "{context}: rank");
        assert_eq!(ea.weight.to_bits(), eb.weight.to_bits(), "{context}: weight");
    }
}

/// Single-assignment `push_batch` over slices equals scalar `push`, fed in
/// batch sizes straddling the sample size and the internal chunk length.
#[test]
fn bottomk_batch_sizes_around_k_match_scalar_push() {
    for family in [RankFamily::Ipps, RankFamily::Exp] {
        for (case, mode) in
            [CoordinationMode::SharedSeed, CoordinationMode::Independent].into_iter().enumerate()
        {
            let records = adversarial_records(case as u64, 6000, 1);
            let keys: Vec<Key> = records.iter().map(|(key, _)| *key).collect();
            let weights: Vec<f64> = records.iter().map(|(_, w)| w[0]).collect();
            let generator = RankGenerator::new(family, mode, MASTER_SEED).unwrap();

            let mut scalar = BottomKStreamSampler::new(generator, 0, K);
            for (&key, &weight) in keys.iter().zip(&weights) {
                scalar.push(key, weight).unwrap();
            }
            let expected = scalar.finalize();

            for batch in [1usize, K - 1, K, 4 * K] {
                let mut batched = BottomKStreamSampler::new(generator, 0, K);
                for start in (0..keys.len()).step_by(batch) {
                    let end = (start + batch).min(keys.len());
                    batched.push_batch(&keys[start..end], &weights[start..end]).unwrap();
                }
                assert_eq!(batched.processed(), keys.len() as u64);
                assert_sketch_bits(
                    &batched.finalize(),
                    &expected,
                    &format!("{family:?} {mode:?} batch={batch}"),
                );
            }
        }
    }
}

/// Multi-assignment `push_columns` equals `push_record`, fed in batch sizes
/// straddling the sample size, with duplicate keys and zero weights.
#[test]
fn multi_columns_batch_sizes_around_k_match_push_record() {
    for family in [RankFamily::Ipps, RankFamily::Exp] {
        for (case, mode) in
            [CoordinationMode::SharedSeed, CoordinationMode::Independent].into_iter().enumerate()
        {
            let assignments = 5;
            let records = adversarial_records(10 + case as u64, 4000, assignments);
            let config = SummaryConfig::new(K, family, mode, MASTER_SEED ^ 0xA5);

            let mut scalar = MultiAssignmentStreamSampler::new(config, assignments);
            for (key, weights) in &records {
                scalar.push_record(*key, weights).unwrap();
            }
            let expected = scalar.finalize();

            for batch in [1usize, K - 1, K, 4 * K] {
                let mut batched = MultiAssignmentStreamSampler::new(config, assignments);
                for chunk in records.chunks(batch) {
                    batched.push_columns(&columns_of(chunk, assignments)).unwrap();
                }
                assert_eq!(batched.processed(), records.len() as u64);
                let got = batched.finalize();
                assert_eq!(got, expected, "{family:?} {mode:?} batch={batch}");
                for (sa, sb) in got.sketches().iter().zip(expected.sketches()) {
                    assert_sketch_bits(sa, sb, &format!("{family:?} {mode:?} batch={batch}"));
                }
            }
        }
    }
}

/// Duplicate keys inside one column batch behave exactly like duplicate
/// per-record pushes: the smaller rank wins, membership stays consistent.
#[test]
fn duplicates_within_a_single_batch_match_per_record() {
    let config = SummaryConfig::new(4, RankFamily::Ipps, CoordinationMode::SharedSeed, 99);
    // Key 42 appears three times with different weights (different ranks
    // under shared-seed consistency); key 7 twice with the same weight.
    let records: Vec<(Key, Vec<f64>)> = vec![
        (42, vec![1.0]),
        (7, vec![3.0]),
        (1, vec![2.0]),
        (42, vec![50.0]),
        (2, vec![0.0]),
        (7, vec![3.0]),
        (3, vec![4.0]),
        (42, vec![0.5]),
        (4, vec![1.5]),
    ];
    let mut scalar = MultiAssignmentStreamSampler::new(config, 1);
    for (key, weights) in &records {
        scalar.push_record(*key, weights).unwrap();
    }
    let mut batched = MultiAssignmentStreamSampler::new(config, 1);
    batched.push_columns(&columns_of(&records, 1)).unwrap();
    assert_eq!(batched.finalize(), scalar.finalize());
}

/// An all-zero-weight stream produces empty sketches through both paths.
#[test]
fn zero_weight_streams_yield_empty_sketches() {
    let config = SummaryConfig::new(8, RankFamily::Exp, CoordinationMode::SharedSeed, 3);
    let records: Vec<(Key, Vec<f64>)> = (0..100u64).map(|k| (k, vec![0.0, 0.0])).collect();
    let mut batched = MultiAssignmentStreamSampler::new(config, 2);
    batched.push_columns(&columns_of(&records, 2)).unwrap();
    let summary = batched.finalize();
    assert_eq!(summary.num_distinct_keys(), 0);
}
