//! Batch execution is the estimator, folded once: every `QueryBatch` and
//! `Query` result must be **bit-identical** to an independent reference —
//! the `cws-core` estimators called directly, then
//! `AdjustedWeights::subset_total` / `subset_count` and a test-local
//! variance fold — across layouts, selections, predicates and assignment
//! sets; with every key sampled, every report must equal the exact
//! aggregate; and the surfaced confidence intervals must actually cover at
//! their nominal rate over seeded trials.

mod common;

use std::time::Duration;

use common::{case_rng, mean_and_std};
use coordinated_sampling::core::aggregates::weighted_jaccard;
use coordinated_sampling::core::estimate::adjusted::AdjustedWeights;
use coordinated_sampling::core::variance::ht_variance_component;
use coordinated_sampling::core::{
    normal_ci, CwsError, DispersedEstimator, InclusiveEstimator, Z_95,
};
use coordinated_sampling::hash::RandomSource;
use coordinated_sampling::prelude::*;

type Pred = fn(Key) -> bool;

/// The predicate grid shared by batch specs and sequential queries.
fn predicates() -> [Option<Pred>; 3] {
    [None, Some(|key| key % 2 == 0), Some(|key| key % 5 == 1)]
}

fn fixture(keys: u64, salt: u64) -> MultiWeighted {
    let mut rng = case_rng("planner_parity_fixture", salt);
    let mut builder = MultiWeighted::builder(3);
    for key in 0..keys {
        for b in 0..3 {
            let weight = match rng.next_below(3) {
                0 => 0.0,
                1 => 0.01 + rng.next_unit() * 10.0,
                _ => 10.0 + rng.next_unit() * 1000.0,
            };
            builder.add(key, b, weight);
        }
    }
    builder.build()
}

fn summaries(keys: u64, salt: u64, k: usize) -> (Summary, Summary) {
    let data = fixture(keys, salt);
    let config =
        SummaryConfig::new(k, RankFamily::Ipps, CoordinationMode::SharedSeed, 0xC0DE + salt);
    (
        Summary::Colocated(ColocatedSummary::build(&data, &config)),
        Summary::Dispersed(DispersedSummary::build(&data, &config)),
    )
}

/// The spec of an aggregate function, exactly as written (unsorted sets
/// included).
fn spec_of(aggregate: &AggregateFn) -> QuerySpec {
    QuerySpec::new(match aggregate.clone() {
        AggregateFn::SingleAssignment(assignment) => AggregateSpec::Sum { assignment },
        AggregateFn::Max(assignments) => AggregateSpec::Max { assignments },
        AggregateFn::Min(assignments) => AggregateSpec::Min { assignments },
        AggregateFn::L1(assignments) => AggregateSpec::L1 { assignments },
        AggregateFn::LthLargest { assignments, ell } => {
            AggregateSpec::LthLargest { assignments, ell }
        }
    })
}

/// The `Query` of an aggregate function, exactly as written.
fn query_of(aggregate: &AggregateFn) -> Query {
    match aggregate.clone() {
        AggregateFn::SingleAssignment(b) => Query::single(b),
        AggregateFn::Max(r) => Query::max(r),
        AggregateFn::Min(r) => Query::min(r),
        AggregateFn::L1(r) => Query::l1(r),
        AggregateFn::LthLargest { assignments, ell } => Query::lth_largest(assignments, ell),
    }
}

/// The reference adjusted weights: the `cws-core` estimators called
/// directly (the colocated one recomputing its probabilities, not sharing a
/// batch pass), with the assignment set sorted.
fn reference_weights(
    summary: &Summary,
    aggregate: &AggregateFn,
    selection: SelectionKind,
) -> AdjustedWeights {
    let sorted = |r: &[usize]| {
        let mut r = r.to_vec();
        r.sort_unstable();
        r
    };
    match summary {
        Summary::Colocated(colocated) => {
            let aggregate = match aggregate {
                AggregateFn::SingleAssignment(b) => AggregateFn::SingleAssignment(*b),
                AggregateFn::Max(r) => AggregateFn::Max(sorted(r)),
                AggregateFn::Min(r) => AggregateFn::Min(sorted(r)),
                AggregateFn::L1(r) => AggregateFn::L1(sorted(r)),
                AggregateFn::LthLargest { assignments, ell } => {
                    AggregateFn::LthLargest { assignments: sorted(assignments), ell: *ell }
                }
            };
            InclusiveEstimator::new(colocated).aggregate(&aggregate).unwrap()
        }
        Summary::Dispersed(dispersed) => {
            let estimator = DispersedEstimator::new(dispersed);
            match aggregate {
                AggregateFn::SingleAssignment(b) => estimator.single(*b),
                AggregateFn::Max(r) => estimator.max(&sorted(r)),
                AggregateFn::Min(r) => estimator.min(&sorted(r), selection),
                AggregateFn::L1(r) => estimator.l1(&sorted(r), selection),
                AggregateFn::LthLargest { assignments, ell } => {
                    estimator.lth_largest(&sorted(assignments), *ell, selection)
                }
            }
            .unwrap()
        }
    }
}

/// The reference report of a sum-shaped spec: `subset_total`, the number of
/// contributing keys, and a plug-in variance folded here over the retained
/// support.
fn reference_report(adjusted: &AdjustedWeights, predicate: Pred) -> EstimateReport {
    let value = adjusted.subset_total(predicate);
    let observed_keys = adjusted.iter().filter(|&(key, _)| predicate(key)).count();
    let variance = adjusted.supported_iter().map(|iter| {
        iter.filter(|&(key, _, _)| predicate(key)).fold(0.0, |acc, (_, _, selected)| {
            acc + ht_variance_component(selected.value, selected.probability)
        })
    });
    EstimateReport {
        value,
        observed_keys,
        variance,
        ci95: variance.map(|v| normal_ci(value, v, Z_95)),
    }
}

fn assert_same_bits(actual: &EstimateReport, expected: &EstimateReport, context: &str) {
    assert_eq!(
        actual.value.to_bits(),
        expected.value.to_bits(),
        "{context}: {actual:?} vs {expected:?}"
    );
    assert_eq!(actual.observed_keys, expected.observed_keys, "{context}");
    assert_eq!(actual.variance.map(f64::to_bits), expected.variance.map(f64::to_bits), "{context}");
    assert_eq!(
        actual.ci95.map(|ci| (ci.lower.to_bits(), ci.upper.to_bits())),
        expected.ci95.map(|ci| (ci.lower.to_bits(), ci.upper.to_bits())),
        "{context}"
    );
}

#[test]
fn batch_is_bit_identical_to_sequential_queries() {
    let always: Pred = |_| true;
    let shapes = [
        AggregateFn::SingleAssignment(0),
        AggregateFn::SingleAssignment(2),
        AggregateFn::Max(vec![0, 1]),
        AggregateFn::Min(vec![0, 1]),
        AggregateFn::Min(vec![1, 2]),
        AggregateFn::L1(vec![0, 2]),
        AggregateFn::Max(vec![0, 1, 2]),
        AggregateFn::Min(vec![2, 0, 1]),
        AggregateFn::L1(vec![2, 0, 1]),
        AggregateFn::LthLargest { assignments: vec![0, 1, 2], ell: 2 },
        AggregateFn::LthLargest { assignments: vec![2, 0, 1], ell: 2 },
    ];
    for case in 0..6u64 {
        let mut rng = case_rng("planner_parity_cases", case);
        let keys = 100 + rng.next_below(400);
        let k = 8 + rng.next_below(48) as usize;
        let (colocated, dispersed) = summaries(keys, case, k);
        for summary in [&colocated, &dispersed] {
            for selection in [SelectionKind::SSet, SelectionKind::LSet] {
                let mut batch = QueryBatch::new();
                let mut expected = Vec::new();
                for aggregate in &shapes {
                    let reference = reference_weights(summary, aggregate, selection);
                    for predicate in predicates() {
                        let mut spec = spec_of(aggregate).selection(selection);
                        let mut query = query_of(aggregate).selection(selection);
                        if let Some(p) = predicate {
                            spec = spec.filter(p);
                            query = query.filter(p);
                        }
                        batch = batch.push(spec);
                        let report = reference_report(&reference, predicate.unwrap_or(always));
                        expected.push((report, query, format!("case {case}: {aggregate:?}")));
                    }
                }
                // Count rides along: `subset_count` is its reference.
                let count =
                    reference_weights(summary, &AggregateFn::SingleAssignment(1), selection);
                for predicate in predicates() {
                    let mut spec = QuerySpec::count(1).selection(selection);
                    if let Some(p) = predicate {
                        spec = spec.filter(p);
                    }
                    batch = batch.push(spec);
                }
                let reports = summary.query_batch(&batch).unwrap();
                assert_eq!(reports.len(), expected.len() + predicates().len());
                for (report, (reference, query, context)) in reports.iter().zip(&expected) {
                    assert_same_bits(report, reference, context);
                    assert_same_bits(&query.evaluate(summary).unwrap(), reference, context);
                }
                for (report, predicate) in reports[expected.len()..].iter().zip(predicates()) {
                    let predicate = predicate.unwrap_or(always);
                    let (value, variance) = count.subset_count(predicate).unwrap();
                    assert_eq!(report.value.to_bits(), value.to_bits());
                    assert_eq!(report.variance.map(f64::to_bits), Some(variance.to_bits()));
                    let observed = count.iter().filter(|&(key, _)| predicate(key)).count();
                    assert_eq!(report.observed_keys, observed);
                }
                // Unsorted and sorted sets are the same spec, to the bit.
                for (unsorted, sorted) in [
                    (AggregateFn::L1(vec![2, 0, 1]), AggregateFn::L1(vec![0, 1, 2])),
                    (
                        AggregateFn::LthLargest { assignments: vec![2, 0, 1], ell: 2 },
                        AggregateFn::LthLargest { assignments: vec![0, 1, 2], ell: 2 },
                    ),
                ] {
                    let solo = |aggregate: &AggregateFn| {
                        let spec = spec_of(aggregate).selection(selection);
                        summary.query_batch(&QueryBatch::new().push(spec)).unwrap()[0]
                    };
                    assert_same_bits(&solo(&unsorted), &solo(&sorted), "unsorted spec");
                    let query = |aggregate: &AggregateFn| {
                        query_of(aggregate).selection(selection).evaluate(summary).unwrap()
                    };
                    assert_same_bits(&query(&unsorted), &query(&sorted), "unsorted query");
                }
            }
        }
    }
}

/// With `k` at least the number of keys every inclusion probability is 1,
/// so every estimate is exact: a differential oracle against the exact
/// aggregates, on both layouts, both rank families and both coordination
/// modes. Independent dispersed sketches support neither max nor anything
/// built on it, and say so with a typed error.
#[test]
fn every_report_equals_the_exact_aggregate_when_every_key_is_sampled() {
    let keys = 60u64;
    let mut builder = MultiWeighted::builder(3);
    for key in 0..keys {
        builder.add(key, 0, ((key * 7) % 11) as f64);
        builder.add(key, 1, ((key * 5) % 13) as f64);
        builder.add(key, 2, (key % 4) as f64 * 3.0);
    }
    let data = builder.build();
    let close =
        |estimate: f64, exact: f64| (estimate - exact).abs() <= 1e-12 * exact.abs().max(1.0);
    let shapes = [
        AggregateFn::SingleAssignment(1),
        AggregateFn::Max(vec![0, 2]),
        AggregateFn::Min(vec![0, 2]),
        AggregateFn::L1(vec![0, 2]),
        AggregateFn::Max(vec![0, 1, 2]),
        AggregateFn::Min(vec![0, 1, 2]),
        AggregateFn::L1(vec![0, 1, 2]),
        AggregateFn::LthLargest { assignments: vec![0, 1, 2], ell: 2 },
    ];
    for family in [RankFamily::Ipps, RankFamily::Exp] {
        for mode in [CoordinationMode::SharedSeed, CoordinationMode::Independent] {
            let config = SummaryConfig::new(64, family, mode, 17);
            for summary in [
                Summary::Colocated(ColocatedSummary::build(&data, &config)),
                Summary::Dispersed(DispersedSummary::build(&data, &config)),
            ] {
                let independent_dispersed =
                    summary.as_dispersed().is_some() && mode == CoordinationMode::Independent;
                for predicate in [None, Some((|key| key % 2 == 0) as Pred)] {
                    let pred = predicate.unwrap_or(|_| true);
                    let filtered = |spec: QuerySpec| match predicate {
                        Some(p) => spec.filter(p),
                        None => spec,
                    };
                    let layout =
                        if summary.as_dispersed().is_some() { "dispersed" } else { "colocated" };
                    let context = format!("{family:?} {mode:?} {layout}");
                    for selection in [SelectionKind::SSet, SelectionKind::LSet] {
                        for aggregate in &shapes {
                            let spec = filtered(spec_of(aggregate).selection(selection));
                            let result = summary.query_batch(&QueryBatch::new().push(spec));
                            let needs_max = !matches!(
                                aggregate,
                                AggregateFn::SingleAssignment(_) | AggregateFn::Min(_)
                            );
                            if independent_dispersed && needs_max {
                                let estimator = match aggregate {
                                    AggregateFn::Max(_) => "max",
                                    AggregateFn::L1(_) => "l1",
                                    _ => "lth_largest",
                                };
                                match result {
                                    Err(CwsError::UnsupportedEstimator {
                                        estimator: named,
                                        ..
                                    }) => {
                                        assert_eq!(named, estimator, "{context}: {aggregate:?}");
                                    }
                                    other => panic!("{context}: {aggregate:?} gave {other:?}"),
                                }
                                continue;
                            }
                            let exact = exact_aggregate(&data, aggregate, pred);
                            let report = result.unwrap()[0];
                            assert!(
                                close(report.value, exact),
                                "{context}: {aggregate:?} {} vs {exact}",
                                report.value
                            );
                        }
                        // Count, avg and Jaccard.
                        let sum = exact_aggregate(&data, &AggregateFn::SingleAssignment(1), pred);
                        let count =
                            data.iter().filter(|&(key, w)| pred(key) && w[1] > 0.0).count() as f64;
                        let batch = QueryBatch::new()
                            .push(filtered(QuerySpec::count(1).selection(selection)))
                            .push(filtered(QuerySpec::avg(1).selection(selection)));
                        let reports = summary.query_batch(&batch).unwrap();
                        assert!(close(reports[0].value, count), "{context}: count");
                        assert!(close(reports[1].value, sum / count), "{context}: avg");
                        let jaccard = summary.query_batch(
                            &QueryBatch::new()
                                .push(filtered(QuerySpec::jaccard(0, 2).selection(selection))),
                        );
                        if independent_dispersed {
                            assert!(matches!(
                                jaccard,
                                Err(CwsError::UnsupportedEstimator { estimator: "max", .. })
                            ));
                        } else {
                            let exact = weighted_jaccard(&data, 0, 2, pred);
                            assert!(close(jaccard.unwrap()[0].value, exact), "{context}: jaccard");
                        }
                    }
                }
            }
        }
    }
}

/// `QueryBatch::default()` is an empty batch like `QueryBatch::new()`, and
/// serves the same specs to the bit.
#[test]
fn default_batch_matches_new_batch_bit_for_bit() {
    let (colocated, dispersed) = summaries(300, 7, 32);
    let specs = || {
        [
            QuerySpec::sum(0),
            QuerySpec::count(1).filter(|key| key % 3 == 0),
            QuerySpec::l1(0, 2),
            QuerySpec::jaccard(1, 2),
        ]
    };
    for summary in [&colocated, &dispersed] {
        let default = summary.query_batch(&QueryBatch::default().extend(specs())).unwrap();
        let new = summary.query_batch(&QueryBatch::new().extend(specs())).unwrap();
        assert_eq!(default.len(), 4);
        for (a, b) in default.iter().zip(&new) {
            assert_same_bits(a, b, "default vs new");
        }
    }
}

#[test]
fn count_avg_jaccard_match_the_adjusted_weight_formulas() {
    for case in 0..4u64 {
        let (colocated, dispersed) = summaries(300, 40 + case, 32);
        for summary in [&colocated, &dispersed] {
            for predicate in predicates() {
                let always: Pred = |_| true;
                let pred = predicate.unwrap_or(always);
                let mut batch = QueryBatch::new()
                    .push(QuerySpec::count(1))
                    .push(QuerySpec::avg(1))
                    .push(QuerySpec::jaccard(0, 1));
                if let Some(p) = predicate {
                    batch = QueryBatch::new()
                        .push(QuerySpec::count(1).filter(p))
                        .push(QuerySpec::avg(1).filter(p))
                        .push(QuerySpec::jaccard(0, 1).filter(p));
                }
                let reports = summary.query_batch(&batch).unwrap();

                let single: AdjustedWeights = Query::single(1).adjusted_weights(summary).unwrap();
                let (count, count_var) = single.subset_count(pred).unwrap();
                assert_eq!(reports[0].value.to_bits(), count.to_bits());
                assert_eq!(reports[0].variance.unwrap().to_bits(), count_var.to_bits());

                let sum = single.subset_total(pred);
                let avg = if count == 0.0 { 0.0 } else { sum / count };
                assert_eq!(reports[1].value.to_bits(), avg.to_bits());
                assert!(reports[1].variance.is_none() && reports[1].ci95.is_none());

                let min_total =
                    Query::min([0, 1]).adjusted_weights(summary).unwrap().subset_total(pred);
                let max_total =
                    Query::max([0, 1]).adjusted_weights(summary).unwrap().subset_total(pred);
                let jaccard = if max_total == 0.0 { 0.0 } else { min_total / max_total };
                assert_eq!(reports[2].value.to_bits(), jaccard.to_bits());
                assert!(reports[2].variance.is_none());
                assert!(reports[2].value >= 0.0 && reports[2].value <= 1.0 + 1e-9);
            }
        }
    }
}

/// Empirical 95% CI coverage over seeded trials, on both layouts: the
/// interval must cover the exact subpopulation sum at close to the nominal
/// rate, and the mean of the variance estimates must track the empirical
/// variance of the estimates (the unbiasedness-harness check applied to the
/// variance estimator itself).
#[test]
fn ci_coverage_is_close_to_nominal() {
    let data = fixture(500, 777);
    let pred: Pred = |key| key % 2 == 0;
    let exact = exact_aggregate(&data, &AggregateFn::SingleAssignment(0), pred);
    for layout in ["colocated", "dispersed"] {
        let trials = 300u64;
        let mut covered = 0usize;
        let mut estimates = Vec::new();
        let mut variance_estimates = Vec::new();
        for trial in 0..trials {
            let config = SummaryConfig::new(
                96,
                RankFamily::Ipps,
                CoordinationMode::SharedSeed,
                9_000 + trial,
            );
            let summary = match layout {
                "colocated" => Summary::Colocated(ColocatedSummary::build(&data, &config)),
                _ => Summary::Dispersed(DispersedSummary::build(&data, &config)),
            };
            let reports = summary
                .query_batch(&QueryBatch::new().push(QuerySpec::sum(0).filter(pred)))
                .unwrap();
            let report = reports[0];
            estimates.push(report.value);
            variance_estimates.push(report.variance.unwrap());
            if report.ci95.unwrap().covers(exact) {
                covered += 1;
            }
        }
        let coverage = covered as f64 / trials as f64;
        assert!(
            (0.85..=1.0).contains(&coverage),
            "{layout}: 95% CI covered the exact value in {coverage:.3} of trials"
        );
        // The mean variance estimate should approximate the true estimator
        // variance (estimated empirically across trials).
        let (_, std) = mean_and_std(&estimates);
        let empirical_variance = std * std;
        let mean_variance =
            variance_estimates.iter().sum::<f64>() / variance_estimates.len() as f64;
        assert!(
            mean_variance > 0.4 * empirical_variance && mean_variance < 2.5 * empirical_variance,
            "{layout}: mean variance estimate {mean_variance} vs empirical {empirical_variance}"
        );
    }
}

#[test]
fn invalid_specs_and_deadlines_are_typed_and_poison_nothing() {
    let (colocated, dispersed) = summaries(200, 99, 24);
    for summary in [&colocated, &dispersed] {
        // Degenerate pair: typed InvalidParameter at plan time.
        let degenerate = QueryBatch::new().push(QuerySpec::jaccard(1, 1));
        assert!(matches!(
            summary.query_batch(&degenerate),
            Err(CwsError::InvalidParameter { name: "assignment_pair", .. })
        ));
        // Out-of-range assignment: summary-dependent, typed at execution.
        let out_of_range = QueryBatch::new().push(QuerySpec::sum(7));
        assert!(matches!(
            summary.query_batch(&out_of_range),
            Err(CwsError::AssignmentOutOfRange { index: 7, .. })
        ));
        // A repeated assignment in a set: the same typed error.
        let repeated = QueryBatch::new()
            .push(QuerySpec::new(AggregateSpec::Max { assignments: vec![2, 0, 2] }));
        assert!(matches!(
            summary.query_batch(&repeated),
            Err(CwsError::InvalidParameter { name: "assignment_pair", .. })
        ));
        // Expired deadline: typed, and poisons nothing — the same batch
        // with a generous deadline matches the undeadlined run bit-for-bit.
        let specs = || {
            [
                QuerySpec::sum(0).filter(|key: Key| key % 2 == 0),
                QuerySpec::max(0, 1),
                QuerySpec::jaccard(0, 2),
            ]
        };
        let expired = QueryBatch::new().extend(specs()).with_deadline(Duration::ZERO);
        assert!(matches!(
            summary.query_batch(&expired),
            Err(CwsError::DeadlineExceeded { op: "query_batch", budget_ms: 0 })
        ));
        let generous = QueryBatch::new().extend(specs()).with_deadline(Duration::from_secs(3600));
        let plain = QueryBatch::new().extend(specs());
        let deadlined = summary.query_batch(&generous).unwrap();
        let undeadlined = summary.query_batch(&plain).unwrap();
        for (a, b) in deadlined.iter().zip(&undeadlined) {
            assert_eq!(a.value.to_bits(), b.value.to_bits());
            assert_eq!(a.variance.map(f64::to_bits), b.variance.map(f64::to_bits));
        }
    }
    // An empty batch is a no-op, not an error.
    assert_eq!(colocated.query_batch(&QueryBatch::new()).unwrap().len(), 0);
}

/// The 64-query fleet shape from the bench and the `query-stress` CI job:
/// 64 sum queries sharing one kernel, distinct predicates, under a
/// deadline. One kernel pass must serve all of them.
#[test]
fn fleet_batch_shares_one_kernel_and_meets_its_deadline() {
    let (colocated, dispersed) = summaries(2_000, 4242, 256);
    let batch = (0..64u64)
        .map(|lane| QuerySpec::sum(0).filter(move |key: Key| key % 64 == lane))
        .collect::<QueryBatch>()
        .with_deadline(Duration::from_secs(30));
    assert_eq!(batch.plan().unwrap().num_kernels(), 1);
    assert_eq!(batch.plan().unwrap().num_specs(), 64);
    for summary in [&colocated, &dispersed] {
        let reports = summary.query_batch(&batch).unwrap();
        assert_eq!(reports.len(), 64);
        // The 64 lanes partition the population: lane sums add up to the
        // full-population estimate exactly (same addends, disjoint lanes).
        let full = summary.query(&Query::single(0)).unwrap();
        let lane_sum: f64 = reports.iter().map(|r| r.value).sum();
        assert!((lane_sum - full.value).abs() <= full.value.abs() * 1e-9);
        for (lane, report) in reports.iter().enumerate() {
            let solo = Query::single(0)
                .filter(move |key: Key| key % 64 == lane as u64)
                .evaluate(summary)
                .unwrap();
            assert_eq!(report.value.to_bits(), solo.value.to_bits());
            assert!(report.ci95.unwrap().covers(report.value));
        }
    }
}
