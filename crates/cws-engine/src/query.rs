//! One query language over both summary layouts.
//!
//! The estimator types of `cws-core` grew diverging method sets — the
//! colocated [`InclusiveEstimator`](cws_core::InclusiveEstimator) takes
//! aggregate enums and custom closures, the
//! [`DispersedEstimator`](cws_core::DispersedEstimator) takes per-method
//! assignment slices plus a selection kind. [`Query`] is the single
//! description of an estimation request: *what* to estimate (the
//! aggregate), *over which keys* (an a-posteriori filter predicate), and
//! *how* to select evidence on dispersed summaries (the s-set / l-set rule).
//! It holds one [`QuerySpec`] and evaluates as a one-spec
//! [`QueryBatch`](crate::plan::QueryBatch): the planner and executor are the
//! only evaluation path, so a query and the same spec inside any batch
//! return the same [`EstimateReport`].

use std::time::Duration;

use cws_core::estimate::adjusted::AdjustedWeights;
use cws_core::variance::ConfidenceInterval;
use cws_core::{Key, Result, SelectionKind};

use crate::plan::executor;
use crate::plan::ir::{AggregateSpec, QuerySpec};
use crate::plan::QueryPlan;
use crate::summary::Summary;

/// How many folded keys pass between wall-clock deadline checks, in
/// [`Query::evaluate`] and batched execution alike.
///
/// The check itself is one `Instant::now()` comparison; at this stride its
/// cost is amortized to noise while an armed deadline is still noticed
/// within ~a thousand predicate evaluations.
pub const DEADLINE_CHECK_STRIDE: usize = 1024;

/// The outcome of evaluating a [`Query`] or one spec of a
/// [`QueryBatch`](crate::plan::QueryBatch): the estimate, the evidence
/// behind it, and its uncertainty — the HT plug-in variance estimate and
/// the 95% normal-approximation confidence interval.
///
/// `variance`/`ci95` are `None` when the estimator carries no per-key
/// inclusion probabilities: dispersed L1 (a difference of correlated max/min
/// estimators) and ratio-shaped aggregates (average, Jaccard — a quotient of
/// two unbiased estimates has no unbiased variance estimate of this form).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EstimateReport {
    /// The unbiased estimate of `Σ_{i : filter(i)} f(i)`.
    pub value: f64,
    /// Number of sampled keys that contributed to the estimate (positive
    /// adjusted weight and passing the filter) — a direct sense of how much
    /// evidence backs the number.
    pub observed_keys: usize,
    /// The HT plug-in estimate of `VAR[value]`
    /// (`Σ f(i)²(1/p(i) − 1)/p(i)` over contributing keys), when available.
    pub variance: Option<f64>,
    /// `value ± `[`Z_95`](cws_core::Z_95)`·√variance`, when the variance is
    /// available.
    pub ci95: Option<ConfidenceInterval>,
}

/// A declarative aggregate query, evaluated uniformly against colocated and
/// dispersed summaries.
///
/// ```
/// use cws_engine::prelude::*;
/// use cws_core::{CoordinationMode, RankFamily, SelectionKind};
///
/// let mut pipeline = Pipeline::builder()
///     .assignments(3)
///     .k(128)
///     .layout(Layout::Dispersed)
///     .seed(7)
///     .build()
///     .unwrap();
/// for key in 0u64..5000 {
///     let weights = [((key % 11) + 1) as f64, ((key % 7) + 1) as f64, (key % 3) as f64];
///     pipeline.push_record(key, &weights).unwrap();
/// }
/// let summary = pipeline.finalize().unwrap();
///
/// // A-posteriori: the L1 change between assignments 0 and 2, restricted
/// // to even keys, with the most inclusive (l-set) selection.
/// let query = Query::l1([0, 2]).selection(SelectionKind::LSet).filter(|key| key % 2 == 0);
/// let estimate = summary.query(&query).unwrap();
/// assert!(estimate.value > 0.0);
/// assert!(estimate.observed_keys > 0);
/// ```
#[derive(Debug, Clone)]
pub struct Query {
    spec: QuerySpec,
    deadline: Option<Duration>,
}

impl Query {
    fn new(aggregate: AggregateSpec) -> Self {
        Self { spec: QuerySpec::new(aggregate), deadline: None }
    }

    /// The single-assignment sum `Σ w^(b)(i)`.
    #[must_use]
    pub fn single(assignment: usize) -> Self {
        Self::new(AggregateSpec::Sum { assignment })
    }

    /// The max-dominance aggregate `Σ max_{b ∈ R} w^(b)(i)`.
    #[must_use]
    pub fn max<R: IntoIterator<Item = usize>>(assignments: R) -> Self {
        Self::new(AggregateSpec::Max { assignments: assignments.into_iter().collect() })
    }

    /// The min-dominance aggregate `Σ min_{b ∈ R} w^(b)(i)`.
    #[must_use]
    pub fn min<R: IntoIterator<Item = usize>>(assignments: R) -> Self {
        Self::new(AggregateSpec::Min { assignments: assignments.into_iter().collect() })
    }

    /// The L1 / range aggregate `Σ (max_R − min_R)`.
    #[must_use]
    pub fn l1<R: IntoIterator<Item = usize>>(assignments: R) -> Self {
        Self::new(AggregateSpec::L1 { assignments: assignments.into_iter().collect() })
    }

    /// The ℓ-th-largest-weight aggregate (1-based; `ell = 1` is the max,
    /// `ell = |R|` the min; the median is a special case).
    #[must_use]
    pub fn lth_largest<R: IntoIterator<Item = usize>>(assignments: R, ell: usize) -> Self {
        Self::new(AggregateSpec::LthLargest { assignments: assignments.into_iter().collect(), ell })
    }

    /// Restricts the estimate to keys satisfying `predicate` — the
    /// a-posteriori subpopulation selection that coordinated summaries
    /// exist for. Without a filter the full population is estimated.
    #[must_use]
    pub fn filter<P: Fn(Key) -> bool + Send + Sync + 'static>(mut self, predicate: P) -> Self {
        self.spec = self.spec.filter(predicate);
        self
    }

    /// Selection rule for dispersed summaries (default
    /// [`SelectionKind::LSet`], the most inclusive). Colocated summaries
    /// ignore this: their inclusive estimator already conditions on the
    /// most inclusive selection possible.
    #[must_use]
    pub fn selection(mut self, kind: SelectionKind) -> Self {
        self.spec = self.spec.selection(kind);
        self
    }

    /// Bounds how long one [`Query::evaluate`] call may run. The deadline
    /// is armed afresh at each evaluation and checked at chunk boundaries
    /// (before and after the adjusted-weight pass, and every
    /// [`DEADLINE_CHECK_STRIDE`] folded keys), so a slow pass returns a
    /// typed [`CwsError`](cws_core::CwsError)`::DeadlineExceeded` with op
    /// `"query"` — never a hung caller — and leaves the summary untouched:
    /// the same query (or any other) can be evaluated again immediately.
    #[must_use]
    pub fn with_deadline(mut self, budget: Duration) -> Self {
        self.deadline = Some(budget);
        self
    }

    /// The adjusted-weight summary behind the estimate — per-key values for
    /// callers that need more than the scalar (per-key drill-down, ratio
    /// estimates). The filter is *not* applied here; adjusted weights cover
    /// every sampled key so any number of subpopulations can be read off
    /// one evaluation.
    ///
    /// # Errors
    /// Returns a typed error for a repeated assignment, out-of-range
    /// assignments, an empty relevant set, an invalid ℓ, or an aggregate
    /// the summary's coordination mode cannot support (e.g. `max` over
    /// independent dispersed sketches).
    pub fn adjusted_weights(&self, summary: &Summary) -> Result<AdjustedWeights> {
        let plan = QueryPlan::build(std::slice::from_ref(&self.spec))?;
        executor::kernel_weights(summary, &plan.kernels()[0], &mut None)
    }

    /// Evaluates the query as a one-spec batch: adjusted weights, then the
    /// filtered total, the contributing-key count and, where the estimator
    /// supports them, the variance and 95% CI.
    ///
    /// # Errors
    /// As [`Query::adjusted_weights`]; additionally
    /// [`CwsError`](cws_core::CwsError)`::DeadlineExceeded` once an armed
    /// [deadline](Query::with_deadline) expires (the summary is untouched
    /// and stays queryable).
    pub fn evaluate(&self, summary: &Summary) -> Result<EstimateReport> {
        let reports =
            executor::execute(std::slice::from_ref(&self.spec), self.deadline, summary, "query")?;
        Ok(reports[0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cws_core::aggregates::{exact_aggregate, AggregateFn};
    use cws_core::summary::{ColocatedSummary, DispersedSummary, SummaryConfig};
    use cws_core::{CoordinationMode, CwsError, MultiWeighted, RankFamily};

    fn fixture() -> MultiWeighted {
        let mut builder = MultiWeighted::builder(3);
        for key in 0..400u64 {
            builder.add(key, 0, ((key % 19) + 1) as f64);
            builder.add(key, 1, if key % 5 == 0 { 0.0 } else { ((key % 13) + 2) as f64 });
            builder.add(key, 2, ((key % 7) * 2) as f64);
        }
        builder.build()
    }

    fn summaries(k: usize, seed: u64) -> (Summary, Summary) {
        let data = fixture();
        let config = SummaryConfig::new(k, RankFamily::Ipps, CoordinationMode::SharedSeed, seed);
        (
            Summary::Colocated(ColocatedSummary::build(&data, &config)),
            Summary::Dispersed(DispersedSummary::build(&data, &config)),
        )
    }

    #[test]
    fn queries_evaluate_against_both_layouts() {
        let (colocated, dispersed) = summaries(60, 3);
        let data = fixture();
        let queries = [
            (Query::single(0), AggregateFn::SingleAssignment(0)),
            (Query::max([0, 1, 2]), AggregateFn::Max(vec![0, 1, 2])),
            (Query::min([0, 1, 2]), AggregateFn::Min(vec![0, 1, 2])),
            (Query::l1([0, 2]), AggregateFn::L1(vec![0, 2])),
            (
                Query::lth_largest([0, 1, 2], 2),
                AggregateFn::LthLargest { assignments: vec![0, 1, 2], ell: 2 },
            ),
        ];
        for (query, aggregate) in queries {
            let exact = exact_aggregate(&data, &aggregate, |_| true);
            for summary in [&colocated, &dispersed] {
                let estimate = summary.query(&query).unwrap();
                assert!(estimate.observed_keys > 0);
                assert!(
                    (estimate.value - exact).abs() <= exact.max(1.0) * 0.6,
                    "{aggregate:?}: {} vs exact {exact}",
                    estimate.value
                );
            }
        }
    }

    #[test]
    fn filter_matches_manual_subset_total() {
        let (colocated, dispersed) = summaries(50, 9);
        for summary in [&colocated, &dispersed] {
            let query = Query::single(0);
            let all = summary.query(&query).unwrap();
            let filtered = summary.query(&Query::single(0).filter(|key| key % 2 == 0)).unwrap();
            let manual = query.adjusted_weights(summary).unwrap().subset_total(|key| key % 2 == 0);
            assert_eq!(filtered.value, manual);
            assert!(filtered.value <= all.value);
            assert!(filtered.observed_keys <= all.observed_keys);
        }
    }

    #[test]
    fn selection_kind_reaches_the_dispersed_estimator() {
        let (_, dispersed) = summaries(40, 11);
        let l_set = dispersed.query(&Query::min([0, 1]).selection(SelectionKind::LSet)).unwrap();
        let s_set = dispersed.query(&Query::min([0, 1]).selection(SelectionKind::SSet)).unwrap();
        // The l-set selection is strictly more inclusive.
        assert!(l_set.observed_keys >= s_set.observed_keys);
    }

    #[test]
    fn error_paths_are_typed() {
        let (colocated, dispersed) = summaries(20, 1);
        for summary in [&colocated, &dispersed] {
            assert!(matches!(
                summary.query(&Query::single(9)),
                Err(CwsError::AssignmentOutOfRange { index: 9, .. })
            ));
            assert!(summary.query(&Query::max(std::iter::empty())).is_err());
            assert!(summary.query(&Query::lth_largest([0, 1], 5)).is_err());
        }
        // Independent dispersed sketches cannot support max.
        let data = fixture();
        let independent = Summary::Dispersed(DispersedSummary::build(
            &data,
            &SummaryConfig::new(20, RankFamily::Ipps, CoordinationMode::Independent, 1),
        ));
        assert!(matches!(
            independent.query(&Query::max([0, 1])),
            Err(CwsError::UnsupportedEstimator { .. })
        ));
        assert!(independent.query(&Query::min([0, 1])).is_ok());
    }

    /// An expired deadline is a typed error that poisons nothing: the same
    /// summary answers the same query (and others) immediately afterwards.
    #[test]
    fn expired_query_deadline_is_typed_and_poisons_nothing() {
        use std::time::Duration;
        let (colocated, dispersed) = summaries(30, 5);
        for summary in [&colocated, &dispersed] {
            let expired = Query::single(0).with_deadline(Duration::ZERO);
            let err = summary.query(&expired).unwrap_err();
            assert!(matches!(err, CwsError::DeadlineExceeded { op: "query", budget_ms: 0 }));
            // A filtered query hits the chunk-boundary checks too.
            let filtered =
                Query::single(0).filter(|key| key % 2 == 0).with_deadline(Duration::ZERO);
            assert!(summary.query(&filtered).is_err());
            // Nothing is poisoned: a generous deadline and no deadline both
            // produce the identical estimate afterwards.
            let generous =
                summary.query(&Query::single(0).with_deadline(Duration::from_secs(3600))).unwrap();
            let plain = summary.query(&Query::single(0)).unwrap();
            assert_eq!(generous, plain);
        }
    }

    #[test]
    fn debug_formatting_is_informative() {
        let text = format!("{:?}", Query::l1([0, 2]).filter(|_| true));
        assert!(text.contains("L1"), "{text}");
        assert!(text.contains("predicate"), "{text}");
    }

    #[test]
    fn evaluate_reports_variance_where_the_estimator_supports_it() {
        let (colocated, dispersed) = summaries(60, 21);
        let queries = [
            Query::single(0),
            Query::single(1).filter(|key| key % 3 == 0),
            Query::max([0, 1, 2]),
            Query::min([0, 2]).filter(|key| key % 2 == 1),
            Query::lth_largest([0, 1, 2], 2),
        ];
        for summary in [&colocated, &dispersed] {
            for query in &queries {
                let report = query.evaluate(summary).unwrap();
                // Sum / max / min / ℓ-th largest carry support on both layouts.
                let variance = report.variance.unwrap();
                assert!(variance >= 0.0 && variance.is_finite());
                let ci = report.ci95.unwrap();
                assert!(ci.covers(report.value));
                assert!((ci.half_width() - cws_core::Z_95 * variance.sqrt()).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn dispersed_l1_reports_no_variance() {
        // Dispersed L1 is a difference of correlated max/min estimators; no
        // per-key inclusion probability survives, so variance is None while
        // the colocated layout (one shared probability per record) keeps it.
        let (colocated, dispersed) = summaries(40, 23);
        let query = Query::l1([0, 2]);
        let report = query.evaluate(&dispersed).unwrap();
        assert!(report.variance.is_none() && report.ci95.is_none());
        let report = query.evaluate(&colocated).unwrap();
        assert!(report.variance.is_some() && report.ci95.is_some());
    }

    /// A repeated assignment fails planning on both layouts, before any
    /// estimator runs.
    #[test]
    fn repeated_assignments_fail_on_both_layouts() {
        let (colocated, dispersed) = summaries(20, 25);
        for summary in [&colocated, &dispersed] {
            for query in [Query::max([0, 0]), Query::l1([1, 0, 1]), Query::lth_largest([2, 2], 1)] {
                for result in [
                    query.evaluate(summary).map(|_| ()),
                    query.adjusted_weights(summary).map(|_| ()),
                ] {
                    assert!(matches!(
                        result,
                        Err(CwsError::InvalidParameter { name: "assignment_pair", .. })
                    ));
                }
            }
        }
    }
}
