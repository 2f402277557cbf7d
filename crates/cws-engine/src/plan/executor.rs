//! Executes planned [`QuerySpec`]s against one summary snapshot — the only
//! evaluation path of the engine: a [`QueryBatch`](crate::plan::QueryBatch)
//! runs here, and a single [`Query`](crate::query::Query) runs here as a
//! one-spec batch.
//!
//! Per kernel, the adjusted weights are computed **once** and folded
//! **once**; every spec reading the kernel gets its accumulators updated
//! from the same entry stream, in entry order. Each accumulator therefore
//! sees exactly the f64 additions, in exactly the order, of
//! [`AdjustedWeights::subset_total`] over the spec's predicate, whatever
//! else shares the batch (`tests/planner_parity.rs` pins this on both
//! layouts).
//!
//! On colocated summaries the sharing goes one level deeper: the inclusion
//! probability of a record does not depend on the aggregate, so one
//! probability pass ([`InclusiveEstimator::inclusion_probabilities`]) is
//! computed per batch and reused by every colocated kernel
//! ([`InclusiveEstimator::aggregate_with`]).

use std::time::Duration;

use cws_core::aggregates::AggregateFn;
use cws_core::budget::Deadline;
use cws_core::estimate::adjusted::AdjustedWeights;
use cws_core::variance::{ht_variance_component, normal_ci, Z_95};
use cws_core::{CwsError, DispersedEstimator, InclusiveEstimator, Result};

use crate::plan::ir::QuerySpec;
use crate::plan::planner::{Binding, Kernel, QueryPlan, Role};
use crate::query::{EstimateReport, DEADLINE_CHECK_STRIDE};
use crate::summary::Summary;

/// Per-spec accumulator state, fanned out to during kernel folds.
#[derive(Debug, Clone, Copy, Default)]
struct SpecState {
    /// The main total: adjusted weights (sum-shaped roles), `Σ 1/p`
    /// (count), or the ratio numerator.
    total: f64,
    /// The auxiliary total: the count estimate for `Avg`, the denominator
    /// for `Jaccard`.
    aux: f64,
    /// Plug-in variance accumulator for the main total.
    variance: f64,
    /// Whether the kernel behind the main total retained per-key support
    /// (drives variance availability for `Total` bindings).
    supported: bool,
    /// Sampled keys that passed the predicate and contributed.
    observed: usize,
}

/// Computes one kernel's adjusted weights — the engine's one estimator
/// dispatch. `shared_probs` caches the colocated probability pass across
/// kernels of the same batch.
pub(crate) fn kernel_weights(
    summary: &Summary,
    kernel: &Kernel,
    shared_probs: &mut Option<Vec<f64>>,
) -> Result<AdjustedWeights> {
    match summary {
        Summary::Colocated(colocated) => {
            let estimator = InclusiveEstimator::new(colocated);
            let probs = shared_probs.get_or_insert_with(|| estimator.inclusion_probabilities());
            estimator.aggregate_with(&kernel.aggregate, probs)
        }
        Summary::Dispersed(dispersed) => {
            let estimator = DispersedEstimator::new(dispersed);
            let selection = kernel.selection;
            match &kernel.aggregate {
                AggregateFn::SingleAssignment(b) => estimator.single(*b),
                AggregateFn::Max(r) => estimator.max(r),
                AggregateFn::Min(r) => estimator.min(r, selection),
                AggregateFn::L1(r) => estimator.l1(r, selection),
                AggregateFn::LthLargest { assignments, ell } => {
                    estimator.lth_largest(assignments, *ell, selection)
                }
            }
        }
    }
}

/// Plans and executes `specs` against `summary`, one report per spec in
/// input order. An armed `deadline` is checked before and after every kernel
/// pass and every [`DEADLINE_CHECK_STRIDE`] folded keys; expiry is reported
/// as `DeadlineExceeded` under `op`.
pub(crate) fn execute(
    specs: &[QuerySpec],
    deadline: Option<Duration>,
    summary: &Summary,
    op: &'static str,
) -> Result<Vec<EstimateReport>> {
    let plan = QueryPlan::build(specs)?;
    let deadline = deadline.map(Deadline::after);
    let check = || deadline.as_ref().map_or(Ok(()), |armed| armed.check(op));
    check()?;

    let mut states = vec![SpecState::default(); specs.len()];
    let mut shared_probs: Option<Vec<f64>> = None;

    for (slot, kernel) in plan.kernels().iter().enumerate() {
        check()?;
        let adjusted = kernel_weights(summary, kernel, &mut shared_probs)?;
        check()?;
        let taps = plan.taps(slot);
        let has_support = adjusted.has_support();
        if !has_support
            && taps.iter().any(|tap| matches!(tap.role, Role::Count | Role::SumAndCount))
        {
            // Unreachable by construction (count-shaped roles only tap
            // single-assignment kernels, which always retain support), but a
            // typed error beats a wrong answer if a new kernel forgets this.
            return Err(CwsError::UnsupportedEstimator {
                estimator: "count",
                reason: "the summary pass retained no per-key inclusion probabilities",
            });
        }
        for tap in taps {
            states[tap.spec].supported |= matches!(tap.role, Role::Sum) && has_support;
        }

        // One fold, fanned out to every tap, walking the per-key support in
        // lockstep when the kernel retained it (every kernel but dispersed
        // L1).
        let mut support = adjusted.supported_iter();
        for (index, (key, weight)) in adjusted.iter().enumerate() {
            if index % DEADLINE_CHECK_STRIDE == 0 {
                check()?;
            }
            let selected = support.as_mut().and_then(Iterator::next).map(|(_, _, s)| s);
            for tap in taps {
                if !specs[tap.spec].predicate().is_none_or(|predicate| predicate(key)) {
                    continue;
                }
                let state = &mut states[tap.spec];
                match (tap.role, selected) {
                    (Role::Sum, _) => {
                        state.total += weight;
                        if let Some(selected) = selected {
                            state.variance +=
                                ht_variance_component(selected.value, selected.probability);
                        }
                        state.observed += 1;
                    }
                    (Role::Count, Some(selected)) => {
                        state.total += 1.0 / selected.probability;
                        state.variance += ht_variance_component(1.0, selected.probability);
                        state.observed += 1;
                    }
                    (Role::SumAndCount, Some(selected)) => {
                        state.total += weight;
                        state.aux += 1.0 / selected.probability;
                        state.observed += 1;
                    }
                    (Role::RatioNumerator, _) => state.total += weight,
                    (Role::RatioDenominator, _) => {
                        state.aux += weight;
                        state.observed += 1;
                    }
                    (Role::Count | Role::SumAndCount, None) => {
                        unreachable!(
                            "count-shaped roles were rejected above for support-free kernels"
                        )
                    }
                }
            }
        }
    }

    Ok(plan
        .bindings()
        .iter()
        .zip(states)
        .map(|(binding, state)| match binding {
            Binding::Total => {
                let variance = state.supported.then_some(state.variance);
                EstimateReport {
                    value: state.total,
                    observed_keys: state.observed,
                    variance,
                    ci95: variance.map(|v| normal_ci(state.total, v, Z_95)),
                }
            }
            Binding::Count => EstimateReport {
                value: state.total,
                observed_keys: state.observed,
                variance: Some(state.variance),
                ci95: Some(normal_ci(state.total, state.variance, Z_95)),
            },
            Binding::Ratio => {
                let value = if state.aux == 0.0 { 0.0 } else { state.total / state.aux };
                EstimateReport { value, observed_keys: state.observed, variance: None, ci95: None }
            }
        })
        .collect())
}
