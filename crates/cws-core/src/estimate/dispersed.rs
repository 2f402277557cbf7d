//! Estimators over dispersed summaries (Section 7): s-set and l-set
//! estimators for top-ℓ-dependent aggregates.
//!
//! In the dispersed model a key sampled for assignment `b` carries only its
//! weight under `b`, so an estimator can use a key only when the summary
//! reveals enough of its weight vector. The paper's two selection rules are:
//!
//! * **s-set** — use the key when its rank is below the *smallest*
//!   conditioning threshold over the relevant assignments
//!   `r_k^{(min R)}(I \ {i})`; a simple closed form that works for any
//!   consistent rank distribution.
//! * **l-set** — the most inclusive selection for which the top-ℓ weights are
//!   identifiable; it dominates the s-set estimator (Lemma 5.1) and has a
//!   closed form for shared-seed coordinated sketches (and for independent
//!   sketches in the min-dependence case).
//!
//! Supported aggregates: `max` (= s-set = l-set with ℓ = 1, Eq. 11), `min`
//! (s-set Eq. 12, l-set Eq. 15/16), the ℓ-th largest weight, and the L1
//! difference `a^(L1) = a^(max) − a^(min)` (Eq. 17), which is non-negative
//! for consistent ranks (Lemma 7.5). For independent sketches only the `min`
//! estimators exist (there is no nonnegative unbiased `max`/`L1` estimator
//! without known seeds).

use crate::error::{CwsError, Result};
use crate::estimate::adjusted::AdjustedWeights;
use crate::estimate::single::rc_adjusted_weights;
use crate::estimate::template::Selected;
use crate::summary::DispersedSummary;

/// Which of the two selection rules to use for `min` / ℓ-th-largest
/// estimators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SelectionKind {
    /// The simpler, more restrictive selection (Section 7.1).
    SSet,
    /// The most inclusive selection (Section 7.2); tighter, requires known
    /// seeds except in the min-dependence case.
    LSet,
}

/// Estimator over a [`DispersedSummary`].
#[derive(Debug, Clone, Copy)]
pub struct DispersedEstimator<'a> {
    summary: &'a DispersedSummary,
}

impl<'a> DispersedEstimator<'a> {
    /// Creates an estimator over `summary`.
    #[must_use]
    pub fn new(summary: &'a DispersedSummary) -> Self {
        Self { summary }
    }

    fn coordinated(&self) -> bool {
        self.summary.mode().is_coordinated()
    }

    fn validate_assignments(&self, assignments: &[usize]) -> Result<()> {
        if assignments.is_empty() {
            return Err(CwsError::EmptyAssignmentSet);
        }
        let available = self.summary.num_assignments();
        if let Some(&bad) = assignments.iter().find(|&&b| b >= available) {
            return Err(CwsError::AssignmentOutOfRange { index: bad, available });
        }
        let mut sorted = assignments.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        if sorted.len() != assignments.len() {
            return Err(CwsError::InvalidParameter {
                name: "assignments",
                message: "relevant assignments must be distinct".to_string(),
            });
        }
        Ok(())
    }

    /// One template-estimator pass over the union in ascending key order:
    /// `selection` sees each key's row of per-assignment `(rank, weight)`
    /// slots ([`DispersedSummary::rows`]), so the pass does no lookups.
    fn pass<F>(&self, mut selection: F) -> AdjustedWeights
    where
        F: FnMut(&[Option<(f64, f64)>]) -> Option<Selected>,
    {
        AdjustedWeights::from_selected(
            self.summary.rows().filter_map(|(key, row)| selection(row).map(|s| (key, s))),
        )
    }

    /// The single-assignment RC estimator applied to the embedded sketch of
    /// `assignment` — the baseline `t^(b)` used throughout the evaluation.
    ///
    /// # Errors
    /// Returns an error if `assignment` is out of range.
    pub fn single(&self, assignment: usize) -> Result<AdjustedWeights> {
        self.validate_assignments(&[assignment])?;
        Ok(rc_adjusted_weights(self.summary.sketch(assignment), self.summary.family()))
    }

    /// The `max_R` estimator (Eq. 11): s-set (equivalently l-set) with ℓ = 1.
    ///
    /// # Errors
    /// Returns an error for independent sketches (no nonnegative unbiased
    /// estimator exists without known seeds) or invalid assignment sets.
    pub fn max(&self, assignments: &[usize]) -> Result<AdjustedWeights> {
        self.validate_assignments(assignments)?;
        if !self.coordinated() {
            return Err(CwsError::UnsupportedEstimator {
                estimator: "max",
                reason: "requires coordinated (consistent) sketches",
            });
        }
        self.lth_largest(assignments, 1, SelectionKind::SSet)
    }

    /// The `min_R` estimator.
    ///
    /// For coordinated sketches both selections are available; for
    /// independent sketches the estimator uses the product-form inclusion
    /// probability (Eq. 16 for the l-set, and its analogue for the s-set).
    ///
    /// # Errors
    /// Returns an error for invalid assignment sets.
    pub fn min(&self, assignments: &[usize], kind: SelectionKind) -> Result<AdjustedWeights> {
        self.validate_assignments(assignments)?;
        let family = self.summary.family();
        let coordinated = self.coordinated();
        // A selected key is in the sketch of every relevant assignment, so
        // its conditioning threshold there is that sketch's next rank, and
        // the s-set threshold `r_k^{(min R)}(I \ {i})` is the same for every
        // selected key.
        let next: Vec<f64> =
            assignments.iter().map(|&b| self.summary.sketch(b).next_rank()).collect();
        let smallest = next.iter().copied().fold(f64::INFINITY, f64::min);
        let mut weights = Vec::with_capacity(assignments.len());
        let mut ranks = Vec::with_capacity(assignments.len());
        Ok(self.pass(|row| {
            // Selection: the key must be in the sketch of every relevant
            // assignment; the s-set additionally requires every rank to fall
            // below the smallest threshold.
            weights.clear();
            ranks.clear();
            for &b in assignments {
                let (rank, weight) = row[b]?;
                weights.push(weight);
                ranks.push(rank);
            }
            let value = weights.iter().copied().fold(f64::INFINITY, f64::min);
            if value == 0.0 {
                return None;
            }
            let probability = match kind {
                SelectionKind::SSet => {
                    if ranks.iter().any(|&rank| rank >= smallest) {
                        return None;
                    }
                    if coordinated {
                        family.inclusion_probability(value, smallest)
                    } else {
                        weights.iter().map(|&w| family.inclusion_probability(w, smallest)).product()
                    }
                }
                SelectionKind::LSet => {
                    let per_assignment = weights
                        .iter()
                        .zip(&next)
                        .map(|(&w, &threshold)| family.inclusion_probability(w, threshold));
                    if coordinated {
                        per_assignment.fold(f64::INFINITY, f64::min)
                    } else {
                        per_assignment.product()
                    }
                }
            };
            Some(Selected { value, probability })
        }))
    }

    /// The ℓ-th-largest-weight estimator over coordinated sketches
    /// (Section 7.1 for the s-set, Section 7.2 for the l-set).
    ///
    /// `ell = 1` is the maximum, `ell = |R|` the minimum.
    ///
    /// # Errors
    /// Returns an error for independent sketches (the top-ℓ weights are not
    /// identifiable without consistency), invalid `ell`, or invalid
    /// assignment sets.
    pub fn lth_largest(
        &self,
        assignments: &[usize],
        ell: usize,
        kind: SelectionKind,
    ) -> Result<AdjustedWeights> {
        self.validate_assignments(assignments)?;
        if ell < 1 || ell > assignments.len() {
            return Err(CwsError::InvalidDependenceOrder { ell, relevant: assignments.len() });
        }
        if !self.coordinated() {
            return Err(CwsError::UnsupportedEstimator {
                estimator: "lth_largest",
                reason: "requires coordinated (consistent) sketches",
            });
        }
        let family = self.summary.family();
        // `(next_rank, kth_rank)` per relevant assignment, hoisted out of the
        // pass: the conditioning threshold `r_k^{(b)}(I \ {i})` of a key
        // inside and outside the sketch of `b`.
        let thresholds: Vec<(f64, f64)> = assignments
            .iter()
            .map(|&b| {
                let sketch = self.summary.sketch(b);
                (sketch.next_rank(), sketch.kth_rank())
            })
            .collect();
        // The threshold of the key in `row` for assignment `b`.
        let excluding = |row: &[Option<(f64, f64)>], b: usize, (next, kth): (f64, f64)| {
            if row[b].is_some() {
                next
            } else {
                kth
            }
        };
        match kind {
            SelectionKind::SSet => {
                let mut observed: Vec<f64> = Vec::with_capacity(assignments.len());
                Ok(self.pass(|row| {
                    let threshold = assignments
                        .iter()
                        .zip(&thresholds)
                        .map(|(&b, &pair)| excluding(row, b, pair))
                        .fold(f64::INFINITY, f64::min);
                    // R'(i): assignments whose rank for the key is below the
                    // smallest threshold (only sampled assignments can
                    // qualify).
                    observed.clear();
                    observed.extend(
                        assignments
                            .iter()
                            .filter_map(|&b| row[b])
                            .filter(|&(rank, _)| rank < threshold)
                            .map(|(_, weight)| weight),
                    );
                    if observed.len() < ell {
                        return None;
                    }
                    observed.sort_by(|a, b| b.total_cmp(a));
                    let value = observed[ell - 1];
                    if value == 0.0 {
                        return None;
                    }
                    Some(Selected {
                        value,
                        probability: family.inclusion_probability(value, threshold),
                    })
                }))
            }
            SelectionKind::LSet => {
                // `(position in assignments, rank, weight)` per sampled
                // relevant assignment.
                let mut observed: Vec<(usize, f64, f64)> = Vec::with_capacity(assignments.len());
                Ok(self.pass(|row| {
                    // R'(i): assignments whose sketch contains the key.
                    observed.clear();
                    observed.extend(
                        assignments
                            .iter()
                            .enumerate()
                            .filter_map(|(j, &b)| row[b].map(|(rank, weight)| (j, rank, weight))),
                    );
                    if observed.len() < ell {
                        return None;
                    }
                    observed.sort_by(|a, b| b.2.total_cmp(&a.2));
                    let value = observed[ell - 1].2;
                    if value == 0.0 {
                        return None;
                    }
                    // Recover the shared seed from any observed (rank, weight).
                    let (_, rank0, weight0) = observed[0];
                    let seed = family.seed_from_rank(weight0, rank0);
                    let top = &observed[..ell];
                    // The remaining assignments must be certifiably no larger
                    // than the ℓ-th largest weight: the shared seed must fall
                    // below F_{value}(threshold_b).
                    let mut probability = f64::INFINITY;
                    for &(j, _, weight) in top {
                        let (next, _) = thresholds[j];
                        probability = probability.min(family.inclusion_probability(weight, next));
                    }
                    for (j, (&b, &pair)) in assignments.iter().zip(&thresholds).enumerate() {
                        if top.iter().any(|&(chosen, _, _)| chosen == j) {
                            continue;
                        }
                        let bound = family.inclusion_probability(value, excluding(row, b, pair));
                        if seed >= bound {
                            return None;
                        }
                        probability = probability.min(bound);
                    }
                    Some(Selected { value, probability })
                }))
            }
        }
    }

    /// The L1 (range) estimator `a^(L1) = a^(max) − a^(min)` (Eq. 17), using
    /// the requested selection for the `min` part.
    ///
    /// # Errors
    /// Returns an error for independent sketches or invalid assignment sets.
    pub fn l1(&self, assignments: &[usize], kind: SelectionKind) -> Result<AdjustedWeights> {
        self.validate_assignments(assignments)?;
        if !self.coordinated() {
            return Err(CwsError::UnsupportedEstimator {
                estimator: "l1",
                reason: "requires coordinated (consistent) sketches",
            });
        }
        let max = self.max(assignments)?;
        let min = self.min(assignments, kind)?;
        Ok(AdjustedWeights::difference(&max, &min))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregates::{exact_aggregate, AggregateFn};
    use crate::coordination::CoordinationMode;
    use crate::ranks::RankFamily;
    use crate::summary::SummaryConfig;
    use crate::weights::{Key, MultiWeighted};

    /// Two-period, skewed data with churn, mimicking the structure of the
    /// paper's dispersed IP data.
    fn fixture(num_keys: u64, assignments: usize) -> MultiWeighted {
        let mut builder = MultiWeighted::builder(assignments);
        for key in 0..num_keys {
            for b in 0..assignments {
                // Churn: a key is absent from an assignment with some
                // probability; persistent keys keep correlated weights.
                let absent = (key + 3 * b as u64) % 6 == 0;
                let weight = if absent {
                    0.0
                } else {
                    let base = ((key % 19) + 1) as f64 * if key % 29 == 0 { 20.0 } else { 1.0 };
                    base * (1.0 + 0.2 * b as f64) + ((key + b as u64) % 4) as f64
                };
                builder.add(key, b, weight);
            }
        }
        builder.build()
    }

    fn config(mode: CoordinationMode, k: usize) -> SummaryConfig {
        SummaryConfig::new(k, RankFamily::Ipps, mode, 1)
    }

    fn mean_and_mse<F>(
        data: &MultiWeighted,
        cfg: &SummaryConfig,
        runs: u64,
        exact: f64,
        f: F,
    ) -> (f64, f64)
    where
        F: Fn(&DispersedSummary) -> f64,
    {
        let mut total = 0.0;
        let mut squared = 0.0;
        for run in 0..runs {
            let summary = DispersedSummary::build(data, &cfg.with_seed(run * 6151 + 11));
            let estimate = f(&summary);
            total += estimate;
            squared += (estimate - exact).powi(2);
        }
        (total / runs as f64, squared / runs as f64)
    }

    #[test]
    fn max_min_l1_are_unbiased_for_coordinated_sketches() {
        let data = fixture(250, 3);
        let r = vec![0usize, 1, 2];
        let cfg = config(CoordinationMode::SharedSeed, 30);
        type EstimateFn = Box<dyn Fn(&DispersedSummary) -> f64>;
        let cases: Vec<(AggregateFn, EstimateFn)> = vec![
            (
                AggregateFn::Max(r.clone()),
                Box::new(|s: &DispersedSummary| {
                    DispersedEstimator::new(s).max(&[0, 1, 2]).unwrap().total()
                }),
            ),
            (
                AggregateFn::Min(r.clone()),
                Box::new(|s: &DispersedSummary| {
                    DispersedEstimator::new(s).min(&[0, 1, 2], SelectionKind::SSet).unwrap().total()
                }),
            ),
            (
                AggregateFn::Min(r.clone()),
                Box::new(|s: &DispersedSummary| {
                    DispersedEstimator::new(s).min(&[0, 1, 2], SelectionKind::LSet).unwrap().total()
                }),
            ),
            (
                AggregateFn::L1(r.clone()),
                Box::new(|s: &DispersedSummary| {
                    DispersedEstimator::new(s).l1(&[0, 1, 2], SelectionKind::LSet).unwrap().total()
                }),
            ),
            (
                AggregateFn::LthLargest { assignments: r.clone(), ell: 2 },
                Box::new(|s: &DispersedSummary| {
                    DispersedEstimator::new(s)
                        .lth_largest(&[0, 1, 2], 2, SelectionKind::LSet)
                        .unwrap()
                        .total()
                }),
            ),
        ];
        for (aggregate, estimate) in cases {
            let exact = exact_aggregate(&data, &aggregate, |_| true);
            let (mean, _) = mean_and_mse(&data, &cfg, 400, exact, |s| estimate(s));
            assert!(
                (mean - exact).abs() <= exact * 0.1,
                "{}: mean {mean} vs exact {exact}",
                aggregate.label()
            );
        }
    }

    #[test]
    fn min_is_unbiased_for_independent_sketches() {
        let data = fixture(250, 2);
        let cfg = config(CoordinationMode::Independent, 40);
        let exact = exact_aggregate(&data, &AggregateFn::Min(vec![0, 1]), |_| true);
        let (mean, _) = mean_and_mse(&data, &cfg, 500, exact, |s| {
            DispersedEstimator::new(s).min(&[0, 1], SelectionKind::LSet).unwrap().total()
        });
        assert!((mean - exact).abs() <= exact * 0.2, "mean {mean} vs exact {exact}");
    }

    #[test]
    fn coordinated_min_has_much_lower_mse_than_independent_min() {
        // The headline result (Figure 3): coordination reduces the variance of
        // the min estimator by orders of magnitude.
        let data = fixture(300, 3);
        let exact = exact_aggregate(&data, &AggregateFn::Min(vec![0, 1, 2]), |_| true);
        let runs = 200;
        let (_, mse_coord) =
            mean_and_mse(&data, &config(CoordinationMode::SharedSeed, 30), runs, exact, |s| {
                DispersedEstimator::new(s).min(&[0, 1, 2], SelectionKind::LSet).unwrap().total()
            });
        let (_, mse_ind) =
            mean_and_mse(&data, &config(CoordinationMode::Independent, 30), runs, exact, |s| {
                DispersedEstimator::new(s).min(&[0, 1, 2], SelectionKind::LSet).unwrap().total()
            });
        assert!(
            mse_ind > mse_coord * 4.0,
            "independent MSE {mse_ind} should dwarf coordinated MSE {mse_coord}"
        );
    }

    #[test]
    fn l_set_dominates_s_set() {
        // Lemma 5.1: the more inclusive l-set selection has at most the
        // variance of the s-set selection.
        let data = fixture(300, 4);
        let exact = exact_aggregate(&data, &AggregateFn::Min(vec![0, 1, 2, 3]), |_| true);
        let cfg = config(CoordinationMode::SharedSeed, 25);
        let runs = 300;
        let (_, mse_s) = mean_and_mse(&data, &cfg, runs, exact, |s| {
            DispersedEstimator::new(s).min(&[0, 1, 2, 3], SelectionKind::SSet).unwrap().total()
        });
        let (_, mse_l) = mean_and_mse(&data, &cfg, runs, exact, |s| {
            DispersedEstimator::new(s).min(&[0, 1, 2, 3], SelectionKind::LSet).unwrap().total()
        });
        assert!(mse_l <= mse_s * 1.05, "l-set MSE {mse_l} should not exceed s-set MSE {mse_s}");
    }

    #[test]
    fn l1_is_non_negative_per_key() {
        let data = fixture(300, 2);
        for family in [RankFamily::Ipps, RankFamily::Exp] {
            let cfg = SummaryConfig::new(25, family, CoordinationMode::SharedSeed, 3);
            let summary = DispersedSummary::build(&data, &cfg);
            let estimator = DispersedEstimator::new(&summary);
            for kind in [SelectionKind::SSet, SelectionKind::LSet] {
                let max = estimator.max(&[0, 1]).unwrap();
                let min = estimator.min(&[0, 1], kind).unwrap();
                for key in summary.union_keys() {
                    assert!(
                        max.get(key) >= min.get(key) - 1e-9,
                        "{family:?} {kind:?}: a_max {} < a_min {} for key {key}",
                        max.get(key),
                        min.get(key)
                    );
                }
                let l1 = estimator.l1(&[0, 1], kind).unwrap();
                assert!(l1.iter().all(|(_, value)| value >= 0.0));
            }
        }
    }

    #[test]
    fn ell_one_equals_max_and_ell_r_equals_min() {
        let data = fixture(200, 3);
        let cfg = config(CoordinationMode::SharedSeed, 20);
        let summary = DispersedSummary::build(&data, &cfg);
        let estimator = DispersedEstimator::new(&summary);
        let r = [0usize, 1, 2];

        let max = estimator.max(&r).unwrap();
        let top1 = estimator.lth_largest(&r, 1, SelectionKind::SSet).unwrap();
        for key in summary.union_keys() {
            assert!((max.get(key) - top1.get(key)).abs() < 1e-9);
        }

        let min_s = estimator.min(&r, SelectionKind::SSet).unwrap();
        let bottom_s = estimator.lth_largest(&r, 3, SelectionKind::SSet).unwrap();
        for key in summary.union_keys() {
            assert!((min_s.get(key) - bottom_s.get(key)).abs() < 1e-9);
        }

        let min_l = estimator.min(&r, SelectionKind::LSet).unwrap();
        let bottom_l = estimator.lth_largest(&r, 3, SelectionKind::LSet).unwrap();
        for key in summary.union_keys() {
            assert!((min_l.get(key) - bottom_l.get(key)).abs() < 1e-9);
        }
    }

    #[test]
    fn single_matches_plain_rc() {
        let data = fixture(200, 2);
        let cfg = config(CoordinationMode::SharedSeed, 20);
        let summary = DispersedSummary::build(&data, &cfg);
        let estimator = DispersedEstimator::new(&summary);
        let direct = rc_adjusted_weights(summary.sketch(1), summary.family());
        assert_eq!(estimator.single(1).unwrap(), direct);
    }

    #[test]
    fn unsupported_and_invalid_inputs() {
        let data = fixture(100, 2);
        let coordinated = DispersedSummary::build(&data, &config(CoordinationMode::SharedSeed, 10));
        let independent =
            DispersedSummary::build(&data, &config(CoordinationMode::Independent, 10));

        let est = DispersedEstimator::new(&independent);
        assert!(matches!(est.max(&[0, 1]), Err(CwsError::UnsupportedEstimator { .. })));
        assert!(matches!(
            est.l1(&[0, 1], SelectionKind::LSet),
            Err(CwsError::UnsupportedEstimator { .. })
        ));
        assert!(matches!(
            est.lth_largest(&[0, 1], 1, SelectionKind::SSet),
            Err(CwsError::UnsupportedEstimator { .. })
        ));
        assert!(est.min(&[0, 1], SelectionKind::LSet).is_ok());

        let est = DispersedEstimator::new(&coordinated);
        assert!(matches!(est.max(&[]), Err(CwsError::EmptyAssignmentSet)));
        assert!(matches!(est.max(&[0, 5]), Err(CwsError::AssignmentOutOfRange { .. })));
        assert!(matches!(est.max(&[0, 0]), Err(CwsError::InvalidParameter { .. })));
        assert!(matches!(
            est.lth_largest(&[0, 1], 0, SelectionKind::SSet),
            Err(CwsError::InvalidDependenceOrder { .. })
        ));
        assert!(matches!(
            est.lth_largest(&[0, 1], 3, SelectionKind::SSet),
            Err(CwsError::InvalidDependenceOrder { .. })
        ));
    }

    /// An unsupported L1 names itself, not the `max` half it is built from.
    #[test]
    fn independent_l1_reports_its_own_estimator() {
        let data = fixture(100, 2);
        let independent =
            DispersedSummary::build(&data, &config(CoordinationMode::Independent, 10));
        let est = DispersedEstimator::new(&independent);
        for kind in [SelectionKind::SSet, SelectionKind::LSet] {
            assert!(matches!(
                est.l1(&[0, 1], kind),
                Err(CwsError::UnsupportedEstimator { estimator: "l1", .. })
            ));
        }
        assert!(matches!(
            est.max(&[0, 1]),
            Err(CwsError::UnsupportedEstimator { estimator: "max", .. })
        ));
        // Invalid sets still surface as validation errors first.
        assert!(matches!(est.l1(&[], SelectionKind::LSet), Err(CwsError::EmptyAssignmentSet)));
    }

    #[test]
    fn subpopulation_estimates_track_truth() {
        let data = fixture(300, 2);
        let cfg = config(CoordinationMode::SharedSeed, 60);
        let predicate = |key: Key| key % 3 == 0;
        let exact = exact_aggregate(&data, &AggregateFn::L1(vec![0, 1]), predicate);
        let (mean, _) = mean_and_mse(&data, &cfg, 400, exact, |s| {
            DispersedEstimator::new(s)
                .l1(&[0, 1], SelectionKind::LSet)
                .unwrap()
                .subset_total(predicate)
        });
        assert!((mean - exact).abs() <= exact * 0.15, "mean {mean} vs exact {exact}");
    }

    /// The conditioning threshold of `key` in assignment `b`, as the
    /// oracle looks it up.
    type Threshold = fn(&DispersedSummary, Key, usize) -> f64;

    /// [`Threshold`] with the rank-conditioning choice inverted: the k-th
    /// rank for a sampled key, the next rank otherwise.
    fn swapped_threshold(summary: &DispersedSummary, key: Key, b: usize) -> f64 {
        if summary.in_sketch(key, b) {
            summary.sketch(b).kth_rank()
        } else {
            summary.sketch(b).next_rank()
        }
    }

    /// The per-key reference path: a sorted collect of the union, then
    /// [`DispersedSummary::entry`] and threshold lookups for every key and
    /// assignment, with fresh vectors per key. Yields the retained
    /// `(key, selection)` pairs in key order.
    struct Oracle<'a> {
        summary: &'a DispersedSummary,
        threshold: Threshold,
    }

    impl Oracle<'_> {
        fn keys(&self) -> Vec<Key> {
            let mut keys: Vec<Key> = self.summary.union_keys().collect();
            keys.sort_unstable();
            keys
        }

        fn min_threshold(&self, key: Key, assignments: &[usize]) -> f64 {
            assignments
                .iter()
                .map(|&b| (self.threshold)(self.summary, key, b))
                .fold(f64::INFINITY, f64::min)
        }

        fn select<F>(&self, selection: F) -> Vec<(Key, Selected)>
        where
            F: Fn(Key) -> Option<Selected>,
        {
            self.keys()
                .into_iter()
                .filter_map(|key| selection(key).map(|selected| (key, selected)))
                .filter(|(_, selected)| selected.adjusted_weight() != 0.0)
                .collect()
        }

        fn min(&self, assignments: &[usize], kind: SelectionKind) -> Vec<(Key, Selected)> {
            let summary = self.summary;
            let family = summary.family();
            let coordinated = summary.mode().is_coordinated();
            self.select(|key| {
                let mut weights = Vec::new();
                let mut ranks = Vec::new();
                for &b in assignments {
                    let (rank, weight) = summary.entry(key, b)?;
                    weights.push(weight);
                    ranks.push(rank);
                }
                let value = weights.iter().copied().fold(f64::INFINITY, f64::min);
                if value == 0.0 {
                    return None;
                }
                let probability = match kind {
                    SelectionKind::SSet => {
                        let threshold = self.min_threshold(key, assignments);
                        if ranks.iter().any(|&rank| rank >= threshold) {
                            return None;
                        }
                        if coordinated {
                            family.inclusion_probability(value, threshold)
                        } else {
                            weights
                                .iter()
                                .map(|&w| family.inclusion_probability(w, threshold))
                                .product()
                        }
                    }
                    SelectionKind::LSet => {
                        let per_assignment = assignments.iter().zip(&weights).map(|(&b, &w)| {
                            family.inclusion_probability(w, (self.threshold)(summary, key, b))
                        });
                        if coordinated {
                            per_assignment.fold(f64::INFINITY, f64::min)
                        } else {
                            per_assignment.product()
                        }
                    }
                };
                Some(Selected { value, probability })
            })
        }

        fn lth_largest(
            &self,
            assignments: &[usize],
            ell: usize,
            kind: SelectionKind,
        ) -> Vec<(Key, Selected)> {
            let summary = self.summary;
            let family = summary.family();
            match kind {
                SelectionKind::SSet => self.select(|key| {
                    let threshold = self.min_threshold(key, assignments);
                    let mut observed: Vec<f64> = assignments
                        .iter()
                        .filter_map(|&b| summary.entry(key, b))
                        .filter(|&(rank, _)| rank < threshold)
                        .map(|(_, weight)| weight)
                        .collect();
                    if observed.len() < ell {
                        return None;
                    }
                    observed.sort_by(|a, b| b.total_cmp(a));
                    let value = observed[ell - 1];
                    if value == 0.0 {
                        return None;
                    }
                    Some(Selected {
                        value,
                        probability: family.inclusion_probability(value, threshold),
                    })
                }),
                SelectionKind::LSet => self.select(|key| {
                    let mut observed: Vec<(usize, f64, f64)> = assignments
                        .iter()
                        .filter_map(|&b| {
                            summary.entry(key, b).map(|(rank, weight)| (b, rank, weight))
                        })
                        .collect();
                    if observed.len() < ell {
                        return None;
                    }
                    observed.sort_by(|a, b| b.2.total_cmp(&a.2));
                    let value = observed[ell - 1].2;
                    if value == 0.0 {
                        return None;
                    }
                    let (_, rank0, weight0) = observed[0];
                    let seed = family.seed_from_rank(weight0, rank0);
                    let top: Vec<usize> = observed[..ell].iter().map(|&(b, _, _)| b).collect();
                    let mut probability = f64::INFINITY;
                    for &(b, _, weight) in &observed[..ell] {
                        probability = probability.min(
                            family.inclusion_probability(weight, (self.threshold)(summary, key, b)),
                        );
                    }
                    for &b in assignments.iter().filter(|&&b| !top.contains(&b)) {
                        let bound =
                            family.inclusion_probability(value, (self.threshold)(summary, key, b));
                        if seed >= bound {
                            return None;
                        }
                        probability = probability.min(bound);
                    }
                    Some(Selected { value, probability })
                }),
            }
        }

        fn max(&self, assignments: &[usize]) -> Vec<(Key, Selected)> {
            self.lth_largest(assignments, 1, SelectionKind::SSet)
        }

        /// `(key, a_max − a_min)` over the sorted union of both supports,
        /// clamped at zero, zeros dropped.
        fn l1(&self, assignments: &[usize], kind: SelectionKind) -> Vec<(Key, f64)> {
            let max = self.max(assignments);
            let min = self.min(assignments, kind);
            let get = |list: &[(Key, Selected)], key: Key| {
                list.iter().find(|&&(k, _)| k == key).map_or(0.0, |(_, s)| s.adjusted_weight())
            };
            let mut keys: Vec<Key> = max.iter().chain(&min).map(|&(key, _)| key).collect();
            keys.sort_unstable();
            keys.dedup();
            keys.into_iter()
                .map(|key| (key, (get(&max, key) - get(&min, key)).max(0.0)))
                .filter(|&(_, value)| value != 0.0)
                .collect()
        }
    }

    /// Whether `got` holds exactly `want`, to the bit: keys, adjusted
    /// weights and every `(value, probability)` support pair, in order.
    fn same_selection(got: &AdjustedWeights, want: &[(Key, Selected)]) -> bool {
        let got: Vec<(Key, f64, Selected)> = got.supported_iter().expect("support kept").collect();
        got.len() == want.len()
            && got.iter().zip(want).all(|(&(key, weight, s), &(want_key, w))| {
                key == want_key
                    && weight.to_bits() == w.adjusted_weight().to_bits()
                    && s.value.to_bits() == w.value.to_bits()
                    && s.probability.to_bits() == w.probability.to_bits()
            })
    }

    /// Whether `got` holds exactly the `(key, weight)` pairs of `want`, to
    /// the bit.
    fn same_entries(got: &AdjustedWeights, want: &[(Key, f64)]) -> bool {
        got.len() == want.len()
            && got.iter().zip(want).all(|((key, weight), &(want_key, w))| {
                key == want_key && weight.to_bits() == w.to_bits()
            })
    }

    /// The row-walking kernels are bit-identical to the per-key lookup path
    /// for every estimator, selection, rank family and relevant-set size;
    /// the same fixtures tell the rank-conditioning thresholds apart, so a
    /// kernel that swapped `next_rank` and `kth_rank` would fail here.
    #[test]
    fn row_kernels_match_the_per_key_oracle_bit_for_bit() {
        let data = fixture(300, 4);
        let sets: [&[usize]; 4] = [&[2], &[1, 3], &[3, 0, 2], &[0, 1, 2, 3]];
        let kinds = [SelectionKind::SSet, SelectionKind::LSet];
        let mut checked = 0;
        let mut swap_detected = [false; 4];
        for family in [RankFamily::Ipps, RankFamily::Exp] {
            for mode in [CoordinationMode::SharedSeed, CoordinationMode::Independent] {
                for (k, seed) in [(25, 1), (40, 7), (320, 3)] {
                    let summary =
                        DispersedSummary::build(&data, &SummaryConfig::new(k, family, mode, seed));
                    let estimator = DispersedEstimator::new(&summary);
                    let oracle = Oracle {
                        summary: &summary,
                        threshold: DispersedSummary::threshold_excluding,
                    };
                    let swapped = Oracle { summary: &summary, threshold: swapped_threshold };
                    let label = |what: &str, r: &[usize]| {
                        format!("{what} {family:?} {mode:?} k={k} seed={seed} R={r:?}")
                    };
                    for r in sets {
                        for kind in kinds {
                            let got = estimator.min(r, kind).unwrap();
                            assert!(
                                same_selection(&got, &oracle.min(r, kind)),
                                "{}",
                                label(&format!("min {kind:?}"), r)
                            );
                            swap_detected[0] |= !same_selection(&got, &swapped.min(r, kind));
                            checked += 1;
                        }
                        if !mode.is_coordinated() {
                            continue;
                        }
                        let got = estimator.max(r).unwrap();
                        assert!(same_selection(&got, &oracle.max(r)), "{}", label("max", r));
                        swap_detected[1] |= !same_selection(&got, &swapped.max(r));
                        checked += 1;
                        for kind in kinds {
                            let got = estimator.l1(r, kind).unwrap();
                            assert!(
                                same_entries(&got, &oracle.l1(r, kind)),
                                "{}",
                                label(&format!("l1 {kind:?}"), r)
                            );
                            swap_detected[2] |= !same_entries(&got, &swapped.l1(r, kind));
                            checked += 1;
                            for ell in 1..=r.len() {
                                let got = estimator.lth_largest(r, ell, kind).unwrap();
                                let want = oracle.lth_largest(r, ell, kind);
                                assert!(
                                    same_selection(&got, &want),
                                    "{}",
                                    label(&format!("lth_largest ell={ell} {kind:?}"), r)
                                );
                                swap_detected[3] |=
                                    !same_selection(&got, &swapped.lth_largest(r, ell, kind));
                                checked += 1;
                            }
                        }
                    }
                }
            }
        }
        // Per family and (k, seed): the independent summary checks min on
        // 4 sets × 2 selections; the coordinated one checks, per set, min
        // and l1 under both selections, max, and ℓ = 1..=|R| under both.
        assert_eq!(checked, 2 * 3 * (4 * 2 + (4 * 5 + 2 * (1 + 2 + 3 + 4))));
        assert_eq!(
            swap_detected, [true; 4],
            "[min, max, l1, lth_largest] tell the thresholds apart"
        );
    }
}
