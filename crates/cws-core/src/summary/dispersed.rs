//! The dispersed-weights summary: independent per-assignment bottom-k
//! sketches coordinated only through the shared hash seed (Section 7).

use crate::coordination::CoordinationMode;
use crate::ranks::RankFamily;
use crate::sketch::bottomk::BottomKSketch;
use crate::summary::SummaryConfig;
use crate::weights::{Key, MultiWeighted};

/// A multi-assignment summary in the dispersed-weights model.
///
/// The summary is exactly what a set of per-assignment processing sites can
/// produce without communicating: for every assignment `b`, a bottom-k sketch
/// of `(I, w^(b))` whose entries record only the weight under `b`. The sites
/// share nothing but the hash seed; coordination (or the lack of it) is
/// decided by the [`CoordinationMode`] of the configuration.
///
/// Beside the sketches, the summary keeps a key-sorted flat layout built
/// once at assembly: the union of the sampled keys in ascending order, and
/// one row of per-assignment `(rank, weight)` slots per union key, stored
/// row-major in one array. An estimator pass walks [`DispersedSummary::rows`]
/// front to back with no hashing; a point lookup
/// ([`DispersedSummary::entry`]) is a binary search over the union.
#[derive(Debug, Clone, PartialEq)]
pub struct DispersedSummary {
    config: SummaryConfig,
    sketches: Vec<BottomKSketch>,
    /// The union of the sketches' keys, strictly ascending.
    union: Vec<Key>,
    /// `union.len() × num_assignments` slots, row-major: slot
    /// `row * num_assignments + b` holds the `(rank, weight)` of `union[row]`
    /// in the sketch of assignment `b`, if it is sampled there.
    slots: Vec<Option<(f64, f64)>>,
}

impl DispersedSummary {
    /// Builds the summary from the full data set, simulating the dispersed
    /// per-assignment processing.
    ///
    /// # Panics
    /// Panics if the configuration uses
    /// [`CoordinationMode::IndependentDifferences`], which requires the whole
    /// weight vector at sampling time and therefore cannot be realized by
    /// dispersed processing (Section 4, "Computing coordinated sketches").
    #[must_use]
    pub fn build(data: &MultiWeighted, config: &SummaryConfig) -> Self {
        assert!(
            config.mode != CoordinationMode::IndependentDifferences,
            "independent-differences ranks are not suited for dispersed weights"
        );
        let generator = config.generator();
        let assignments = data.num_assignments();
        let mut sketches = Vec::with_capacity(assignments);
        for b in 0..assignments {
            // Each assignment is processed on its own, exactly as a dispersed
            // site would: it sees only (key, w^(b)(key)).
            let sketch = BottomKSketch::from_ranked(
                config.k,
                data.iter().map(|(key, weights)| {
                    let weight = weights[b];
                    let rank = generator
                        .dispersed_rank(key, weight, b)
                        .expect("mode checked above to support dispersed processing");
                    (key, rank, weight)
                }),
            );
            sketches.push(sketch);
        }
        Self::from_sketches(*config, sketches)
    }

    /// Assembles a summary from per-assignment sketches that were computed
    /// elsewhere (e.g. by the stream samplers of `cws-stream` or at remote
    /// sites).
    ///
    /// # Panics
    /// Panics if `sketches` is empty or the sketches disagree on `k`.
    #[must_use]
    pub fn from_sketches(config: SummaryConfig, sketches: Vec<BottomKSketch>) -> Self {
        assert!(!sketches.is_empty(), "at least one assignment is required");
        assert!(
            sketches.iter().all(|s| s.k() == config.k),
            "all sketches must use the configured k"
        );
        let assignments = sketches.len();
        // Every sampled entry as `(key, assignment << 32 | position in its
        // sketch)`, sorted by key: the entries of one key become adjacent, so
        // one walk lays out the union and its rows.
        let mut sampled: Vec<(Key, u64)> = Vec::new();
        for (b, sketch) in sketches.iter().enumerate() {
            let tag = u64::try_from(b).expect("assignment index fits in u64") << 32;
            let positions = 0..u64::from(
                u32::try_from(sketch.len()).expect("a sketch holds fewer than 2^32 entries"),
            );
            sampled.extend(sketch.entries().iter().zip(positions).map(|(e, i)| (e.key, tag | i)));
        }
        sampled.sort_unstable_by_key(|&(key, _)| key);
        let mut union: Vec<Key> = Vec::new();
        let mut slots: Vec<Option<(f64, f64)>> = Vec::new();
        for (key, tag) in sampled {
            if union.last() != Some(&key) {
                union.push(key);
                slots.resize(slots.len() + assignments, None);
            }
            let b = (tag >> 32) as usize;
            let entry = &sketches[b].entries()[(tag & u64::from(u32::MAX)) as usize];
            slots[(union.len() - 1) * assignments + b] = Some((entry.rank, entry.weight));
        }
        Self { config, sketches, union, slots }
    }

    /// The configuration used to build the summary.
    #[must_use]
    pub fn config(&self) -> &SummaryConfig {
        &self.config
    }

    /// Per-assignment sample size `k`.
    #[must_use]
    pub fn k(&self) -> usize {
        self.config.k
    }

    /// The rank family.
    #[must_use]
    pub fn family(&self) -> RankFamily {
        self.config.family
    }

    /// The coordination mode.
    #[must_use]
    pub fn mode(&self) -> CoordinationMode {
        self.config.mode
    }

    /// Number of weight assignments summarized.
    #[must_use]
    pub fn num_assignments(&self) -> usize {
        self.sketches.len()
    }

    /// The embedded bottom-k sketch of assignment `b`.
    #[must_use]
    pub fn sketch(&self, assignment: usize) -> &BottomKSketch {
        &self.sketches[assignment]
    }

    /// All embedded sketches.
    #[must_use]
    pub fn sketches(&self) -> &[BottomKSketch] {
        &self.sketches
    }

    /// Number of distinct keys in the union of the embedded sketches — the
    /// storage footprint that coordination minimizes (Theorem 4.2).
    #[must_use]
    pub fn num_distinct_keys(&self) -> usize {
        self.union.len()
    }

    /// Iterates over the keys in the union of the sketches, in strictly
    /// ascending key order — the same order for the same sketches on every
    /// run, so folds over it are deterministic.
    pub fn union_keys(&self) -> impl Iterator<Item = Key> + '_ {
        self.union.iter().copied()
    }

    /// Iterates over the union in strictly ascending key order, handing out
    /// each key with its row of per-assignment slots: `row[b]` is the
    /// `(rank, weight)` of the key in the sketch of assignment `b`, or `None`
    /// when it is not sampled there. Each row has
    /// [`DispersedSummary::num_assignments`] slots.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = (Key, &[Option<(f64, f64)>])> + '_ {
        self.union.iter().copied().zip(self.slots.chunks_exact(self.num_assignments()))
    }

    /// The `(rank, weight)` of `key` in the sketch of `assignment`, if it was
    /// sampled there. A binary search over the union: `O(log U)` for `U`
    /// distinct keys.
    #[must_use]
    pub fn entry(&self, key: Key, assignment: usize) -> Option<(f64, f64)> {
        let row = self.union.binary_search(&key).ok()?;
        self.slots[row * self.num_assignments() + assignment]
    }

    /// Whether `key` appears in the sketch of `assignment`.
    #[must_use]
    pub fn in_sketch(&self, key: Key, assignment: usize) -> bool {
        self.entry(key, assignment).is_some()
    }

    /// `r_k^{(b)}(I \ {key})` — the rank-conditioning threshold: the
    /// `(k+1)`-st smallest rank of assignment `b` when `key` is in its
    /// sketch, the `k`-th smallest otherwise.
    #[must_use]
    pub fn threshold_excluding(&self, key: Key, assignment: usize) -> f64 {
        if self.in_sketch(key, assignment) {
            self.sketches[assignment].next_rank()
        } else {
            self.sketches[assignment].kth_rank()
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use crate::coordination::CoordinationMode;
    use crate::ranks::RankFamily;

    fn fixture() -> MultiWeighted {
        let mut builder = MultiWeighted::builder(3);
        for key in 0..500u64 {
            builder.add(key, 0, ((key % 11) + 1) as f64);
            builder.add(key, 1, ((key % 7) * 2) as f64);
            builder.add(key, 2, ((key % 13) + 3) as f64);
        }
        builder.build()
    }

    fn config(mode: CoordinationMode) -> SummaryConfig {
        SummaryConfig::new(20, RankFamily::Ipps, mode, 42)
    }

    #[test]
    fn build_produces_one_sketch_per_assignment() {
        let data = fixture();
        let summary = DispersedSummary::build(&data, &config(CoordinationMode::SharedSeed));
        assert_eq!(summary.num_assignments(), 3);
        assert_eq!(summary.k(), 20);
        for b in 0..3 {
            assert_eq!(summary.sketch(b).len(), 20);
        }
        assert_eq!(summary.family(), RankFamily::Ipps);
        assert_eq!(summary.mode(), CoordinationMode::SharedSeed);
        assert_eq!(summary.config().seed, 42);
    }

    #[test]
    fn union_size_bounds() {
        let data = fixture();
        for mode in [CoordinationMode::SharedSeed, CoordinationMode::Independent] {
            let summary = DispersedSummary::build(&data, &config(mode));
            let distinct = summary.num_distinct_keys();
            assert!(distinct >= 20, "{mode:?}: {distinct}");
            assert!(distinct <= 60, "{mode:?}: {distinct}");
            assert_eq!(summary.union_keys().count(), distinct);
        }
    }

    #[test]
    fn coordination_shares_more_keys_than_independence() {
        let data = fixture();
        let coordinated = DispersedSummary::build(&data, &config(CoordinationMode::SharedSeed));
        let independent = DispersedSummary::build(&data, &config(CoordinationMode::Independent));
        assert!(
            coordinated.num_distinct_keys() < independent.num_distinct_keys(),
            "coordinated {} vs independent {}",
            coordinated.num_distinct_keys(),
            independent.num_distinct_keys()
        );
    }

    #[test]
    fn membership_is_consistent_with_sketches() {
        let data = fixture();
        let summary = DispersedSummary::build(&data, &config(CoordinationMode::SharedSeed));
        for b in 0..3 {
            for entry in summary.sketch(b).entries() {
                assert!(summary.in_sketch(entry.key, b));
                let (rank, weight) = summary.entry(entry.key, b).unwrap();
                assert_eq!(rank, entry.rank);
                assert_eq!(weight, entry.weight);
                assert_eq!(weight, data.weight(entry.key, b));
            }
        }
        // A key absent from a sketch reports the k-th rank as threshold.
        let some_key = summary
            .union_keys()
            .find(|&key| !summary.in_sketch(key, 0))
            .expect("some union key missing from sketch 0");
        assert_eq!(summary.threshold_excluding(some_key, 0), summary.sketch(0).kth_rank());
        let member = summary.sketch(0).entries()[0].key;
        assert_eq!(summary.threshold_excluding(member, 0), summary.sketch(0).next_rank());
    }

    #[test]
    fn union_keys_and_rows_are_ascending_and_match_the_sketches() {
        let data = fixture();
        for mode in [CoordinationMode::SharedSeed, CoordinationMode::Independent] {
            let summary = DispersedSummary::build(&data, &config(mode));
            let keys: Vec<Key> = summary.union_keys().collect();
            assert!(keys.windows(2).all(|pair| pair[0] < pair[1]), "{mode:?}: not ascending");
            let expected: BTreeSet<Key> = summary
                .sketches()
                .iter()
                .flat_map(|sketch| sketch.entries().iter().map(|entry| entry.key))
                .collect();
            assert_eq!(keys, expected.into_iter().collect::<Vec<_>>(), "{mode:?}");

            assert_eq!(summary.rows().len(), keys.len());
            for ((key, row), &expected_key) in summary.rows().zip(&keys) {
                assert_eq!(key, expected_key);
                assert_eq!(row.len(), summary.num_assignments());
                for (b, &slot) in row.iter().enumerate() {
                    let sampled = summary.sketch(b).entries().iter().find(|e| e.key == key);
                    assert_eq!(slot, sampled.map(|e| (e.rank, e.weight)), "{mode:?} key {key}");
                    assert_eq!(summary.entry(key, b), slot);
                }
            }
            let outside = (0..).find(|key| keys.binary_search(key).is_err()).unwrap();
            assert_eq!(summary.entry(outside, 0), None);
        }
    }

    #[test]
    #[should_panic(expected = "not suited for dispersed weights")]
    fn independent_differences_rejected() {
        let data = fixture();
        let config =
            SummaryConfig::new(10, RankFamily::Exp, CoordinationMode::IndependentDifferences, 1);
        let _ = DispersedSummary::build(&data, &config);
    }

    #[test]
    fn from_sketches_roundtrip() {
        let data = fixture();
        let cfg = config(CoordinationMode::SharedSeed);
        let built = DispersedSummary::build(&data, &cfg);
        let reassembled = DispersedSummary::from_sketches(cfg, built.sketches().to_vec());
        assert_eq!(built, reassembled);
    }

    #[test]
    #[should_panic(expected = "configured k")]
    fn from_sketches_rejects_mismatched_k() {
        let data = fixture();
        let cfg = config(CoordinationMode::SharedSeed);
        let built = DispersedSummary::build(&data, &cfg);
        let wrong = SummaryConfig::new(5, cfg.family, cfg.mode, cfg.seed);
        let _ = DispersedSummary::from_sketches(wrong, built.sketches().to_vec());
    }
}
