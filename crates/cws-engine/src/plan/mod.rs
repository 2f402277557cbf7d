//! Query planning and execution: many aggregates, one pass per shared
//! kernel — the engine's only evaluation path.
//!
//! The paper's central promise is that *one* coordinated summary answers
//! *many* aggregates over many weight assignments. This module delivers the
//! serving side of that promise in three stages:
//!
//! 1. **IR** ([`ir`]) — a [`QueryBatch`] of declarative [`QuerySpec`]s:
//!    sum / count / avg over one assignment, max / min / L1 / ℓ-th largest
//!    over a sorted assignment set, Jaccard over a normalized pair, each
//!    with an optional a-posteriori key predicate and the dispersed
//!    selection rule.
//! 2. **Planner** ([`planner`]) — groups specs by `(AggregateFn,
//!    SelectionKind)` into a [`QueryPlan`]; each distinct kernel is one
//!    adjusted-weight pass, no matter how many specs (with however many
//!    different predicates) read from it.
//! 3. **Executor** ([`executor`]) — computes each kernel once (colocated
//!    kernels additionally share one inclusion-probability pass), folds its
//!    entries once, and fans every entry out to all reading accumulators.
//!    Results return as [`EstimateReport`](crate::query::EstimateReport)s in
//!    input order, with variance and 95% CI where the estimator supports
//!    them.
//!
//! A single [`Query`](crate::query::Query) is a one-spec batch through the
//! same planner and executor.
//!
//! Batches honor the governance layer: [`QueryBatch::with_deadline`] arms a
//! wall-clock budget checked before every kernel and every
//! [`DEADLINE_CHECK_STRIDE`](crate::query::DEADLINE_CHECK_STRIDE) folded
//! keys, and specs repeating an assignment fail with a typed
//! [`CwsError`](cws_core::CwsError) before any work is done.
//!
//! ```
//! use cws_engine::prelude::*;
//!
//! let mut pipeline = Pipeline::builder().assignments(3).k(64).seed(9).build().unwrap();
//! for key in 0u64..2000 {
//!     let weights = [((key % 11) + 1) as f64, ((key % 7) + 1) as f64, (key % 3) as f64];
//!     pipeline.push_record(key, &weights).unwrap();
//! }
//! let summary = pipeline.finalize().unwrap();
//!
//! let batch = QueryBatch::new()
//!     .push(QuerySpec::sum(0))
//!     .push(QuerySpec::sum(0).filter(|key| key % 2 == 0))
//!     .push(QuerySpec::avg(1))
//!     .push(QuerySpec::jaccard(0, 1));
//! // Four specs, two shared passes (Single(0), Single(1)) plus the
//! // Jaccard pair kernels.
//! let reports = summary.query_batch(&batch).unwrap();
//! assert_eq!(reports.len(), 4);
//! assert!(reports[0].ci95.unwrap().covers(reports[0].value));
//! ```

pub mod executor;
pub mod ir;
pub mod planner;

pub use ir::{AggregateSpec, QueryBatch, QuerySpec, SharedPredicate};
pub use planner::QueryPlan;
