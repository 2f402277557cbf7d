//! The unified ingestion trait over the pipeline's sampling back-ends.
//!
//! [`RecordColumns`] is the ingestion currency: the pipeline's aggregation
//! stage drains into it, the write-ahead journal encodes frames straight
//! from it and replays a journaled batch through `push_columns` again,
//! and [`MultiAssignmentStreamSampler`] consumes it natively. The
//! row-shaped calls sit beside it: [`Ingest::push_record`] per record and
//! [`Ingest::push_batch`], the one row-batch adapter over it. Every
//! call shape on every back-end produces **bit-identical summaries**
//! (asserted by `tests/pipeline_parity.rs` at the workspace root).
//!
//! The per-assignment
//! [`DispersedStreamSampler`](cws_stream::DispersedStreamSampler) is not a
//! pipeline back-end and has no `Ingest` implementation; it stays the
//! reference and bench baseline through its inherent methods.

use cws_core::columns::RecordColumns;
use cws_core::{Key, Result};
use cws_stream::{ColocatedStreamSampler, MultiAssignmentStreamSampler};

use crate::summary::Summary;

/// Uniform single-pass ingestion of `(key, weight-vector)` records.
///
/// The stream must be aggregated: each key may appear at most once (feed
/// unaggregated element streams through a
/// [`Pipeline`](crate::Pipeline) with a [`SumByKey` /
/// `MaxByKey`](crate::Aggregation) stage instead). Implementations validate
/// weights at the push boundary — NaN, infinite and negative weights are
/// rejected with a typed error and the record is rejected whole.
pub trait Ingest {
    /// Number of weight assignments every record must carry.
    fn num_assignments(&self) -> usize;

    /// Ingestion progress: the number of records accepted so far.
    fn processed(&self) -> u64;

    /// Processes one record: a key with its full weight vector.
    ///
    /// # Errors
    /// Returns an error if any weight is NaN, infinite or negative.
    fn push_record(&mut self, key: Key, weights: &[f64]) -> Result<()>;

    /// Processes a batch of row-major records.
    ///
    /// # Errors
    /// As [`Ingest::push_record`]; records before the offending one were
    /// ingested.
    fn push_batch<'a, I>(&mut self, records: I) -> Result<()>
    where
        I: IntoIterator<Item = (Key, &'a [f64])>,
        Self: Sized,
    {
        for (key, weights) in records {
            self.push_record(key, weights)?;
        }
        Ok(())
    }

    /// Processes a structure-of-arrays batch — the ingestion currency.
    /// Bit-identical to [`Ingest::push_record`] per record when every
    /// record is valid.
    ///
    /// # Errors
    /// As [`Ingest::push_record`]. How much of a batch with an invalid
    /// record was ingested is the back-end's own contract (a prefix of
    /// records, of whole chunks, or nothing) — see its documentation.
    fn push_columns(&mut self, columns: &RecordColumns) -> Result<()>;

    /// Finalizes the pass into a [`Summary`].
    ///
    /// # Errors
    /// Returns an error if work still buffered in front of the back-end
    /// cannot be handed to it (see [`Pipeline`](crate::Pipeline)'s
    /// aggregation stage); the samplers themselves finalize infallibly.
    fn finalize(self) -> Result<Summary>
    where
        Self: Sized;
}

impl Ingest for ColocatedStreamSampler {
    fn num_assignments(&self) -> usize {
        ColocatedStreamSampler::num_assignments(self)
    }

    fn processed(&self) -> u64 {
        ColocatedStreamSampler::processed(self)
    }

    fn push_record(&mut self, key: Key, weights: &[f64]) -> Result<()> {
        ColocatedStreamSampler::push(self, key, weights)
    }

    fn push_columns(&mut self, columns: &RecordColumns) -> Result<()> {
        ColocatedStreamSampler::push_columns(self, columns)
    }

    fn finalize(self) -> Result<Summary> {
        Ok(Summary::Colocated(ColocatedStreamSampler::finalize(self)))
    }
}

impl Ingest for MultiAssignmentStreamSampler {
    fn num_assignments(&self) -> usize {
        MultiAssignmentStreamSampler::num_assignments(self)
    }

    fn processed(&self) -> u64 {
        MultiAssignmentStreamSampler::processed(self)
    }

    fn push_record(&mut self, key: Key, weights: &[f64]) -> Result<()> {
        MultiAssignmentStreamSampler::push_record(self, key, weights)
    }

    fn push_columns(&mut self, columns: &RecordColumns) -> Result<()> {
        MultiAssignmentStreamSampler::push_columns(self, columns)
    }

    fn finalize(self) -> Result<Summary> {
        Ok(Summary::Dispersed(MultiAssignmentStreamSampler::finalize(self)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cws_core::summary::SummaryConfig;
    use cws_core::{CoordinationMode, MultiWeighted, RankFamily};
    use cws_stream::DispersedStreamSampler;

    fn fixture(assignments: usize) -> MultiWeighted {
        let mut builder = MultiWeighted::builder(assignments);
        for key in 0..600u64 {
            for b in 0..assignments {
                builder.add(key, b, ((key * (b as u64 + 3)) % 21) as f64);
            }
        }
        builder.build()
    }

    /// Drives a back-end through every trait call shape and returns the three
    /// finalized summaries (which must all be equal).
    fn all_shapes<S, F>(make: F, data: &MultiWeighted) -> Vec<Summary>
    where
        S: Ingest,
        F: Fn() -> S,
    {
        let columns = data.to_columns();
        let mut summaries = Vec::new();

        let mut sampler = make();
        for (key, weights) in data.iter() {
            Ingest::push_record(&mut sampler, key, weights).unwrap();
        }
        assert_eq!(Ingest::processed(&sampler), data.num_keys() as u64);
        summaries.push(Ingest::finalize(sampler).unwrap());

        let mut sampler = make();
        Ingest::push_batch(&mut sampler, data.iter()).unwrap();
        summaries.push(Ingest::finalize(sampler).unwrap());

        let mut sampler = make();
        Ingest::push_columns(&mut sampler, &columns).unwrap();
        summaries.push(Ingest::finalize(sampler).unwrap());

        summaries
    }

    #[test]
    fn every_back_end_accepts_every_call_shape_bit_exactly() {
        let data = fixture(3);
        let config = SummaryConfig::new(24, RankFamily::Ipps, CoordinationMode::SharedSeed, 5);

        let colocated = all_shapes(|| ColocatedStreamSampler::new(config, 3), &data);
        assert!(colocated.iter().all(|s| s == &colocated[0]));
        assert!(colocated[0].as_colocated().is_some());

        // The per-assignment sampler is the reference, fed through its own
        // inherent record push.
        let mut reference = DispersedStreamSampler::new(config, 3);
        for (key, weights) in data.iter() {
            reference.push_record(key, weights).unwrap();
        }
        let reference = Summary::Dispersed(reference.finalize());
        let hash_once = all_shapes(|| MultiAssignmentStreamSampler::new(config, 3), &data);
        for summary in &hash_once {
            assert_eq!(summary, &reference, "every dispersed call shape agrees");
        }
    }
}
