//! Cross-engine result validation.
//!
//! Because the query texts replicate the reference kernels' float paths
//! exactly, validation demands **bin-for-bin equality** against the
//! reference for every engine and dialect. A rich diff is produced on
//! mismatch so divergence is debuggable.

use std::sync::Arc;

use nf2_columnar::Table;
use physics::Histogram;

use crate::adapters::{AdapterError, ExecEnv};
use crate::engine_api::{engine_for_compiled, QuerySpec};
use crate::reference;
use crate::runner::System;
use crate::spec::QueryId;

/// One engine's validation outcome for one query.
#[derive(Debug)]
pub struct Validation {
    /// Engine/dialect label.
    pub system: &'static str,
    /// Query output.
    pub query: &'static str,
    /// Exact bin-for-bin match?
    pub exact: bool,
    /// Total-entries difference (signed).
    pub total_delta: i64,
    /// Largest per-bin absolute difference.
    pub max_bin_delta: u64,
}

/// Compares a histogram against the reference.
pub fn diff(system: &'static str, q: QueryId, got: &Histogram, expect: &Histogram) -> Validation {
    let exact = got.counts_equal(expect);
    let max_bin_delta = got
        .counts()
        .iter()
        .zip(expect.counts().iter())
        .map(|(a, b)| a.abs_diff(*b))
        .chain([
            got.underflow().abs_diff(expect.underflow()),
            got.overflow().abs_diff(expect.overflow()),
        ])
        .max()
        .unwrap_or(0);
    Validation {
        system,
        query: q.name(),
        exact,
        total_delta: got.total() as i64 - expect.total() as i64,
        max_bin_delta,
    }
}

/// Runs one query on every engine and validates against the reference.
/// Returns one entry per system.
pub fn validate_query(
    q: QueryId,
    events: &[hep_model::Event],
    table: &Arc<Table>,
) -> Result<Vec<Validation>, AdapterError> {
    let expect = reference::run(q, events).hist;
    let spec = QuerySpec::benchmark(q);
    let mut out = Vec::new();
    for (label, system) in [
        ("BigQuery", System::BigQuery),
        ("Presto", System::Presto),
        ("Athena", System::AthenaV2),
        ("JSONiq", System::Rumble),
        ("RDataFrame", System::RDataFrame),
    ] {
        let run = engine_for_compiled(system, table.clone()).execute(&spec, &ExecEnv::seed())?;
        out.push(diff(label, q, &run.histogram, &expect));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ALL_QUERIES;
    use hep_model::generator::build_dataset;
    use hep_model::DatasetSpec;

    /// The headline correctness property of the whole workspace: five
    /// independent implementations of each query produce identical
    /// histograms.
    #[test]
    fn all_engines_agree_with_reference() {
        let (events, table) = build_dataset(DatasetSpec {
            n_events: 2_000,
            row_group_size: 512,
            seed: 1234,
        });
        let table = Arc::new(table);
        let mut failures = Vec::new();
        for q in ALL_QUERIES {
            for v in validate_query(*q, &events, &table).unwrap() {
                if !v.exact {
                    failures.push(format!(
                        "{} {}: total Δ {}, max bin Δ {}",
                        v.system, v.query, v.total_delta, v.max_bin_delta
                    ));
                }
            }
        }
        assert!(failures.is_empty(), "mismatches:\n{}", failures.join("\n"));
    }
}
