//! End-to-end cross-engine agreement at integration scale, over a
//! different seed and row-group layout than the unit tests use — the
//! workspace's strongest correctness statement.

use std::sync::Arc;

use hepquery::bench::{reference, validate, QueryId, ALL_QUERIES};
use hepquery::prelude::*;

fn dataset(seed: u64, n: usize, rg: usize) -> (Vec<Event>, Arc<Table>) {
    let (e, t) = hepquery::model::generator::build_dataset(DatasetSpec {
        n_events: n,
        row_group_size: rg,
        seed,
    });
    (e, Arc::new(t))
}

#[test]
fn every_engine_matches_reference_on_every_query() {
    let (events, table) = dataset(0xE2E, 4_000, 640);
    for q in ALL_QUERIES {
        let report = validate::validate_query(*q, &events, &table).unwrap();
        for v in &report {
            assert!(
                v.exact,
                "{} {}: total delta {}, max bin delta {}",
                v.system, v.query, v.total_delta, v.max_bin_delta
            );
        }
        assert_eq!(report.len(), 5, "five systems validated");
    }
}

#[test]
fn agreement_is_layout_independent() {
    // The same events in radically different row-group layouts must give
    // identical results on every engine (exercises partial row groups,
    // single-group serial paths, and many-group parallel paths).
    let q = QueryId::Q5;
    let (events, t1) = dataset(77, 3_000, 17);
    let (events2, t2) = dataset(77, 3_000, 3_000);
    assert_eq!(events, events2);
    let expect = reference::run(q, &events).hist;
    for table in [t1, t2] {
        for system in [System::BigQuery, System::RDataFrame] {
            let run = engine_for_compiled(system, table.clone())
                .execute(&q.into(), &ExecEnv::seed())
                .unwrap();
            assert!(run.histogram.counts_equal(&expect), "{}", system.name());
        }
    }
}

/// The 16-group table, merged from per-group partials, against the same
/// events in one row group, where one partition is the whole table.
#[test]
fn serial_and_parallel_sql_agree() {
    let (_, table) = dataset(31, 4_000, 256);
    let (_, whole) = dataset(31, 4_000, 4_000);
    assert_eq!(
        (table.row_groups().len(), whole.row_groups().len()),
        (16, 1)
    );
    let serial = ExecEnv {
        intra_query_threads: Some(1),
        ..ExecEnv::seed()
    };
    for q in [QueryId::Q1, QueryId::Q4, QueryId::Q6a, QueryId::Q8] {
        let par = engine_for_compiled(System::Presto, table.clone())
            .execute(&q.into(), &ExecEnv::seed())
            .unwrap();
        let ser = engine_for_compiled(System::Presto, whole.clone())
            .execute(&q.into(), &serial)
            .unwrap();
        assert!(
            par.histogram.counts_equal(&ser.histogram),
            "{} parallel vs serial",
            q.name()
        );
    }
}

#[test]
fn q6a_and_q6b_select_identical_events() {
    let (events, table) = dataset(6, 3_000, 512);
    let rdf = engine_for_compiled(System::RDataFrame, table);
    let a = rdf.execute(&QueryId::Q6a.into(), &ExecEnv::seed()).unwrap();
    let b = rdf.execute(&QueryId::Q6b.into(), &ExecEnv::seed()).unwrap();
    assert_eq!(a.histogram.total(), b.histogram.total());
    let expect = events.iter().filter(|e| e.jets.len() >= 3).count() as u64;
    assert_eq!(a.histogram.total(), expect);
}
