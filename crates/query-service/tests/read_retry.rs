//! A transient storage fault is retried at the chunk read, below the
//! query: the service answers the first request with the fault-free
//! histogram and byte-identical `ScanStats`, however many chunks of the
//! projection faulted.

use std::sync::Arc;

use hep_model::generator::build_dataset;
use hep_model::DatasetSpec;
use hepbench_core::runner::System;
use hepbench_core::{QueryId, ALL_QUERIES};
use nf2_columnar::{FaultClass, FaultConfig, FaultInjector, Table};
use query_service::{QueryRequest, QueryService, ServiceConfig};

fn table(spec: DatasetSpec) -> Arc<Table> {
    Arc::new(build_dataset(spec).1)
}

/// The default deployment with the result cache off (so every request
/// executes), optionally behind a fault injector. One worker, so the
/// buffer pool sees the same request order in both services.
fn service(table: &Arc<Table>, faults: Option<Arc<FaultInjector>>) -> QueryService {
    QueryService::start(
        table.clone(),
        ServiceConfig {
            n_workers: 1,
            result_cache: false,
            fault_injector: faults,
            ..ServiceConfig::default()
        },
    )
}

/// Serves every (system, query) of `grid` from a fault-free service and
/// from one behind `faults`, whose faulted chunks fail their first read
/// and then read clean. Every faulted request must be served, with the
/// fault-free histogram and `ScanStats`, and every failed read must have
/// been retried.
fn assert_served_through(table: &Arc<Table>, faults: FaultConfig, grid: &[(System, QueryId)]) {
    let injector = Arc::new(FaultInjector::new(FaultConfig {
        transient_attempts: 1,
        ..faults
    }));
    let clean = service(table, None);
    let faulty = service(table, Some(injector.clone()));
    let mut reads_retried = 0;
    for &(system, query) in grid {
        let ctx = format!("{} {}", system.name(), query.name());
        let want = clean
            .execute(QueryRequest::new("t", system, query))
            .unwrap_or_else(|e| panic!("{ctx}: fault-free run failed: {e}"));
        let got = faulty
            .execute(QueryRequest::new("t", system, query))
            .unwrap_or_else(|e| panic!("{ctx}: a transient fault cost the request: {e}"));
        assert!(got.histogram.counts_equal(&want.histogram), "{ctx}");
        assert_eq!(got.stats.scan, want.stats.scan, "{ctx}: re-reads billed");
        assert_eq!(want.stats.reads_retried, 0, "{ctx}");
        reads_retried += got.stats.reads_retried;
    }
    assert!(reads_retried > 0, "no read was retried: dead injector?");
    let counters = injector.counters();
    assert_eq!(counters.io, reads_retried, "every failed read was retried");
    assert!(counters.recovered > 0, "no read recovered");
    let stats = faulty.stats();
    assert_eq!((stats.completed, stats.failed), (grid.len() as u64, 0));
}

#[test]
fn transient_read_faults_are_served_on_the_first_request() {
    // Sparse I/O faults on 4 096 events in 32 row groups.
    let io_grid = [
        (System::Presto, QueryId::Q1),
        (System::Presto, QueryId::Q5),
        (System::BigQuery, QueryId::Q1),
        (System::Rumble, QueryId::Q1),
        (System::RDataFrame, QueryId::Q1),
    ];
    assert_served_through(
        &table(DatasetSpec {
            n_events: 4_096,
            row_group_size: 128,
            seed: 0x2E4D,
        }),
        FaultConfig::only(FaultClass::Io, 0.01, 0x5EED),
        &io_grid,
    );

    // Denser I/O faults over one system per language/dialect × every
    // benchmark query, on the benchmark seed's 2 000 events in 256-event
    // row groups.
    let systems = [
        System::BigQuery,
        System::AthenaV2,
        System::Presto,
        System::Rumble,
        System::RDataFrame,
    ];
    let full_grid: Vec<_> = systems
        .iter()
        .flat_map(|&s| ALL_QUERIES.iter().map(move |&q| (s, q)))
        .collect();
    assert_served_through(
        &table(DatasetSpec {
            n_events: 2_000,
            row_group_size: 256,
            seed: 0xAD1B70,
        }),
        FaultConfig::only(FaultClass::Io, 0.08, 0x5EED),
        &full_grid,
    );
}
