//! A transient storage fault is retried at the chunk read, below the
//! query: the service answers the first request with the fault-free
//! histogram and byte-identical `ScanStats`, however many chunks of the
//! projection faulted. A fault that outlives the re-reads fails the
//! request once, with a typed error.

use std::sync::Arc;

use hep_model::generator::build_dataset;
use hep_model::DatasetSpec;
use hepbench_core::runner::{System, ALL_SYSTEMS};
use hepbench_core::{QueryId, ALL_QUERIES};
use nf2_columnar::{FaultClass, FaultConfig, FaultInjector, Table, READ_RETRIES};
use query_service::{QueryRequest, QueryService, ServiceConfig};

fn table(spec: DatasetSpec) -> Arc<Table> {
    Arc::new(build_dataset(spec).1)
}

/// The default deployment with one worker and the result cache off (so
/// every request executes), optionally behind a fault injector.
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

/// 1 024 events in 128-event row groups.
fn small_table() -> Arc<Table> {
    table(DatasetSpec {
        n_events: 1_024,
        row_group_size: 128,
        seed: 41,
    })
}

/// Q1 and Q5 interpreted, and Q6a through the compiled deployment on
/// two morsel workers (Presto's and Athena's Q6 texts, and RDataFrame's
/// programs, lower to compiled plans; the rest fall back to the
/// interpreter — both paths share the scan that retries).
fn requests(system: System) -> [QueryRequest; 3] {
    [
        QueryRequest::new("t", system, QueryId::Q1),
        QueryRequest::new("t", system, QueryId::Q5),
        QueryRequest::new("t", system, QueryId::Q6a)
            .via_compiled()
            .with_parallel_workers(2),
    ]
}

/// A deterministic transient storm, in which almost a third of the
/// chunks fail every read the per-chunk budget allows and then recover,
/// is absorbed by the scan on every system, interpreted and compiled,
/// serial and parallel.
#[test]
fn a_transient_storm_is_absorbed_on_every_system() {
    let table = small_table();
    let storm = Arc::new(FaultInjector::new(FaultConfig {
        transient_attempts: READ_RETRIES,
        ..FaultConfig::only(FaultClass::Io, 0.3, 0xB0_1DEA)
    }));
    let oracle = service(&table, None);
    let stormy = service(&table, Some(storm.clone()));
    let mut reads_retried = 0;
    for &system in ALL_SYSTEMS {
        // Systems share chunks: each one meets the whole storm afresh.
        storm.reset_attempts();
        let retried_before = reads_retried;
        for (want, got) in requests(system).into_iter().zip(requests(system)) {
            let ctx = format!(
                "{} {} compiled={}",
                system.name(),
                got.query.name(),
                got.compiled
            );
            let want = oracle.execute(want).unwrap();
            let got = stormy
                .execute(got)
                .unwrap_or_else(|e| panic!("{ctx}: the storm cost the request: {e}"));
            assert!(got.histogram.counts_equal(&want.histogram), "{ctx}");
            assert_eq!(got.stats.scan, want.stats.scan, "{ctx}");
            reads_retried += got.stats.reads_retried;
        }
        assert!(
            reads_retried > retried_before,
            "{}: storm never hit",
            system.name()
        );
    }
    assert_eq!(stormy.stats().failed, 0);
}

#[test]
fn a_fault_that_outlives_the_read_budget_fails_the_request_once() {
    // One failed read more than the budget: the scan gives up.
    let service = service(
        &small_table(),
        Some(Arc::new(FaultInjector::new(FaultConfig {
            transient_attempts: READ_RETRIES + 1,
            ..FaultConfig::only(FaultClass::Io, 1.0, 7)
        }))),
    );
    let err = service
        .execute(QueryRequest::new("t", System::BigQuery, QueryId::Q1))
        .unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("io error") && msg.contains(&format!("attempt {}", READ_RETRIES + 1)),
        "{msg}"
    );
    assert_eq!(service.stats().failed, 1);
}
