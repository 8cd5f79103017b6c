//! Breaker × read-retry interplay.
//!
//! A transient scan fault is re-read where it happens, inside one engine
//! run, so it must be invisible to the service's circuit breakers: a
//! request whose faulted chunks are absorbed by the scan's re-reads is
//! one *success*. A hair-trigger breaker pins that boundary on every
//! system, interpreted and compiled, serial and parallel.

use std::sync::Arc;
use std::time::Duration;

use hep_model::generator::build_dataset;
use hep_model::DatasetSpec;
use hepbench_core::runner::{System, ALL_SYSTEMS};
use hepbench_core::QueryId;
use nf2_columnar::{FaultClass, FaultConfig, FaultInjector, Table, READ_RETRIES};
use query_service::breaker::BreakerState;
use query_service::{BreakerConfig, QueryRequest, QueryService, ServiceConfig};

fn table() -> Arc<Table> {
    Arc::new(
        build_dataset(DatasetSpec {
            n_events: 1_024,
            row_group_size: 128,
            seed: 41,
        })
        .1,
    )
}

/// A deterministic transient storm: almost a third of the chunks fail
/// every read the per-chunk budget allows, then recover.
fn transient_io_storm(seed: u64) -> Arc<FaultInjector> {
    Arc::new(FaultInjector::new(FaultConfig {
        transient_attempts: READ_RETRIES,
        ..FaultConfig::only(FaultClass::Io, 0.3, seed)
    }))
}

/// A hair-trigger breaker: a single recorded failure in the window opens
/// it. If a read retry leaked out of the scan, this breaker could not
/// stay closed through a transient storm.
fn hair_trigger() -> Option<BreakerConfig> {
    Some(BreakerConfig {
        window: 8,
        failure_threshold: 0.10,
        min_samples: 1,
        cooldown: Duration::from_secs(3600),
        half_open_probes: 1,
    })
}

fn service(table: &Arc<Table>, config: ServiceConfig) -> QueryService {
    QueryService::start(
        table.clone(),
        ServiceConfig {
            n_workers: 1,
            result_cache: false,
            ..config
        },
    )
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

#[test]
fn read_retries_keep_a_hair_trigger_breaker_closed_on_every_system() {
    let table = table();
    let oracle = service(&table, ServiceConfig::default());
    let storm = transient_io_storm(0xB0_1DEA);
    let stormy = service(
        &table,
        ServiceConfig {
            fault_injector: Some(storm.clone()),
            breaker: hair_trigger(),
            ..ServiceConfig::default()
        },
    );
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
            assert_eq!(
                stormy.breaker_state(system),
                Some(BreakerState::Closed),
                "{ctx}: a read retry reached the breaker"
            );
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
    let table = table();
    // One failed read more than the budget: the scan gives up.
    let service = service(
        &table,
        ServiceConfig {
            fault_injector: Some(Arc::new(FaultInjector::new(FaultConfig {
                transient_attempts: READ_RETRIES + 1,
                ..FaultConfig::only(FaultClass::Io, 1.0, 7)
            }))),
            breaker: hair_trigger(),
            ..ServiceConfig::default()
        },
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
    assert_eq!(
        service.breaker_state(System::BigQuery),
        Some(BreakerState::Open),
        "the one real failure reaches the breaker"
    );
}
