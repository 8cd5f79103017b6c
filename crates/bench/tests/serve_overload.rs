//! The service's overload protection under real load. One test in its
//! own test binary: its deadline timing must not share cores with other
//! tests.
//!
//! * A saturating deadline storm — every chunk read slowed — cancels
//!   running queries, and no response (cancelled, timed out, or a narrow
//!   query that legitimately completes) overshoots its deadline by more
//!   than one row group of work.
//! * Load shedding refuses hopeless requests behind a backlog.

use std::sync::Arc;
use std::time::{Duration, Instant};

use hep_model::DatasetSpec;
use hepbench_bench::loadgen::SYSTEMS;
use hepbench_bench::{dataset, SEED};
use hepbench_core::runner::System;
use hepbench_core::{QueryId, ALL_QUERIES};
use nf2_columnar::{FaultClass, FaultConfig, FaultInjector, Table};
use query_service::{QueryRequest, QueryService, ServiceConfig, ServiceError};

const TENANTS: usize = 4;

/// Saturates a latency-stormed service with short-deadline requests.
/// With every physical chunk read slowed, a wide query cannot finish
/// inside the deadline, so its token must stop it.
fn deadline_storm(table: &Arc<Table>) {
    const DEADLINE: Duration = Duration::from_millis(40);
    // One row group of work under the storm. Each chunk read sleeps 5 ms
    // and a wide projection reads up to 31 chunks per group, but the scan
    // observes the token before every read, so a cancelled query stops
    // within one slowed read plus one group's compute.
    const GROUP_BUDGET: Duration = Duration::from_millis(150);
    const CLIENTS: usize = 6;
    const REQS: usize = 2;
    let service = QueryService::start(
        table.clone(),
        ServiceConfig {
            n_workers: 2,
            queue_depth: 64,
            result_cache: false,
            fault_injector: Some(Arc::new(FaultInjector::new(FaultConfig {
                latency: Duration::from_millis(5),
                ..FaultConfig::only(FaultClass::Latency, 1.0, 0xDEAD)
            }))),
            ..ServiceConfig::default()
        },
    );
    let mix: Vec<(System, QueryId)> = SYSTEMS
        .iter()
        .flat_map(|&s| ALL_QUERIES.iter().map(move |&q| (s, q)))
        .collect();
    let outcomes: Vec<(Result<f64, ServiceError>, Duration)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (mix, service) = (&mix, &service);
                scope.spawn(move || {
                    let tenant = format!("t{}", c % TENANTS);
                    (0..REQS)
                        .map(|r| {
                            let (system, query) = mix[(c * REQS + r) % mix.len()];
                            let t0 = Instant::now();
                            let outcome = service
                                .execute(QueryRequest {
                                    deadline: Some(DEADLINE),
                                    ..QueryRequest::new(tenant.clone(), system, query)
                                })
                                .map(|resp| resp.total_seconds);
                            (outcome, t0.elapsed())
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("storm client"))
            .collect()
    });
    let mut cancelled = 0;
    for (outcome, elapsed) in outcomes {
        // A completion is held to the same bound as a cancellation: the
        // token must have stopped it had it run long. Rejections are
        // immediate and carry no bound.
        match outcome {
            Ok(_) | Err(ServiceError::QueryTimedOut { .. }) => {}
            Err(ServiceError::Cancelled { rows_processed, .. }) => {
                cancelled += 1;
                assert!(
                    rows_processed < table.n_rows() as u64,
                    "a cancellation reported a full scan's worth of rows"
                );
            }
            Err(_) => continue,
        }
        assert!(
            elapsed <= DEADLINE + GROUP_BUDGET,
            "a deadline overshot its budget + one row group: {elapsed:?}"
        );
    }
    assert!(cancelled > 0, "deadline storm cancelled no running query");
}

/// Load shedding: prime the execution-time EWMA, pile a backlog onto one
/// worker, then submit hopeless requests; some must be refused.
fn load_shedding(table: &Arc<Table>) {
    let service = QueryService::start(
        table.clone(),
        ServiceConfig {
            n_workers: 1,
            result_cache: false,
            load_shedding: true,
            ..ServiceConfig::default()
        },
    );
    service
        .execute(QueryRequest::new("t0", System::BigQuery, QueryId::Q1))
        .expect("priming query");
    let backlog: Vec<_> = (0..8)
        .map(|_| {
            service
                .submit(QueryRequest::new("t0", System::Rumble, QueryId::Q5))
                .expect("backlog submit")
        })
        .collect();
    let shed = (0..8)
        .filter(|_| {
            let outcome = service.submit(QueryRequest {
                deadline: Some(Duration::from_nanos(1)),
                ..QueryRequest::new("t1", System::BigQuery, QueryId::Q1)
            });
            matches!(outcome, Err(ServiceError::QueryShedded { .. }))
        })
        .count();
    for t in backlog {
        let _ = t.wait();
    }
    assert!(
        shed > 0,
        "load shedding never fired under a saturated queue"
    );
}

#[test]
fn overload_protection_holds_under_load() {
    let (_, table) = dataset(DatasetSpec {
        n_events: 1_500,
        row_group_size: 256,
        seed: SEED,
    });
    deadline_storm(&table);
    load_shedding(&table);
}
