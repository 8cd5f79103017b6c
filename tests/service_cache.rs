//! The serving layer's central promises, end to end:
//!
//! 1. **caches off ⇒ the paper's numbers.** A service configured with
//!    [`ServiceConfig::paper_fairness`] serves every (system, query) with
//!    a histogram and `ScanStats` identical to the direct single-query
//!    benchmark path — the "disable cached results for a fair comparison"
//!    configuration of the paper, byte for byte.
//! 2. **result cache ⇒ BigQuery's cached-results economics.** A repeated
//!    query is served from the result cache: same histogram, zero bytes
//!    scanned, zero QaaS cost — also under a concurrent multi-tenant
//!    workload, where every submitted request is accounted for.

use std::sync::Arc;

use hepquery::bench::runner::System;
use hepquery::bench::{adapters::ExecEnv, QueryId, ALL_QUERIES};
use hepquery::columnar::{ScanStats, Table};
use hepquery::prelude::*;
use hepquery::service::{Outcome, QueryRequest, QueryService, ServiceConfig, ServiceError};

/// One system per language/dialect (AthenaV1 and RDataFrameDev execute
/// the same engines as their siblings; BigQueryExternal shares BigQuery's
/// dialect).
const SYSTEMS: &[System] = &[
    System::BigQuery,
    System::AthenaV2,
    System::Presto,
    System::Rumble,
    System::RDataFrame,
];

fn table() -> Arc<Table> {
    Arc::new(
        hepquery::model::generator::build_dataset(DatasetSpec {
            n_events: 1_500,
            row_group_size: 256,
            seed: 0x5EBF,
        })
        .1,
    )
}

#[test]
fn caches_off_is_byte_identical_to_the_seed_path() {
    let table = table();
    let service = QueryService::start(table.clone(), ServiceConfig::paper_fairness());
    for &system in SYSTEMS {
        for &q in ALL_QUERIES {
            let direct = engine_for(system, table.clone())
                .execute(&QuerySpec::benchmark(q), &ExecEnv::seed())
                .unwrap();
            let served = service.execute(QueryRequest::new("t0", system, q)).unwrap();
            assert!(!served.from_result_cache);
            assert_eq!(
                served.histogram,
                direct.histogram,
                "{} {}: histogram differs",
                system.name(),
                q.name()
            );
            assert_eq!(
                served.stats.scan,
                direct.stats.scan,
                "{} {}: scan accounting differs",
                system.name(),
                q.name()
            );
        }
    }
    assert!(service.result_cache_counters().is_none());
}

/// Per-outcome counts of one round of [`drive`].
#[derive(Debug, Default)]
struct Round {
    served: usize,
    failed: usize,
    result_hits: usize,
}

/// Drives `CLIENTS` threads over four tenants, each submitting `REQS`
/// requests drawn round-robin from the (system × query) grid, and waits
/// for every response.
fn drive(service: &QueryService) -> Round {
    const CLIENTS: usize = 8;
    const REQS: usize = 3;
    let mix: Vec<(System, QueryId)> = SYSTEMS
        .iter()
        .flat_map(|&s| ALL_QUERIES.iter().map(move |&q| (s, q)))
        .collect();
    let outcomes: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let mix = &mix;
                scope.spawn(move || {
                    let tenant = format!("t{}", c % 4);
                    (0..REQS)
                        .map(|r| {
                            let (system, query) = mix[(c * REQS + r) % mix.len()];
                            service.execute(QueryRequest::new(tenant.clone(), system, query))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    let mut round = Round::default();
    for outcome in outcomes {
        match outcome {
            Ok(resp) => {
                round.served += 1;
                round.result_hits += usize::from(resp.from_result_cache);
            }
            Err(ServiceError::QueryRejected { .. } | ServiceError::QueryTimedOut { .. }) => {}
            Err(_) => round.failed += 1,
        }
    }
    round
}

/// A repeated query is served from the result cache — same histogram,
/// zero bytes scanned, free on QaaS — sequentially and under a concurrent
/// multi-tenant workload, where every submitted request is also accounted
/// for exactly once and no engine fails.
#[test]
fn result_cache_repeats_are_free() {
    let table = table();
    let service = QueryService::start(
        table,
        ServiceConfig {
            n_workers: 2,
            ..ServiceConfig::default()
        },
    );
    for &system in SYSTEMS {
        let q = QueryId::Q5;
        let first = service.execute(QueryRequest::new("t0", system, q)).unwrap();
        assert!(!first.from_result_cache);
        assert!(first.stats.scan.bytes_scanned > 0);
        let repeat = service.execute(QueryRequest::new("t1", system, q)).unwrap();
        assert!(repeat.from_result_cache, "{}: repeat missed", system.name());
        assert_eq!(repeat.histogram, first.histogram);
        // Zero bytes scanned — the whole ScanStats is zero.
        assert_eq!(repeat.stats.scan, ScanStats::default());
        if system.is_qaas() {
            assert_eq!(
                repeat.cost_usd,
                0.0,
                "{}: cached repeat must be free",
                system.name()
            );
            assert!(first.cost_usd > 0.0);
        }
    }
    // The two BigQuery deployments share dialect, text and table — the
    // external flavor's first request is already a hit.
    let external = service
        .execute(QueryRequest::new(
            "t2",
            System::BigQueryExternal,
            QueryId::Q5,
        ))
        .unwrap();
    assert!(external.from_result_cache);
    let (hits, _misses) = service.result_cache_counters().unwrap();
    assert_eq!(hits as usize, SYSTEMS.len() + 1);

    // The same workload twice from concurrent clients on the default
    // deployment and the benchmark seed's data set: the second round
    // re-issues requests that already executed, so it must hit.
    let table = Arc::new(
        hepquery::model::generator::build_dataset(DatasetSpec {
            n_events: 1_500,
            row_group_size: 256,
            seed: hepbench_bench::SEED,
        })
        .1,
    );
    let service = QueryService::start(table, ServiceConfig::default());
    let first = drive(&service);
    let second = drive(&service);
    let outcomes: u64 = Outcome::ALL
        .into_iter()
        .map(|o| service.latency_histogram(o).count())
        .sum();
    assert_eq!(
        outcomes,
        service.stats().submitted,
        "every submitted request has exactly one outcome"
    );
    assert!(first.served + second.served > 0, "no request was served");
    assert!(
        second.result_hits > 0,
        "repeated workload hit no cached result"
    );
    assert_eq!(first.failed + second.failed, 0, "engine failures");
}
