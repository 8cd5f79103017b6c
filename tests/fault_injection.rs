//! Fault-injection integration tests at the facade level: panicking
//! queries must not wedge the service's worker pool, transient faults
//! must be absorbed by the scan's in-place chunk re-reads, and every
//! error must carry enough context to debug it (system, query, row
//! group, leaf).

use std::sync::Arc;

use hepquery::bench::adapters::{self, ExecEnv};
use hepquery::bench::runner::System;
use hepquery::columnar::{FaultClass, FaultConfig, FaultInjector};
use hepquery::prelude::*;
use hepquery::service::{QueryRequest, QueryService, ServiceConfig};

/// A table small enough to fit one row group: with the injector seeded
/// per (table, row group, leaf), a narrow projection then faults on a
/// predictable handful of chunks.
fn small_dataset() -> (Vec<Event>, Arc<Table>) {
    let (events, table) = hepquery::model::generator::build_dataset(DatasetSpec {
        n_events: 400,
        row_group_size: 512,
        seed: 0xFA17,
    });
    (events, Arc::new(table))
}

fn injector(config: FaultConfig) -> Arc<FaultInjector> {
    Arc::new(FaultInjector::new(config))
}

fn env_with(injector: &Arc<FaultInjector>) -> ExecEnv {
    ExecEnv {
        fault_injector: Some(injector.clone()),
        ..ExecEnv::seed()
    }
}

/// A query that panics mid-scan must fail its own request with a
/// descriptive error — and leave the worker pool fully serviceable.
/// With a single worker this is the strongest form of the claim: the
/// same thread that caught the panic serves the recovery request.
#[test]
fn panicking_query_does_not_wedge_the_worker_pool() {
    let (_, table) = small_dataset();
    let inj = injector(FaultConfig {
        p_panic: 1.0,
        transient_attempts: 1,
        ..FaultConfig::off(0x0DD)
    });
    let service = QueryService::start(
        table.clone(),
        ServiceConfig {
            n_workers: 1,
            result_cache: false,
            fault_injector: Some(inj),
            ..ServiceConfig::default()
        },
    );

    let first = service
        .execute(QueryRequest::new("chaos", System::BigQuery, QueryId::Q1))
        .expect_err("every chunk read panics on first touch");
    let msg = first.to_string();
    assert!(msg.contains("panicked"), "not a panic report: {msg}");
    assert!(
        msg.contains("Q1") && msg.contains("BigQuery"),
        "panic report must name the query and system: {msg}"
    );

    // The injector is transient (attempt 2 succeeds), so re-submitting
    // burns one panicking chunk per request until the projection is
    // clean. Each intermediate failure must still be a caught panic,
    // and the worker must survive them all.
    let mut served = None;
    for _ in 0..16 {
        match service.execute(QueryRequest::new("chaos", System::BigQuery, QueryId::Q1)) {
            Ok(resp) => {
                served = Some(resp);
                break;
            }
            Err(e) => assert!(e.to_string().contains("panicked"), "unexpected: {e}"),
        }
    }
    let served = served.expect("worker pool wedged: query never recovered");
    let clean = engine_for(System::BigQuery, table.clone())
        .execute(&QuerySpec::benchmark(QueryId::Q1), &ExecEnv::seed())
        .unwrap();
    assert!(served.histogram.counts_equal(&clean.histogram));

    let snap = service.stats();
    assert!(snap.completed >= 1 && snap.failed >= 1);
}

/// Transient faults never cost the query: the scan re-reads each faulted
/// chunk where it failed, so a single run — every chunk of the
/// projection faulting once — returns the exact fault-free histogram
/// (never a wrong one) and bills the fault-free bytes.
#[test]
fn transient_faults_converge_under_rerun() {
    let (events, table) = small_dataset();
    let inj = injector(FaultConfig {
        p_io: 1.0,
        transient_attempts: 1,
        ..FaultConfig::off(0x10)
    });
    let deployment = engine_for_compiled(System::BigQuery, table.clone());
    let clean = deployment
        .execute(&QueryId::Q1.into(), &ExecEnv::seed())
        .unwrap();
    let run = deployment
        .execute(&QueryId::Q1.into(), &env_with(&inj))
        .expect("one run absorbs every transient fault");
    let reference = hepquery::bench::reference::run(QueryId::Q1, &events).hist;
    assert!(run.histogram.counts_equal(&reference));
    assert_eq!(run.stats.scan, clean.stats.scan, "re-reads are not billed");
    let chunks = run.stats.scan.columns_read * table.row_groups().len() as u64;
    assert_eq!(run.stats.reads_retried, chunks, "each chunk re-read once");
    assert_eq!(inj.counters().recovered, chunks);
}

/// Every engine's scan error carries the full debugging context: the
/// system and query in the message, and the typed fault with table,
/// row group and leaf underneath.
#[test]
fn scan_errors_carry_system_query_row_group_and_leaf() {
    let (_, table) = small_dataset();
    let inj = injector(FaultConfig {
        transient_attempts: 0, // persistent: retries never help
        ..FaultConfig::only(FaultClass::Io, 1.0, 0xBAD)
    });
    let env = env_with(&inj);

    fn fail(r: Result<adapters::EngineRun, adapters::AdapterError>) -> adapters::AdapterError {
        match r {
            Ok(_) => panic!("persistent io fault must fail the query"),
            Err(e) => e,
        }
    }
    for system in [System::BigQuery, System::Rumble, System::RDataFrame] {
        let deployment = engine_for_compiled(system, table.clone());
        let err = fail(deployment.execute(&QueryId::Q5.into(), &env));
        let system = system.name();
        assert_eq!(err.system, system);
        assert_eq!(err.query, "Q5");
        let scan = err
            .scan
            .as_ref()
            .unwrap_or_else(|| panic!("{system}: injected fault must surface typed"));
        assert_eq!(scan.class, FaultClass::Io);
        assert!(!scan.leaf.to_string().is_empty(), "{system}: leaf missing");

        let msg = err.to_string();
        assert!(
            msg.contains("Q5") && msg.contains(system),
            "{system}: error must name query and system: {msg}"
        );
        assert!(
            msg.contains("io error")
                && msg.contains("row group")
                && msg.contains(&scan.leaf.to_string()),
            "{system}: error must carry class, row group and leaf: {msg}"
        );
    }
}

/// The chaos plan generator is deterministic from its seed and its
/// lowerings stay oracle-exact through the facade re-export.
#[test]
fn chaos_facade_generates_deterministic_oracle_exact_plans() {
    use hepquery::bench::queries::Language;

    let (events, table) = small_dataset();
    let a = hepquery::chaos::generate_plans(0xFEED, 4);
    let b = hepquery::chaos::generate_plans(0xFEED, 4);
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.label(), y.label());
        assert_eq!(x.text(Language::BigQuery), y.text(Language::BigQuery));
    }
    let env = ExecEnv::seed();
    for plan in &a {
        let oracle = plan.reference(&events);
        for engine in hepquery::chaos::ALL_ENGINES {
            let got = engine
                .run(plan, &table, &env)
                .unwrap_or_else(|e| panic!("{} {}: {e}", engine.name(), plan.label()));
            assert!(
                got.histogram.counts_equal(&oracle),
                "{} diverged from the oracle on {}",
                engine.name(),
                plan.label()
            );
        }
    }
}
