//! The parallel-execution contract: morsel-parallel compiled execution
//! is an *execution* optimization, never a semantic or a pricing one.
//! The same plan at 1, 2 or 8 workers must produce byte-identical bin
//! sequences, byte-identical histograms through the engines, and
//! identical `ScanStats` (scan accounting is a serial pre-pass, so a
//! re-executed morsel can never be double-billed).
//!
//! Compiled plans and the interpreters share one ordered row-group
//! fan-out (`exec_par::for_each_group_ordered`): per-group partials are
//! merged in group order, so the *whole* histogram — bins and the `f64`
//! moments — is identical at any thread count.

use std::sync::Arc;

use hepquery::bench::{adapters, ALL_QUERIES};
use hepquery::exec_par::{self, ParOptions};
use hepquery::physical_ir;
use hepquery::prelude::*;

fn table() -> Arc<Table> {
    Arc::new(
        hepquery::model::generator::build_dataset(DatasetSpec {
            n_events: 2_000,
            row_group_size: 128,
            seed: 0xDE7E12,
        })
        .1,
    )
}

/// Every benchmark query that lowers to the compiled IR: the raw bin
/// sequence from the parallel executor is byte-identical to the serial
/// one at every worker count.
#[test]
fn parallel_bins_byte_identical_across_worker_counts() {
    let table = table();
    let mut lowered = 0;
    for q in ALL_QUERIES {
        let script = hepquery::sql::parser::parse_script(&hepquery::bench::queries::text(
            hepquery::bench::queries::Language::Presto,
            *q,
        ))
        .unwrap();
        let Some(plan) = hepquery::sql::compile::lower(&script) else {
            continue;
        };
        lowered += 1;
        let serial = physical_ir::execute(
            &plan,
            &table,
            None,
            &obs::TraceCtx::disabled(),
            &obs::CancelToken::none(),
        )
        .unwrap();
        for workers in [1, 2, 8] {
            let (bins, stats) = exec_par::execute(
                &plan,
                &table,
                None,
                &obs::TraceCtx::disabled(),
                &obs::CancelToken::none(),
                None,
                &ParOptions::new(workers),
            )
            .unwrap();
            assert_eq!(
                bins,
                serial,
                "{}: parallel bins diverged at workers={workers}",
                q.name()
            );
            // Exactly one morsel per row group: nothing lost, nothing
            // executed twice.
            assert_eq!(stats.morsels, table.row_groups().len() as u64);
            assert_eq!(stats.rows, table.n_rows() as u64);
        }
    }
    assert!(lowered >= 2, "expected several queries to lower: {lowered}");
}

/// Through the SQL engine: identical histograms AND identical ScanStats
/// at every worker count — parallelism must not perturb billing.
#[test]
fn engine_results_and_scan_billing_identical_at_any_worker_count() {
    let table = table();
    for q in ALL_QUERIES {
        let run = |workers: usize| {
            adapters::run_sql_env(
                Dialect::presto(),
                &table,
                *q,
                SqlOptions::default(),
                &adapters::ExecEnv {
                    parallel_workers: (workers > 0).then_some(workers),
                    ..adapters::ExecEnv::seed()
                },
            )
            .unwrap()
        };
        let serial = run(0);
        for workers in [2, 8] {
            let par = run(workers);
            assert!(
                par.histogram.counts_equal(&serial.histogram),
                "{}: histogram diverged at {workers} workers",
                q.name()
            );
            assert_eq!(
                par.stats.scan,
                serial.stats.scan,
                "{}: scan accounting perturbed by parallelism (double-billing?)",
                q.name()
            );
        }
    }
}

/// The JSONiq and RDataFrame compiled paths honor the same contract.
#[test]
fn flwor_and_rdf_parallel_results_match_serial() {
    let table = table();
    for q in ALL_QUERIES {
        let jq_serial =
            adapters::run_jsoniq_env(&table, *q, Default::default(), &adapters::ExecEnv::seed())
                .unwrap();
        let jq_par = adapters::run_jsoniq_env(
            &table,
            *q,
            Default::default(),
            &adapters::ExecEnv {
                parallel_workers: Some(4),
                ..adapters::ExecEnv::seed()
            },
        )
        .unwrap();
        assert!(
            jq_par.histogram.counts_equal(&jq_serial.histogram),
            "{}: JSONiq parallel diverged",
            q.name()
        );
        assert_eq!(jq_par.stats.scan, jq_serial.stats.scan);

        let rdf_serial =
            adapters::run_rdf_env(&table, *q, Default::default(), &adapters::ExecEnv::seed())
                .unwrap();
        let rdf_par = adapters::run_rdf_env(
            &table,
            *q,
            Default::default(),
            &adapters::ExecEnv {
                parallel_workers: Some(4),
                ..adapters::ExecEnv::seed()
            },
        )
        .unwrap();
        assert!(
            rdf_par.histogram.counts_equal(&rdf_serial.histogram),
            "{}: RDataFrame parallel diverged",
            q.name()
        );
        assert_eq!(rdf_par.stats.scan, rdf_serial.stats.scan);
    }
}

/// The interpreted paths: RDataFrame's event loop, SQL's partition-parallel
/// aggregation and the FLWOR partition arm all merge per-row-group
/// partials in group order, so the full histogram (`==`, moments
/// included) and the scan accounting are independent of `n_threads`.
#[test]
fn interpreted_histograms_identical_at_any_thread_count() {
    let table = table();
    let env = adapters::ExecEnv::seed();
    let assert_same = |what: &str, q: QueryId, run: &dyn Fn(usize) -> adapters::EngineRun| {
        let serial = run(1);
        for n_threads in [2, 8] {
            let par = run(n_threads);
            assert_eq!(
                par.histogram,
                serial.histogram,
                "{what} {}: histogram depends on n_threads={n_threads}",
                q.name()
            );
            assert_eq!(
                par.stats.scan,
                serial.stats.scan,
                "{what} {}: scan accounting depends on n_threads={n_threads}",
                q.name()
            );
        }
    };
    for &q in ALL_QUERIES {
        assert_same("RDataFrame", q, &|n_threads| {
            let options = hepquery::rdataframe::Options {
                n_threads,
                compile: false,
                ..Default::default()
            };
            adapters::run_rdf_env(&table, q, options, &env).unwrap()
        });
    }
    for q in [QueryId::Q1, QueryId::Q4, QueryId::Q5] {
        assert_same("Presto", q, &|n_threads| {
            let options = SqlOptions {
                n_threads,
                compile: false,
                ..SqlOptions::default()
            };
            adapters::run_sql_env(Dialect::presto(), &table, q, options, &env).unwrap()
        });
        assert_same("JSONiq", q, &|n_threads| {
            let options = hepquery::jsoniq::FlworOptions {
                n_threads,
                compile: false,
                ..Default::default()
            };
            adapters::run_jsoniq_env(&table, q, options, &env).unwrap()
        });
    }
}

/// The paper simulation stays byte-identical with parallelism available:
/// `engine_for` pins compiled execution *and* parallel workers off, so
/// an environment requesting workers cannot perturb the calibrated
/// interpreters.
#[test]
fn engine_for_pins_parallelism_off() {
    let table = table();
    for system in [System::Presto, System::Rumble, System::RDataFrame] {
        let engine = engine_for(system, table.clone());
        let spec = QuerySpec::benchmark(QueryId::Q1);
        let base = engine.execute(&spec, &ExecEnv::seed()).unwrap();
        let with_workers = engine
            .execute(
                &spec,
                &ExecEnv {
                    parallel_workers: Some(8),
                    ..ExecEnv::seed()
                },
            )
            .unwrap();
        assert!(
            with_workers.histogram.counts_equal(&base.histogram),
            "{}: paper engine perturbed by parallel_workers",
            system.name()
        );
        assert_eq!(with_workers.stats.scan, base.stats.scan);
        assert_eq!(with_workers.stats.threads_used, base.stats.threads_used);
    }
}
