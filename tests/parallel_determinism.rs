//! The parallel-execution contract: morsel-parallel compiled execution
//! is an *execution* optimization, never a semantic or a pricing one.
//! The same plan at 1, 2, 4 or 8 workers must produce byte-identical bin
//! sequences, byte-identical histograms through the engines, and
//! identical `ScanStats` (scan accounting is a serial pre-pass, so a
//! re-executed morsel can never be double-billed).
//!
//! Compiled plans and the interpreters share one ordered row-group
//! fan-out (`exec_par::for_each_group_ordered`): per-group partials are
//! merged in group order, so the *whole* histogram — bins and the `f64`
//! moments — is identical at any thread count.

use std::sync::Arc;

use hepquery::bench::ALL_QUERIES;
use hepquery::columnar::{ScalarPredicate, SelCmp, SelValue};
use hepquery::exec_par::{self, ParOptions};
use hepquery::model::{build_sharded_table, ShardedSpec};
use hepquery::physical_ir::{self, ComputeNode, FilterNode, PhysPlan, TrijetCompute, TrijetPlot};
use hepquery::prelude::*;
use hepquery::value::Path;

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

/// The plans of the sharded scale ladder: two scan-bound fills
/// (Q1/Q2-shaped) and the compute-bound Q6 trijet kernel.
fn ladder_plans() -> Vec<(&'static str, PhysPlan)> {
    vec![
        (
            "q1-metpt",
            PhysPlan {
                filters: vec![FilterNode::Scalar(ScalarPredicate {
                    leaf: Path::parse("MET.pt"),
                    cmp: SelCmp::Gt,
                    value: SelValue::Float(0.0),
                })],
                compute: ComputeNode::ScalarFill {
                    leaf: Path::parse("MET.pt"),
                },
                spec: HistSpec::new(100, 0.0, 200.0),
            },
        ),
        (
            "q2-jetpt",
            PhysPlan {
                filters: vec![],
                compute: ComputeNode::ListFill {
                    leaf: Path::parse("Jet.pt"),
                    elem: None,
                },
                spec: HistSpec::new(100, 15.0, 60.0),
            },
        ),
        (
            "q6-trijet",
            PhysPlan {
                filters: vec![FilterNode::ListCount {
                    leaf: Path::parse("Jet.pt"),
                    elem: None,
                    cmp: SelCmp::Ge,
                    count: 3,
                }],
                compute: ComputeNode::Trijet(TrijetCompute {
                    pt: Path::parse("Jet.pt"),
                    eta: Path::parse("Jet.eta"),
                    phi: Path::parse("Jet.phi"),
                    mass: Path::parse("Jet.mass"),
                    btag: Path::parse("Jet.btag"),
                    top_mass: 172.5,
                    plot: TrijetPlot::Pt,
                }),
                spec: HistSpec::new(100, 15.0, 40.0),
            },
        ),
    ]
}

/// The raw bin sequence from the parallel executor is byte-identical to
/// the serial one at 1, 2, 4 and 8 workers, and every row group runs as
/// exactly one morsel: nothing lost, nothing executed twice. Checked on
/// every benchmark query that lowers to the compiled IR, and on three
/// plans over a sharded ladder of three data scales (1, 2 and 4 shards of
/// 2 048 events in 64-event row groups; shard seeds do not depend on the
/// shard count, so each scale is a prefix of the next).
#[test]
fn parallel_bins_byte_identical_across_worker_counts() {
    let check = |what: &str, plan: &PhysPlan, table: &Table| {
        let serial = physical_ir::execute(
            plan,
            table,
            None,
            &obs::TraceCtx::disabled(),
            &obs::CancelToken::none(),
        )
        .unwrap();
        for workers in [1, 2, 4, 8] {
            let (bins, stats) = exec_par::execute(
                plan,
                table,
                None,
                &obs::TraceCtx::disabled(),
                &obs::CancelToken::none(),
                None,
                &ParOptions::new(workers),
            )
            .unwrap();
            assert_eq!(
                bins, serial,
                "{what}: parallel bins diverged at workers={workers}"
            );
            assert_eq!(stats.morsels, table.row_groups().len() as u64, "{what}");
            assert_eq!(stats.rows, table.n_rows() as u64, "{what}");
        }
    };

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
        check(q.name(), &plan, &table);
    }
    assert!(lowered >= 2, "expected several queries to lower: {lowered}");

    let base = ShardedSpec {
        events_per_shard: 2_048,
        shards: 1,
        row_group_size: 64,
        seed: hepbench_bench::SEED,
    };
    for shards in [1, 2, 4] {
        let table = build_sharded_table(base.with_shards(shards));
        for (name, plan) in ladder_plans() {
            check(&format!("{name} at {shards} shards"), &plan, &table);
        }
    }
}

/// Through the SQL engine: identical histograms AND identical ScanStats
/// at every worker count — parallelism must not perturb billing.
#[test]
fn engine_results_and_scan_billing_identical_at_any_worker_count() {
    let presto = engine_for_compiled(System::Presto, table());
    for q in ALL_QUERIES {
        let run = |workers: usize| {
            let env = ExecEnv {
                parallel_workers: (workers > 0).then_some(workers),
                ..ExecEnv::seed()
            };
            presto.execute(&(*q).into(), &env).unwrap()
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
    let parallel = ExecEnv {
        parallel_workers: Some(4),
        ..ExecEnv::seed()
    };
    for system in [System::Rumble, System::RDataFrame] {
        let engine = engine_for_compiled(system, table.clone());
        for q in ALL_QUERIES {
            let spec = (*q).into();
            let serial = engine.execute(&spec, &ExecEnv::seed()).unwrap();
            let par = engine.execute(&spec, &parallel).unwrap();
            assert!(
                par.histogram.counts_equal(&serial.histogram),
                "{} {}: parallel diverged",
                system.name(),
                q.name()
            );
            assert_eq!(par.stats.scan, serial.stats.scan);
        }
    }
}

/// The interpreted paths: RDataFrame's event loop, SQL's partition-parallel
/// aggregation and the FLWOR partition arm all merge per-row-group
/// partials in group order, so the full histogram (`==`, moments
/// included) and the scan accounting are independent of `n_threads`.
#[test]
fn interpreted_histograms_identical_at_any_thread_count() {
    let table = table();
    let assert_same = |system: System, q: QueryId| {
        let engine = engine_for(system, table.clone());
        let run = |n_threads| {
            let env = ExecEnv {
                intra_query_threads: Some(n_threads),
                ..ExecEnv::seed()
            };
            engine.execute(&q.into(), &env).unwrap()
        };
        let what = system.name();
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
        assert_same(System::RDataFrame, q);
    }
    for q in [QueryId::Q1, QueryId::Q4, QueryId::Q5] {
        assert_same(System::Presto, q);
        assert_same(System::Rumble, q);
    }
}

/// The paper simulation stays byte-identical with parallelism available:
/// `engine_for` runs with compiled execution off, and morsel workers only
/// drive compiled plans, so an environment requesting workers cannot
/// perturb the calibrated interpreters.
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
