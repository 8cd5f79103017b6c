//! The pricing invariants behind the scan path.
//!
//! 1. Filtering rows at scan time is an *execution* optimization, never a
//!    pricing one. Scan accounting is defined by the projected columns, so
//!    toggling `vectorized_filter` must not change a single accounting
//!    byte — nor a single histogram bin — on any benchmark query under any
//!    SQL dialect.
//! 2. Zone-map pruning moves bytes between accounts, it never loses them:
//!    `bytes_scanned + bytes_pruned` with pruning on equals `bytes_scanned`
//!    with pruning off, and the split is a property of table + predicates —
//!    identical at every worker count.

use std::sync::Arc;

use hepquery::bench::ALL_QUERIES;
use hepquery::columnar::stats::skip_mask;
use hepquery::columnar::{ScalarPredicate, ScanRequest, SelCmp, SelValue};
use hepquery::prelude::*;

#[test]
fn vectorized_filter_never_changes_scan_stats_or_results() {
    let (_, table) = hepquery::model::generator::build_dataset(DatasetSpec {
        n_events: 1_500,
        row_group_size: 256,
        seed: 0xC057,
    });
    let table = Arc::new(table);
    for system in [System::BigQuery, System::Presto, System::AthenaV2] {
        for q in ALL_QUERIES {
            let run = |vectorized_filter: bool| {
                let options = ExecOptions {
                    vectorized_filter,
                    ..ExecOptions::default()
                };
                let table = table.clone();
                let deployment = Deployment {
                    system,
                    table,
                    options,
                };
                deployment.execute(&(*q).into(), &ExecEnv::seed()).unwrap()
            };
            let on = run(true);
            let off = run(false);
            assert!(
                on.histogram.counts_equal(&off.histogram),
                "{} {}: results differ with vectorized filtering",
                system.name(),
                q.name(),
            );
            assert_eq!(
                on.stats.scan,
                off.stats.scan,
                "{} {}: scan accounting perturbed by vectorized filtering",
                system.name(),
                q.name(),
            );
        }
    }
}

/// Zone-map pruning conserves accounting bytes on the SQL interpreters:
/// `bytes_scanned + bytes_pruned` with pruning on equals `bytes_scanned`
/// with pruning off, the split is identical at every worker count, and
/// results never change. The predicate cuts on the monotone `event`
/// column, so most row groups are provably outside the window.
#[test]
fn pruning_conserves_accounting_bytes_across_worker_counts() {
    let (events, table) = hepquery::model::generator::build_dataset(DatasetSpec {
        n_events: 1_500,
        row_group_size: 256,
        seed: 0xC057,
    });
    let table = Arc::new(table);
    let sql = "SELECT COUNT(*) FROM events WHERE event < 300";
    let expect = events.iter().filter(|e| e.event < 300).count() as i64;
    for make in [
        Dialect::bigquery as fn() -> Dialect,
        Dialect::presto,
        Dialect::athena,
    ] {
        let run = |zone_map_pruning: bool, n_threads: usize| {
            let mut engine = SqlEngine::new(
                make(),
                ExecOptions {
                    zone_map_pruning,
                    n_threads,
                    ..ExecOptions::default()
                },
            );
            engine.register(table.clone());
            engine.execute(sql).unwrap()
        };
        let off = run(false, 1);
        assert_eq!(off.stats.scan.groups_pruned, 0);
        assert_eq!(off.stats.scan.bytes_pruned, 0);
        for n_threads in [1, 2, 4] {
            let on = run(true, n_threads);
            assert_eq!(
                on.relation.rows[0][0],
                Value::Int(expect),
                "{:?} threads={n_threads}: pruning changed the result",
                make().name,
            );
            assert!(
                on.stats.scan.groups_pruned > 0,
                "{:?} threads={n_threads}: window cut pruned nothing",
                make().name,
            );
            assert_eq!(
                on.stats.scan.bytes_scanned + on.stats.scan.bytes_pruned,
                off.stats.scan.bytes_scanned,
                "{:?} threads={n_threads}: accounting bytes not conserved",
                make().name,
            );
            // The scanned/pruned split is a property of table + predicates,
            // not of the schedule: every worker count reports the same stats.
            assert_eq!(
                on.stats.scan,
                run(true, 1).stats.scan,
                "{:?} threads={n_threads}: scan stats depend on worker count",
                make().name,
            );
        }
    }
}

/// The same conservation law on the compiled morsel-parallel path: the
/// skip mask and scan accounting come from one [`ScanRequest`], and no
/// worker count can perturb either the accounting split or a single
/// histogram bin.
#[test]
fn pruning_conserves_accounting_bytes_on_the_compiled_parallel_path() {
    use hepquery::exec_par::ParOptions;
    use hepquery::obs::{CancelToken, TraceCtx};
    use hepquery::physical_ir::{ComputeNode, FilterNode, PhysPlan};
    use hepquery::value::Path;

    let (_, table) = hepquery::model::generator::build_dataset(DatasetSpec {
        n_events: 1_500,
        row_group_size: 128,
        seed: 0xC057,
    });
    let pred = ScalarPredicate {
        leaf: Path::parse("event"),
        cmp: SelCmp::Lt,
        value: SelValue::Int(300),
    };
    let plan = PhysPlan {
        filters: vec![FilterNode::Scalar(pred.clone())],
        compute: ComputeNode::ScalarFill {
            leaf: Path::parse("MET.pt"),
        },
        spec: HistSpec::new(100, 0.0, 2000.0),
    };
    let projection = Projection::all();
    let preds = [pred];

    let on = ScanRequest::new(&table, &projection)
        .prune(&preds)
        .run()
        .unwrap();
    let off = ScanRequest::new(&table, &projection).run().unwrap();
    let skip = on.skip.expect("prune() was supplied");
    assert!(on.stats.groups_pruned > 0, "window cut pruned nothing");
    assert_eq!(
        on.stats.bytes_scanned + on.stats.bytes_pruned,
        off.stats.bytes_scanned,
        "accounting bytes not conserved under pruning",
    );
    assert_eq!(
        on.stats.groups_pruned,
        skip.iter().filter(|&&s| s).count() as u64,
    );
    assert_eq!(skip, skip_mask(&table, &preds));

    // Pruned bins must match the unpruned serial reference — the filter
    // re-checks every surviving row, so pruning is invisible to results.
    let want = hepquery::physical_ir::execute(
        &plan,
        &table,
        None,
        &TraceCtx::disabled(),
        &CancelToken::none(),
    )
    .unwrap();
    let morsels_expected = skip.iter().filter(|&&s| !s).count() as u64;
    for workers in [1, 2, 4, 8] {
        let (bins, stats) = hepquery::exec_par::execute(
            &plan,
            &table,
            Some(&skip),
            &TraceCtx::disabled(),
            &CancelToken::none(),
            None,
            &ParOptions::new(workers),
        )
        .unwrap();
        assert_eq!(bins, want, "workers={workers}");
        assert_eq!(
            stats.morsels, morsels_expected,
            "workers={workers}: pruned morsels were executed",
        );
    }
}
