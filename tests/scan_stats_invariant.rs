//! The pricing invariants behind the scan path.
//!
//! 1. Filtering rows at scan time is an *execution* optimization, never a
//!    pricing one. Scan accounting is defined by the projected columns, so
//!    a cut the vectorized pre-filter takes and the same cut in a form it
//!    does not take must agree on every accounting byte and every result
//!    row, under every SQL dialect.
//! 2. Zone-map pruning moves bytes between accounts, it never loses them:
//!    `bytes_scanned + bytes_pruned` with pruning on equals `bytes_scanned`
//!    with pruning off, and the split is a property of table + predicates —
//!    identical at every worker count. A window cut on the monotone event
//!    id prunes at least 30 % of row groups and changes no result.

use std::sync::Arc;

use hepquery::columnar::stats::skip_mask;
use hepquery::columnar::{ScalarPredicate, ScanRequest, ScanStats, SelCmp, SelValue};
use hepquery::prelude::*;

#[test]
fn prefilter_never_changes_scan_stats_or_results() {
    let (_, table) = hepquery::model::generator::build_dataset(DatasetSpec {
        n_events: 1_500,
        row_group_size: 256,
        seed: 0xC057,
    });
    let table = Arc::new(table);
    // `MET.pt > t` is extracted and selects rows before materialization;
    // `MET.pt + 0.0 > t` is not, so every row is materialized and the
    // interpreter filters it.
    let sql = |cut: &str, t: f64| {
        format!(
            "SELECT CAST(FLOOR(MET.pt / 5.0) AS BIGINT) AS bin, COUNT(*) AS n \
             FROM events WHERE {cut} > {t:?} \
             GROUP BY CAST(FLOOR(MET.pt / 5.0) AS BIGINT) ORDER BY bin"
        )
    };
    for make in [
        Dialect::bigquery as fn() -> Dialect,
        Dialect::presto,
        Dialect::athena,
    ] {
        for n_threads in [1, 4] {
            let mut engine = SqlEngine::new(
                make(),
                ExecOptions {
                    n_threads,
                    zone_map_pruning: false,
                    ..ExecOptions::default()
                },
            );
            engine.register(table.clone());
            for t in [0.0, 25.0, 60.0, 1e6] {
                let what = format!("{:?} threads={n_threads} t={t}", make().name);
                let taken = engine.execute(&sql("MET.pt", t)).unwrap();
                let opaque = engine.execute(&sql("MET.pt + 0.0", t)).unwrap();
                assert_eq!(
                    taken.relation, opaque.relation,
                    "{what}: results differ with the pre-filter"
                );
                assert_eq!(
                    taken.stats.scan, opaque.stats.scan,
                    "{what}: scan accounting perturbed by the pre-filter"
                );
            }
        }
    }
}

/// A zone-map pruning run on the interpreters must leave the result
/// untouched, prune nothing with pruning off, conserve accounting bytes
/// (`bytes_scanned + bytes_pruned` with pruning on equals `bytes_scanned`
/// with pruning off) and prune at least this fraction of row groups on
/// every window cut below.
const MIN_PRUNED_FRACTION: f64 = 0.30;

/// Asserts the pruning contract on one (off, on) pair of runs.
fn assert_pruning_sound<R: PartialEq + std::fmt::Debug>(
    what: &str,
    groups_total: usize,
    (off, off_stats): (R, ScanStats),
    (on, on_stats): (R, ScanStats),
) {
    assert_eq!(on, off, "{what}: pruning changed the result");
    assert_eq!(
        (off_stats.groups_pruned, off_stats.bytes_pruned),
        (0, 0),
        "{what}: pruning off still pruned"
    );
    assert_eq!(
        on_stats.bytes_scanned + on_stats.bytes_pruned,
        off_stats.bytes_scanned,
        "{what}: accounting bytes not conserved",
    );
    assert!(
        on_stats.groups_pruned as f64 >= MIN_PRUNED_FRACTION * groups_total as f64,
        "{what}: pruned {}/{groups_total} row groups, below {:.0}%",
        on_stats.groups_pruned,
        MIN_PRUNED_FRACTION * 100.0,
    );
}

/// Zone-map pruning is sound on the interpreters, at Figure 4b's scale
/// and at any worker count:
///
/// * the windowed Q1/Q5 texts of `fig4b_pruning` on Presto SQL and JSONiq
///   (32 768 events in 128 row groups, the middle-quarter event window,
///   row-at-a-time interpretation);
/// * a window `COUNT(*)` under all three SQL dialects at 1, 2 and 4
///   threads — the scanned/pruned split is a property of table +
///   predicates, so every worker count reports the same stats — and an
///   empty window that prunes every group, whose count is still `[[0]]`.
///
/// The window cuts on the monotone `event` column, so most row groups
/// are provably outside it.
#[test]
fn pruning_conserves_accounting_bytes_across_worker_counts() {
    use hepbench_bench::windowed::{options, q1w_sql, q5w_sql, window, windowed_jq};
    use hepquery::jsoniq::FlworEngine;

    let spec = DatasetSpec {
        n_events: 32_768,
        row_group_size: 256,
        seed: hepbench_bench::SEED,
    };
    let (_, table) = hepbench_bench::dataset(spec);
    let groups = table.row_groups().len();
    let (lo, hi) = window(spec.n_events);
    for (query, sql) in [("Q1w", q1w_sql(lo, hi)), ("Q5w", q5w_sql(lo, hi))] {
        let run = |prune: bool| {
            let mut engine = SqlEngine::new(Dialect::presto(), options(prune));
            engine.register(table.clone());
            let out = engine.execute(&sql).unwrap();
            (out.relation, out.stats.scan)
        };
        assert_pruning_sound(&format!("sql {query}"), groups, run(false), run(true));
    }
    for (query, q) in [("Q1w", QueryId::Q1), ("Q5w", QueryId::Q5)] {
        let text = windowed_jq(q, lo, hi);
        let run = |prune: bool| {
            let mut engine = FlworEngine::new(options(prune));
            engine.register(table.clone());
            let out = engine.execute(&text).unwrap();
            (out.items, out.stats.scan)
        };
        assert_pruning_sound(&format!("jsoniq {query}"), groups, run(false), run(true));
    }

    let (events, table) = hepquery::model::generator::build_dataset(DatasetSpec {
        n_events: 1_500,
        row_group_size: 256,
        seed: 0xC057,
    });
    let table = Arc::new(table);
    let groups = table.row_groups().len();
    // `event < 0` prunes every group: the global aggregate must still
    // answer one row over zero events, as it does with pruning off.
    for cut in [300, 0] {
        let sql = format!("SELECT COUNT(*) AS n FROM events WHERE event < {cut}");
        let expect = events.iter().filter(|e| e.event < cut).count() as i64;
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
                let out = engine.execute(&sql).unwrap();
                (out.relation, out.stats.scan)
            };
            let serial = run(true, 1);
            assert_eq!(serial.0.cols, ["n"], "{:?} cut={cut}", make().name);
            assert_eq!(
                serial.0.rows,
                [[Value::Int(expect)]],
                "{:?} cut={cut}",
                make().name
            );
            let off = run(false, 1);
            for n_threads in [1, 2, 4] {
                let what = format!("{:?} cut={cut} threads={n_threads}", make().name);
                let on = run(true, n_threads);
                assert_eq!(on.1, serial.1, "{what}: scan stats depend on worker count");
                assert_pruning_sound(&what, groups, off.clone(), on);
            }
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
