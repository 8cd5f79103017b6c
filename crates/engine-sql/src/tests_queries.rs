//! End-to-end SQL tests over a small generated HEP data set.

use std::sync::Arc;

use hep_model::generator::build_dataset;
use hep_model::DatasetSpec;
use nested_value::Value;

use crate::dialect::Dialect;
use crate::engine::SqlEngine;
use crate::error::SqlError;
use exec_par::ExecOptions;

const N_EVENTS: usize = 800;

fn dataset() -> (Vec<hep_model::Event>, Arc<nf2_columnar::Table>) {
    dataset_in_groups_of(128)
}

/// The events of [`dataset`] in one row group: one partition is the
/// whole table, so every script evaluates over the whole table at once.
fn whole_table_dataset() -> (Vec<hep_model::Event>, Arc<nf2_columnar::Table>) {
    dataset_in_groups_of(N_EVENTS)
}

fn dataset_in_groups_of(
    row_group_size: usize,
) -> (Vec<hep_model::Event>, Arc<nf2_columnar::Table>) {
    let (events, table) = build_dataset(DatasetSpec {
        n_events: N_EVENTS,
        row_group_size,
        seed: 21,
    });
    (events, Arc::new(table))
}

fn engine(dialect: Dialect, table: Arc<nf2_columnar::Table>) -> SqlEngine {
    let mut e = SqlEngine::new(dialect, ExecOptions::default());
    e.register(table);
    e
}

#[test]
fn count_all_events() {
    let (events, t) = dataset();
    let e = engine(Dialect::presto(), t);
    let out = e.execute("SELECT COUNT(*) FROM events").unwrap();
    assert_eq!(
        out.relation.rows,
        vec![vec![Value::Int(events.len() as i64)]]
    );
    assert!(out.stats.scan.rows > 0);
}

#[test]
fn scalar_projection_and_filter() {
    let (events, t) = dataset();
    let e = engine(Dialect::bigquery(), t);
    let out = e
        .execute("SELECT COUNT(*) FROM events WHERE MET.pt > 20.0")
        .unwrap();
    let expect = events.iter().filter(|e| e.met.pt > 20.0).count() as i64;
    assert_eq!(out.relation.rows[0][0], Value::Int(expect));
}

#[test]
fn unnest_bigquery_offset() {
    let (events, t) = dataset();
    let e = engine(Dialect::bigquery(), t);
    let out = e
        .execute(
            "SELECT COUNT(*) FROM events ev, UNNEST(ev.Jet) AS j WITH OFFSET i \
             WHERE j.pt > 30.0 AND i >= 0",
        )
        .unwrap();
    let expect: i64 = events
        .iter()
        .flat_map(|e| e.jets.iter())
        .filter(|j| j.pt > 30.0)
        .count() as i64;
    assert_eq!(out.relation.rows[0][0], Value::Int(expect));
}

#[test]
fn unnest_presto_ordinality_column_list() {
    let (events, t) = dataset();
    let e = engine(Dialect::presto(), t);
    let out = e
        .execute(
            "SELECT COUNT(*) FROM events CROSS JOIN \
             UNNEST(Muon) WITH ORDINALITY AS m (pt, eta, phi, mass, charge, iso3, iso4, \
             tightId, softId, dxy, dxyErr, dz, dzErr, jetIdx, genPartIdx, idx) \
             WHERE idx = 1",
        )
        .unwrap();
    let expect = events.iter().filter(|e| !e.muons.is_empty()).count() as i64;
    assert_eq!(out.relation.rows[0][0], Value::Int(expect));
}

#[test]
fn unnest_athena_struct_alias() {
    let (events, t) = dataset();
    let e = engine(Dialect::athena(), t);
    let out = e
        .execute("SELECT COUNT(*) FROM events CROSS JOIN UNNEST(Jet) AS j WHERE ABS(j.eta) < 1.0")
        .unwrap();
    let expect = events
        .iter()
        .flat_map(|e| e.jets.iter())
        .filter(|j| j.eta.abs() < 1.0)
        .count() as i64;
    assert_eq!(out.relation.rows[0][0], Value::Int(expect));
}

#[test]
fn correlated_subquery_counts() {
    let (events, t) = dataset();
    let e = engine(Dialect::bigquery(), t);
    let out = e
        .execute(
            "SELECT COUNT(*) FROM events ev WHERE \
             (SELECT COUNT(*) FROM UNNEST(ev.Jet) j WHERE j.pt > 40.0) >= 2",
        )
        .unwrap();
    let expect = events
        .iter()
        .filter(|e| e.jets.iter().filter(|j| j.pt > 40.0).count() >= 2)
        .count() as i64;
    assert_eq!(out.relation.rows[0][0], Value::Int(expect));
}

#[test]
fn array_functions_filter_cardinality() {
    let (events, t) = dataset();
    let e = engine(Dialect::athena(), t);
    let out = e
        .execute(
            "SELECT COUNT(*) FROM events WHERE \
             CARDINALITY(FILTER(Jet, j -> j.pt > 40.0)) >= 2",
        )
        .unwrap();
    let expect = events
        .iter()
        .filter(|e| e.jets.iter().filter(|j| j.pt > 40.0).count() >= 2)
        .count() as i64;
    assert_eq!(out.relation.rows[0][0], Value::Int(expect));
}

#[test]
fn exists_pair_query() {
    let (events, t) = dataset();
    let e = engine(Dialect::bigquery(), t);
    let out = e
        .execute(
            "SELECT COUNT(*) FROM events ev WHERE EXISTS (\
               SELECT 1 FROM UNNEST(ev.Muon) m1 WITH OFFSET i, \
                             UNNEST(ev.Muon) m2 WITH OFFSET j \
               WHERE i < j AND m1.charge != m2.charge)",
        )
        .unwrap();
    let expect = events
        .iter()
        .filter(|e| {
            e.muons
                .iter()
                .enumerate()
                .any(|(i, a)| e.muons[i + 1..].iter().any(|b| a.charge != b.charge))
        })
        .count() as i64;
    assert_eq!(out.relation.rows[0][0], Value::Int(expect));
}

#[test]
fn group_by_histogram_shape() {
    let (events, t) = dataset();
    let e = engine(Dialect::presto(), t);
    let out = e
        .execute(
            "SELECT CAST(FLOOR(MET.pt / 10.0) AS BIGINT) AS bin, COUNT(*) AS n \
             FROM events GROUP BY CAST(FLOOR(MET.pt / 10.0) AS BIGINT)",
        )
        .unwrap();
    let total: i64 = out
        .relation
        .rows
        .iter()
        .map(|r| r[1].as_i64().unwrap())
        .sum();
    assert_eq!(total, events.len() as i64);
}

#[test]
fn group_by_alias_bigquery_only() {
    let (_, t) = dataset();
    let sql = "SELECT CAST(FLOOR(MET.pt / 10.0) AS INT64) AS bin, COUNT(*) AS n \
               FROM events GROUP BY bin";
    let bq = engine(Dialect::bigquery(), t.clone());
    assert!(bq.execute(sql).is_ok());
    let presto = engine(Dialect::presto(), t);
    // Presto cannot resolve the alias: `bin` is not a column.
    assert!(matches!(presto.execute(sql), Err(SqlError::Unresolved(_))));
}

#[test]
fn cte_chain_and_join() {
    let (events, t) = whole_table_dataset();
    let e = engine(Dialect::presto(), t);
    let out = e
        .execute(
            "WITH base AS (SELECT event AS eid, MET.pt AS met FROM events), \
                  big AS (SELECT eid FROM base WHERE met > 25.0) \
             SELECT COUNT(*) FROM base INNER JOIN big ON base.eid = big.eid",
        )
        .unwrap();
    let expect = events.iter().filter(|e| e.met.pt > 25.0).count() as i64;
    assert_eq!(out.relation.rows[0][0], Value::Int(expect));
}

#[test]
fn min_by_per_event() {
    let (events, t) = whole_table_dataset();
    let e = engine(Dialect::athena(), t);
    // Jet with mass closest to 20 GeV per event, then count events with one.
    let out = e
        .execute(
            "WITH cand AS (\
               SELECT event AS eid, MIN_BY(j.pt, ABS(j.mass - 20.0)) AS best_pt \
               FROM events CROSS JOIN UNNEST(Jet) AS j GROUP BY event) \
             SELECT COUNT(*) FROM cand WHERE best_pt IS NOT NULL",
        )
        .unwrap();
    let expect = events.iter().filter(|e| !e.jets.is_empty()).count() as i64;
    assert_eq!(out.relation.rows[0][0], Value::Int(expect));
}

#[test]
fn udf_struct_params() {
    let (events, t) = dataset();
    let e = engine(Dialect::bigquery(), t);
    let out = e
        .execute(
            "CREATE TEMP FUNCTION JetE(j STRUCT<pt FLOAT64, eta FLOAT64>) AS (\
               j.pt * COSH(j.eta));\
             SELECT COUNT(*) FROM events ev, UNNEST(ev.Jet) j \
             WHERE JetE(STRUCT(j.pt, j.eta)) > 100.0",
        )
        .unwrap();
    let expect = events
        .iter()
        .flat_map(|e| e.jets.iter())
        .filter(|j| j.pt * j.eta.cosh() > 100.0)
        .count() as i64;
    assert_eq!(out.relation.rows[0][0], Value::Int(expect));
}

#[test]
fn presto_udf_and_row_cast() {
    let (_, t) = dataset();
    let e = engine(Dialect::presto(), t);
    let out = e
        .execute(
            "CREATE FUNCTION double_pt(x DOUBLE) RETURNS DOUBLE RETURN x * 2;\
             SELECT COUNT(*) FROM events CROSS JOIN \
             UNNEST(Jet) AS j (jpt, jeta, jphi, jmass, jbtag, jpuId) \
             WHERE CAST(ROW(jpt, jeta) AS ROW(pt DOUBLE, eta DOUBLE)).pt \
                   = jpt AND double_pt(jpt) > 60.0",
        )
        .unwrap();
    assert!(out.relation.rows[0][0].as_i64().unwrap() >= 0);
}

#[test]
fn transform_reduce_pipeline() {
    let (events, t) = dataset();
    let e = engine(Dialect::presto(), t);
    let out = e
        .execute(
            "SELECT CAST(SUM(s) AS BIGINT) FROM (\
               SELECT REDUCE(FILTER(Jet, j -> j.pt > 30.0), 0.0, \
                             (acc, j) -> acc + 1.0, acc -> acc) AS s \
               FROM events) t",
        )
        .unwrap();
    let expect: i64 = events
        .iter()
        .map(|e| e.jets.iter().filter(|j| j.pt > 30.0).count() as i64)
        .sum();
    assert_eq!(out.relation.rows[0][0], Value::Int(expect));
}

#[test]
fn combinations_function_counts() {
    let (events, t) = dataset();
    let e = engine(Dialect::presto(), t);
    let out = e
        .execute("SELECT CAST(SUM(CARDINALITY(COMBINATIONS(Jet, 3))) AS BIGINT) FROM events")
        .unwrap();
    let c3 = |k: usize| (k * k.saturating_sub(1) * k.saturating_sub(2) / 6) as i64;
    let expect: i64 = events.iter().map(|e| c3(e.jets.len())).sum();
    assert_eq!(out.relation.rows[0][0], Value::Int(expect));
}

#[test]
fn array_subquery_bigquery() {
    let (events, t) = dataset();
    let e = engine(Dialect::bigquery(), t);
    let out = e
        .execute(
            "SELECT COUNT(*) FROM events ev WHERE \
             ARRAY_LENGTH(ARRAY(SELECT j.pt FROM UNNEST(ev.Jet) j WHERE j.pt > 40.0)) >= 2",
        )
        .unwrap();
    let expect = events
        .iter()
        .filter(|e| e.jets.iter().filter(|j| j.pt > 40.0).count() >= 2)
        .count() as i64;
    assert_eq!(out.relation.rows[0][0], Value::Int(expect));
}

#[test]
fn order_by_limit_in_subquery() {
    let (events, t) = dataset();
    let e = engine(Dialect::bigquery(), t);
    let out = e
        .execute(
            "SELECT CAST(SUM(lead) AS INT64) FROM (\
               SELECT (SELECT j.pt FROM UNNEST(ev.Jet) j ORDER BY j.pt DESC LIMIT 1) AS lead \
               FROM events ev WHERE ARRAY_LENGTH(ev.Jet) > 0) t",
        )
        .unwrap();
    let expect: f64 = events
        .iter()
        .filter(|e| !e.jets.is_empty())
        .map(|e| e.jets.iter().map(|j| j.pt).fold(f64::MIN, f64::max))
        .sum();
    assert_eq!(out.relation.rows[0][0], Value::Int(expect as i64));
}

#[test]
fn parallel_matches_serial() {
    let (_, t) = dataset();
    let sql = "SELECT CAST(FLOOR(MET.pt / 5.0) AS BIGINT) AS bin, COUNT(*) AS n \
               FROM events GROUP BY CAST(FLOOR(MET.pt / 5.0) AS BIGINT) ORDER BY bin";
    let par = engine(Dialect::presto(), t).execute(sql).unwrap();
    let ser = engine(Dialect::presto(), whole_table_dataset().1)
        .execute(sql)
        .unwrap();
    assert_eq!(par.relation.cols, ser.relation.cols);
    assert_eq!(par.relation.rows, ser.relation.rows);
}

#[test]
fn pushdown_changes_bytes_scanned_between_dialects() {
    let (_, t) = dataset();
    let sql = "SELECT COUNT(*) FROM events WHERE MET.pt > 20.0";
    let bq = engine(Dialect::bigquery(), t.clone()).execute(sql).unwrap();
    let presto = engine(Dialect::presto(), t).execute(sql).unwrap();
    // Presto reads the whole MET struct; BigQuery reads MET.pt only.
    assert!(presto.stats.scan.bytes_scanned > bq.stats.scan.bytes_scanned);
    assert_eq!(
        presto.stats.scan.ideal_compressed_bytes,
        bq.stats.scan.ideal_compressed_bytes
    );
}

#[test]
fn distinct_and_in_list() {
    let (_, t) = whole_table_dataset();
    let e = engine(Dialect::athena(), t);
    let out = e
        .execute(
            "SELECT DISTINCT m.charge FROM events CROSS JOIN UNNEST(Muon) AS m \
             WHERE m.charge IN (-1, 1)",
        )
        .unwrap();
    let mut charges: Vec<i64> = out
        .relation
        .rows
        .iter()
        .map(|r| r[0].as_i64().unwrap())
        .collect();
    charges.sort_unstable();
    assert_eq!(charges, vec![-1, 1]);
}

#[test]
fn error_on_unknown_table_and_column() {
    let (_, t) = dataset();
    let e = engine(Dialect::presto(), t);
    assert!(matches!(
        e.execute("SELECT COUNT(*) FROM nonexistent"),
        Err(SqlError::Unresolved(_))
    ));
    assert!(e.execute("SELECT nope FROM events").is_err());
}

#[test]
fn between_and_case() {
    let (events, t) = dataset();
    let e = engine(Dialect::athena(), t);
    let out = e
        .execute(
            "SELECT CAST(SUM(CASE WHEN MET.pt BETWEEN 10.0 AND 30.0 THEN 1 ELSE 0 END) AS BIGINT) \
             FROM events",
        )
        .unwrap();
    let expect = events
        .iter()
        .filter(|e| (10.0..=30.0).contains(&e.met.pt))
        .count() as i64;
    assert_eq!(out.relation.rows[0][0], Value::Int(expect));
}

#[test]
fn zone_map_pruning_skips_groups_and_preserves_results() {
    let (events, t) = dataset();
    // Highly selective scalar predicate: most row groups have no event
    // with MET above the 99.9th percentile.
    let mut mets: Vec<f64> = events.iter().map(|e| e.met.pt).collect();
    mets.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let cut = mets[mets.len() - 3];
    let sql = format!("SELECT COUNT(*) FROM events WHERE MET.pt > {cut}");
    let expect = events.iter().filter(|e| e.met.pt > cut).count() as i64;

    let pruned = engine(Dialect::presto(), t.clone()).execute(&sql).unwrap();
    let mut no_prune_engine = SqlEngine::new(
        Dialect::presto(),
        ExecOptions {
            zone_map_pruning: false,
            ..ExecOptions::default()
        },
    );
    no_prune_engine.register(t);
    let unpruned = no_prune_engine.execute(&sql).unwrap();

    assert_eq!(pruned.relation.rows[0][0], Value::Int(expect));
    assert_eq!(unpruned.relation.rows[0][0], Value::Int(expect));
    assert!(pruned.stats.row_groups_skipped > 0, "nothing was pruned");
    assert_eq!(unpruned.stats.row_groups_skipped, 0);
    assert!(pruned.stats.scan.bytes_scanned < unpruned.stats.scan.bytes_scanned);
    assert!(pruned.stats.scan.rows < unpruned.stats.scan.rows);
}

#[test]
fn zone_map_pruning_is_conservative_for_shared_tables() {
    let (events, t) = dataset();
    // The same table feeds a CTE and the root query; pruning must not
    // apply (the CTE needs all rows), and results must stay correct.
    let sql = "WITH total AS (SELECT COUNT(*) AS n FROM events) \
               SELECT COUNT(*) FROM events WHERE MET.pt > 1000.0";
    let out = engine(Dialect::presto(), t).execute(sql).unwrap();
    assert_eq!(out.stats.row_groups_skipped, 0);
    let expect = events.iter().filter(|e| e.met.pt > 1000.0).count() as i64;
    assert_eq!(out.relation.rows[0][0], Value::Int(expect));
}
