//! Property tests: parser totality and executor/reference agreement on
//! randomized filters.

use std::sync::Arc;

use proptest::prelude::*;

use hep_model::generator::build_dataset;
use hep_model::DatasetSpec;

use crate::dialect::Dialect;
use crate::engine::SqlEngine;
use crate::parser;
use exec_par::ExecOptions;

fn small_table() -> (Vec<hep_model::Event>, Arc<nf2_columnar::Table>) {
    let (events, table) = build_dataset(DatasetSpec {
        n_events: 200,
        row_group_size: 64,
        seed: 5,
    });
    (events, Arc::new(table))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The tokenizer/parser never panic on arbitrary input — they return
    /// Ok or Err.
    #[test]
    fn parser_total(input in "\\PC{0,120}") {
        let _ = parser::parse_script(&input);
    }

    /// Randomized MET threshold filters agree with the in-memory reference
    /// across all three dialects and both execution modes.
    #[test]
    fn threshold_filters_agree(threshold in 0.0..80.0f64, parallel in any::<bool>()) {
        let (events, t) = small_table();
        let expect = events.iter().filter(|e| e.met.pt > threshold).count() as i64;
        for d in [Dialect::bigquery(), Dialect::presto(), Dialect::athena()] {
            let mut e = SqlEngine::new(d, ExecOptions {
                n_threads: if parallel { 0 } else { 1 },
                ..ExecOptions::default()
            });
            e.register(t.clone());
            let out = e
                .execute(&format!("SELECT COUNT(*) FROM events WHERE MET.pt > {threshold}"))
                .unwrap();
            prop_assert_eq!(out.relation.rows[0][0].as_i64().unwrap(), expect);
        }
    }

    /// Randomized jet-pt cuts through three different language constructs
    /// (correlated subquery, lambda FILTER, CROSS JOIN + GROUP BY) agree.
    #[test]
    fn jet_cut_constructs_agree(cut in 15.0..60.0f64, min_n in 1usize..4) {
        let (events, t) = small_table();
        let expect = events
            .iter()
            .filter(|e| e.jets.iter().filter(|j| j.pt > cut).count() >= min_n)
            .count() as i64;

        let mut bq = SqlEngine::new(Dialect::bigquery(), ExecOptions::default());
        bq.register(t.clone());
        let out = bq.execute(&format!(
            "SELECT COUNT(*) FROM events ev WHERE \
             (SELECT COUNT(*) FROM UNNEST(ev.Jet) j WHERE j.pt > {cut}) >= {min_n}"
        )).unwrap();
        prop_assert_eq!(out.relation.rows[0][0].as_i64().unwrap(), expect);

        let mut presto = SqlEngine::new(Dialect::presto(), ExecOptions::default());
        presto.register(t.clone());
        let out = presto.execute(&format!(
            "SELECT COUNT(*) FROM events WHERE \
             CARDINALITY(FILTER(Jet, j -> j.pt > {cut})) >= {min_n}"
        )).unwrap();
        prop_assert_eq!(out.relation.rows[0][0].as_i64().unwrap(), expect);

        let mut athena = SqlEngine::new(Dialect::athena(), ExecOptions {
            n_threads: 1,
            ..ExecOptions::default()
        });
        athena.register(t.clone());
        let out = athena.execute(&format!(
            "WITH matched AS (\
               SELECT event AS eid, COUNT(*) AS n FROM events \
               CROSS JOIN UNNEST(Jet) AS j WHERE j.pt > {cut} GROUP BY event \
               HAVING COUNT(*) >= {min_n}) \
             SELECT COUNT(*) FROM matched"
        )).unwrap();
        prop_assert_eq!(out.relation.rows[0][0].as_i64().unwrap(), expect);
    }

    /// The vectorized pre-filter is invisible: identical relations and
    /// identical scan accounting with the knob on and off, across all
    /// dialects and both execution modes.
    #[test]
    fn vectorized_filter_invisible(threshold in 0.0..80.0f64, parallel in any::<bool>()) {
        let (_, t) = small_table();
        let sql = format!(
            "SELECT CAST(FLOOR(MET.pt / 7.0) AS BIGINT) AS bin, COUNT(*) AS n \
             FROM events WHERE MET.pt > {threshold} AND MET.phi < 2 \
             GROUP BY CAST(FLOOR(MET.pt / 7.0) AS BIGINT) ORDER BY bin"
        );
        for d in [
            Dialect::bigquery as fn() -> Dialect,
            Dialect::presto,
            Dialect::athena,
        ] {
            let mut runs = Vec::new();
            for vectorized_filter in [true, false] {
                let mut e = SqlEngine::new(d(), ExecOptions {
                    n_threads: if parallel { 0 } else { 1 },
                        vectorized_filter,
                    ..ExecOptions::default()
                });
                e.register(t.clone());
                runs.push(e.execute(&sql).unwrap());
            }
            prop_assert_eq!(&runs[0].relation.cols, &runs[1].relation.cols);
            prop_assert_eq!(&runs[0].relation.rows, &runs[1].relation.rows);
            prop_assert_eq!(
                runs[0].stats.scan.bytes_scanned,
                runs[1].stats.scan.bytes_scanned
            );
            prop_assert_eq!(
                runs[0].stats.scan.logical_bytes,
                runs[1].stats.scan.logical_bytes
            );
        }
    }

    /// Histogram-style GROUP BY conserves total event counts for any bin
    /// width.
    #[test]
    fn group_by_conserves_counts(width in 1.0..40.0f64) {
        let (events, t) = small_table();
        let mut e = SqlEngine::new(Dialect::presto(), ExecOptions::default());
        e.register(t);
        let out = e.execute(&format!(
            "SELECT CAST(FLOOR(MET.pt / {width}) AS BIGINT) AS bin, COUNT(*) AS n \
             FROM events GROUP BY CAST(FLOOR(MET.pt / {width}) AS BIGINT)"
        )).unwrap();
        let total: i64 = out.relation.rows.iter().map(|r| r[1].as_i64().unwrap()).sum();
        prop_assert_eq!(total, events.len() as i64);
    }
}
