//! Integration: materialize a data set to the on-disk container, reload
//! it, and get identical query results and scan accounting.

use std::sync::Arc;

use hepquery::bench::QueryId;
use hepquery::prelude::*;

#[test]
fn queries_survive_disk_roundtrip() {
    let (_, table) = hepquery::model::generator::build_dataset(DatasetSpec {
        n_events: 2_000,
        row_group_size: 256,
        seed: 0xD15C,
    });
    let dir = std::env::temp_dir().join(format!("hepquery_it_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("events.nf2c");
    hepquery::columnar::file::save(&table, &path).unwrap();
    let reloaded = Arc::new(hepquery::columnar::file::load(&path).unwrap());
    let table = Arc::new(table);

    assert_eq!(reloaded.n_rows(), table.n_rows());
    assert_eq!(reloaded.schema(), table.schema());
    // File size is real I/O: must be within the physical data volume.
    let file_size = std::fs::metadata(&path).unwrap().len();
    assert!(file_size as usize >= table.uncompressed_bytes());

    let env = ExecEnv::seed();
    let athena = engine_for_compiled(System::AthenaV2, table);
    let athena_reloaded = engine_for_compiled(System::AthenaV2, reloaded);
    for q in [QueryId::Q1, QueryId::Q4, QueryId::Q6a] {
        let a = athena.execute(&q.into(), &env).unwrap();
        let b = athena_reloaded.execute(&q.into(), &env).unwrap();
        assert!(a.histogram.counts_equal(&b.histogram), "{}", q.name());
        assert_eq!(a.stats.scan.bytes_scanned, b.stats.scan.bytes_scanned);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn scan_accounting_is_consistent_across_engines() {
    let (_, table) = hepquery::model::generator::build_dataset(DatasetSpec {
        n_events: 2_000,
        row_group_size: 512,
        seed: 0x5CA4,
    });
    let table = Arc::new(table);
    let q = QueryId::Q1;
    let env = ExecEnv::seed();
    let run = |system| {
        engine_for_compiled(system, table.clone())
            .execute(&q.into(), &env)
            .unwrap()
    };
    let (bq, at) = (run(System::BigQuery), run(System::AthenaV2));
    let (jq, rdf) = (run(System::Rumble), run(System::RDataFrame));
    // The Figure-4b ordering: BigQuery (leaf pushdown) < Athena (whole
    // structs) < Rumble (whole file); RDataFrame reads like BigQuery.
    assert!(bq.stats.scan.bytes_scanned < at.stats.scan.bytes_scanned);
    assert!(at.stats.scan.bytes_scanned < jq.stats.scan.bytes_scanned);
    assert_eq!(
        jq.stats.scan.bytes_scanned as usize,
        table.compressed_bytes(),
        "Rumble reads the full file"
    );
    assert_eq!(bq.stats.scan.bytes_scanned, rdf.stats.scan.bytes_scanned);
    // Ideal lines identical everywhere.
    assert_eq!(
        bq.stats.scan.ideal_compressed_bytes,
        at.stats.scan.ideal_compressed_bytes
    );
}
