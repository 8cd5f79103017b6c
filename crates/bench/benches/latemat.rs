//! Late-materialization ablation (DESIGN.md §5): the vectorized scan path
//! — selection vectors over typed chunk buffers, rows assembled only for
//! survivors — toggled on and off, per engine, at several selectivities.
//!
//! The interesting comparison is within a pair: the `vectorized` /
//! `naive` variants run the same query on the same data, differing only
//! in the engine's `vectorized_filter` knob.

use std::hint::black_box;
use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};

use engine_flwor::FlworEngine;
use engine_rdf::{RDataFrame, SelCmp, SelValue};
use engine_sql::{Dialect, SqlEngine};
use exec_par::ExecOptions;
use physics::HistSpec;

fn dataset() -> Arc<nf2_columnar::Table> {
    let (_, t) = hep_model::generator::build_dataset(hep_model::DatasetSpec {
        n_events: 16_384,
        row_group_size: 2_048,
        seed: 0x1A7E,
    });
    Arc::new(t)
}

/// MET.pt cuts at roughly 75% / 25% / 2% selectivity.
const CUTS: [(&str, f64); 3] = [("loose", 15.0), ("tight", 35.0), ("rare", 80.0)];

fn ablation_latemat_sql(c: &mut Criterion) {
    let t = dataset();
    let mut group = c.benchmark_group("ablation/latemat/sql");
    group.sample_size(10);
    for (label, cut) in CUTS {
        let sql = format!(
            "SELECT CAST(FLOOR(MET.pt / 5.0) AS BIGINT) AS bin, COUNT(*) AS n \
             FROM events WHERE MET.pt > {cut} \
             GROUP BY CAST(FLOOR(MET.pt / 5.0) AS BIGINT) ORDER BY bin"
        );
        for (mode, vectorized_filter) in [("vectorized", true), ("naive", false)] {
            group.bench_function(format!("{label}/{mode}"), |b| {
                b.iter(|| {
                    let mut e = SqlEngine::new(
                        Dialect::presto(),
                        ExecOptions {
                            vectorized_filter,
                            ..ExecOptions::default()
                        },
                    );
                    e.register(t.clone());
                    black_box(e.execute(&sql).unwrap().relation.rows.len())
                })
            });
        }
    }
    group.finish();
}

fn ablation_latemat_flwor(c: &mut Criterion) {
    let t = dataset();
    let mut group = c.benchmark_group("ablation/latemat/flwor");
    group.sample_size(10);
    for (label, cut) in CUTS {
        let q = format!(
            "for $e in parquet-file(\"events\") \
             where $e.MET.pt > {cut} \
             return $e.MET.pt"
        );
        for (mode, vectorized_filter) in [("vectorized", true), ("naive", false)] {
            group.bench_function(format!("{label}/{mode}"), |b| {
                b.iter(|| {
                    let mut e = FlworEngine::new(ExecOptions {
                        vectorized_filter,
                        ..ExecOptions::default()
                    });
                    e.register(t.clone());
                    black_box(e.execute(&q).unwrap().items.len())
                })
            });
        }
    }
    group.finish();
}

fn ablation_latemat_rdf(c: &mut Criterion) {
    let t = dataset();
    let mut group = c.benchmark_group("ablation/latemat/rdf");
    group.sample_size(10);
    for (label, cut) in CUTS {
        for (mode, vectorized_filter) in [("vectorized", true), ("naive", false)] {
            group.bench_function(format!("{label}/{mode}"), |b| {
                b.iter(|| {
                    let df = RDataFrame::new(
                        t.clone(),
                        ExecOptions {
                            vectorized_filter,
                            ..ExecOptions::default()
                        },
                    )
                    .filter_scalar("MET_pt", SelCmp::Gt, SelValue::Float(cut))
                    .histo1d(HistSpec::new(100, 0.0, 200.0), "MET_pt");
                    black_box(df.run().unwrap().histogram.total())
                })
            });
        }
    }
    group.finish();
}

criterion_group!(
    latemat,
    ablation_latemat_sql,
    ablation_latemat_flwor,
    ablation_latemat_rdf
);
criterion_main!(latemat);
