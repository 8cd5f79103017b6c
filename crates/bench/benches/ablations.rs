//! Ablation benchmarks for the design choices called out in DESIGN.md §5:
//! struct-projection pushdown, row-group size, combination enumeration,
//! and zone-map pruning.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use engine_rdf::RDataFrame;
use exec_par::ExecOptions;
use nf2_columnar::{Projection, PushdownCapability};
use physics::HistSpec;

fn dataset(row_group: usize) -> (Vec<hep_model::Event>, Arc<nf2_columnar::Table>) {
    let (e, t) = hep_model::generator::build_dataset(hep_model::DatasetSpec {
        n_events: 16_384,
        row_group_size: row_group,
        seed: 0xAB1A,
    });
    (e, Arc::new(t))
}

/// Reproduces the Fig-4b mechanism: reading one field of a struct under
/// the three pushdown capabilities.
fn ablation_pushdown(c: &mut Criterion) {
    let (_, t) = dataset(2_048);
    let proj = Projection::of(["Jet.pt", "MET.pt"]);
    let mut group = c.benchmark_group("ablation/pushdown");
    group.sample_size(10);
    for (label, cap) in [
        ("individual_leaves", PushdownCapability::IndividualLeaves),
        ("whole_structs", PushdownCapability::WholeStructs),
        ("none", PushdownCapability::None),
    ] {
        group.bench_function(label, |b| {
            b.iter(|| {
                let leaves = proj.resolve(t.schema(), cap).unwrap();
                let mut n = 0usize;
                for g in t.row_groups() {
                    n += g.read_rows(t.schema(), &leaves).unwrap().len();
                }
                black_box(n)
            })
        });
    }
    group.finish();
}

/// Row-group size drives both scan granularity and the Fig-2 plateau.
fn ablation_rowgroup(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/rowgroup_size");
    group.sample_size(10);
    for rg in [256usize, 2_048, 16_384] {
        let (_, t) = dataset(rg);
        group.bench_function(format!("rg{rg}"), |b| {
            b.iter(|| {
                let df = RDataFrame::new(t.clone(), ExecOptions::default())
                    .histo1d(HistSpec::new(100, 0.0, 200.0), "MET_pt");
                black_box(df.run().unwrap().histogram.total())
            })
        });
    }
    group.finish();
}

/// Early-pruning ablation for Q6's combination enumeration: the naive
/// enumeration (what SQL engines must do) vs reusing per-jet four-vectors
/// (what RDataFrame-style code does via the reference kernel).
fn ablation_combinations(c: &mut Criterion) {
    let (events, _) = dataset(2_048);
    let mut group = c.benchmark_group("ablation/trijet");
    group.sample_size(10);
    group.bench_function("kernel_cached_vectors", |b| {
        b.iter(|| {
            let mut acc = 0.0f64;
            for e in &events {
                if let Some((pt, _, _)) = hepbench_core::reference::best_trijet(&e.jets) {
                    acc += pt;
                }
            }
            black_box(acc)
        })
    });
    group.bench_function("naive_recompute_vectors", |b| {
        b.iter(|| {
            let mut acc = 0.0f64;
            for e in &events {
                let n = e.jets.len();
                let mut best: Option<(f64, f64)> = None;
                for i in 0..n {
                    for j in (i + 1)..n {
                        for k in (j + 1)..n {
                            // Recompute all three four-vectors per combo —
                            // the work pattern of the flattened SQL plan.
                            let v = |j: &hep_model::Jet| {
                                physics::FourMomentum::from_pt_eta_phi_m(j.pt, j.eta, j.phi, j.mass)
                            };
                            let sum = v(&e.jets[i]) + v(&e.jets[j]) + v(&e.jets[k]);
                            let dist = (sum.mass() - 172.5).abs();
                            if best.is_none_or(|(d, _)| dist < d) {
                                best = Some((dist, sum.pt()));
                            }
                        }
                    }
                }
                if let Some((_, pt)) = best {
                    acc += pt;
                }
            }
            black_box(acc)
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    ablation_pushdown,
    ablation_rowgroup,
    ablation_combinations,
    ablation_zonemap
);
criterion_main!(benches);

/// Zone-map pruning ablation: a selective scalar filter with statistics-
/// based row-group skipping on vs off.
fn ablation_zonemap(c: &mut Criterion) {
    use engine_sql::{Dialect, SqlEngine};
    let (_, t) = dataset(512);
    let sql = "SELECT COUNT(*) FROM events WHERE event > 16000";
    let mut group = c.benchmark_group("ablation/zonemap");
    group.sample_size(10);
    for (label, pruning) in [("pruned", true), ("unpruned", false)] {
        let mut engine = SqlEngine::new(
            Dialect::presto(),
            ExecOptions {
                zone_map_pruning: pruning,
                ..ExecOptions::default()
            },
        );
        engine.register(t.clone());
        group.bench_function(label, |b| {
            b.iter(|| black_box(engine.execute(sql).unwrap().relation.rows.len()))
        });
    }
    group.finish();
}
