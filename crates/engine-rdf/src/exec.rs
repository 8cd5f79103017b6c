//! The parallel event loop.

use std::sync::Arc;
use std::time::Instant;

use nested_value::Path;
use nf2_columnar::{
    ColumnChunk, ExecStats, Projection, PushdownCapability, RowGroup, ScalarPredicate,
    SelectionVector, Table,
};
use physics::Histogram;

use crate::dataframe::{Node, RDataFrame, RdfError};
use crate::view::{BaseColumn, ColValue, ColumnId, EventView};

/// Result of one event loop.
pub struct RunOutput {
    /// One histogram per booking, in booking order.
    pub histograms: Vec<Histogram>,
    /// Execution statistics.
    pub stats: ExecStats,
}

/// Maps an RDataFrame-style flat column name (`Jet_pt`, `MET_sumet`,
/// `event`) to a schema path.
pub(crate) fn resolve_column(table: &Table, name: &str) -> Result<Path, RdfError> {
    let schema = table.schema();
    if schema.field(name).is_some() {
        return Ok(Path::root(name));
    }
    if let Some((head, rest)) = name.split_once('_') {
        if schema.field(head).is_some() {
            let path = Path::parse(&format!("{head}.{rest}"));
            if schema.leaf(&path).is_some() {
                return Ok(path);
            }
        }
    }
    Err(RdfError::UnknownColumn(name.to_string()))
}

/// Materializes the base columns of one row group.
fn materialize_base(group: &RowGroup, paths: &[Path]) -> Result<Vec<BaseColumn>, RdfError> {
    paths
        .iter()
        .map(|p| {
            let chunk = group.column(p)?;
            let mut values = Vec::with_capacity(chunk.n_entries());
            chunk.data.extend_f64(&mut values);
            let values = Arc::new(values);
            Ok(match &chunk.offsets {
                Some(off) => BaseColumn::Array(values, Arc::new(off.clone())),
                None => BaseColumn::Scalar(values),
            })
        })
        .collect()
}

/// What a callback declared with `deps` sees of event `row`.
fn view<'a>(
    deps: &'a [ColumnId],
    base: &'a [BaseColumn],
    row: usize,
    defined: &'a [Option<ColValue>],
) -> EventView<'a> {
    EventView {
        deps,
        base,
        row,
        defined,
    }
}

/// Executes the dataframe's event loop.
pub(crate) fn run(df: &RDataFrame) -> Result<RunOutput, RdfError> {
    let start = Instant::now();
    let table = &df.table;
    let options = df.env.resolve(df.options);
    let (trace, cancel) = (&df.env.trace, &df.env.cancel);

    let plan_span = trace.span(obs::Stage::Plan);
    // Resolve base columns and the projection they imply.
    let base_paths: Vec<Path> = df
        .registry
        .base_names
        .iter()
        .map(|n| resolve_column(table, n))
        .collect::<Result<_, _>>()?;
    let projection = Projection::of(base_paths.iter().map(|p| p.to_string()));
    let scan_cache = df
        .env
        .chunk_cache
        .as_deref()
        .map(|cache| nf2_columnar::ScanCache {
            cache,
            table_fingerprint: table.fingerprint(),
        });
    // Resolve declarative scalar cuts. A cut on a repeated or boolean
    // column has no per-event scalar to compare and is rejected outright.
    let scalar_preds: Vec<ScalarPredicate> = df
        .scalar_filters
        .iter()
        .map(|(name, cmp, value)| {
            let leaf_path = resolve_column(table, name)?;
            match table.schema().leaf(&leaf_path) {
                Some(l) if !l.repeated && l.ptype != nf2_columnar::PhysicalType::Bool => {
                    Ok(ScalarPredicate {
                        leaf: leaf_path,
                        cmp: *cmp,
                        value: *value,
                    })
                }
                _ => Err(RdfError::NotScalar(name.clone())),
            }
        })
        .collect::<Result<_, _>>()?;
    // Hoisting every scalar cut to scan time is sound because cuts are
    // pure conjuncts: the surviving event set is order-independent, and
    // moving a cut *earlier* only strengthens the protection it gives
    // later defines.
    let hoist = options.vectorized_filter && !scalar_preds.is_empty();

    // Fully-declarative graphs lower to the shared physical IR and run
    // as fused batch kernels; anything opaque stays on the interpreter.
    let compiled = if options.compile {
        crate::compile::lower(df, &scalar_preds)
    } else {
        None
    };

    plan_span.finish();

    // Zone-map pruning reuses the resolved scalar cuts: they are pure
    // conjuncts applied per event in every execution mode (hoisted,
    // per-event, or compiled into the plan's filters), so a row group
    // whose statistics refute one of them would contribute nothing.
    let prune_preds: &[ScalarPredicate] = if options.zone_map_pruning {
        &scalar_preds
    } else {
        &[]
    };
    let scan_faults = exec_par::scan_faults(&options, &df.env, compiled.is_some(), table);
    let run = nf2_columnar::ScanRequest::new(table, &projection)
        .capability(PushdownCapability::IndividualLeaves)
        .cache(scan_cache)
        .faults(scan_faults)
        .trace(trace)
        .cancel(cancel)
        .prune(prune_preds)
        .run()?;
    let scan = run.stats;
    let skip = run.skip.expect("prune() was supplied");

    if let Some(plan) = &compiled {
        let t0 = Instant::now();
        let (bins, compiled_threads, morsel_rec) =
            exec_par::execute_compiled(plan, table, &skip, &options, &df.env)?;
        let mut h = Histogram::new(df.bookings[0].spec);
        for b in bins {
            h.add_bin_count(b, 1);
        }
        return Ok(RunOutput {
            histograms: vec![h],
            stats: ExecStats {
                wall_seconds: start.elapsed().as_secs_f64(),
                cpu_seconds: t0.elapsed().as_secs_f64(),
                threads_used: compiled_threads,
                row_groups_skipped: scan.groups_pruned,
                scan,
                recovery: morsel_rec,
            },
        });
    }

    let fresh =
        || -> Vec<Histogram> { df.bookings.iter().map(|b| Histogram::new(b.spec)).collect() };

    // The event loop is one stage: per-group spans are its children, and
    // the fan-out's scheduling and the merge are charged to it.
    let loop_span = trace.span_with(obs::Stage::Aggregate, || "event loop".to_string());
    let trace = loop_span.ctx();

    // One partial per row group, at every thread count: merged in group
    // order below, the f64 moments are a function of the table alone.
    let process_group = |group_idx: usize, group: &RowGroup| -> Result<Vec<Histogram>, RdfError> {
        let mut partial = fresh();
        // Vectorized pre-pass: surviving rows are computed from the raw
        // typed chunks before the event loop sees anything.
        let sel: Option<SelectionVector> = if hoist {
            let mut filter_span =
                trace.span_with(obs::Stage::Filter, || format!("group {group_idx}"));
            let s = nf2_columnar::apply_predicates(group, &scalar_preds)?;
            if filter_span.is_enabled() {
                filter_span.add_rows_in(s.n_rows() as u64);
                filter_span.add_rows_out(s.len() as u64);
            }
            filter_span.finish();
            if s.is_empty() {
                return Ok(partial);
            }
            Some(s)
        } else {
            None
        };
        let decode_span = trace.span_with(obs::Stage::Decode, || format!("group {group_idx}"));
        let base = materialize_base(group, &base_paths)?;
        decode_span.finish();
        let agg_span = trace.span_with(obs::Stage::Aggregate, || format!("group {group_idx}"));
        // Raw chunks for per-event scalar-cut evaluation when not hoisted.
        let sf_chunks: Vec<&ColumnChunk> = if hoist {
            Vec::new()
        } else {
            scalar_preds
                .iter()
                .map(|p| Ok(group.column(&p.leaf)?))
                .collect::<Result<_, RdfError>>()?
        };
        let rows: Box<dyn Iterator<Item = usize>> = match &sel {
            Some(s) => Box::new(s.rows().iter().map(|&r| r as usize)),
            None => Box::new(0..group.n_rows()),
        };
        let mut defined: Vec<Option<ColValue>> = vec![None; df.registry.n_defined];
        for row in rows {
            for d in defined.iter_mut() {
                *d = None;
            }
            let mut passed = true;
            for node in &df.nodes {
                match node {
                    Node::Define { slot, deps, func } => {
                        let v = func(&view(deps, &base, row, &defined));
                        defined[*slot] = Some(v);
                    }
                    Node::Filter { deps, func } => {
                        if !func(&view(deps, &base, row, &defined)) {
                            passed = false;
                            break;
                        }
                    }
                    Node::ScalarFilter { index } => {
                        if hoist {
                            continue; // applied at scan time
                        }
                        if !scalar_preds[*index].matches_row(&sf_chunks[*index].data, row) {
                            passed = false;
                            break;
                        }
                    }
                }
            }
            if passed {
                for (b, booking) in partial.iter_mut().zip(&df.bookings) {
                    match booking.id {
                        ColumnId::Base(i) => match &base[i] {
                            BaseColumn::Scalar(v) => b.fill(v[row]),
                            BaseColumn::Array(v, off) => {
                                for &x in &v[off[row] as usize..off[row + 1] as usize] {
                                    b.fill(x);
                                }
                            }
                        },
                        ColumnId::Defined(i) => match defined[i].as_ref().expect("defined") {
                            ColValue::F64(x) => b.fill(*x),
                            ColValue::Arr(xs) => {
                                for &x in xs {
                                    b.fill(x);
                                }
                            }
                        },
                    }
                }
            }
        }
        // Freeing the decoded base columns is per-group work; charge it
        // to the aggregate span rather than the gap between spans.
        drop(defined);
        drop(sf_chunks);
        drop(base);
        agg_span.finish();
        Ok(partial)
    };

    let out = exec_par::for_each_group_ordered(
        table.row_groups(),
        options.n_threads,
        &skip,
        cancel,
        obs::Stage::Aggregate,
        |_| (),
        |_, g, group| process_group(g, group),
    )?;
    let mut histograms = fresh();
    for partial in &out.partials {
        for (dst, src) in histograms.iter_mut().zip(partial) {
            dst.merge(src);
        }
    }
    loop_span.finish();
    Ok(RunOutput {
        histograms,
        stats: ExecStats {
            wall_seconds: start.elapsed().as_secs_f64(),
            cpu_seconds: out.cpu_seconds,
            threads_used: out.threads_used,
            row_groups_skipped: scan.groups_pruned,
            scan,
            recovery: Default::default(),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use exec_par::ExecOptions;
    use hep_model::{generator::build_dataset, DatasetSpec};
    use physics::HistSpec;

    fn test_table() -> (Vec<hep_model::Event>, Arc<Table>) {
        let (events, table) = build_dataset(DatasetSpec {
            n_events: 1_000,
            row_group_size: 128,
            seed: 11,
        });
        (events, Arc::new(table))
    }

    #[test]
    fn resolve_names() {
        let (_, t) = test_table();
        assert_eq!(resolve_column(&t, "event").unwrap().to_string(), "event");
        assert_eq!(resolve_column(&t, "MET_pt").unwrap().to_string(), "MET.pt");
        assert_eq!(
            resolve_column(&t, "Muon_pfRelIso03_all")
                .unwrap()
                .to_string(),
            "Muon.pfRelIso03_all"
        );
        assert!(resolve_column(&t, "Jets_pt").is_err());
        assert!(resolve_column(&t, "Jet_ptt").is_err());
    }

    #[test]
    fn scalar_histogram_matches_reference() {
        let (events, t) = test_table();
        let df = RDataFrame::new(t, ExecOptions::default());
        let out = df
            .histo1d(HistSpec::new(100, 0.0, 200.0), "MET_pt")
            .run()
            .unwrap();
        let mut expect = Histogram::new(HistSpec::new(100, 0.0, 200.0));
        for e in &events {
            expect.fill(e.met.pt);
        }
        assert!(out.histogram.counts_equal(&expect));
        assert!(out.stats.scan.bytes_scanned > 0);
    }

    #[test]
    fn array_histogram_fills_all_elements() {
        let (events, t) = test_table();
        let df = RDataFrame::new(t, ExecOptions::default());
        let out = df
            .histo1d(HistSpec::new(100, 15.0, 60.0), "Jet_pt")
            .run()
            .unwrap();
        let total: u64 = events.iter().map(|e| e.jets.len() as u64).sum();
        assert_eq!(out.histogram.total(), total);
    }

    #[test]
    fn filter_and_define_chain() {
        let (events, t) = test_table();
        let df = RDataFrame::new(t, ExecOptions::default())
            .filter(&["Muon_pt"], |v| v.arr(0).len() >= 2)
            .define("lead_mu_pt", &["Muon_pt"], |v| {
                crate::view::ColValue::F64(v.arr(0)[0])
            });
        let out = df
            .histo1d(HistSpec::new(50, 0.0, 100.0), "lead_mu_pt")
            .run()
            .unwrap();
        let expect_n = events.iter().filter(|e| e.muons.len() >= 2).count() as u64;
        assert_eq!(out.histogram.total(), expect_n);
    }

    #[test]
    fn scalar_filter_matches_closure_filter() {
        use nf2_columnar::{SelCmp, SelValue};
        let (events, t) = test_table();
        let spec = HistSpec::new(100, 0.0, 200.0);
        let expect = {
            let mut h = Histogram::new(spec);
            for e in events
                .iter()
                .filter(|e| e.met.pt > 25.0 && e.met.sumet >= 300.0)
            {
                h.fill(e.met.pt);
            }
            h
        };
        // Vectorized on and off, serial and parallel — all bit-identical
        // to the opaque-closure formulation.
        let mut stats = Vec::new();
        for vectorized_filter in [true, false] {
            for n_threads in [1, 4] {
                let df = RDataFrame::new(
                    t.clone(),
                    ExecOptions {
                        n_threads,
                        vectorized_filter,
                        ..ExecOptions::default()
                    },
                )
                .filter_scalar("MET_pt", SelCmp::Gt, SelValue::Float(25.0))
                .filter_scalar("MET_sumet", SelCmp::Ge, SelValue::Int(300));
                let out = df.histo1d(spec, "MET_pt").run().unwrap();
                assert!(
                    out.histogram.counts_equal(&expect),
                    "vf={vectorized_filter} t={n_threads}"
                );
                stats.push(out.stats.scan);
            }
        }
        // Filtering must not perturb scan accounting.
        for s in &stats[1..] {
            assert_eq!(s.bytes_scanned, stats[0].bytes_scanned);
            assert_eq!(s.logical_bytes, stats[0].logical_bytes);
        }
    }

    #[test]
    fn zone_map_pruning_skips_groups_and_preserves_bins() {
        use nf2_columnar::{SelCmp, SelValue};
        // Event ids are monotone across row groups (1000 events, groups
        // of 128): `event < 200` keeps the first two of eight groups.
        let (events, t) = test_table();
        let spec = HistSpec::new(100, 0.0, 200.0);
        let expect = {
            let mut h = Histogram::new(spec);
            for e in events.iter().filter(|e| e.event < 200) {
                h.fill(e.met.pt);
            }
            h
        };
        let mk = |zone_map_pruning, n_threads, compile| {
            RDataFrame::new(
                t.clone(),
                ExecOptions {
                    n_threads,
                    compile,
                    zone_map_pruning,
                    ..ExecOptions::default()
                },
            )
            .filter_scalar("event", SelCmp::Lt, SelValue::Int(200))
            .histo1d(spec, "MET_pt")
            .run()
            .unwrap()
        };
        let off = mk(false, 1, true);
        assert!(off.histogram.counts_equal(&expect));
        assert_eq!(off.stats.row_groups_skipped, 0);
        for n_threads in [1, 4] {
            for compile in [true, false] {
                let on = mk(true, n_threads, compile);
                assert!(
                    on.histogram.counts_equal(&expect),
                    "t={n_threads} compile={compile}"
                );
                assert_eq!(on.stats.row_groups_skipped, 6);
                assert_eq!(
                    on.stats.scan.bytes_scanned + on.stats.scan.bytes_pruned,
                    off.stats.scan.bytes_scanned,
                    "pruned + scanned bytes must equal the unpruned scan"
                );
            }
        }
    }

    #[test]
    fn scalar_filter_composes_with_defines_and_closures() {
        use nf2_columnar::{SelCmp, SelValue};
        let (events, t) = test_table();
        let df = RDataFrame::new(t, ExecOptions::default())
            .filter(&["Muon_pt"], |v| !v.arr(0).is_empty())
            .filter_scalar("MET_pt", SelCmp::Lt, SelValue::Float(60.0))
            .define("lead_mu_pt", &["Muon_pt"], |v| {
                crate::view::ColValue::F64(v.arr(0)[0])
            });
        let out = df
            .histo1d(HistSpec::new(50, 0.0, 100.0), "lead_mu_pt")
            .run()
            .unwrap();
        let expect = events
            .iter()
            .filter(|e| !e.muons.is_empty() && e.met.pt < 60.0)
            .count() as u64;
        assert_eq!(out.histogram.total(), expect);
    }

    #[test]
    fn scalar_filter_rejects_non_scalar_columns() {
        use nf2_columnar::{SelCmp, SelValue};
        let (_, t) = test_table();
        let out = RDataFrame::new(t, ExecOptions::default())
            .filter_scalar("Jet_pt", SelCmp::Gt, SelValue::Float(10.0))
            .histo1d(HistSpec::new(10, 0.0, 1.0), "MET_pt")
            .run();
        assert!(matches!(out, Err(RdfError::NotScalar(_))));
    }

    #[test]
    fn unknown_column_is_a_typed_error() {
        let (_, t) = test_table();
        let out = RDataFrame::new(t, ExecOptions::default())
            .histo1d(HistSpec::new(10, 0.0, 1.0), "Nope_pt")
            .run();
        assert!(matches!(out, Err(RdfError::UnknownColumn(c)) if c == "Nope_pt"));
    }

    #[test]
    fn multiple_bookings_one_pass() {
        let (events, t) = test_table();
        let df = RDataFrame::new(t, ExecOptions::default())
            .also_histo1d(HistSpec::new(100, 0.0, 200.0), "MET_pt")
            .also_histo1d(HistSpec::new(100, 0.0, 2000.0), "MET_sumet");
        let out = df.run_all().unwrap();
        assert_eq!(out.histograms.len(), 2);
        assert_eq!(out.histograms[0].total(), events.len() as u64);
        assert_eq!(out.histograms[1].total(), events.len() as u64);
    }

    #[test]
    fn thread_counts_agree() {
        let (_, t) = test_table();
        let run_with = |n| {
            RDataFrame::new(
                t.clone(),
                ExecOptions {
                    n_threads: n,
                    compile: false,
                    ..ExecOptions::default()
                },
            )
            .histo1d(HistSpec::new(100, 15.0, 60.0), "Jet_pt")
            .run()
            .unwrap()
            .histogram
        };
        // Full equality — bins and the f64 moments: partials are merged
        // in row-group order, never in completion order.
        let h1 = run_with(1);
        assert_eq!(h1, run_with(4));
        assert_eq!(h1, run_with(16));
    }
}
