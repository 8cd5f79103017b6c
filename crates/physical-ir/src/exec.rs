//! The vectorized executor: runs a [`PhysPlan`] one row group at a time
//! over decoded column chunks and selection vectors.

use nf2_columnar::{
    apply_predicates, ColumnarError, RowGroup, ScalarPredicate, SelectionVector, Table,
};
use obs::{CancelToken, Stage, TraceCtx};

use crate::kernel::TrijetScratch;
use crate::plan::{ComputeNode, FilterNode, PhysPlan};

/// Reusable per-worker execution state for [`execute_group`]: the plan's
/// scalar predicates extracted once, the trijet scratch, and the jet
/// columns of the current row group widened to `f64`. One instance serves
/// any number of row groups of the same plan; parallel executors keep one
/// per worker so morsel execution allocates nothing per group beyond the
/// output bins.
pub struct GroupScratch {
    scalar_preds: Vec<ScalarPredicate>,
    trijet: TrijetScratch,
    /// Jet `pt`, `eta`, `phi`, `mass`, `btag` of the current row group.
    jets: [Vec<f64>; 5],
}

impl GroupScratch {
    /// Scratch for executing `plan`, group at a time.
    pub fn new(plan: &PhysPlan) -> GroupScratch {
        GroupScratch {
            scalar_preds: plan
                .filters
                .iter()
                .filter_map(|f| match f {
                    FilterNode::Scalar(p) => Some(p.clone()),
                    FilterNode::ListCount { .. } => None,
                })
                .collect(),
            trijet: TrijetScratch::new(),
            jets: Default::default(),
        }
    }
}

/// Executes `plan` over one row group — the morsel-granular primitive
/// behind [`execute`] and the parallel executor: filters build the
/// group's selection vector, then the compute node appends one histogram
/// bin index per fill to `bins`, in row order. Cancellation, tracing and
/// skip masks are the caller's concern; `scratch` must come from
/// [`GroupScratch::new`] on the same plan.
pub fn execute_group(
    plan: &PhysPlan,
    group: &RowGroup,
    scratch: &mut GroupScratch,
    bins: &mut Vec<i64>,
) -> Result<(), ColumnarError> {
    let sel = run_filters(plan, &scratch.scalar_preds, group)?;
    compute_group(plan, group, &sel, scratch, bins)
}

/// Executes `plan` over `table`, returning the histogram bin index of
/// every fill in event order.
///
/// `skip` is an optional per-row-group skip mask (from zone-map
/// pruning): `true` means the group is skipped entirely. Scan
/// accounting is the caller's job — this function only decodes and
/// computes. Cancellation is checked once per row group under
/// [`Stage::Aggregate`], preserving the ≤-one-row-group cancellation
/// granularity of the interpreters. When tracing is enabled, the whole
/// compiled run is one `Aggregate` span labeled `compiled` with
/// rows-in/rows-out counters.
pub fn execute(
    plan: &PhysPlan,
    table: &Table,
    skip: Option<&[bool]>,
    trace: &TraceCtx,
    cancel: &CancelToken,
) -> Result<Vec<i64>, ColumnarError> {
    let mut span = trace.span_with(Stage::Aggregate, || "compiled".to_string());
    let mut bins: Vec<i64> = Vec::new();
    let mut rows_done: u64 = 0;
    let mut scratch = GroupScratch::new(plan);

    for (g_idx, group) in table.row_groups().iter().enumerate() {
        if skip.is_some_and(|m| m.get(g_idx).copied().unwrap_or(false)) {
            continue;
        }
        cancel.check(Stage::Aggregate, rows_done)?;
        execute_group(plan, group, &mut scratch, &mut bins)?;
        rows_done += group.n_rows() as u64;
        span.add_rows_in(group.n_rows() as u64);
    }
    span.add_rows_out(bins.len() as u64);
    span.finish();
    Ok(bins)
}

/// Builds the surviving selection of one row group: the typed scalar
/// predicate kernels first, then list-cardinality refinement.
fn run_filters(
    plan: &PhysPlan,
    scalar_preds: &[ScalarPredicate],
    group: &RowGroup,
) -> Result<SelectionVector, ColumnarError> {
    let mut sel = if scalar_preds.is_empty() {
        SelectionVector::full(group.n_rows())
    } else {
        apply_predicates(group, scalar_preds)?
    };
    for f in &plan.filters {
        let FilterNode::ListCount {
            leaf,
            elem,
            cmp,
            count,
        } = f
        else {
            continue;
        };
        let chunk = group.column(leaf)?;
        let elem_chunk = match elem {
            Some(e) if &e.leaf != leaf => Some(group.column(&e.leaf)?),
            _ => None,
        };
        let mut kept: Vec<u32> = Vec::with_capacity(sel.len());
        for &row in sel.rows() {
            let range = chunk.row_range(row as usize);
            let n = match elem {
                None => range.len() as i64,
                Some(e) => {
                    let data = &elem_chunk.unwrap_or(chunk).data;
                    range
                        .clone()
                        .filter(|&i| e.matches(data.get_f64(i)))
                        .count() as i64
                }
            };
            let keep = match cmp {
                nf2_columnar::SelCmp::Lt => n < *count,
                nf2_columnar::SelCmp::Le => n <= *count,
                nf2_columnar::SelCmp::Gt => n > *count,
                nf2_columnar::SelCmp::Ge => n >= *count,
                nf2_columnar::SelCmp::Eq => n == *count,
                nf2_columnar::SelCmp::Ne => n != *count,
            };
            if keep {
                kept.push(row);
            }
        }
        sel = SelectionVector::from_rows(group.n_rows(), kept);
    }
    Ok(sel)
}

/// Runs the compute node over one group's selection, appending bin
/// indices in row order.
fn compute_group(
    plan: &PhysPlan,
    group: &RowGroup,
    sel: &SelectionVector,
    scratch: &mut GroupScratch,
    bins: &mut Vec<i64>,
) -> Result<(), ColumnarError> {
    match &plan.compute {
        ComputeNode::ScalarFill { leaf } => {
            let chunk = group.column(leaf)?;
            for &row in sel.rows() {
                bins.push(plan.spec.bin_of(chunk.data.get_f64(row as usize)));
            }
        }
        ComputeNode::ListFill { leaf, elem } => {
            let chunk = group.column(leaf)?;
            let elem_chunk = match elem {
                Some(e) if &e.leaf != leaf => Some(group.column(&e.leaf)?),
                _ => None,
            };
            for &row in sel.rows() {
                for i in chunk.row_range(row as usize) {
                    if let Some(e) = elem {
                        let data = &elem_chunk.unwrap_or(chunk).data;
                        if !e.matches(data.get_f64(i)) {
                            continue;
                        }
                    }
                    bins.push(plan.spec.bin_of(chunk.data.get_f64(i)));
                }
            }
        }
        ComputeNode::Trijet(t) => {
            // Widened once per group: the event loop below slices plain
            // `f64`s instead of dispatching on the column type per jet.
            let pt = group.column(&t.pt)?;
            for (leaf, out) in [&t.pt, &t.eta, &t.phi, &t.mass, &t.btag]
                .into_iter()
                .zip(&mut scratch.jets)
            {
                out.clear();
                group.column(leaf)?.data.extend_f64(out);
            }
            let [jpt, jeta, jphi, jmass, jbtag] = &scratch.jets;
            for &row in sel.rows() {
                let r = pt.row_range(row as usize);
                let trijet = &mut scratch.trijet;
                trijet.load(
                    &jpt[r.clone()],
                    &jeta[r.clone()],
                    &jphi[r.clone()],
                    &jmass[r.clone()],
                );
                if let Some((ptv, btagv)) = trijet.best(&jbtag[r], t.top_mass) {
                    let x = match t.plot {
                        crate::plan::TrijetPlot::Pt => ptv,
                        crate::plan::TrijetPlot::MaxBtag => btagv,
                    };
                    bins.push(plan.spec.bin_of(x));
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{ElemPredicate, TrijetCompute, TrijetPlot};
    use hep_model::generator::build_dataset;
    use hep_model::DatasetSpec;
    use nested_value::Path;
    use nf2_columnar::{SelCmp, SelValue};
    use physics::HistSpec;

    fn dataset() -> (Vec<hep_model::Event>, Table) {
        build_dataset(DatasetSpec {
            n_events: 600,
            row_group_size: 128,
            seed: 0xC0FFEE,
        })
    }

    #[test]
    fn scalar_fill_with_filter_matches_per_event_evaluation() {
        let (events, table) = dataset();
        let spec = HistSpec::new(50, 0.0, 150.0);
        let plan = PhysPlan {
            filters: vec![FilterNode::Scalar(ScalarPredicate {
                leaf: Path::parse("MET.pt"),
                cmp: SelCmp::Gt,
                value: SelValue::Float(20.0),
            })],
            compute: ComputeNode::ScalarFill {
                leaf: Path::parse("MET.pt"),
            },
            spec,
        };
        let bins = execute(
            &plan,
            &table,
            None,
            &TraceCtx::disabled(),
            &CancelToken::none(),
        )
        .unwrap();
        let want: Vec<i64> = events
            .iter()
            .filter(|e| e.met.pt > 20.0)
            .map(|e| spec.bin_of(e.met.pt))
            .collect();
        assert_eq!(bins, want);
    }

    #[test]
    fn list_count_and_list_fill_match_per_event_evaluation() {
        let (events, table) = dataset();
        let spec = HistSpec::new(100, 15.0, 60.0);
        let elem = ElemPredicate {
            leaf: Path::parse("Jet.pt"),
            cmp: SelCmp::Gt,
            value: 30.0,
        };
        let plan = PhysPlan {
            filters: vec![FilterNode::ListCount {
                leaf: Path::parse("Jet.pt"),
                elem: Some(elem.clone()),
                cmp: SelCmp::Ge,
                count: 2,
            }],
            compute: ComputeNode::ListFill {
                leaf: Path::parse("Jet.pt"),
                elem: Some(elem),
            },
            spec,
        };
        let bins = execute(
            &plan,
            &table,
            None,
            &TraceCtx::disabled(),
            &CancelToken::none(),
        )
        .unwrap();
        let want: Vec<i64> = events
            .iter()
            .filter(|e| e.jets.iter().filter(|j| j.pt > 30.0).count() >= 2)
            .flat_map(|e| {
                e.jets
                    .iter()
                    .filter(|j| j.pt > 30.0)
                    .map(|j| spec.bin_of(j.pt))
                    .collect::<Vec<_>>()
            })
            .collect();
        assert_eq!(bins, want);
    }

    #[test]
    fn skip_mask_drops_whole_groups() {
        let (_, table) = dataset();
        let spec = HistSpec::new(10, 0.0, 1000.0);
        let plan = PhysPlan {
            filters: vec![],
            compute: ComputeNode::ScalarFill {
                leaf: Path::parse("MET.pt"),
            },
            spec,
        };
        let n_groups = table.row_groups().len();
        assert!(n_groups >= 2);
        let mut skip = vec![false; n_groups];
        skip[0] = true;
        let bins = execute(
            &plan,
            &table,
            Some(&skip),
            &TraceCtx::disabled(),
            &CancelToken::none(),
        )
        .unwrap();
        assert_eq!(bins.len(), table.n_rows() - table.row_groups()[0].n_rows());
    }

    #[test]
    fn trijet_matches_reference_kernel_shape() {
        // The full bit-identity proof against the golden fixtures lives
        // in the engine test suites; here: event count and determinism.
        let (events, table) = dataset();
        let spec = HistSpec::new(100, 15.0, 40.0);
        let plan = PhysPlan {
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
            spec,
        };
        let bins = execute(
            &plan,
            &table,
            None,
            &TraceCtx::disabled(),
            &CancelToken::none(),
        )
        .unwrap();
        let want = events.iter().filter(|e| e.jets.len() >= 3).count();
        assert_eq!(bins.len(), want);
        let again = execute(
            &plan,
            &table,
            None,
            &TraceCtx::disabled(),
            &CancelToken::none(),
        )
        .unwrap();
        assert_eq!(bins, again);
    }

    #[test]
    fn execute_group_concatenation_matches_execute() {
        let (_, table) = dataset();
        let spec = HistSpec::new(50, 0.0, 150.0);
        let plan = PhysPlan {
            filters: vec![FilterNode::Scalar(ScalarPredicate {
                leaf: Path::parse("MET.pt"),
                cmp: SelCmp::Gt,
                value: SelValue::Float(25.0),
            })],
            compute: ComputeNode::ScalarFill {
                leaf: Path::parse("MET.pt"),
            },
            spec,
        };
        let whole = execute(
            &plan,
            &table,
            None,
            &TraceCtx::disabled(),
            &CancelToken::none(),
        )
        .unwrap();
        let mut scratch = GroupScratch::new(&plan);
        let mut by_group = Vec::new();
        for group in table.row_groups() {
            execute_group(&plan, group, &mut scratch, &mut by_group).unwrap();
        }
        assert_eq!(by_group, whole);
    }

    #[test]
    fn expired_deadline_cancels_within_one_group() {
        let (_, table) = dataset();
        let plan = PhysPlan {
            filters: vec![],
            compute: ComputeNode::ScalarFill {
                leaf: Path::parse("MET.pt"),
            },
            spec: HistSpec::new(10, 0.0, 100.0),
        };
        let cancel = CancelToken::with_deadline(std::time::Instant::now());
        let err = execute(&plan, &table, None, &TraceCtx::disabled(), &cancel).unwrap_err();
        match err {
            ColumnarError::Cancelled(c) => assert_eq!(c.rows_processed, 0),
            other => panic!("expected cancellation, got {other}"),
        }
    }
}
