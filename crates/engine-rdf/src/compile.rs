//! Lowering fully-declarative dataframe graphs to the shared physical IR.
//!
//! A graph qualifies when the engine can see *all* of its structure:
//! it has no [`Node`](crate::dataframe::Node) (closure `define`/`filter` nodes are opaque; its
//! cuts are declarative `filter_scalar`s), there is exactly one booking,
//! and the booking
//! targets a base column of the table. Anything else returns `None` and
//! runs on the interpreter — fallback is always sound because the IR is
//! only used when it provably computes the same fills.

use nf2_columnar::ScalarPredicate;
use physical_ir::{ComputeNode, FilterNode, PhysPlan};

use crate::dataframe::RDataFrame;
use crate::exec::resolve_column;

/// Lowers a dataframe graph to a physical plan, or `None` when any part
/// of it is opaque to the engine. `scalar_preds` are the run's already
/// resolved declarative cuts.
pub(crate) fn lower(df: &RDataFrame, scalar_preds: &[ScalarPredicate]) -> Option<PhysPlan> {
    if df.bookings.len() != 1 {
        return None;
    }
    if !df.nodes.is_empty() {
        return None;
    }
    let booking = &df.bookings[0];
    let leaf = resolve_column(&df.table, &booking.column).ok()?;
    let repeated = df.table.schema().leaf(&leaf)?.repeated;
    let compute = if repeated {
        ComputeNode::ListFill { leaf, elem: None }
    } else {
        ComputeNode::ScalarFill { leaf }
    };
    Some(PhysPlan {
        filters: scalar_preds
            .iter()
            .map(|p| FilterNode::Scalar(p.clone()))
            .collect(),
        compute,
        spec: booking.spec,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::ColValue;
    use exec_par::ExecOptions;
    use hep_model::{generator::build_dataset, DatasetSpec};
    use nf2_columnar::{SelCmp, SelValue};
    use physics::HistSpec;
    use std::sync::Arc;

    fn table() -> Arc<nf2_columnar::Table> {
        Arc::new(
            build_dataset(DatasetSpec {
                n_events: 200,
                row_group_size: 64,
                seed: 7,
            })
            .1,
        )
    }

    fn preds(df: &RDataFrame) -> Vec<ScalarPredicate> {
        df.scalar_filters
            .iter()
            .map(|(name, cmp, value)| ScalarPredicate {
                leaf: resolve_column(&df.table, name).unwrap(),
                cmp: *cmp,
                value: *value,
            })
            .collect()
    }

    #[test]
    fn declarative_graphs_lower() {
        let df = RDataFrame::new(table(), ExecOptions::default())
            .filter_scalar("MET_pt", SelCmp::Gt, SelValue::Float(25.0))
            .histo1d(HistSpec::new(100, 0.0, 200.0), "MET_pt")
            .df;
        let plan = lower(&df, &preds(&df)).expect("declarative graph must lower");
        assert_eq!(plan.filters.len(), 1);
        assert!(matches!(plan.compute, ComputeNode::ScalarFill { .. }));
        // Repeated booking column → per-element fill.
        let df = RDataFrame::new(table(), ExecOptions::default())
            .histo1d(HistSpec::new(100, 15.0, 60.0), "Jet_pt")
            .df;
        let plan = lower(&df, &[]).unwrap();
        assert!(matches!(
            plan.compute,
            ComputeNode::ListFill { elem: None, .. }
        ));
    }

    #[test]
    fn opaque_nodes_fall_back() {
        let closure = RDataFrame::new(table(), ExecOptions::default())
            .filter(&["MET_pt"], |v| v.f64(0) > 25.0)
            .histo1d(HistSpec::new(100, 0.0, 200.0), "MET_pt")
            .df;
        assert!(lower(&closure, &[]).is_none());
        let defined = RDataFrame::new(table(), ExecOptions::default())
            .define("x", &["MET_pt"], |v| ColValue::F64(v.f64(0)))
            .histo1d(HistSpec::new(100, 0.0, 200.0), "x")
            .df;
        assert!(lower(&defined, &[]).is_none());
    }

    #[test]
    fn multi_booking_falls_back() {
        let multi = RDataFrame::new(table(), ExecOptions::default())
            .also_histo1d(HistSpec::new(100, 0.0, 200.0), "MET_pt")
            .also_histo1d(HistSpec::new(100, 0.0, 2000.0), "MET_sumet");
        assert!(lower(&multi, &[]).is_none());
    }
}
