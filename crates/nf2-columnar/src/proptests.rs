//! Property tests: arbitrary NF² rows round-trip through the columnar
//! representation and the file format, and pushdown accounting is
//! monotone.

use proptest::prelude::*;

use nested_value::Value;

use crate::project::{Projection, PushdownCapability};
use crate::scan::ScanRequest;
use crate::schema::{DataType, Field, Schema};
use crate::select::{apply_predicates, ScalarPredicate, SelCmp, SelValue};
use crate::table::TableBuilder;

fn test_schema() -> Schema {
    Schema::new(vec![
        Field::new("event", DataType::i64()),
        Field::new(
            "MET",
            DataType::Struct(vec![
                Field::new("pt", DataType::f64()),
                Field::new("phi", DataType::f64()),
            ]),
        ),
        Field::new(
            "Jet",
            DataType::particle_list(vec![
                Field::new("pt", DataType::f64()),
                Field::new("tag", DataType::bool()),
                Field::new("q", DataType::i32()),
            ]),
        ),
    ])
    .unwrap()
}

prop_compose! {
    fn arb_jet()(pt in 0.0..500.0f64, tag in any::<bool>(), q in -1i32..=1) -> Value {
        Value::struct_from(vec![
            ("pt", Value::Float(pt)),
            ("tag", Value::Bool(tag)),
            ("q", Value::Int(q as i64)),
        ])
    }
}

prop_compose! {
    fn arb_row()(
        event in 0i64..1_000_000,
        met_pt in 0.0..300.0f64,
        met_phi in -std::f64::consts::PI..std::f64::consts::PI,
        jets in proptest::collection::vec(arb_jet(), 0..12),
    ) -> Value {
        Value::struct_from(vec![
            ("event", Value::Int(event)),
            ("MET", Value::struct_from(vec![
                ("pt", Value::Float(met_pt)),
                ("phi", Value::Float(met_phi)),
            ])),
            ("Jet", Value::array(jets)),
        ])
    }
}

prop_compose! {
    fn arb_pred()(
        leaf_i in 0usize..3,
        cmp_i in 0usize..6,
        use_int in any::<bool>(),
        int_lit in -5i64..1_000_005,
        float_lit in -10.0..310.0f64,
    ) -> ScalarPredicate {
        const LEAVES: [&str; 3] = ["event", "MET.pt", "MET.phi"];
        const CMPS: [SelCmp; 6] = [
            SelCmp::Lt, SelCmp::Le, SelCmp::Gt, SelCmp::Ge, SelCmp::Eq, SelCmp::Ne,
        ];
        ScalarPredicate {
            leaf: nested_value::Path::parse(LEAVES[leaf_i]),
            cmp: CMPS[cmp_i],
            value: if use_int {
                SelValue::Int(int_lit)
            } else {
                SelValue::Float(float_lit)
            },
        }
    }
}

/// The semantics the kernels claim to replicate: materialize the row as a
/// `Value`, walk to the leaf, compare with `nested_value::ops::compare`.
fn naive_matches(row: &Value, pred: &ScalarPredicate) -> bool {
    let mut cur = row;
    for seg in pred.leaf.segments() {
        cur = cur.as_struct().unwrap().get(seg).unwrap();
    }
    let lit = match pred.value {
        SelValue::Int(i) => Value::Int(i),
        SelValue::Float(f) => Value::Float(f),
    };
    pred.cmp
        .accepts(nested_value::ops::compare(cur, &lit).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Vectorized selection over typed chunk buffers is row-for-row
    /// identical to materializing every row and filtering `Value`s, and
    /// late materialization returns exactly the surviving rows in order.
    #[test]
    fn vectorized_selection_matches_naive(
        rows in proptest::collection::vec(arb_row(), 0..40),
        preds in proptest::collection::vec(arb_pred(), 0..4),
        rg in 1usize..9,
    ) {
        let mut b = TableBuilder::new("t", test_schema(), rg);
        b.append_all(&rows).unwrap();
        let t = b.finish();
        let leaves: Vec<_> = t.schema().leaves().iter().collect();
        let mut got = Vec::new();
        for g in t.row_groups() {
            let sel = apply_predicates(g, &preds).unwrap();
            prop_assert_eq!(sel.n_rows(), g.n_rows());
            let all = g.read_rows(t.schema(), &leaves).unwrap();
            let surviving: Vec<u32> = (0..all.len())
                .filter(|&r| preds.iter().all(|p| naive_matches(&all[r], p)))
                .map(|r| r as u32)
                .collect();
            prop_assert_eq!(sel.rows(), &surviving[..]);
            got.extend(g.read_rows_selected(t.schema(), &leaves, &sel).unwrap());
        }
        let expect: Vec<Value> = rows
            .iter()
            .filter(|r| preds.iter().all(|p| naive_matches(r, p)))
            .cloned()
            .collect();
        prop_assert_eq!(got, expect);
    }

    /// rows → columnar → rows is the identity, across row-group boundaries.
    #[test]
    fn columnar_roundtrip(rows in proptest::collection::vec(arb_row(), 0..40), rg in 1usize..7) {
        let mut b = TableBuilder::new("t", test_schema(), rg);
        b.append_all(&rows).unwrap();
        let t = b.finish();
        prop_assert_eq!(t.n_rows(), rows.len());
        let leaves: Vec<_> = t.schema().leaves().iter().collect();
        let got: Vec<Value> = t.row_groups().iter()
            .flat_map(|g| g.read_rows(t.schema(), &leaves).unwrap())
            .collect();
        prop_assert_eq!(got, rows);
    }

    /// rows → columnar → file bytes → columnar → rows is the identity.
    #[test]
    fn file_roundtrip(rows in proptest::collection::vec(arb_row(), 0..20), rg in 1usize..5) {
        let mut b = TableBuilder::new("t", test_schema(), rg);
        b.append_all(&rows).unwrap();
        let t = b.finish();
        let mut buf = Vec::new();
        crate::file::write_table(&t, &mut buf).unwrap();
        let t2 = crate::file::read_table(&mut &buf[..]).unwrap();
        let leaves: Vec<_> = t2.schema().leaves().iter().collect();
        let got: Vec<Value> = t2.row_groups().iter()
            .flat_map(|g| g.read_rows(t2.schema(), &leaves).unwrap())
            .collect();
        prop_assert_eq!(got, rows);
    }

    /// Scan-byte accounting is monotone in pushdown capability.
    #[test]
    fn pushdown_monotone(rows in proptest::collection::vec(arb_row(), 1..30)) {
        let mut b = TableBuilder::new("t", test_schema(), 8);
        b.append_all(&rows).unwrap();
        let t = b.finish();
        let p = Projection::of(["Jet.pt", "MET.pt"]);
        let run = |cap| ScanRequest::new(&t, &p).capability(cap).run().unwrap().stats;
        let fine = run(PushdownCapability::IndividualLeaves);
        let coarse = run(PushdownCapability::WholeStructs);
        let none = run(PushdownCapability::None);
        prop_assert!(fine.bytes_scanned <= coarse.bytes_scanned);
        prop_assert!(coarse.bytes_scanned <= none.bytes_scanned);
        prop_assert!(fine.columns_read <= coarse.columns_read);
        // Ideal accounting does not depend on capability.
        prop_assert_eq!(fine.ideal_compressed_bytes, none.ideal_compressed_bytes);
        prop_assert_eq!(fine.rows, rows.len() as u64);
    }

    /// Zone-map pruning is sound and conservative: a pruned row group
    /// never contains a row the full conjunction would accept (so results
    /// are identical with pruning on and off), and the pruned scan's
    /// bytes decompose exactly into the unpruned scan's
    /// (`bytes_scanned + bytes_pruned` is conserved).
    #[test]
    fn pruning_never_drops_matching_rows(
        rows in proptest::collection::vec(arb_row(), 0..40),
        preds in proptest::collection::vec(arb_pred(), 0..4),
        rg in 1usize..9,
    ) {
        let mut b = TableBuilder::new("t", test_schema(), rg);
        b.append_all(&rows).unwrap();
        let t = b.finish();
        let skip = crate::stats::skip_mask(&t, &preds);
        let leaves: Vec<_> = t.schema().leaves().iter().collect();
        for (g, skipped) in t.row_groups().iter().zip(&skip) {
            if !*skipped {
                continue;
            }
            let all = g.read_rows(t.schema(), &leaves).unwrap();
            for row in &all {
                prop_assert!(
                    !preds.iter().all(|p| naive_matches(row, p)),
                    "pruned group contains a matching row: {row:?} under {preds:?}"
                );
            }
        }
        let p = Projection::of(["event", "MET.pt", "MET.phi"]);
        let off = ScanRequest::new(&t, &p)
            .capability(PushdownCapability::IndividualLeaves)
            .run().unwrap();
        let on = ScanRequest::new(&t, &p)
            .capability(PushdownCapability::IndividualLeaves)
            .prune(&preds)
            .run().unwrap();
        prop_assert_eq!(
            on.stats.bytes_scanned + on.stats.bytes_pruned,
            off.stats.bytes_scanned
        );
        prop_assert_eq!(on.stats.groups_pruned as usize,
                        skip.iter().filter(|&&s| s).count());
    }

    /// `head(n)` preserves row prefix and never exceeds n rows.
    #[test]
    fn head_is_prefix(rows in proptest::collection::vec(arb_row(), 0..25), n in 0usize..30, rg in 1usize..6) {
        let mut b = TableBuilder::new("t", test_schema(), rg);
        b.append_all(&rows).unwrap();
        let t = b.finish();
        let h = t.head(n);
        let expect = n.min(rows.len());
        prop_assert_eq!(h.n_rows(), expect);
        let leaves: Vec<_> = h.schema().leaves().iter().collect();
        let got: Vec<Value> = h.row_groups().iter()
            .flat_map(|g| g.read_rows(h.schema(), &leaves).unwrap())
            .collect();
        prop_assert_eq!(&got[..], &rows[..expect]);
    }
}
