//! Vectorized selection: typed predicate kernels over decoded column chunks.
//!
//! A [`SelectionVector`] holds the row indices of a [`RowGroup`] that
//! survive a conjunction of scalar predicates. Predicates are evaluated
//! directly over the typed `&[f64]` / `&[f32]` / `&[i32]` / `&[i64]` chunk
//! buffers — no [`nested_value::Value`] is constructed — so engines can
//! filter *before* materializing rows (late materialization).
//!
//! # Semantics
//!
//! The kernels replicate `nested_value::ops::compare` exactly, including its
//! quirks, so that pre-filtering a row group is indistinguishable from
//! materializing every row and evaluating the predicate on `Value`s:
//!
//! * an [`Int`](SelValue::Int) literal against an integer column compares in
//!   the integer domain (`i64::cmp`);
//! * every other numeric pairing compares as `f64`, with the column value
//!   widened first — for `i64` columns beyond ±2⁵³ this widening rounds, and
//!   the kernel reproduces that rounding because the engines' `Value` path
//!   does the same;
//! * NaN compares greater than every number (total order).
//!
//! Only non-repeated numeric leaves are eligible: repeated leaves have no
//! per-row scalar, and `Bool` comparisons are rejected by the engines'
//! comparison semantics in ways a pre-filter must not paper over.

use std::cmp::Ordering;

use nested_value::Path;

use crate::column::ColumnData;
use crate::error::ColumnarError;
use crate::rowgroup::RowGroup;

/// Comparison operator of a scalar predicate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SelCmp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `=`
    Eq,
    /// `!=`
    Ne,
}

impl SelCmp {
    /// Whether an ordering outcome satisfies the operator.
    #[inline]
    pub fn accepts(self, ord: Ordering) -> bool {
        match self {
            SelCmp::Lt => ord == Ordering::Less,
            SelCmp::Le => ord != Ordering::Greater,
            SelCmp::Gt => ord == Ordering::Greater,
            SelCmp::Ge => ord != Ordering::Less,
            SelCmp::Eq => ord == Ordering::Equal,
            SelCmp::Ne => ord != Ordering::Equal,
        }
    }
}

/// A literal compared against, keeping its source type because integer and
/// float literals have different comparison semantics against integer
/// columns (see module docs).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SelValue {
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
}

impl SelValue {
    /// The literal widened to `f64` (the coercion float columns see).
    #[inline]
    pub fn as_f64(self) -> f64 {
        match self {
            SelValue::Int(i) => i as f64,
            SelValue::Float(f) => f,
        }
    }
}

/// One conjunct of a vectorizable row filter: `leaf cmp value`.
#[derive(Clone, Debug, PartialEq)]
pub struct ScalarPredicate {
    /// Non-repeated numeric leaf being tested.
    pub leaf: Path,
    /// Comparison operator.
    pub cmp: SelCmp,
    /// Literal right-hand side.
    pub value: SelValue,
}

/// Row indices of one row group surviving a filter, in increasing order.
#[derive(Clone, Debug, PartialEq)]
pub struct SelectionVector {
    n_rows: usize,
    rows: Vec<u32>,
}

impl SelectionVector {
    /// Selection passing every row of a group with `n_rows` rows.
    pub fn full(n_rows: usize) -> SelectionVector {
        SelectionVector {
            n_rows,
            rows: (0..n_rows as u32).collect(),
        }
    }

    /// Selection from an explicit (increasing) row list.
    pub fn from_rows(n_rows: usize, rows: Vec<u32>) -> SelectionVector {
        debug_assert!(rows.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(rows.last().is_none_or(|&r| (r as usize) < n_rows));
        SelectionVector { n_rows, rows }
    }

    /// Row count of the underlying group.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of surviving rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if nothing survived.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// True if every row survived.
    pub fn is_full(&self) -> bool {
        self.rows.len() == self.n_rows
    }

    /// The surviving row indices.
    pub fn rows(&self) -> &[u32] {
        &self.rows
    }
}

/// Replica of `nested_value::ops`' total order: NaN greatest.
#[inline]
fn total_cmp(x: f64, y: f64) -> Ordering {
    match (x.is_nan(), y.is_nan()) {
        (true, true) => Ordering::Equal,
        (true, false) => Ordering::Greater,
        (false, true) => Ordering::Less,
        (false, false) => x.partial_cmp(&y).expect("non-NaN"),
    }
}

/// Evaluates a conjunction of scalar predicates over a row group and
/// returns the surviving rows. With an empty predicate list every row
/// survives. Errors on repeated or boolean leaves (the caller's planner is
/// expected to have screened those out).
pub fn apply_predicates(
    group: &RowGroup,
    preds: &[ScalarPredicate],
) -> Result<SelectionVector, ColumnarError> {
    let n_rows = group.n_rows();
    let mut survivors: Option<Vec<u32>> = None;
    for pred in preds {
        let chunk = group.column(&pred.leaf)?;
        if chunk.offsets.is_some() {
            return Err(ColumnarError::SchemaMismatch(format!(
                "vectorized predicate on repeated leaf {}",
                pred.leaf
            )));
        }
        let prev = survivors.as_deref();
        let next = match (&chunk.data, pred.value) {
            (ColumnData::F64(xs), v) => {
                let y = v.as_f64();
                filter_rows(xs, prev, n_rows, |x| pred.cmp.accepts(total_cmp(x, y)))
            }
            (ColumnData::F32(xs), v) => {
                let y = v.as_f64();
                filter_rows(xs, prev, n_rows, |x| {
                    pred.cmp.accepts(total_cmp(x as f64, y))
                })
            }
            (ColumnData::I32(xs), SelValue::Int(i)) => {
                filter_rows(xs, prev, n_rows, |x| pred.cmp.accepts((x as i64).cmp(&i)))
            }
            (ColumnData::I32(xs), SelValue::Float(y)) => filter_rows(xs, prev, n_rows, |x| {
                pred.cmp.accepts(total_cmp(x as f64, y))
            }),
            (ColumnData::I64(xs), SelValue::Int(i)) => {
                filter_rows(xs, prev, n_rows, |x| pred.cmp.accepts(x.cmp(&i)))
            }
            (ColumnData::I64(xs), SelValue::Float(y)) => filter_rows(xs, prev, n_rows, |x| {
                pred.cmp.accepts(total_cmp(x as f64, y))
            }),
            (ColumnData::Bool(_), _) => {
                return Err(ColumnarError::SchemaMismatch(format!(
                    "vectorized predicate on boolean leaf {}",
                    pred.leaf
                )))
            }
        };
        if next.is_empty() {
            return Ok(SelectionVector {
                n_rows,
                rows: Vec::new(),
            });
        }
        survivors = Some(next);
    }
    Ok(match survivors {
        Some(rows) => SelectionVector { n_rows, rows },
        None => SelectionVector::full(n_rows),
    })
}

/// Monomorphic filter loop: first predicate scans the whole chunk,
/// follow-up predicates only re-test prior survivors.
#[inline]
fn filter_rows<T: Copy>(
    data: &[T],
    prev: Option<&[u32]>,
    n_rows: usize,
    test: impl Fn(T) -> bool,
) -> Vec<u32> {
    debug_assert_eq!(data.len(), n_rows);
    match prev {
        None => (0..n_rows as u32)
            .filter(|&r| test(data[r as usize]))
            .collect(),
        Some(rows) => rows
            .iter()
            .copied()
            .filter(|&r| test(data[r as usize]))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{DataType, Field, Schema};
    use crate::table::TableBuilder;
    use nested_value::Value;

    fn group() -> RowGroup {
        let schema = Schema::new(vec![
            Field::new("id", DataType::i64()),
            Field::new("pt", DataType::f64()),
            Field::new("n", DataType::i32()),
            Field::new("flag", DataType::bool()),
            Field::new(
                "Jet",
                DataType::particle_list(vec![Field::new("pt", DataType::f32())]),
            ),
        ])
        .unwrap();
        let mut b = TableBuilder::new("t", schema, 64);
        for i in 0..8i64 {
            b.append(&Value::struct_from(vec![
                ("id", Value::Int(i)),
                ("pt", Value::Float(i as f64 * 10.0)),
                ("n", Value::Int(i % 3)),
                ("flag", Value::Bool(i % 2 == 0)),
                ("Jet", Value::array(vec![])),
            ]))
            .unwrap();
        }
        b.finish().row_groups()[0].clone()
    }

    fn pred(leaf: &str, cmp: SelCmp, value: SelValue) -> ScalarPredicate {
        ScalarPredicate {
            leaf: Path::parse(leaf),
            cmp,
            value,
        }
    }

    #[test]
    fn empty_conjunction_keeps_all() {
        let sel = apply_predicates(&group(), &[]).unwrap();
        assert!(sel.is_full());
        assert_eq!(sel.len(), 8);
    }

    #[test]
    fn single_float_predicate() {
        let sel =
            apply_predicates(&group(), &[pred("pt", SelCmp::Gt, SelValue::Float(25.0))]).unwrap();
        assert_eq!(sel.rows(), &[3, 4, 5, 6, 7]);
        assert!(!sel.is_full());
    }

    #[test]
    fn conjunction_narrows() {
        let sel = apply_predicates(
            &group(),
            &[
                pred("pt", SelCmp::Ge, SelValue::Float(20.0)),
                pred("n", SelCmp::Eq, SelValue::Int(0)),
            ],
        )
        .unwrap();
        // pt >= 20 keeps rows 2..8; n == 0 keeps ids 0, 3, 6.
        assert_eq!(sel.rows(), &[3, 6]);
    }

    #[test]
    fn int_literal_against_int_column_is_exact() {
        let sel = apply_predicates(&group(), &[pred("id", SelCmp::Le, SelValue::Int(2))]).unwrap();
        assert_eq!(sel.rows(), &[0, 1, 2]);
    }

    #[test]
    fn all_dropped_short_circuits() {
        let sel = apply_predicates(
            &group(),
            &[
                pred("pt", SelCmp::Gt, SelValue::Float(1e9)),
                pred("n", SelCmp::Eq, SelValue::Int(0)),
            ],
        )
        .unwrap();
        assert!(sel.is_empty());
        assert_eq!(sel.n_rows(), 8);
    }

    #[test]
    fn nan_sorts_greatest() {
        // NaN literal: everything compares Less, so `< NaN` keeps all rows
        // and `> NaN` keeps none — exactly ops::compare's total order.
        let g = group();
        let lt =
            apply_predicates(&g, &[pred("pt", SelCmp::Lt, SelValue::Float(f64::NAN))]).unwrap();
        assert!(lt.is_full());
        let gt =
            apply_predicates(&g, &[pred("pt", SelCmp::Gt, SelValue::Float(f64::NAN))]).unwrap();
        assert!(gt.is_empty());
    }

    #[test]
    fn rejects_repeated_and_bool_leaves() {
        let g = group();
        assert!(apply_predicates(&g, &[pred("Jet.pt", SelCmp::Gt, SelValue::Float(0.0))]).is_err());
        assert!(apply_predicates(&g, &[pred("flag", SelCmp::Eq, SelValue::Int(1))]).is_err());
        assert!(apply_predicates(&g, &[pred("nope", SelCmp::Eq, SelValue::Int(1))]).is_err());
    }
}
