//! Zone maps: per-chunk min/max statistics and row-group pruning.
//!
//! Every [`ColumnChunk`](crate::column::ColumnChunk) is sealed with a
//! [`ZoneMap`] — min/max plus entry/null counts, Parquet's
//! `Statistics` in miniature. A scan with filterable scalar predicates
//! (the same [`ScalarPredicate`]s the vectorized filter kernel executes)
//! can then prove a whole row group empty *before decoding it*: if any
//! predicate cannot match anywhere in `[min, max]`, the group is skipped
//! and its compressed bytes are billed as `bytes_pruned` instead of
//! `bytes_scanned`.
//!
//! Soundness contract: [`ZoneMap::may_match`] must return `true` whenever
//! [`apply_predicates`](crate::select::apply_predicates) could select any
//! entry of the chunk. The kernel's total
//! order sorts NaN greatest and treats `-0.0 == 0.0`, so:
//!
//! * integer-literal vs integer-column predicates compare in the exact
//!   `i64` domain (`int_min`/`int_max`), mirroring the kernel's exact
//!   integer path;
//! * everything else compares in `f64` over the NaN-free `min`/`max`,
//!   with `has_nan` forcing the conservative answer for the comparisons
//!   a NaN entry would satisfy (`>`, `>=`, `!=`);
//! * boolean chunks carry no min/max and never prune — the filter kernel
//!   rejects boolean predicates with an error, and pruning the group
//!   would mask that error.
//!
//! Repeated leaves are likewise never pruned here: zone maps summarize
//! flat entries, while predicate semantics over lists are per-element and
//! engine-specific. [`skip_mask`] treats them conservatively.

use crate::column::ColumnData;
use crate::rowgroup::RowGroup;
use crate::select::{ScalarPredicate, SelCmp, SelValue};
use crate::table::Table;

/// Min/max + count statistics for one column chunk.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ZoneMap {
    /// Minimum over non-NaN entries, widened to `f64`. `None` for boolean
    /// chunks (not comparable) and for empty or all-NaN chunks.
    pub min: Option<f64>,
    /// Maximum over non-NaN entries, widened to `f64`.
    pub max: Option<f64>,
    /// Exact integer minimum (integer chunks only; the `f64` widening of
    /// an `i64` is lossy above 2^53, the integer bounds are not).
    pub int_min: Option<i64>,
    /// Exact integer maximum (integer chunks only).
    pub int_max: Option<i64>,
    /// True if any entry is NaN (float chunks only). NaN sorts greatest
    /// in the filter kernel, so it satisfies `>`, `>=`, and `!=` against
    /// every finite literal.
    pub has_nan: bool,
    /// Number of leaf entries (not rows).
    pub n_entries: u64,
    /// Number of null entries. The event model is dense (no nulls), so
    /// this is always 0 today; it is part of the statistics contract so
    /// the pricing/pruning layer does not change shape when optional
    /// fields arrive.
    pub n_nulls: u64,
}

impl ZoneMap {
    /// Computes the zone map of a value buffer.
    pub fn build(data: &ColumnData) -> ZoneMap {
        let mut zm = ZoneMap {
            n_entries: data.len() as u64,
            ..ZoneMap::default()
        };
        match data {
            // Booleans are not comparable in the filter kernel: no bounds.
            ColumnData::Bool(_) => {}
            ColumnData::I32(v) => zm.set_int_bounds(v.iter().map(|&x| x as i64)),
            ColumnData::I64(v) => zm.set_int_bounds(v.iter().copied()),
            ColumnData::F32(v) => zm.set_float_bounds(v.iter().map(|&x| x as f64)),
            ColumnData::F64(v) => zm.set_float_bounds(v.iter().copied()),
        }
        zm
    }

    fn set_int_bounds(&mut self, xs: impl Iterator<Item = i64>) {
        for x in xs {
            self.int_min = Some(self.int_min.map_or(x, |m| m.min(x)));
            self.int_max = Some(self.int_max.map_or(x, |m| m.max(x)));
        }
        // `as f64` is monotone over i64, so the widened bounds are valid
        // (if rounded) f64 bounds for mixed int-column/float-literal
        // comparisons.
        self.min = self.int_min.map(|x| x as f64);
        self.max = self.int_max.map(|x| x as f64);
    }

    fn set_float_bounds(&mut self, xs: impl Iterator<Item = f64>) {
        for x in xs {
            if x.is_nan() {
                self.has_nan = true;
                continue;
            }
            self.min = Some(self.min.map_or(x, |m: f64| m.min(x)));
            self.max = Some(self.max.map_or(x, |m: f64| m.max(x)));
        }
    }

    /// Could `entry cmp value` hold for *some* entry summarized by this
    /// zone map? `false` proves the predicate matches nothing here, so the
    /// group can be skipped; `true` is always safe.
    pub fn may_match(&self, cmp: SelCmp, value: SelValue) -> bool {
        if self.n_entries == 0 {
            // Vacuous: no entry can match. (Flat leaves of a non-empty
            // group always have entries; this arm covers empty groups.)
            return false;
        }
        // Exact integer path, mirroring the kernel's i64 comparison for
        // integer literals against integer columns.
        if let (SelValue::Int(y), Some(lo), Some(hi)) = (value, self.int_min, self.int_max) {
            return match cmp {
                SelCmp::Lt => lo < y,
                SelCmp::Le => lo <= y,
                SelCmp::Gt => hi > y,
                SelCmp::Ge => hi >= y,
                SelCmp::Eq => lo <= y && y <= hi,
                SelCmp::Ne => lo != hi || lo != y,
            };
        }
        let y = value.as_f64();
        if y.is_nan() {
            // The kernel sorts NaN greatest: `x < NaN` holds for every
            // non-NaN x, `x == NaN` only for NaN x, `x > NaN` never.
            return match cmp {
                SelCmp::Lt | SelCmp::Le => self.min.is_some(),
                SelCmp::Gt => false,
                SelCmp::Ge | SelCmp::Eq => self.has_nan,
                SelCmp::Ne => self.min.is_some(),
            };
        }
        let (Some(lo), Some(hi)) = (self.min, self.max) else {
            // No numeric bounds: a boolean chunk (kernel errors on these;
            // keep the group so the error surfaces) or an all-NaN chunk.
            // `has_nan` answers the all-NaN case exactly; booleans stay
            // conservative.
            return match (self.has_nan, cmp) {
                (true, SelCmp::Lt | SelCmp::Le) => false,
                (true, SelCmp::Gt | SelCmp::Ge | SelCmp::Ne) => true,
                (true, SelCmp::Eq) => false,
                (false, _) => true,
            };
        };
        // NaN entries satisfy >, >=, != against any non-NaN literal.
        match cmp {
            SelCmp::Lt => lo < y,
            SelCmp::Le => lo <= y,
            SelCmp::Gt => self.has_nan || hi > y,
            SelCmp::Ge => self.has_nan || hi >= y,
            SelCmp::Eq => lo <= y && y <= hi,
            SelCmp::Ne => self.has_nan || lo != hi || lo != y,
        }
    }
}

/// Could any row of `group` satisfy *all* predicates? Unknown leaves,
/// repeated leaves, and boolean chunks are conservative (the filter kernel
/// reports those as errors; pruning must not pre-empt them).
pub fn group_may_match(group: &RowGroup, predicates: &[ScalarPredicate]) -> bool {
    predicates.iter().all(|p| match group.column(&p.leaf) {
        Ok(chunk) if chunk.offsets.is_none() => chunk.zone.may_match(p.cmp, p.value),
        _ => true,
    })
}

/// Builds a skip mask over the table's row groups for a conjunction of
/// scalar predicates: `mask[g]` is `true` when group `g` provably matches
/// no rows and can be skipped without decoding. An empty predicate list
/// skips nothing.
pub fn skip_mask(table: &Table, predicates: &[ScalarPredicate]) -> Vec<bool> {
    if predicates.is_empty() {
        return vec![false; table.row_groups().len()];
    }
    table
        .row_groups()
        .iter()
        .map(|g| !group_may_match(g, predicates))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::PhysicalType;

    fn zm(data: ColumnData) -> ZoneMap {
        ZoneMap::build(&data)
    }

    #[test]
    fn int_bounds_are_exact() {
        let z = zm(ColumnData::I64(vec![3, -7, 11]));
        assert_eq!(z.int_min, Some(-7));
        assert_eq!(z.int_max, Some(11));
        assert_eq!(z.min, Some(-7.0));
        assert_eq!(z.max, Some(11.0));
        assert_eq!(z.n_entries, 3);
        assert_eq!(z.n_nulls, 0);

        assert!(z.may_match(SelCmp::Lt, SelValue::Int(-6)));
        assert!(!z.may_match(SelCmp::Lt, SelValue::Int(-7)));
        assert!(z.may_match(SelCmp::Le, SelValue::Int(-7)));
        assert!(!z.may_match(SelCmp::Le, SelValue::Int(-8)));
        assert!(z.may_match(SelCmp::Gt, SelValue::Int(10)));
        assert!(!z.may_match(SelCmp::Gt, SelValue::Int(11)));
        assert!(z.may_match(SelCmp::Ge, SelValue::Int(11)));
        assert!(!z.may_match(SelCmp::Ge, SelValue::Int(12)));
        assert!(z.may_match(SelCmp::Eq, SelValue::Int(0)));
        assert!(!z.may_match(SelCmp::Eq, SelValue::Int(12)));
        assert!(z.may_match(SelCmp::Ne, SelValue::Int(3)));
    }

    #[test]
    fn ne_on_constant_chunk_prunes() {
        let z = zm(ColumnData::I32(vec![5, 5, 5]));
        assert!(!z.may_match(SelCmp::Ne, SelValue::Int(5)));
        assert!(z.may_match(SelCmp::Ne, SelValue::Int(6)));
        // Mixed-domain literal still prunes via the float path.
        assert!(!z.may_match(SelCmp::Ne, SelValue::Float(5.0)));
        assert!(z.may_match(SelCmp::Ne, SelValue::Float(5.5)));
    }

    #[test]
    fn i64_bounds_above_2_53_stay_exact() {
        // 2^53 + 1 is not representable as f64; the exact path must not
        // round it away.
        let big = (1i64 << 53) + 1;
        let z = zm(ColumnData::I64(vec![big]));
        assert!(z.may_match(SelCmp::Eq, SelValue::Int(big)));
        assert!(!z.may_match(SelCmp::Eq, SelValue::Int(big + 1)));
        assert!(!z.may_match(SelCmp::Gt, SelValue::Int(big)));
        assert!(z.may_match(SelCmp::Gt, SelValue::Int(big - 1)));
    }

    #[test]
    fn float_bounds_skip_nan_but_stay_conservative() {
        let z = zm(ColumnData::F64(vec![1.0, f64::NAN, 3.0]));
        assert_eq!(z.min, Some(1.0));
        assert_eq!(z.max, Some(3.0));
        assert!(z.has_nan);
        // NaN sorts greatest: it satisfies >, >=, != against any finite y.
        assert!(z.may_match(SelCmp::Gt, SelValue::Float(100.0)));
        assert!(z.may_match(SelCmp::Ge, SelValue::Float(100.0)));
        assert!(z.may_match(SelCmp::Ne, SelValue::Float(100.0)));
        // ...but not <, <=, ==.
        assert!(!z.may_match(SelCmp::Lt, SelValue::Float(1.0)));
        assert!(!z.may_match(SelCmp::Eq, SelValue::Float(100.0)));
    }

    #[test]
    fn nan_literal_uses_kernel_total_order() {
        let clean = zm(ColumnData::F64(vec![1.0, 2.0]));
        let y = SelValue::Float(f64::NAN);
        // Every non-NaN entry is < NaN under the kernel's total order.
        assert!(clean.may_match(SelCmp::Lt, y));
        assert!(clean.may_match(SelCmp::Ne, y));
        assert!(!clean.may_match(SelCmp::Gt, y));
        assert!(!clean.may_match(SelCmp::Eq, y));
        let dirty = zm(ColumnData::F64(vec![1.0, f64::NAN]));
        assert!(dirty.may_match(SelCmp::Eq, y));
        assert!(dirty.may_match(SelCmp::Ge, y));
    }

    #[test]
    fn all_nan_chunk() {
        let z = zm(ColumnData::F64(vec![f64::NAN, f64::NAN]));
        assert_eq!(z.min, None);
        assert!(z.has_nan);
        assert!(!z.may_match(SelCmp::Lt, SelValue::Float(1e300)));
        assert!(!z.may_match(SelCmp::Eq, SelValue::Float(0.0)));
        assert!(z.may_match(SelCmp::Gt, SelValue::Float(1e300)));
        assert!(z.may_match(SelCmp::Ne, SelValue::Float(0.0)));
        assert!(z.may_match(SelCmp::Eq, SelValue::Float(f64::NAN)));
    }

    #[test]
    fn bool_chunks_never_prune() {
        // The filter kernel errors on boolean predicates; pruning would
        // mask the error, so every comparison stays conservative.
        let z = zm(ColumnData::Bool(vec![true, false]));
        assert_eq!(z.min, None);
        for cmp in [
            SelCmp::Lt,
            SelCmp::Le,
            SelCmp::Gt,
            SelCmp::Ge,
            SelCmp::Eq,
            SelCmp::Ne,
        ] {
            assert!(z.may_match(cmp, SelValue::Float(0.5)), "{cmp:?}");
            assert!(z.may_match(cmp, SelValue::Int(7)), "{cmp:?}");
        }
    }

    #[test]
    fn empty_chunk_matches_nothing() {
        let z = zm(ColumnData::empty(PhysicalType::Float64));
        assert!(!z.may_match(SelCmp::Ne, SelValue::Float(1.0)));
        assert!(!z.may_match(SelCmp::Lt, SelValue::Float(f64::NAN)));
    }

    #[test]
    fn minus_zero_equals_zero() {
        // The kernel's total order compares -0.0 == 0.0 (partial_cmp), so
        // a [-0.0, -0.0] chunk must admit `== 0.0`.
        let z = zm(ColumnData::F64(vec![-0.0]));
        assert!(z.may_match(SelCmp::Eq, SelValue::Float(0.0)));
        assert!(z.may_match(SelCmp::Le, SelValue::Float(0.0)));
        assert!(z.may_match(SelCmp::Ge, SelValue::Float(0.0)));
        assert!(!z.may_match(SelCmp::Ne, SelValue::Float(0.0)));
    }
}
