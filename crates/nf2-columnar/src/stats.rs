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
    /// Computes the zone map of a value buffer: the min/max fold that
    /// [`compress::choose`](crate::compress::choose) runs when it seals
    /// a chunk.
    pub fn build(data: &ColumnData) -> ZoneMap {
        match data {
            // Booleans are not comparable in the filter kernel: no bounds.
            ColumnData::Bool(v) => ZoneMap {
                n_entries: v.len() as u64,
                ..ZoneMap::default()
            },
            ColumnData::I32(v) => int_zone(v),
            ColumnData::I64(v) => int_zone(v),
            ColumnData::F32(v) => float_zone(v),
            ColumnData::F64(v) => float_zone(v),
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

/// A float type a chunk holds, as the zone-map fold sees it.
pub(crate) trait Float: Copy + PartialOrd + Into<f64> {
    const INFINITY: Self;
    const NEG_INFINITY: Self;
    fn is_nan(self) -> bool;
}

/// An integer type a chunk holds, as the zone-map fold sees it.
pub(crate) trait Int: Copy + Ord + Into<i64> {
    const MIN: Self;
    const MAX: Self;
}

macro_rules! floats {
    ($($t:ident),*) => {$(
        impl Float for $t {
            const INFINITY: $t = $t::INFINITY;
            const NEG_INFINITY: $t = $t::NEG_INFINITY;
            #[inline]
            fn is_nan(self) -> bool {
                $t::is_nan(self)
            }
        }
    )*};
}
floats!(f32, f64);

macro_rules! ints {
    ($($t:ident),*) => {$(
        impl Int for $t {
            const MIN: $t = $t::MIN;
            const MAX: $t = $t::MAX;
        }
    )*};
}
ints!(i32, i64);

/// Lanes per fold: each keeps its own extrema, in two sets, so that a
/// step over `2 * LANES` entries compiles to vector min/max over whole
/// registers of 32-bit values.
const LANES: usize = 4;

/// The zone map of a float buffer. Each lane folds `x < lo ? x : lo`
/// (and the same for `hi`), which passes NaN over.
pub(crate) fn float_zone<F: Float>(v: &[F]) -> ZoneMap {
    let mut lo = [[F::INFINITY; LANES]; 2];
    let mut hi = [[F::NEG_INFINITY; LANES]; 2];
    let mut nan = [0u32; LANES];
    let fold = |lo: &mut [F; LANES], hi: &mut [F; LANES], nan: &mut [u32; LANES], x: &[F]| {
        for j in 0..LANES {
            lo[j] = if x[j] < lo[j] { x[j] } else { lo[j] };
            hi[j] = if x[j] > hi[j] { x[j] } else { hi[j] };
            nan[j] |= u32::from(x[j].is_nan());
        }
    };
    let mut steps = v.chunks_exact(2 * LANES);
    for step in &mut steps {
        let [a, b] = &mut lo;
        let [c, d] = &mut hi;
        fold(a, c, &mut nan, &step[..LANES]);
        fold(b, d, &mut nan, &step[LANES..]);
    }
    for &x in steps.remainder() {
        let [lo, _] = &mut lo;
        let [hi, _] = &mut hi;
        fold(lo, hi, &mut nan, &[x; LANES]);
    }
    let (mut min, mut max) = (lo[0][0], hi[0][0]);
    for (&l, &h) in lo.iter().flatten().zip(hi.iter().flatten()) {
        min = if l < min { l } else { min };
        max = if h > max { h } else { max };
    }
    // Both stay infinite, the wrong way round, when every entry is NaN.
    let bounded = min <= max;
    ZoneMap {
        min: bounded.then(|| exact_zero(min.into(), v, f64::min)),
        max: bounded.then(|| exact_zero(max.into(), v, f64::max)),
        has_nan: nan.contains(&1),
        n_entries: v.len() as u64,
        ..ZoneMap::default()
    }
}

/// A zone-map bound as the in-order fold of `f64::min` (or `max`) over
/// the non-NaN entries gives it, from the numeric extremum `m`. The fold
/// can differ from `m` only in the sign of a zero, as `-0.0 == 0.0`; so a
/// zero extremum is refolded over the zero entries alone, in order.
fn exact_zero<F: Float>(m: f64, v: &[F], fold: fn(f64, f64) -> f64) -> f64 {
    if m != 0.0 {
        return m;
    }
    v.iter()
        .map(|&x| x.into())
        .filter(|&x: &f64| x == 0.0)
        .reduce(fold)
        .expect("a zero extremum is an entry")
}

/// The zone map of an integer buffer, in lanes like [`float_zone`]'s.
pub(crate) fn int_zone<I: Int>(v: &[I]) -> ZoneMap {
    let mut lo = [[I::MAX; LANES]; 2];
    let mut hi = [[I::MIN; LANES]; 2];
    let fold = |lo: &mut [I; LANES], hi: &mut [I; LANES], x: &[I]| {
        for j in 0..LANES {
            lo[j] = lo[j].min(x[j]);
            hi[j] = hi[j].max(x[j]);
        }
    };
    let mut steps = v.chunks_exact(2 * LANES);
    for step in &mut steps {
        let [a, b] = &mut lo;
        let [c, d] = &mut hi;
        fold(a, c, &step[..LANES]);
        fold(b, d, &step[LANES..]);
    }
    for &x in steps.remainder() {
        fold(&mut lo[0], &mut hi[0], &[x; LANES]);
    }
    let non_empty = !v.is_empty();
    let int_min = non_empty.then(|| lo.iter().flatten().min().copied().expect("lanes").into());
    let int_max = non_empty.then(|| hi.iter().flatten().max().copied().expect("lanes").into());
    ZoneMap {
        // `as f64` is monotone over i64, so the widened bounds are valid
        // (if rounded) f64 bounds for mixed int-column/float-literal
        // comparisons.
        min: int_min.map(|x| x as f64),
        max: int_max.map(|x| x as f64),
        int_min,
        int_max,
        n_entries: v.len() as u64,
        ..ZoneMap::default()
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
