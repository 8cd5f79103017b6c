//! Physical column chunks.

use crate::compress::{self, Encoding};
use crate::schema::PhysicalType;
use crate::stats::ZoneMap;

/// The physical buffer of one leaf column within one row group.
#[derive(Clone, Debug, PartialEq)]
pub enum ColumnData {
    /// Booleans.
    Bool(Vec<bool>),
    /// 32-bit integers.
    I32(Vec<i32>),
    /// 64-bit integers.
    I64(Vec<i64>),
    /// 32-bit floats.
    F32(Vec<f32>),
    /// 64-bit floats.
    F64(Vec<f64>),
}

impl ColumnData {
    /// Creates an empty buffer of the given physical type.
    pub fn empty(pt: PhysicalType) -> ColumnData {
        match pt {
            PhysicalType::Bool => ColumnData::Bool(Vec::new()),
            PhysicalType::Int32 => ColumnData::I32(Vec::new()),
            PhysicalType::Int64 => ColumnData::I64(Vec::new()),
            PhysicalType::Float32 => ColumnData::F32(Vec::new()),
            PhysicalType::Float64 => ColumnData::F64(Vec::new()),
        }
    }

    /// The buffer's physical type.
    pub fn physical_type(&self) -> PhysicalType {
        match self {
            ColumnData::Bool(_) => PhysicalType::Bool,
            ColumnData::I32(_) => PhysicalType::Int32,
            ColumnData::I64(_) => PhysicalType::Int64,
            ColumnData::F32(_) => PhysicalType::Float32,
            ColumnData::F64(_) => PhysicalType::Float64,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        match self {
            ColumnData::Bool(v) => v.len(),
            ColumnData::I32(v) => v.len(),
            ColumnData::I64(v) => v.len(),
            ColumnData::F32(v) => v.len(),
            ColumnData::F64(v) => v.len(),
        }
    }

    /// True if there are no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Entry at `i` widened to `f64` (numeric columns only; booleans map to
    /// 0.0/1.0 so histogram engines can treat everything uniformly).
    pub fn get_f64(&self, i: usize) -> f64 {
        match self {
            ColumnData::Bool(v) => v[i] as u8 as f64,
            ColumnData::I32(v) => v[i] as f64,
            ColumnData::I64(v) => v[i] as f64,
            ColumnData::F32(v) => v[i] as f64,
            ColumnData::F64(v) => v[i],
        }
    }

    /// Appends every entry, widened as by [`ColumnData::get_f64`], to
    /// `out`: one pass over the typed buffer instead of a type dispatch
    /// per entry.
    pub fn extend_f64(&self, out: &mut Vec<f64>) {
        match self {
            ColumnData::Bool(v) => out.extend(v.iter().map(|&x| x as u8 as f64)),
            ColumnData::I32(v) => out.extend(v.iter().map(|&x| x as f64)),
            ColumnData::I64(v) => out.extend(v.iter().map(|&x| x as f64)),
            ColumnData::F32(v) => out.extend(v.iter().map(|&x| x as f64)),
            ColumnData::F64(v) => out.extend_from_slice(v),
        }
    }

    /// Entry at `i` as the dynamic value type.
    pub fn get_value(&self, i: usize) -> nested_value::Value {
        use nested_value::Value;
        match self {
            ColumnData::Bool(v) => Value::Bool(v[i]),
            ColumnData::I32(v) => Value::Int(v[i] as i64),
            ColumnData::I64(v) => Value::Int(v[i]),
            ColumnData::F32(v) => Value::Float(v[i] as f64),
            ColumnData::F64(v) => Value::Float(v[i]),
        }
    }

    /// Keeps the first `len` entries.
    pub(crate) fn truncate(&mut self, len: usize) {
        match self {
            ColumnData::Bool(v) => v.truncate(len),
            ColumnData::I32(v) => v.truncate(len),
            ColumnData::I64(v) => v.truncate(len),
            ColumnData::F32(v) => v.truncate(len),
            ColumnData::F64(v) => v.truncate(len),
        }
    }

    /// Uncompressed byte size of the buffer.
    pub fn uncompressed_bytes(&self) -> usize {
        self.len() * self.physical_type().width()
    }
}

/// A leaf column within one row group: data, optional offsets, and
/// physically accurate size accounting.
#[derive(Clone, Debug, PartialEq)]
pub struct ColumnChunk {
    /// Value buffer (flattened across list elements if `offsets` is set).
    pub data: ColumnData,
    /// For repeated leaves: `n_rows + 1` offsets into `data`; row `i` owns
    /// entries `offsets[i]..offsets[i+1]`. `None` for non-repeated leaves.
    pub offsets: Option<Vec<u32>>,
    /// Byte size under the adaptively chosen [`encoding`](Self::encoding)
    /// of [`compress`] (values) plus delta-varint offsets.
    pub compressed_bytes: usize,
    /// Minimum value (numeric view), if any entries exist.
    pub min: Option<f64>,
    /// Maximum value (numeric view), if any entries exist.
    pub max: Option<f64>,
    /// The encoding [`compress::choose`] picked for the value buffer
    /// (smallest measured payload among the applicable candidates).
    pub encoding: Encoding,
    /// Zone map for row-group pruning (see [`crate::stats`]).
    pub zone: ZoneMap,
}

impl ColumnChunk {
    /// Seals a buffer into a chunk: picks the cheapest encoding, computes
    /// the compressed size under it, and builds min/max statistics.
    pub fn seal(data: ColumnData, offsets: Option<Vec<u32>>) -> ColumnChunk {
        let offsets_bytes = offsets.as_deref().map_or(0, compress::offsets_size);
        ColumnChunk::seal_priced(data, offsets, offsets_bytes)
    }

    /// [`ColumnChunk::seal`] with the offsets' compressed size already
    /// known: the leaves under one list share their offsets, so their
    /// size is priced once per row group.
    pub(crate) fn seal_priced(
        data: ColumnData,
        offsets: Option<Vec<u32>>,
        offsets_bytes: usize,
    ) -> ColumnChunk {
        let choice = compress::choose(&data);
        let (min, max) = chunk_bounds(&data, &choice.zone);
        ColumnChunk {
            data,
            offsets,
            compressed_bytes: choice.bytes + offsets_bytes,
            min,
            max,
            encoding: choice.encoding,
            zone: choice.zone,
        }
    }

    /// Number of leaf entries (not rows).
    pub fn n_entries(&self) -> usize {
        self.data.len()
    }

    /// Uncompressed physical byte size (values + offsets).
    pub fn uncompressed_bytes(&self) -> usize {
        self.data.uncompressed_bytes() + self.offsets.as_ref().map_or(0, |o| o.len() * 4)
    }

    /// The entry range belonging to row `row` for repeated leaves, or
    /// `row..row + 1` for flat leaves.
    pub fn row_range(&self, row: usize) -> std::ops::Range<usize> {
        match &self.offsets {
            Some(off) => off[row] as usize..off[row + 1] as usize,
            None => row..row + 1,
        }
    }

    /// Typed view for hot loops: f64 slice (only for `Float64` buffers).
    pub fn f64s(&self) -> Option<&[f64]> {
        match &self.data {
            ColumnData::F64(v) => Some(v),
            _ => None,
        }
    }

    /// Typed view for hot loops: f32 slice.
    pub fn f32s(&self) -> Option<&[f32]> {
        match &self.data {
            ColumnData::F32(v) => Some(v),
            _ => None,
        }
    }

    /// Typed view: i32 slice.
    pub fn i32s(&self) -> Option<&[i32]> {
        match &self.data {
            ColumnData::I32(v) => Some(v),
            _ => None,
        }
    }

    /// Typed view: i64 slice.
    pub fn i64s(&self) -> Option<&[i64]> {
        match &self.data {
            ColumnData::I64(v) => Some(v),
            _ => None,
        }
    }

    /// Typed view: bool slice.
    pub fn bools(&self) -> Option<&[bool]> {
        match &self.data {
            ColumnData::Bool(v) => Some(v),
            _ => None,
        }
    }
}

/// The chunk's `min`/`max` in the numeric view of
/// [`ColumnData::get_f64`], read off the zone map's bounds, which skip
/// NaN entries. An `f64::min`/`max` fold over the entries ignores NaN
/// the same way, except that an all-NaN chunk folds to NaN: that case
/// reports `NaN` for both. Booleans have no zone-map bounds, so they get
/// their own pass.
fn chunk_bounds(data: &ColumnData, zone: &ZoneMap) -> (Option<f64>, Option<f64>) {
    match data {
        _ if data.is_empty() => (None, None),
        ColumnData::Bool(v) => {
            let any = |b: bool| f64::from(u8::from(v.contains(&b)));
            (Some(1.0 - any(false)), Some(any(true)))
        }
        _ if zone.min.is_some() => (zone.min, zone.max),
        _ => (Some(f64::NAN), Some(f64::NAN)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The per-entry fold `seal` ran before it read the zone map.
    fn folded_bounds(data: &ColumnData) -> (Option<f64>, Option<f64>) {
        let (mut min, mut max) = (None::<f64>, None::<f64>);
        for i in 0..data.len() {
            let x = data.get_f64(i);
            min = Some(min.map_or(x, |m: f64| m.min(x)));
            max = Some(max.map_or(x, |m: f64| m.max(x)));
        }
        (min, max)
    }

    #[test]
    fn seal_bounds_match_the_per_entry_fold() {
        let nan = f64::NAN;
        let cases = [
            ColumnData::F64(vec![nan, 2.0, -1.0]),
            ColumnData::F64(vec![3.0, nan, -4.5, 7.0]),
            ColumnData::F32(vec![1.5, f32::NAN, -2.0]),
            ColumnData::F64(vec![0.0, -0.0, 0.0]),
            ColumnData::F64(vec![-0.0, 0.0]),
            ColumnData::F32(vec![-0.0, -0.0]),
            ColumnData::I64(vec![(1 << 53) + 1, (1 << 53) + 3, i64::MAX, -5]),
            ColumnData::I64(vec![i64::MAX, i64::MAX - 1]),
            ColumnData::I32(vec![i32::MIN, 0, i32::MAX]),
            ColumnData::Bool(vec![true, false, true]),
            ColumnData::Bool(vec![true, true]),
            ColumnData::Bool(vec![false]),
            ColumnData::Bool(vec![]),
            ColumnData::F64(vec![]),
            ColumnData::I32(vec![]),
        ];
        let bits = |b: (Option<f64>, Option<f64>)| (b.0.map(f64::to_bits), b.1.map(f64::to_bits));
        for data in cases {
            let c = ColumnChunk::seal(data.clone(), None);
            assert_eq!(bits((c.min, c.max)), bits(folded_bounds(&data)), "{data:?}");
        }
        // All NaN: the fold keeps some NaN; `seal` reports NaN too.
        for data in [
            ColumnData::F64(vec![nan, nan]),
            ColumnData::F32(vec![f32::NAN]),
        ] {
            let c = ColumnChunk::seal(data.clone(), None);
            let (lo, hi) = folded_bounds(&data);
            assert!(lo.unwrap().is_nan() && hi.unwrap().is_nan());
            assert!(
                c.min.unwrap().is_nan() && c.max.unwrap().is_nan(),
                "{data:?}"
            );
        }
    }

    #[test]
    fn seal_computes_stats() {
        let c = ColumnChunk::seal(ColumnData::F64(vec![3.0, -1.0, 2.0]), None);
        assert_eq!(c.min, Some(-1.0));
        assert_eq!(c.max, Some(3.0));
        assert_eq!(c.n_entries(), 3);
        assert_eq!(c.uncompressed_bytes(), 24);
        assert!(c.compressed_bytes > 0);
        assert_eq!(c.zone.min, Some(-1.0));
        assert_eq!(c.zone.max, Some(3.0));
        assert_eq!(c.zone.n_entries, 3);
    }

    #[test]
    fn seal_picks_smallest_encoding() {
        let constant = ColumnChunk::seal(ColumnData::F64(vec![9.81; 2000]), None);
        assert_eq!(constant.encoding, compress::Encoding::Dict);
        assert!(
            constant.compressed_bytes
                <= compress::encoded_size(&constant.data, compress::Encoding::ByteStreamSplit)
                    .unwrap(),
            "adaptive choice must never exceed the type-default estimate"
        );
        let sequential = ColumnChunk::seal(ColumnData::I64((0..2000).collect()), None);
        assert_eq!(sequential.encoding, compress::Encoding::DeltaVarint);
    }

    #[test]
    fn empty_chunk() {
        let c = ColumnChunk::seal(ColumnData::F32(vec![]), None);
        assert_eq!(c.min, None);
        assert_eq!(c.max, None);
        assert_eq!(c.uncompressed_bytes(), 0);
    }

    #[test]
    fn row_range_with_offsets() {
        let c = ColumnChunk::seal(ColumnData::I32(vec![1, 2, 3, 4, 5]), Some(vec![0, 2, 2, 5]));
        assert_eq!(c.row_range(0), 0..2);
        assert_eq!(c.row_range(1), 2..2);
        assert_eq!(c.row_range(2), 2..5);
    }

    #[test]
    fn typed_views() {
        let c = ColumnChunk::seal(ColumnData::F64(vec![1.0]), None);
        assert!(c.f64s().is_some());
        assert!(c.f32s().is_none());
        assert_eq!(c.data.get_f64(0), 1.0);
        assert_eq!(c.data.get_value(0), nested_value::Value::Float(1.0));
    }

    #[test]
    fn extend_f64_is_get_f64_per_entry() {
        for d in [
            ColumnData::Bool(vec![true, false]),
            ColumnData::I32(vec![-3, 7]),
            ColumnData::I64(vec![i64::MAX, -1]),
            ColumnData::F32(vec![0.1, -0.0, f32::NAN]),
            ColumnData::F64(vec![1e300, -2.5]),
        ] {
            let mut out = vec![42.0];
            d.extend_f64(&mut out);
            let want: Vec<u64> = std::iter::once(42.0)
                .chain((0..d.len()).map(|i| d.get_f64(i)))
                .map(f64::to_bits)
                .collect();
            assert_eq!(out.iter().map(|x| x.to_bits()).collect::<Vec<_>>(), want);
        }
    }

    #[test]
    fn bool_numeric_view() {
        let d = ColumnData::Bool(vec![true, false]);
        assert_eq!(d.get_f64(0), 1.0);
        assert_eq!(d.get_f64(1), 0.0);
        assert_eq!(d.uncompressed_bytes(), 2);
    }
}
