//! Tables and the row-group-producing builder.

use std::collections::BTreeMap;

use nested_value::{Path, Value};

use crate::column::{ColumnChunk, ColumnData};
use crate::compress;
use crate::error::ColumnarError;
use crate::rowgroup::RowGroup;
use crate::schema::{DataType, Field, LeafInfo, PhysicalType, Schema};

/// Default events per row group.
///
/// The paper's Parquet files average ≈400 k events per row group (§4.2);
/// data-set builders scale this down proportionally for small test sets.
pub const DEFAULT_ROW_GROUP_SIZE: usize = 400_000;

/// A named, immutable columnar table.
#[derive(Clone, Debug)]
pub struct Table {
    name: String,
    schema: Schema,
    row_groups: Vec<RowGroup>,
}

impl Table {
    pub(crate) fn new(name: String, schema: Schema, row_groups: Vec<RowGroup>) -> Table {
        Table {
            name,
            schema,
            row_groups,
        }
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Row groups.
    pub fn row_groups(&self) -> &[RowGroup] {
        &self.row_groups
    }

    /// Total row count.
    pub fn n_rows(&self) -> usize {
        self.row_groups.iter().map(|g| g.n_rows()).sum()
    }

    /// Total compressed size of the table (all leaves).
    pub fn compressed_bytes(&self) -> usize {
        let leaves: Vec<_> = self.schema.leaves().iter().collect();
        self.row_groups
            .iter()
            .map(|g| g.compressed_bytes(&leaves))
            .sum()
    }

    /// Total uncompressed size of the table (all leaves).
    pub fn uncompressed_bytes(&self) -> usize {
        let leaves: Vec<_> = self.schema.leaves().iter().collect();
        self.row_groups
            .iter()
            .map(|g| g.uncompressed_bytes(&leaves))
            .sum()
    }

    /// A stable content fingerprint of the table: schema shape plus
    /// per-chunk statistics (row counts, entry counts, compressed sizes,
    /// min/max). Used to key the serving layer's result cache and the
    /// fault injector's decisions — tables are immutable, so an equal
    /// fingerprint means cached results are valid, and any rebuild with different data changes the
    /// statistics and hence the key space. FNV-1a, independent of process
    /// and platform.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        h.write_str(&self.name);
        for leaf in self.schema.leaves() {
            h.write_path(&leaf.path);
            h.write_u64(leaf.ptype as u64);
            h.write_u64(leaf.repeated as u64);
        }
        for g in &self.row_groups {
            h.write_u64(g.n_rows() as u64);
            for (path, chunk) in g.columns() {
                h.write_path(path);
                h.write_u64(chunk.n_entries() as u64);
                h.write_u64(chunk.compressed_bytes as u64);
                h.write_u64(chunk.min.map_or(0, f64::to_bits));
                h.write_u64(chunk.max.map_or(0, f64::to_bits));
            }
        }
        h.finish()
    }

    /// Shard `i` of `n`: a new table holding a contiguous run of this
    /// table's row groups, the partitioning a parallel scan deals to its
    /// workers (row groups are the unit of parallelism, so shards never
    /// split a group). The first `len % n` shards get one extra group;
    /// concatenating shards `0..n` in order reproduces the table exactly.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `i >= n`.
    pub fn shard(&self, i: usize, n: usize) -> Table {
        assert!(n > 0, "shard count must be positive");
        assert!(i < n, "shard index {i} out of range for {n} shards");
        let len = self.row_groups.len();
        let base = len / n;
        let extra = len % n;
        let lo = i * base + i.min(extra);
        let hi = lo + base + usize::from(i < extra);
        Table::new(
            self.name.clone(),
            self.schema.clone(),
            self.row_groups[lo..hi].to_vec(),
        )
    }

    /// A new table containing only the first `n` rows (row-group aligned
    /// slicing plus a partial group if needed) — used by the Figure 2
    /// data-size sweep.
    pub fn head(&self, n: usize) -> Table {
        let mut remaining = n;
        let mut groups = Vec::new();
        for g in &self.row_groups {
            if remaining == 0 {
                break;
            }
            if g.n_rows() <= remaining {
                remaining -= g.n_rows();
                groups.push(g.clone());
            } else {
                groups.push(slice_group(&self.schema, g, remaining));
                remaining = 0;
            }
        }
        Table::new(self.name.clone(), self.schema.clone(), groups)
    }
}

/// Minimal FNV-1a, kept local so fingerprints do not depend on std's
/// unspecified `DefaultHasher` algorithm.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write_u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x1000_0000_01b3);
        }
    }

    fn write_bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= *b as u64;
            self.0 = self.0.wrapping_mul(0x1000_0000_01b3);
        }
    }

    fn write_str(&mut self, s: &str) {
        self.write_bytes(s.as_bytes());
        // Length terminator so "ab"+"c" ≠ "a"+"bc".
        self.write_u64(s.len() as u64);
    }

    /// [`Fnv::write_str`] of the path's dotted form, streamed segment by
    /// segment instead of joined into a `String`.
    fn write_path(&mut self, path: &Path) {
        let mut len = 0;
        for (i, seg) in path.segments().iter().enumerate() {
            if i > 0 {
                self.write_bytes(b".");
            }
            self.write_bytes(seg.as_bytes());
            len += usize::from(i > 0) + seg.len();
        }
        self.write_u64(len as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

fn slice_group(schema: &Schema, g: &RowGroup, n: usize) -> RowGroup {
    let mut columns = BTreeMap::new();
    for leaf in schema.leaves() {
        let chunk = g.column(&leaf.path).expect("leaf exists");
        let sliced = match &chunk.offsets {
            None => {
                let data = slice_data(&chunk.data, 0, n);
                ColumnChunk::seal(data, None)
            }
            Some(off) => {
                let end = off[n] as usize;
                let data = slice_data(&chunk.data, 0, end);
                ColumnChunk::seal(data, Some(off[..=n].to_vec()))
            }
        };
        columns.insert(leaf.path.clone(), sliced);
    }
    RowGroup::new(n, columns)
}

fn slice_data(data: &ColumnData, start: usize, end: usize) -> ColumnData {
    match data {
        ColumnData::Bool(v) => ColumnData::Bool(v[start..end].to_vec()),
        ColumnData::I32(v) => ColumnData::I32(v[start..end].to_vec()),
        ColumnData::I64(v) => ColumnData::I64(v[start..end].to_vec()),
        ColumnData::F32(v) => ColumnData::F32(v[start..end].to_vec()),
        ColumnData::F64(v) => ColumnData::F64(v[start..end].to_vec()),
    }
}

/// Incremental table builder that type-checks every row against the
/// schema and seals a row group every `row_group_size` rows.
///
/// The open row group is one buffer per leaf, in [`Schema::leaves`]
/// order. A row reaches them through a [`RowWriter`], either from typed
/// code ([`TableBuilder::write_row`]) or from a dynamic [`Value`]
/// ([`TableBuilder::append`]); both write the same buffers by leaf
/// position. A row that does not match the schema is rolled back and
/// reported as [`ColumnarError::SchemaMismatch`]; the builder stays
/// usable.
pub struct TableBuilder {
    name: String,
    schema: Schema,
    row_group_size: usize,
    /// Per leaf: the end (exclusive leaf index) of the list the leaf sits
    /// under, or 0 for a flat leaf. A list's leaves are contiguous in
    /// schema order, so this is all a cursor needs to find list bounds.
    list_end: Vec<usize>,
    buffers: Vec<LeafBuffer>,
    rows_in_group: usize,
    groups: Vec<RowGroup>,
}

/// One leaf's share of the open row group.
struct LeafBuffer {
    data: ColumnData,
    /// Repeated leaves: `rows_in_group + 1` offsets into `data`, starting
    /// at 0. Flat leaves: empty.
    offsets: Vec<u32>,
}

impl LeafBuffer {
    fn new(leaf: &LeafInfo) -> LeafBuffer {
        LeafBuffer {
            data: ColumnData::empty(leaf.ptype),
            offsets: if leaf.repeated { vec![0] } else { Vec::new() },
        }
    }
}

impl TableBuilder {
    /// Creates a builder.
    pub fn new(name: &str, schema: Schema, row_group_size: usize) -> TableBuilder {
        assert!(row_group_size > 0, "row groups must be non-empty");
        let mut list_end = Vec::with_capacity(schema.n_leaves());
        for f in schema.fields() {
            collect_list_ends(&f.dtype, &mut list_end);
        }
        let buffers = schema.leaves().iter().map(LeafBuffer::new).collect();
        TableBuilder {
            name: name.to_string(),
            schema,
            row_group_size,
            list_end,
            buffers,
            rows_in_group: 0,
            groups: Vec::new(),
        }
    }

    /// Appends one row written leaf by leaf: `shred` pushes every leaf in
    /// schema order through the [`RowWriter`], a collection through
    /// [`RowWriter::list`]. A wrong type, a missing or extra leaf, or a
    /// list in the wrong place fails the row with
    /// [`ColumnarError::SchemaMismatch`] and leaves the builder as it was
    /// before the row.
    pub fn write_row(
        &mut self,
        shred: impl FnOnce(&mut RowWriter<'_>),
    ) -> Result<(), ColumnarError> {
        self.shred_row(|w, _| shred(w))
    }

    /// Appends one row given as a struct value matching the schema: the
    /// generic row API, written through the same [`RowWriter`] as
    /// [`TableBuilder::write_row`].
    pub fn append(&mut self, row: &Value) -> Result<(), ColumnarError> {
        self.shred_row(|w, schema| write_struct(w, schema.fields(), row))
    }

    /// Appends many rows.
    pub fn append_all<'a, I: IntoIterator<Item = &'a Value>>(
        &mut self,
        rows: I,
    ) -> Result<(), ColumnarError> {
        for r in rows {
            self.append(r)?;
        }
        Ok(())
    }

    /// Finalizes into an immutable table.
    pub fn finish(mut self) -> Table {
        if self.rows_in_group > 0 {
            self.seal_group();
        }
        Table::new(self.name, self.schema, self.groups)
    }

    fn shred_row(
        &mut self,
        shred: impl FnOnce(&mut RowWriter<'_>, &Schema),
    ) -> Result<(), ColumnarError> {
        let mut w = RowWriter {
            leaves: self.schema.leaves(),
            list_end: &self.list_end,
            buffers: &mut self.buffers,
            cursor: 0,
            list: 0,
            error: None,
        };
        shred(&mut w, &self.schema);
        if w.error.is_none() && w.cursor < w.leaves.len() {
            w.fail(format!("missing leaf {}", w.leaves[w.cursor].path));
        }
        if let Some(msg) = w.error {
            self.rollback();
            return Err(ColumnarError::SchemaMismatch(msg));
        }
        self.rows_in_group += 1;
        if self.rows_in_group == self.row_group_size {
            self.seal_group();
        }
        Ok(())
    }

    /// Drops whatever a failed row wrote: flat leaves keep
    /// `rows_in_group` entries, repeated leaves `rows_in_group + 1`
    /// offsets and the entries up to the last of them.
    fn rollback(&mut self) {
        let rows = self.rows_in_group;
        for buf in &mut self.buffers {
            let len = if buf.offsets.is_empty() {
                rows
            } else {
                buf.offsets.truncate(rows + 1);
                buf.offsets[rows] as usize
            };
            buf.data.truncate(len);
        }
    }

    /// Seals the open row group. Every leaf under a list holds the same
    /// offsets, so they are priced once per list.
    fn seal_group(&mut self) {
        let mut columns = BTreeMap::new();
        // (list end, compressed size) of the list priced last.
        let mut priced = (0, 0);
        let leaves = self.schema.leaves().iter().zip(&self.list_end);
        for ((leaf, &list_end), buf) in leaves.zip(&mut self.buffers) {
            let LeafBuffer { data, offsets } = std::mem::replace(buf, LeafBuffer::new(leaf));
            let chunk = if leaf.repeated {
                if priced.0 != list_end {
                    priced = (list_end, compress::offsets_size(&offsets));
                }
                ColumnChunk::seal_priced(data, Some(offsets), priced.1)
            } else {
                ColumnChunk::seal(data, None)
            };
            columns.insert(leaf.path.clone(), chunk);
        }
        self.groups.push(RowGroup::new(self.rows_in_group, columns));
        self.rows_in_group = 0;
    }
}

/// Appends `dtype`'s leaves to `list_end` (see [`TableBuilder`]), in
/// schema order.
fn collect_list_ends(dtype: &DataType, list_end: &mut Vec<usize>) {
    match dtype {
        DataType::Scalar(_) => list_end.push(0),
        DataType::Struct(fields) => {
            for f in fields {
                collect_list_ends(&f.dtype, list_end);
            }
        }
        DataType::List(inner) => {
            let start = list_end.len();
            collect_list_ends(inner, list_end);
            let end = list_end.len();
            list_end[start..].fill(end);
        }
    }
}

/// Writes one row into a [`TableBuilder`]'s leaf buffers by position.
///
/// A cursor walks the schema's leaves: each scalar call (`bool`, `i32`,
/// `i64`, `f32`, `f64`) pushes onto the leaf under the cursor and moves
/// it on, and [`RowWriter::list`] writes a collection's elements and
/// closes the offsets of every leaf under it. The first mismatch (wrong
/// physical type, a scalar on a list's leaf, a list on a flat leaf, too
/// few or too many leaves) is recorded with the leaf's path; later calls
/// do nothing, and the builder rolls the row back.
pub struct RowWriter<'b> {
    leaves: &'b [LeafInfo],
    list_end: &'b [usize],
    buffers: &'b mut [LeafBuffer],
    cursor: usize,
    /// The end of the list whose element is being written; 0 outside a
    /// list, which is also the `list_end` of every flat leaf.
    list: usize,
    error: Option<String>,
}

macro_rules! scalar_writers {
    ($($(#[$doc:meta])* $name:ident($t:ty) => $variant:ident, $pt:ident;)*) => {$(
        $(#[$doc])*
        #[inline]
        pub fn $name(&mut self, x: $t) {
            if self.error.is_none() && self.list_end.get(self.cursor) == Some(&self.list) {
                if let ColumnData::$variant(buf) = &mut self.buffers[self.cursor].data {
                    buf.push(x);
                    self.cursor += 1;
                    return;
                }
            }
            self.misplaced(PhysicalType::$pt);
        }
    )*};
}

impl RowWriter<'_> {
    scalar_writers! {
        /// Writes a `Bool` leaf.
        bool(bool) => Bool, Bool;
        /// Writes an `Int32` leaf.
        i32(i32) => I32, Int32;
        /// Writes an `Int64` leaf.
        i64(i64) => I64, Int64;
        /// Writes a `Float32` leaf.
        f32(f32) => F32, Float32;
        /// Writes a `Float64` leaf.
        f64(f64) => F64, Float64;
    }

    /// Writes the collection whose leaves start at the cursor: for each
    /// item, `each` writes that element's leaves in schema order; then
    /// every leaf under the list gets its row's end offset.
    pub fn list<I: IntoIterator>(&mut self, items: I, mut each: impl FnMut(&mut Self, I::Item)) {
        let start = self.cursor;
        let end = match self.list_end.get(start) {
            Some(&end) if self.error.is_none() && self.list == 0 && end != 0 => end,
            _ => return self.misplaced_list(),
        };
        self.list = end;
        for item in items {
            self.cursor = start;
            each(self, item);
            if self.error.is_some() {
                return;
            }
            if self.cursor < end {
                let path = &self.leaves[self.cursor].path;
                return self.fail(format!("missing leaf {path} in a list element"));
            }
        }
        self.list = 0;
        self.cursor = end;
        for buf in &mut self.buffers[start..end] {
            let end = u32::try_from(buf.data.len()).expect("a row group leaf holds < 2^32 entries");
            buf.offsets.push(end);
        }
    }

    /// Records a mismatch at the cursor's leaf (the first one sticks).
    fn fail_here(&mut self, what: std::fmt::Arguments<'_>) {
        match self.leaves.get(self.cursor) {
            Some(leaf) => self.fail(format!("at {}: {what}", leaf.path)),
            None => self.fail(format!("after the last leaf: {what}")),
        }
    }

    fn fail(&mut self, msg: String) {
        self.error.get_or_insert(msg);
    }

    /// A scalar of type `found` did not fit the cursor's leaf.
    #[cold]
    fn misplaced(&mut self, found: PhysicalType) {
        if self.error.is_some() {
            return;
        }
        let c = self.cursor;
        if self.list != 0 && c == self.list {
            let path = &self.leaves[c - 1].path;
            return self.fail(format!(
                "extra {found:?} value in a list element after {path}"
            ));
        }
        match self.leaves.get(c) {
            None => self.fail_here(format_args!("extra {found:?} value")),
            Some(leaf) if self.list == 0 && self.list_end[c] != 0 => {
                let path = &leaf.path;
                self.fail(format!(
                    "at {path}: expected a list, found a {found:?} value"
                ));
            }
            Some(leaf) => {
                let (path, want) = (&leaf.path, leaf.ptype);
                self.fail(format!("at {path}: expected {want:?}, found {found:?}"));
            }
        }
    }

    #[cold]
    fn misplaced_list(&mut self) {
        if self.error.is_some() {
            return;
        }
        if self.list != 0 {
            self.fail_here(format_args!("a list inside a list element"));
        } else if let Some(leaf) = self.leaves.get(self.cursor) {
            let want = leaf.ptype;
            self.fail_here(format_args!("expected {want:?}, found a list"));
        } else {
            self.fail_here(format_args!("extra list"));
        }
    }
}

/// Writes a struct value's fields in schema order.
fn write_struct(w: &mut RowWriter<'_>, fields: &[Field], v: &Value) {
    let Ok(s) = v.as_struct() else {
        return w.fail_here(format_args!("expected a struct, found {}", v.type_name()));
    };
    for f in fields {
        match s.get(&f.name) {
            Some(fv) => write_value(w, &f.dtype, fv),
            None => return w.fail_here(format_args!("missing field {}", f.name)),
        }
    }
}

fn write_value(w: &mut RowWriter<'_>, dtype: &DataType, v: &Value) {
    match (dtype, v) {
        (DataType::Scalar(PhysicalType::Bool), Value::Bool(b)) => w.bool(*b),
        (DataType::Scalar(PhysicalType::Int32), Value::Int(i)) => w.i32(*i as i32),
        (DataType::Scalar(PhysicalType::Int64), Value::Int(i)) => w.i64(*i),
        (DataType::Scalar(PhysicalType::Float32), Value::Int(i)) => w.f32(*i as f64 as f32),
        (DataType::Scalar(PhysicalType::Float32), Value::Float(x)) => w.f32(*x as f32),
        (DataType::Scalar(PhysicalType::Float64), Value::Int(i)) => w.f64(*i as f64),
        (DataType::Scalar(PhysicalType::Float64), Value::Float(x)) => w.f64(*x),
        (DataType::Scalar(pt), _) => {
            w.fail_here(format_args!("expected {pt:?}, found {}", v.type_name()))
        }
        (DataType::Struct(fields), _) => write_struct(w, fields, v),
        (DataType::List(inner), Value::Array(items)) => {
            w.list(items.iter(), |w, item| write_value(w, inner, item))
        }
        (DataType::List(_), _) => {
            w.fail_here(format_args!("expected an array, found {}", v.type_name()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Field;

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("event", DataType::i64()),
            Field::new(
                "MET",
                DataType::Struct(vec![Field::new("pt", DataType::f64())]),
            ),
            Field::new(
                "Jet",
                DataType::particle_list(vec![
                    Field::new("pt", DataType::f64()),
                    Field::new("eta", DataType::f64()),
                ]),
            ),
        ])
        .unwrap()
    }

    fn row(event: i64, met: f64, jets: &[(f64, f64)]) -> Value {
        Value::struct_from(vec![
            ("event", Value::Int(event)),
            ("MET", Value::struct_from(vec![("pt", Value::Float(met))])),
            (
                "Jet",
                Value::array(
                    jets.iter()
                        .map(|(pt, eta)| {
                            Value::struct_from(vec![
                                ("pt", Value::Float(*pt)),
                                ("eta", Value::Float(*eta)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    #[test]
    fn roundtrip_rows() {
        let mut b = TableBuilder::new("events", schema(), 2);
        let rows = vec![
            row(1, 12.5, &[(40.0, 1.0), (25.0, -0.5)]),
            row(2, 7.0, &[]),
            row(3, 99.0, &[(60.0, 2.2)]),
        ];
        b.append_all(&rows).unwrap();
        let t = b.finish();
        assert_eq!(t.n_rows(), 3);
        assert_eq!(t.row_groups().len(), 2);
        let leaves: Vec<_> = t.schema().leaves().iter().collect();
        let mut got = Vec::new();
        for g in t.row_groups() {
            got.extend(g.read_rows(t.schema(), &leaves).unwrap());
        }
        assert_eq!(got, rows);
    }

    #[test]
    fn projection_reconstructs_subset() {
        let mut b = TableBuilder::new("events", schema(), 10);
        b.append(&row(1, 12.5, &[(40.0, 1.0)])).unwrap();
        let t = b.finish();
        let proj = crate::project::Projection::of(["Jet.pt"]);
        let leaves = proj
            .resolve(
                t.schema(),
                crate::project::PushdownCapability::IndividualLeaves,
            )
            .unwrap();
        let v = t.row_groups()[0].read_row(t.schema(), &leaves, 0).unwrap();
        let jets = v.field("Jet").unwrap().as_array().unwrap();
        let j0 = jets[0].as_struct().unwrap();
        assert_eq!(j0.get("pt"), Some(&Value::Float(40.0)));
        assert_eq!(j0.get("eta"), None);
        assert!(v.field("MET").is_err());
    }

    #[test]
    fn schema_mismatch_rejected_without_corruption() {
        let mut b = TableBuilder::new("events", schema(), 10);
        let bad = Value::struct_from(vec![("event", Value::str("oops"))]);
        assert!(b.append(&bad).is_err());
        // The builder is still usable and consistent.
        b.append(&row(5, 1.0, &[(2.0, 3.0)])).unwrap();
        let t = b.finish();
        assert_eq!(t.n_rows(), 1);
    }

    /// The typed shredder for [`schema`]'s rows.
    fn write(w: &mut RowWriter<'_>, event: i64, met: f64, jets: &[(f64, f64)]) {
        w.i64(event);
        w.f64(met);
        w.list(jets, |w, &(pt, eta)| {
            w.f64(pt);
            w.f64(eta);
        });
    }

    fn assert_same_chunks(a: &Table, b: &Table) {
        assert_eq!(a.row_groups().len(), b.row_groups().len());
        for (ga, gb) in a.row_groups().iter().zip(b.row_groups()) {
            assert_eq!(ga.n_rows(), gb.n_rows());
            assert!(ga.columns().eq(gb.columns()));
        }
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn typed_rows_build_the_appended_table() {
        let rows = [
            (1, 12.5, vec![(40.0, 1.0), (25.0, -0.5)]),
            (2, 7.0, vec![]),
            (3, 99.0, vec![(60.0, 2.2)]),
        ];
        let mut typed = TableBuilder::new("events", schema(), 2);
        let mut values = TableBuilder::new("events", schema(), 2);
        for (event, met, jets) in &rows {
            typed.write_row(|w| write(w, *event, *met, jets)).unwrap();
            values.append(&row(*event, *met, jets)).unwrap();
        }
        assert_same_chunks(&typed.finish(), &values.finish());
    }

    /// A shredder that gets the schema wrong, and the leaf its error names.
    type BadShredder = (fn(&mut RowWriter<'_>), &'static str);

    const BAD_SHREDDERS: [BadShredder; 9] = [
        // Wrong type.
        (|w| w.f64(1.0), "at event: expected Int64, found Float64"),
        // Missing leaf: no jets.
        (
            |w| {
                w.i64(1);
                w.f64(2.0);
            },
            "missing leaf Jet.pt",
        ),
        // Extra leaf after the last one.
        (
            |w| {
                write(w, 1, 2.0, &[(3.0, 4.0)]);
                w.f64(5.0);
            },
            "after the last leaf",
        ),
        // A scalar where the list belongs.
        (
            |w| {
                w.i64(1);
                w.f64(2.0);
                w.f64(3.0);
            },
            "at Jet.pt: expected a list",
        ),
        // A list on a flat leaf.
        (
            |w| w.list([1.0], |w, x| w.f64(x)),
            "at event: expected Int64, found a list",
        ),
        // Bad list elements, after a good one was written: too short, too
        // long, mistyped, nested.
        (
            |w| {
                w.i64(1);
                w.f64(2.0);
                w.list([(3.0, true), (4.0, false)], |w, (pt, full)| {
                    w.f64(pt);
                    if full {
                        w.f64(0.0);
                    }
                });
            },
            "missing leaf Jet.eta in a list element",
        ),
        (
            |w| {
                w.i64(1);
                w.f64(2.0);
                w.list([3.0], |w, pt| {
                    w.f64(pt);
                    w.f64(pt);
                    w.f64(pt);
                });
            },
            "in a list element after Jet.eta",
        ),
        (
            |w| {
                w.i64(1);
                w.f64(2.0);
                w.list([3.0], |w, pt| {
                    w.f64(pt);
                    w.bool(true);
                });
            },
            "at Jet.eta: expected Float64, found Bool",
        ),
        (
            |w| {
                w.i64(1);
                w.f64(2.0);
                w.list([3.0], |w, pt| w.list([pt], |w, x| w.f64(x)));
            },
            "at Jet.pt: a list inside a list element",
        ),
    ];

    #[test]
    fn wrong_shredders_fail_and_leave_the_builder_as_it_was() {
        let good = |i: i64| (i, i as f64 * 0.5, vec![(i as f64, -1.0); (i % 3) as usize]);
        for rg in [1, 3, 100] {
            let mut clean = TableBuilder::new("events", schema(), rg);
            let mut dirty = TableBuilder::new("events", schema(), rg);
            for i in 0..12 {
                let (event, met, jets) = good(i);
                clean.write_row(|w| write(w, event, met, &jets)).unwrap();
                dirty.write_row(|w| write(w, event, met, &jets)).unwrap();
                let (bad, names) = BAD_SHREDDERS[i as usize % BAD_SHREDDERS.len()];
                match dirty.write_row(bad) {
                    Err(ColumnarError::SchemaMismatch(msg)) => {
                        assert!(msg.contains(names), "{msg:?} should name {names:?}")
                    }
                    other => panic!("{names}: expected SchemaMismatch, got {other:?}"),
                }
                // `append` rolls a row back the same way, here after the
                // first jet of the row was written.
                let jet =
                    |eta: Value| Value::struct_from(vec![("pt", Value::Float(2.0)), ("eta", eta)]);
                let bad_row = Value::struct_from(vec![
                    ("event", Value::Int(event)),
                    ("MET", Value::struct_from(vec![("pt", Value::Float(met))])),
                    (
                        "Jet",
                        Value::array(vec![jet(Value::Float(3.0)), jet(Value::Bool(true))]),
                    ),
                ]);
                match dirty.append(&bad_row) {
                    Err(ColumnarError::SchemaMismatch(msg)) => {
                        assert!(
                            msg.contains("at Jet.eta: expected Float64, found bool"),
                            "{msg}"
                        )
                    }
                    other => panic!("expected SchemaMismatch, got {other:?}"),
                }
            }
            assert_same_chunks(&clean.finish(), &dirty.finish());
        }
    }

    #[test]
    fn head_slices_mid_group() {
        let mut b = TableBuilder::new("events", schema(), 4);
        let rows: Vec<Value> = (0..10)
            .map(|i| row(i, i as f64, &[(i as f64, 0.0); 2]))
            .collect();
        b.append_all(&rows).unwrap();
        let t = b.finish();
        let h = t.head(5);
        assert_eq!(h.n_rows(), 5);
        let leaves: Vec<_> = h.schema().leaves().iter().collect();
        let mut got = Vec::new();
        for g in h.row_groups() {
            got.extend(g.read_rows(h.schema(), &leaves).unwrap());
        }
        assert_eq!(got, rows[..5].to_vec());
    }

    #[test]
    fn shard_partitions_row_groups_contiguously() {
        let mut b = TableBuilder::new("events", schema(), 4);
        let rows: Vec<Value> = (0..26)
            .map(|i| row(i, i as f64, &[(i as f64, 0.0)]))
            .collect();
        b.append_all(&rows).unwrap();
        let t = b.finish();
        assert_eq!(t.row_groups().len(), 7);
        for n in [1, 2, 3, 7] {
            let shards: Vec<Table> = (0..n).map(|i| t.shard(i, n)).collect();
            let total_groups: usize = shards.iter().map(|s| s.row_groups().len()).sum();
            assert_eq!(total_groups, 7, "n={n}");
            assert_eq!(shards.iter().map(Table::n_rows).sum::<usize>(), 26);
            // Concatenating shards in order reproduces the table.
            let leaves: Vec<_> = t.schema().leaves().iter().collect();
            let mut got = Vec::new();
            for s in &shards {
                for g in s.row_groups() {
                    got.extend(g.read_rows(s.schema(), &leaves).unwrap());
                }
            }
            assert_eq!(got, rows, "n={n}");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn shard_index_out_of_range_panics() {
        let mut b = TableBuilder::new("events", schema(), 4);
        b.append(&row(0, 0.0, &[])).unwrap();
        b.finish().shard(2, 2);
    }

    #[test]
    fn sizes_accounted() {
        let mut b = TableBuilder::new("events", schema(), 100);
        for i in 0..50 {
            b.append(&row(i, i as f64 * 0.5, &[(30.0, 0.1), (20.0, -0.2)]))
                .unwrap();
        }
        let t = b.finish();
        assert!(t.uncompressed_bytes() > 0);
        assert!(t.compressed_bytes() > 0);
        // event ids are sequential ints: table must compress below raw size.
        assert!(t.compressed_bytes() < t.uncompressed_bytes());
    }
}
