//! On-disk container format.
//!
//! A simple little-endian binary layout so data sets can be materialized
//! once and re-read by the benchmark harnesses:
//!
//! ```text
//! magic "NF2C" | version u32 | name | schema | n_row_groups u32
//!   per row group: n_rows u64 | n_columns u32
//!     per column: path | ptype u8 | has_offsets u8
//!                 [offsets: n u64, u32×n] | data: n u64, raw LE values
//! ```
//!
//! Strings are `len u32 | utf8 bytes`. Chunk statistics and compressed
//! sizes are recomputed on load (they are derived data). The leaves under
//! one list are neighbouring columns with equal offsets, so a column
//! whose offsets equal the previous repeated column's reuses their
//! priced size.
//!
//! [`read_table`] checks every chunk against the schema before sealing
//! it, so a structurally corrupt file fails to load with
//! [`ColumnarError::Format`] instead of panicking a later read: each row
//! group holds exactly one column per schema leaf, with the leaf's
//! physical type; offsets are present exactly when the leaf is repeated,
//! and then number `n_rows + 1`, start at 0, never decrease and end at
//! the entry count; a flat leaf has one entry per row. Counts read from
//! the file reserve a bounded number of items up front, and input that
//! ends before the data its header declares is a format error too.

use std::collections::BTreeMap;
use std::io::{self, Read, Write};

use nested_value::Path;

use crate::column::{ColumnChunk, ColumnData};
use crate::compress;
use crate::error::ColumnarError;
use crate::rowgroup::RowGroup;
use crate::schema::{DataType, Field, LeafInfo, PhysicalType, Schema};
use crate::table::Table;

const MAGIC: &[u8; 4] = b"NF2C";
const VERSION: u32 = 1;

/// Writes a table to any writer.
pub fn write_table<W: Write>(table: &Table, w: &mut W) -> Result<(), ColumnarError> {
    w.write_all(MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;
    write_str(w, table.name())?;
    write_schema(w, table.schema())?;
    w.write_all(&(table.row_groups().len() as u32).to_le_bytes())?;
    for g in table.row_groups() {
        w.write_all(&(g.n_rows() as u64).to_le_bytes())?;
        let cols: Vec<_> = g.columns().collect();
        w.write_all(&(cols.len() as u32).to_le_bytes())?;
        for (path, chunk) in cols {
            write_path(w, path)?;
            w.write_all(&[ptype_tag(chunk.data.physical_type())])?;
            match &chunk.offsets {
                Some(off) => {
                    w.write_all(&[1u8])?;
                    w.write_all(&(off.len() as u64).to_le_bytes())?;
                    write_le(w, off, |o| o.to_le_bytes())?;
                }
                None => w.write_all(&[0u8])?,
            }
            write_data(w, &chunk.data)?;
        }
    }
    Ok(())
}

/// Reads a table from any reader. Input that ends before the data its
/// header declares is a [`ColumnarError::Format`] error, as is a
/// structurally corrupt file.
pub fn read_table<R: Read>(r: &mut R) -> Result<Table, ColumnarError> {
    read_table_body(r).map_err(|e| match e {
        ColumnarError::Io(e) if e.kind() == io::ErrorKind::UnexpectedEof => {
            ColumnarError::Format(format!("truncated input: {e}"))
        }
        e => e,
    })
}

fn read_table_body<R: Read>(r: &mut R) -> Result<Table, ColumnarError> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(ColumnarError::Format("bad magic".into()));
    }
    let version = read_u32(r)?;
    if version != VERSION {
        return Err(ColumnarError::Format(format!(
            "unsupported version {version}"
        )));
    }
    let name = read_str(r)?;
    let schema = read_schema(r)?;
    let leaves: BTreeMap<&Path, &LeafInfo> = schema.leaves().iter().map(|l| (&l.path, l)).collect();
    let n_groups = read_u32(r)? as usize;
    let mut groups = with_file_capacity(n_groups);
    // The offsets of the repeated column priced last, and their size:
    // the leaves under one list share them, in neighbouring columns.
    let mut priced: (Vec<u32>, usize) = (Vec::new(), 0);
    for g in 0..n_groups {
        let bad = |msg: String| ColumnarError::Format(format!("row group {g}: {msg}"));
        let n_rows = read_u64(r)? as usize;
        let n_cols = read_u32(r)? as usize;
        if n_cols != leaves.len() {
            let n_leaves = leaves.len();
            return Err(bad(format!(
                "{n_cols} columns for {n_leaves} schema leaves"
            )));
        }
        let mut columns = BTreeMap::new();
        for _ in 0..n_cols {
            let path = Path::parse(&read_str(r)?);
            let leaf = *leaves
                .get(&path)
                .ok_or_else(|| bad(format!("column {path} is not a schema leaf")))?;
            let mut tag = [0u8; 2];
            r.read_exact(&mut tag)?;
            let ptype = tag_ptype(tag[0])?;
            if ptype != leaf.ptype {
                let want = leaf.ptype;
                return Err(bad(format!(
                    "column {path} is {ptype:?}, schema says {want:?}"
                )));
            }
            let offsets = if tag[1] == 1 {
                let n = read_u64(r)? as usize;
                Some(read_le(r, n, u32::from_le_bytes)?)
            } else {
                None
            };
            let data = read_data(r, ptype)?;
            check_shape(leaf, n_rows, data.len(), offsets.as_deref())
                .map_err(|msg| bad(format!("column {path}: {msg}")))?;
            if columns.contains_key(&path) {
                return Err(bad(format!("column {path} appears twice")));
            }
            let offsets_bytes = match &offsets {
                None => 0,
                Some(off) if *off == priced.0 => priced.1,
                Some(off) => {
                    priced.0.clear();
                    priced.0.extend_from_slice(off);
                    priced.1 = compress::offsets_size(off);
                    priced.1
                }
            };
            columns.insert(path, ColumnChunk::seal_priced(data, offsets, offsets_bytes));
        }
        groups.push(RowGroup::new(n_rows, columns));
    }
    Ok(Table::new(name, schema, groups))
}

/// Checks a loaded chunk's shape against its leaf: offsets exactly when
/// the leaf is repeated, `n_rows + 1` of them running monotonically from
/// 0 to the entry count; otherwise one entry per row.
fn check_shape(
    leaf: &LeafInfo,
    n_rows: usize,
    n_entries: usize,
    offsets: Option<&[u32]>,
) -> Result<(), String> {
    match (leaf.repeated, offsets) {
        (false, None) if n_entries == n_rows => Ok(()),
        (false, None) => Err(format!("{n_entries} entries for {n_rows} rows")),
        (false, Some(_)) => Err("offsets on a flat leaf".into()),
        (true, None) => Err("repeated leaf without offsets".into()),
        (true, Some(off)) => {
            if off.len().checked_sub(1) != Some(n_rows) {
                Err(format!("{} offsets for {n_rows} rows", off.len()))
            } else if off[0] != 0 {
                Err(format!("first offset is {}", off[0]))
            } else if let Some(i) = off.windows(2).position(|w| w[0] > w[1]) {
                Err(format!("offsets[{}] > offsets[{}]", i, i + 1))
            } else if off[n_rows] as usize != n_entries {
                Err(format!(
                    "last offset {} for {n_entries} entries",
                    off[n_rows]
                ))
            } else {
                Ok(())
            }
        }
    }
}

/// Writes a table to a file path.
pub fn save(table: &Table, path: &std::path::Path) -> Result<(), ColumnarError> {
    let mut f = io::BufWriter::new(std::fs::File::create(path)?);
    write_table(table, &mut f)?;
    f.flush()?;
    Ok(())
}

/// Loads a table from a file path.
pub fn load(path: &std::path::Path) -> Result<Table, ColumnarError> {
    let mut f = io::BufReader::new(std::fs::File::open(path)?);
    read_table(&mut f)
}

fn ptype_tag(pt: PhysicalType) -> u8 {
    match pt {
        PhysicalType::Bool => 0,
        PhysicalType::Int32 => 1,
        PhysicalType::Int64 => 2,
        PhysicalType::Float32 => 3,
        PhysicalType::Float64 => 4,
    }
}

fn tag_ptype(t: u8) -> Result<PhysicalType, ColumnarError> {
    Ok(match t {
        0 => PhysicalType::Bool,
        1 => PhysicalType::Int32,
        2 => PhysicalType::Int64,
        3 => PhysicalType::Float32,
        4 => PhysicalType::Float64,
        _ => return Err(ColumnarError::Format(format!("bad type tag {t}"))),
    })
}

fn write_schema<W: Write>(w: &mut W, schema: &Schema) -> Result<(), ColumnarError> {
    write_fields(w, schema.fields())
}

fn write_fields<W: Write>(w: &mut W, fields: &[Field]) -> Result<(), ColumnarError> {
    w.write_all(&(fields.len() as u32).to_le_bytes())?;
    for f in fields {
        write_str(w, &f.name)?;
        write_dtype(w, &f.dtype)?;
    }
    Ok(())
}

fn write_dtype<W: Write>(w: &mut W, dt: &DataType) -> Result<(), ColumnarError> {
    match dt {
        DataType::Scalar(pt) => {
            w.write_all(&[0u8, ptype_tag(*pt)])?;
        }
        DataType::Struct(fields) => {
            w.write_all(&[1u8])?;
            write_fields(w, fields)?;
        }
        DataType::List(inner) => {
            w.write_all(&[2u8])?;
            write_dtype(w, inner)?;
        }
    }
    Ok(())
}

fn read_schema<R: Read>(r: &mut R) -> Result<Schema, ColumnarError> {
    let fields = read_fields(r)?;
    Schema::new(fields)
}

fn read_fields<R: Read>(r: &mut R) -> Result<Vec<Field>, ColumnarError> {
    let n = read_u32(r)? as usize;
    let mut fields = with_file_capacity(n);
    for _ in 0..n {
        let name = read_str(r)?;
        let dtype = read_dtype(r)?;
        fields.push(Field {
            name: name.into(),
            dtype,
        });
    }
    Ok(fields)
}

fn read_dtype<R: Read>(r: &mut R) -> Result<DataType, ColumnarError> {
    let mut tag = [0u8; 1];
    r.read_exact(&mut tag)?;
    Ok(match tag[0] {
        0 => {
            let mut pt = [0u8; 1];
            r.read_exact(&mut pt)?;
            DataType::Scalar(tag_ptype(pt[0])?)
        }
        1 => DataType::Struct(read_fields(r)?),
        2 => DataType::List(Box::new(read_dtype(r)?)),
        t => return Err(ColumnarError::Format(format!("bad dtype tag {t}"))),
    })
}

fn write_data<W: Write>(w: &mut W, data: &ColumnData) -> Result<(), ColumnarError> {
    w.write_all(&(data.len() as u64).to_le_bytes())?;
    match data {
        ColumnData::Bool(v) => write_le(w, v, |b| [b as u8]),
        ColumnData::I32(v) => write_le(w, v, |x| x.to_le_bytes()),
        ColumnData::I64(v) => write_le(w, v, |x| x.to_le_bytes()),
        ColumnData::F32(v) => write_le(w, v, |x| x.to_le_bytes()),
        ColumnData::F64(v) => write_le(w, v, |x| x.to_le_bytes()),
    }
}

/// Bytes staged per `write_all` / `read_exact` call: values cross the
/// reader/writer in blocks, not one call per value.
const BLOCK_BYTES: usize = 4096;

/// Writes `values` as consecutive `N`-byte little-endian words.
fn write_le<W: Write, T: Copy, const N: usize>(
    w: &mut W,
    values: &[T],
    to_le: impl Fn(T) -> [u8; N],
) -> Result<(), ColumnarError> {
    let mut block = [0u8; BLOCK_BYTES];
    for part in values.chunks(BLOCK_BYTES / N) {
        for (bytes, &x) in block.chunks_exact_mut(N).zip(part) {
            bytes.copy_from_slice(&to_le(x));
        }
        w.write_all(&block[..part.len() * N])?;
    }
    Ok(())
}

/// An empty vector for `n` items, a count read from the file: only a
/// bounded part of it is reserved up front, so a corrupt count runs into
/// the end of the input instead of the allocator.
fn with_file_capacity<T>(n: usize) -> Vec<T> {
    Vec::with_capacity(n.min(1 << 16))
}

/// Reads `n` consecutive `N`-byte little-endian words; `n` comes from the
/// file (see [`with_file_capacity`]).
fn read_le<R: Read, T, const N: usize>(
    r: &mut R,
    n: usize,
    from_le: impl Fn([u8; N]) -> T,
) -> Result<Vec<T>, ColumnarError> {
    let mut values = with_file_capacity(n);
    let mut block = [0u8; BLOCK_BYTES];
    while values.len() < n {
        let bytes = &mut block[..(n - values.len()).min(BLOCK_BYTES / N) * N];
        r.read_exact(bytes)?;
        values.extend(
            bytes
                .chunks_exact(N)
                .map(|b| from_le(b.try_into().expect("chunks_exact(N)"))),
        );
    }
    Ok(values)
}

fn read_data<R: Read>(r: &mut R, pt: PhysicalType) -> Result<ColumnData, ColumnarError> {
    let n = read_u64(r)? as usize;
    Ok(match pt {
        PhysicalType::Bool => ColumnData::Bool(read_le(r, n, |[b]| b != 0)?),
        PhysicalType::Int32 => ColumnData::I32(read_le(r, n, i32::from_le_bytes)?),
        PhysicalType::Int64 => ColumnData::I64(read_le(r, n, i64::from_le_bytes)?),
        PhysicalType::Float32 => ColumnData::F32(read_le(r, n, f32::from_le_bytes)?),
        PhysicalType::Float64 => ColumnData::F64(read_le(r, n, f64::from_le_bytes)?),
    })
}

fn write_str<W: Write>(w: &mut W, s: &str) -> Result<(), ColumnarError> {
    w.write_all(&(s.len() as u32).to_le_bytes())?;
    w.write_all(s.as_bytes())?;
    Ok(())
}

/// [`write_str`] of the path's dotted form, written segment by segment
/// instead of joined into a `String`.
fn write_path<W: Write>(w: &mut W, path: &Path) -> Result<(), ColumnarError> {
    let segments = path.segments();
    let len = segments.iter().map(String::len).sum::<usize>() + segments.len() - 1;
    w.write_all(&(len as u32).to_le_bytes())?;
    for (i, seg) in segments.iter().enumerate() {
        if i > 0 {
            w.write_all(b".")?;
        }
        w.write_all(seg.as_bytes())?;
    }
    Ok(())
}

fn read_str<R: Read>(r: &mut R) -> Result<String, ColumnarError> {
    let n = read_u32(r)? as usize;
    if n > 1 << 20 {
        return Err(ColumnarError::Format(format!("string too long: {n}")));
    }
    let mut buf = vec![0u8; n];
    r.read_exact(&mut buf)?;
    String::from_utf8(buf).map_err(|_| ColumnarError::Format("invalid utf8".into()))
}

fn read_u32<R: Read>(r: &mut R) -> Result<u32, ColumnarError> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64<R: Read>(r: &mut R) -> Result<u64, ColumnarError> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::TableBuilder;
    use nested_value::Value;

    fn sample_table() -> Table {
        let schema = Schema::new(vec![
            Field::new("id", DataType::i64()),
            Field::new("flag", DataType::bool()),
            Field::new(
                "P",
                DataType::particle_list(vec![
                    Field::new("pt", DataType::f32()),
                    Field::new("q", DataType::i32()),
                ]),
            ),
        ])
        .unwrap();
        let mut b = TableBuilder::new("t", schema, 3);
        for i in 0..7i64 {
            b.append(&Value::struct_from(vec![
                ("id", Value::Int(i)),
                ("flag", Value::Bool(i % 2 == 0)),
                (
                    "P",
                    Value::array(
                        (0..(i % 3))
                            .map(|j| {
                                Value::struct_from(vec![
                                    ("pt", Value::Float(10.0 + j as f64)),
                                    ("q", Value::Int(if j % 2 == 0 { 1 } else { -1 })),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]))
            .unwrap();
        }
        b.finish()
    }

    #[test]
    fn roundtrip_via_buffer() {
        let t = sample_table();
        let mut buf = Vec::new();
        write_table(&t, &mut buf).unwrap();
        let t2 = read_table(&mut &buf[..]).unwrap();
        assert_eq!(t2.name(), "t");
        assert_eq!(t2.n_rows(), 7);
        assert_eq!(t2.schema(), t.schema());
        let leaves: Vec<_> = t.schema().leaves().iter().collect();
        let rows1: Vec<_> = t
            .row_groups()
            .iter()
            .flat_map(|g| g.read_rows(t.schema(), &leaves).unwrap())
            .collect();
        let leaves2: Vec<_> = t2.schema().leaves().iter().collect();
        let rows2: Vec<_> = t2
            .row_groups()
            .iter()
            .flat_map(|g| g.read_rows(t2.schema(), &leaves2).unwrap())
            .collect();
        assert_eq!(rows1, rows2);
    }

    #[test]
    fn rejects_bad_magic() {
        let buf = b"NOPExxxxxxx".to_vec();
        assert!(matches!(
            read_table(&mut &buf[..]),
            Err(ColumnarError::Format(_))
        ));
    }

    #[test]
    fn rejects_truncated_file() {
        let t = sample_table();
        let mut buf = Vec::new();
        write_table(&t, &mut buf).unwrap();
        buf.truncate(buf.len() / 2);
        assert!(read_table(&mut &buf[..]).is_err());
    }

    #[test]
    fn rejects_corrupt_length_without_allocating_it() {
        let t = sample_table();
        let mut buf = Vec::new();
        write_table(&t, &mut buf).unwrap();
        // Everything before the first row group, from a table without any.
        let mut header = Vec::new();
        let empty = TableBuilder::new("t", t.schema().clone(), 3).finish();
        write_table(&empty, &mut header).unwrap();
        // n_rows u64 | n_columns u32 | "P.pt" as len u32 + 4 bytes | 2 tag
        // bytes, then the offsets length of the first (repeated) column.
        let at = header.len() + 8 + 4 + 8 + 2;
        assert_eq!(buf[at..at + 8], 4u64.to_le_bytes(), "3 rows + 1 offsets");
        buf[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(read_table(&mut &buf[..]).is_err());
    }

    #[test]
    fn rejects_corrupt_group_count_without_allocating_it() {
        // A table without row groups ends with its group count.
        let t = sample_table();
        let mut buf = Vec::new();
        write_table(
            &TableBuilder::new("t", t.schema().clone(), 3).finish(),
            &mut buf,
        )
        .unwrap();
        let at = buf.len() - 4;
        assert_eq!(buf[at..], 0u32.to_le_bytes());
        buf[at..].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_format_error(&buf, "truncated input");
    }

    #[test]
    fn rejects_corrupt_field_count_without_allocating_it() {
        // magic | version | name "t" as len u32 + 1 byte | field count.
        let mut buf = Vec::new();
        write_table(&sample_table(), &mut buf).unwrap();
        let at = 4 + 4 + 4 + 1;
        assert_eq!(buf[at..at + 4], 3u32.to_le_bytes(), "id, flag, P");
        buf[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            read_table(&mut &buf[..]),
            Err(ColumnarError::Format(_))
        ));
        // The same count in a schema that ends right after it.
        buf.truncate(at + 4);
        assert_format_error(&buf, "truncated input");
    }

    /// The sample table serialized, and the position of the first row
    /// group's column `path` (the byte after its name: the tags).
    fn written_with_column(path: &str) -> (Vec<u8>, usize) {
        let t = sample_table();
        let mut buf = Vec::new();
        write_table(&t, &mut buf).unwrap();
        let mut header = Vec::new();
        write_table(
            &TableBuilder::new("t", t.schema().clone(), 3).finish(),
            &mut header,
        )
        .unwrap();
        let key = [&(path.len() as u32).to_le_bytes()[..], path.as_bytes()].concat();
        let at = header.len()
            + buf[header.len()..]
                .windows(key.len())
                .position(|w| w == key)
                .unwrap();
        (buf, at + key.len())
    }

    fn assert_format_error(buf: &[u8], what: &str) {
        match read_table(&mut &buf[..]) {
            Err(ColumnarError::Format(msg)) => assert!(msg.contains(what), "{msg}"),
            other => panic!("expected a format error about {what}, got {other:?}"),
        }
    }

    #[test]
    fn rejects_chunks_that_do_not_fit_the_schema() {
        // Group 0 holds rows 0..3 with 0, 1 and 2 particles: `P.pt` has
        // offsets [0, 0, 1, 3] right after its tags and offsets count.
        let offsets = |buf: &[u8], at: usize| {
            assert_eq!(buf[at..at + 2], [3, 1], "Float32, has offsets");
            at + 2 + 8
        };
        let (mut buf, at) = written_with_column("P.pt");
        let o = offsets(&buf, at);
        buf[o + 4 * 2] = 0xff;
        assert_format_error(&buf, "offsets[2] > offsets[3]");

        let (mut buf, at) = written_with_column("P.pt");
        let o = offsets(&buf, at);
        buf[o] = 1;
        assert_format_error(&buf, "first offset is 1");

        let (mut buf, at) = written_with_column("P.pt");
        let o = offsets(&buf, at);
        buf[o + 4 * 3] = 2;
        assert_format_error(&buf, "last offset 2 for 3 entries");

        let (mut buf, at) = written_with_column("id");
        buf[at] = ptype_tag(PhysicalType::Float64);
        assert_format_error(&buf, "column id is Float64, schema says Int64");

        let (mut buf, at) = written_with_column("id");
        buf[at - 1] = b'x';
        assert_format_error(&buf, "column ix is not a schema leaf");

        // One row fewer in the group header: too many entries and offsets.
        let (mut buf, at) = written_with_column("P.pt");
        let n_rows = at - 4 - 4 - 4 - 8;
        assert_eq!(buf[n_rows..n_rows + 8], 3u64.to_le_bytes());
        buf[n_rows] = 2;
        assert_format_error(&buf, "4 offsets for 2 rows");
        let (mut buf, at) = written_with_column("P.pt");
        buf[at - 4 - 4 - 4] = 3;
        assert_format_error(&buf, "3 columns for 4 schema leaves");

        // Flat leaves come after `P.*` in path order; check them directly.
        let flag = sample_table().schema().leaves()[1].clone();
        assert_eq!(check_shape(&flag, 3, 3, None), Ok(()));
        assert_eq!(
            check_shape(&flag, 3, 2, None),
            Err("2 entries for 3 rows".into())
        );
        assert!(check_shape(&flag, 3, 3, Some(&[0, 1, 2, 3])).is_err());
    }

    #[test]
    fn save_and_load_file() {
        let t = sample_table();
        let dir = std::env::temp_dir().join("nf2c_test");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("sample.nf2c");
        save(&t, &p).unwrap();
        let t2 = load(&p).unwrap();
        assert_eq!(t2.n_rows(), t.n_rows());
        let file_size = std::fs::metadata(&p).unwrap().len();
        assert!(file_size > 0);
        std::fs::remove_file(&p).ok();
    }
}
