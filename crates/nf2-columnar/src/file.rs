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
//! sizes are recomputed on load (they are derived data).

use std::io::{self, Read, Write};

use nested_value::Path;

use crate::column::{ColumnChunk, ColumnData};
use crate::error::ColumnarError;
use crate::rowgroup::RowGroup;
use crate::schema::{DataType, Field, PhysicalType, Schema};
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
            write_str(w, &path.to_string())?;
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

/// Reads a table from any reader.
pub fn read_table<R: Read>(r: &mut R) -> Result<Table, ColumnarError> {
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
    let n_groups = read_u32(r)? as usize;
    let mut groups = Vec::with_capacity(n_groups);
    for _ in 0..n_groups {
        let n_rows = read_u64(r)? as usize;
        let n_cols = read_u32(r)? as usize;
        let mut columns = std::collections::BTreeMap::new();
        for _ in 0..n_cols {
            let path = Path::parse(&read_str(r)?);
            let mut tag = [0u8; 2];
            r.read_exact(&mut tag)?;
            let ptype = tag_ptype(tag[0])?;
            let offsets = if tag[1] == 1 {
                let n = read_u64(r)? as usize;
                Some(read_le(r, n, u32::from_le_bytes)?)
            } else {
                None
            };
            let data = read_data(r, ptype)?;
            columns.insert(path, ColumnChunk::seal(data, offsets));
        }
        groups.push(RowGroup::new(n_rows, columns));
    }
    Ok(Table::new(name, schema, groups))
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
    let mut fields = Vec::with_capacity(n);
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

/// Reads `n` consecutive `N`-byte little-endian words. `n` comes from
/// the file: only a bounded part of it is reserved up front, so a corrupt
/// length runs into the end of the input instead of the allocator.
fn read_le<R: Read, T, const N: usize>(
    r: &mut R,
    n: usize,
    from_le: impl Fn([u8; N]) -> T,
) -> Result<Vec<T>, ColumnarError> {
    let mut values = Vec::with_capacity(n.min(1 << 16));
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
