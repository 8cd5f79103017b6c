//! Honest lightweight compression: adaptive per-chunk encodings.
//!
//! The substrate never persists compressed bytes (queries read the typed
//! buffers directly), but the *compressed size* of each chunk must be real:
//! it is the basis of Athena-style scan pricing and of the paper's Figure 4b
//! "ideal bytes" line. Each chunk is therefore sealed with the smallest of
//! several real encodings — every candidate has an actual encoder/decoder
//! whose output length is what [`ColumnChunk::seal`](crate::column::ColumnChunk::seal)
//! prices:
//!
//! * **[`Encoding::BoolRle`]** (Bool) — bit-packing followed by byte-level
//!   RLE (flag columns are mostly constant and compress extremely well).
//! * **[`Encoding::DeltaVarint`]** (Int32/Int64, offsets) — zig-zag delta
//!   encoding with LEB128 varints, the same family Parquet's
//!   `DELTA_BINARY_PACKED` belongs to.
//! * **[`Encoding::ByteStreamSplit`]** (Float32/Float64) — byte-plane split
//!   (as in Parquet's `BYTE_STREAM_SPLIT`) with RLE per plane. Sign/exponent
//!   planes compress somewhat; mantissa planes of physics measurements are
//!   close to random, so overall ratios stay near 1 — exactly the behaviour
//!   the paper relies on when discussing Athena's pricing ("most columns …
//!   have only negligible compression ratios").
//! * **[`Encoding::Dict`]** (numeric types, ≤ 256 distinct values) — a value
//!   dictionary plus RLE-compressed one-byte codes, Parquet's
//!   `RLE_DICTIONARY` in miniature. Wins on low-cardinality leaves (charges,
//!   ids, constant calibration columns) where delta or plane encodings still
//!   pay a byte per value.
//! * **[`Encoding::Plain`]** — raw little-endian values, the fallback bound
//!   so an adaptive choice can never exceed raw size on pathological data.
//!
//! [`choose`] picks the smallest applicable candidate per chunk (ties go to
//! the earlier, type-default candidate), so the chosen size is never larger
//! than the single-encoding estimate [`compressed_size`] the earlier
//! release used.

use crate::column::ColumnData;
use crate::error::ColumnarError;
use crate::schema::PhysicalType;

/// Computes the compressed byte size of a buffer under the *type-default*
/// encoding (BoolRle / DeltaVarint / ByteStreamSplit). This is the
/// pre-adaptive baseline; [`choose`] never returns a larger size.
pub fn compressed_size(data: &ColumnData) -> usize {
    match data {
        ColumnData::Bool(v) => bool_size(v),
        ColumnData::I32(v) => varint_delta_size(v.iter().map(|&x| x as i64)),
        ColumnData::I64(v) => varint_delta_size(v.iter().copied()),
        ColumnData::F32(v) => byte_plane_size(v.len(), 4, |i, b| v[i].to_le_bytes()[b]),
        ColumnData::F64(v) => byte_plane_size(v.len(), 8, |i, b| v[i].to_le_bytes()[b]),
    }
}

/// Compressed size of an offsets array (delta + varint: offsets are sorted,
/// so deltas are the per-row list lengths, which are tiny).
pub fn offsets_size(offsets: &[u32]) -> usize {
    varint_delta_size(offsets.iter().map(|&x| x as i64))
}

/// One physical chunk encoding.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Encoding {
    /// Raw little-endian values (bools as one byte each).
    Plain,
    /// Bit-packing + byte RLE; Bool only.
    BoolRle,
    /// Zig-zag deltas as LEB128 varints; integer types only.
    DeltaVarint,
    /// Little-endian byte planes, each RLE-compressed; float types only.
    ByteStreamSplit,
    /// ≤ 256-entry value dictionary + RLE-compressed one-byte codes;
    /// numeric types only.
    Dict,
}

impl Encoding {
    /// Stable display name (bench/report output).
    pub fn name(&self) -> &'static str {
        match self {
            Encoding::Plain => "plain",
            Encoding::BoolRle => "bool_rle",
            Encoding::DeltaVarint => "delta_varint",
            Encoding::ByteStreamSplit => "byte_stream_split",
            Encoding::Dict => "dict",
        }
    }
}

/// Candidate encodings for a physical type, in tie-break order (the
/// type-default first, `Plain` last as the raw-size bound).
pub fn candidates(pt: PhysicalType) -> &'static [Encoding] {
    match pt {
        PhysicalType::Bool => &[Encoding::BoolRle, Encoding::Plain],
        PhysicalType::Int32 | PhysicalType::Int64 => {
            &[Encoding::DeltaVarint, Encoding::Dict, Encoding::Plain]
        }
        PhysicalType::Float32 | PhysicalType::Float64 => {
            &[Encoding::ByteStreamSplit, Encoding::Dict, Encoding::Plain]
        }
    }
}

/// Encoded size of `data` under `enc` without materializing the payload,
/// or `None` when the encoding does not apply (wrong type, or dictionary
/// overflow). Exactly equals `encode_as(data, enc).len()` when applicable.
pub fn encoded_size(data: &ColumnData, enc: Encoding) -> Option<usize> {
    match (enc, data) {
        (Encoding::Plain, _) => Some(data.len() * plain_width(data.physical_type())),
        (Encoding::BoolRle, ColumnData::Bool(v)) => Some(bool_size(v)),
        (Encoding::DeltaVarint, ColumnData::I32(v)) => {
            Some(varint_delta_size(v.iter().map(|&x| x as i64)))
        }
        (Encoding::DeltaVarint, ColumnData::I64(v)) => Some(varint_delta_size(v.iter().copied())),
        (Encoding::ByteStreamSplit, ColumnData::F32(v)) => {
            Some(byte_plane_size(v.len(), 4, |i, b| v[i].to_le_bytes()[b]))
        }
        (Encoding::ByteStreamSplit, ColumnData::F64(v)) => {
            Some(byte_plane_size(v.len(), 8, |i, b| v[i].to_le_bytes()[b]))
        }
        (Encoding::Dict, _) => dict_size(data),
        _ => None,
    }
}

/// Picks the smallest applicable encoding for `data` (ties break toward
/// the earlier candidate). Returns the encoding and its measured size.
pub fn choose(data: &ColumnData) -> (Encoding, usize) {
    let mut best: Option<(Encoding, usize)> = None;
    for &enc in candidates(data.physical_type()) {
        if let Some(size) = encoded_size(data, enc) {
            if best.is_none_or(|(_, b)| size < b) {
                best = Some((enc, size));
            }
        }
    }
    best.expect("Plain always applies")
}

/// Encodes `data` under `enc`. Returns `None` when the encoding does not
/// apply. The payload is self-contained given the physical type and entry
/// count (no header bytes), so `len()` matches [`encoded_size`].
pub fn encode_as(data: &ColumnData, enc: Encoding) -> Option<Vec<u8>> {
    match (enc, data) {
        (Encoding::Plain, _) => Some(plain_encode(data)),
        (Encoding::BoolRle, ColumnData::Bool(v)) => {
            let mut packed = Vec::with_capacity(v.len() / 8 + 1);
            for chunk in v.chunks(8) {
                let mut b = 0u8;
                for (i, &bit) in chunk.iter().enumerate() {
                    b |= (bit as u8) << i;
                }
                packed.push(b);
            }
            Some(rle_encode(&packed))
        }
        (Encoding::DeltaVarint, ColumnData::I32(v)) => {
            Some(varint_delta_encode(v.iter().map(|&x| x as i64)))
        }
        (Encoding::DeltaVarint, ColumnData::I64(v)) => Some(varint_delta_encode(v.iter().copied())),
        (Encoding::ByteStreamSplit, ColumnData::F32(v)) => Some(byte_plane_encode(
            v.iter().flat_map(|x| x.to_le_bytes()),
            4,
            v.len(),
        )),
        (Encoding::ByteStreamSplit, ColumnData::F64(v)) => Some(byte_plane_encode(
            v.iter().flat_map(|x| x.to_le_bytes()),
            8,
            v.len(),
        )),
        (Encoding::Dict, _) => dict_encode(data),
        _ => None,
    }
}

/// Decodes a payload produced by [`encode_as`] back into a buffer of
/// `n` entries of physical type `pt`.
pub fn decode(
    enc: Encoding,
    bytes: &[u8],
    pt: PhysicalType,
    n: usize,
) -> Result<ColumnData, ColumnarError> {
    let mut r = Reader { bytes, pos: 0 };
    let data = match enc {
        Encoding::Plain => plain_decode(&mut r, pt, n)?,
        Encoding::BoolRle => {
            if pt != PhysicalType::Bool {
                return Err(ColumnarError::Format("BoolRle on non-bool".into()));
            }
            let packed = rle_decode(&mut r, n.div_ceil(8))?;
            ColumnData::Bool((0..n).map(|i| packed[i / 8] >> (i % 8) & 1 == 1).collect())
        }
        Encoding::DeltaVarint => {
            let vals = varint_delta_decode(&mut r, n)?;
            match pt {
                PhysicalType::Int32 => ColumnData::I32(vals.iter().map(|&x| x as i32).collect()),
                PhysicalType::Int64 => ColumnData::I64(vals),
                _ => return Err(ColumnarError::Format("DeltaVarint on non-int".into())),
            }
        }
        Encoding::ByteStreamSplit => {
            let width = match pt {
                PhysicalType::Float32 => 4,
                PhysicalType::Float64 => 8,
                _ => return Err(ColumnarError::Format("ByteStreamSplit on non-float".into())),
            };
            let mut planes = Vec::with_capacity(width);
            for _ in 0..width {
                planes.push(rle_decode(&mut r, n)?);
            }
            from_le_values(pt, n, |i, b| planes[b][i])?
        }
        Encoding::Dict => dict_decode(&mut r, pt, n)?,
    };
    if r.pos != bytes.len() {
        return Err(ColumnarError::Format(format!(
            "trailing bytes after decode: {} of {}",
            r.pos,
            bytes.len()
        )));
    }
    Ok(data)
}

fn plain_width(pt: PhysicalType) -> usize {
    match pt {
        PhysicalType::Bool => 1,
        _ => pt.width(),
    }
}

fn plain_encode(data: &ColumnData) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() * plain_width(data.physical_type()));
    match data {
        ColumnData::Bool(v) => out.extend(v.iter().map(|&b| b as u8)),
        ColumnData::I32(v) => v.iter().for_each(|x| out.extend(x.to_le_bytes())),
        ColumnData::I64(v) => v.iter().for_each(|x| out.extend(x.to_le_bytes())),
        ColumnData::F32(v) => v.iter().for_each(|x| out.extend(x.to_le_bytes())),
        ColumnData::F64(v) => v.iter().for_each(|x| out.extend(x.to_le_bytes())),
    }
    out
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], ColumnarError> {
        if self.pos + n > self.bytes.len() {
            return Err(ColumnarError::Format("truncated payload".into()));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn byte(&mut self) -> Result<u8, ColumnarError> {
        Ok(self.take(1)?[0])
    }
}

fn plain_decode(r: &mut Reader, pt: PhysicalType, n: usize) -> Result<ColumnData, ColumnarError> {
    if pt == PhysicalType::Bool {
        let raw = r.take(n)?;
        return Ok(ColumnData::Bool(raw.iter().map(|&b| b != 0).collect()));
    }
    let raw = r.take(n * pt.width())?.to_vec();
    from_le_values(pt, n, |i, b| raw[i * pt.width() + b])
}

/// Reassembles `n` values of type `pt` from a little-endian byte accessor
/// `(value index, byte index) -> byte`.
fn from_le_values(
    pt: PhysicalType,
    n: usize,
    get: impl Fn(usize, usize) -> u8,
) -> Result<ColumnData, ColumnarError> {
    let le = |i: usize, w: usize| -> u64 {
        let mut x = 0u64;
        for b in 0..w {
            x |= (get(i, b) as u64) << (8 * b);
        }
        x
    };
    Ok(match pt {
        PhysicalType::Bool => ColumnData::Bool((0..n).map(|i| get(i, 0) != 0).collect()),
        PhysicalType::Int32 => ColumnData::I32((0..n).map(|i| le(i, 4) as u32 as i32).collect()),
        PhysicalType::Int64 => ColumnData::I64((0..n).map(|i| le(i, 8) as i64).collect()),
        PhysicalType::Float32 => {
            ColumnData::F32((0..n).map(|i| f32::from_bits(le(i, 4) as u32)).collect())
        }
        PhysicalType::Float64 => {
            ColumnData::F64((0..n).map(|i| f64::from_bits(le(i, 8))).collect())
        }
    })
}

fn bool_size(v: &[bool]) -> usize {
    // Bit-pack, then RLE the packed bytes.
    let mut bytes = Vec::with_capacity(v.len() / 8 + 1);
    for chunk in v.chunks(8) {
        let mut b = 0u8;
        for (i, &bit) in chunk.iter().enumerate() {
            b |= (bit as u8) << i;
        }
        bytes.push(b);
    }
    rle_size(&bytes)
}

/// Byte length of a PackBits-style RLE encoding of a byte stream: repeated
/// runs of ≥3 cost a control byte plus the value; literal stretches cost
/// their own length plus one control byte per 127 literals. Incompressible
/// data therefore costs ~100.8% of its raw size, never 2×.
fn rle_size(bytes: &[u8]) -> usize {
    rle_size_of(bytes.len(), |i| bytes[i])
}

/// [`rle_size`] of the `n`-byte stream whose byte `i` is `at(i)`, so a
/// strided view (one byte plane of a float column) needs no copy.
fn rle_size_of(n: usize, at: impl Fn(usize) -> u8) -> usize {
    let mut size = 0usize;
    let mut literals = 0usize;
    let mut i = 0;
    while i < n {
        let b = at(i);
        let mut run = 1usize;
        while i + run < n && at(i + run) == b && run < 130 {
            run += 1;
        }
        if run >= 3 {
            size += literal_cost(literals) + 2;
            literals = 0;
        } else {
            literals += run;
        }
        i += run;
    }
    size + literal_cost(literals)
}

/// The real encoder behind [`rle_size`] — same greedy segmentation, so the
/// output length equals the estimate byte for byte. Runs of 3..=130 become
/// `[0x80 | (run - 3), value]`; literal stretches become `[len, bytes…]`
/// in chunks of ≤ 127.
fn rle_encode(bytes: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    let mut literals: Vec<u8> = Vec::new();
    let flush = |out: &mut Vec<u8>, literals: &mut Vec<u8>| {
        for chunk in literals.chunks(127) {
            out.push(chunk.len() as u8);
            out.extend_from_slice(chunk);
        }
        literals.clear();
    };
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        let mut run = 1usize;
        while i + run < bytes.len() && bytes[i + run] == b && run < 130 {
            run += 1;
        }
        if run >= 3 {
            flush(&mut out, &mut literals);
            out.push(0x80 | (run - 3) as u8);
            out.push(b);
        } else {
            literals.extend(std::iter::repeat_n(b, run));
        }
        i += run;
    }
    flush(&mut out, &mut literals);
    out
}

/// Decodes a PackBits stream until exactly `n` bytes are produced.
fn rle_decode(r: &mut Reader, n: usize) -> Result<Vec<u8>, ColumnarError> {
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let c = r.byte()?;
        if c & 0x80 != 0 {
            let run = (c & 0x7f) as usize + 3;
            let b = r.byte()?;
            out.extend(std::iter::repeat_n(b, run));
        } else {
            let len = c as usize;
            if len == 0 {
                return Err(ColumnarError::Format("zero-length literal run".into()));
            }
            out.extend_from_slice(r.take(len)?);
        }
    }
    if out.len() != n {
        return Err(ColumnarError::Format("RLE run overshoots buffer".into()));
    }
    Ok(out)
}

fn literal_cost(n: usize) -> usize {
    if n == 0 {
        0
    } else {
        n + n.div_ceil(127)
    }
}

/// Byte length of the LEB128 varint encoding of `x`.
fn varint_len(x: u64) -> usize {
    (64 - x.leading_zeros()).div_ceil(7).max(1) as usize
}

fn varint_encode(mut x: u64, out: &mut Vec<u8>) {
    loop {
        let b = (x & 0x7f) as u8;
        x >>= 7;
        if x == 0 {
            out.push(b);
            return;
        }
        out.push(b | 0x80);
    }
}

fn varint_decode(r: &mut Reader) -> Result<u64, ColumnarError> {
    let mut x = 0u64;
    let mut shift = 0u32;
    loop {
        let b = r.byte()?;
        x |= ((b & 0x7f) as u64) << shift;
        if b & 0x80 == 0 {
            return Ok(x);
        }
        shift += 7;
        if shift >= 64 {
            return Err(ColumnarError::Format("varint too long".into()));
        }
    }
}

fn zigzag(x: i64) -> u64 {
    ((x << 1) ^ (x >> 63)) as u64
}

fn unzigzag(x: u64) -> i64 {
    ((x >> 1) as i64) ^ -((x & 1) as i64)
}

fn varint_delta_size<I: IntoIterator<Item = i64>>(xs: I) -> usize {
    let mut prev = 0i64;
    let mut size = 0usize;
    for x in xs {
        size += varint_len(zigzag(x.wrapping_sub(prev)));
        prev = x;
    }
    size
}

fn varint_delta_encode<I: IntoIterator<Item = i64>>(xs: I) -> Vec<u8> {
    let mut prev = 0i64;
    let mut out = Vec::new();
    for x in xs {
        varint_encode(zigzag(x.wrapping_sub(prev)), &mut out);
        prev = x;
    }
    out
}

fn varint_delta_decode(r: &mut Reader, n: usize) -> Result<Vec<i64>, ColumnarError> {
    let mut prev = 0i64;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        prev = prev.wrapping_add(unzigzag(varint_decode(r)?));
        out.push(prev);
    }
    Ok(out)
}

/// Size of [`byte_plane_encode`]'s output for `n` values of `width`
/// bytes, `byte(i, b)` being little-endian byte `b` of value `i`: the sum
/// of the planes' RLE sizes, read in place.
fn byte_plane_size(n: usize, width: usize, byte: impl Fn(usize, usize) -> u8) -> usize {
    (0..width)
        .map(|plane| rle_size_of(n, |i| byte(i, plane)))
        .sum()
}

fn byte_plane_encode<I: IntoIterator<Item = u8>>(bytes: I, width: usize, n: usize) -> Vec<u8> {
    if n == 0 {
        return Vec::new();
    }
    let mut planes: Vec<Vec<u8>> = vec![Vec::with_capacity(n); width];
    for (i, b) in bytes.into_iter().enumerate() {
        planes[i % width].push(b);
    }
    planes.iter().flat_map(|p| rle_encode(p)).collect()
}

/// Maximum dictionary size (codes are one byte).
const DICT_MAX: usize = 256;

/// The 64-bit little-endian image of entry `i` under the column's width
/// (bit pattern for floats, so NaN payloads dictionary-encode faithfully).
fn entry_bits(data: &ColumnData, i: usize) -> u64 {
    match data {
        ColumnData::Bool(v) => v[i] as u64,
        ColumnData::I32(v) => v[i] as u32 as u64,
        ColumnData::I64(v) => v[i] as u64,
        ColumnData::F32(v) => v[i].to_bits() as u64,
        ColumnData::F64(v) => v[i].to_bits(),
    }
}

/// Builds the dictionary (first-occurrence order) and per-entry codes, or
/// `None` when the column is boolean, empty, or exceeds [`DICT_MAX`]
/// distinct values.
fn dict_build(data: &ColumnData) -> Option<(Vec<u64>, Vec<u8>)> {
    if matches!(data, ColumnData::Bool(_)) || data.is_empty() {
        return None;
    }
    let mut values: Vec<u64> = Vec::new();
    // Open-addressing index over `values`: a slot holds code + 1 of the
    // value hashed there, 0 when empty. Twice DICT_MAX slots keep the
    // load at most one half, so linear probes stay short; values chosen
    // to collide cost at most DICT_MAX probes each, then the build bails.
    let mut slots = [0u16; 2 * DICT_MAX];
    // Fibonacci hashing: the top bits of the product index the
    // (power-of-two many) slots.
    let shift = u64::BITS - slots.len().trailing_zeros();
    let mut codes = Vec::with_capacity(data.len());
    for i in 0..data.len() {
        let bits = entry_bits(data, i);
        let mut at = (bits.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> shift) as usize;
        let code = loop {
            match slots[at] {
                0 => {
                    if values.len() >= DICT_MAX {
                        return None;
                    }
                    values.push(bits);
                    slots[at] = values.len() as u16;
                    break (values.len() - 1) as u8;
                }
                s if values[s as usize - 1] == bits => break (s - 1) as u8,
                _ => at = (at + 1) % slots.len(),
            }
        };
        codes.push(code);
    }
    Some((values, codes))
}

fn dict_size(data: &ColumnData) -> Option<usize> {
    let (values, codes) = dict_build(data)?;
    let width = data.physical_type().width();
    Some(varint_len(values.len() as u64) + values.len() * width + rle_size(&codes))
}

fn dict_encode(data: &ColumnData) -> Option<Vec<u8>> {
    let (values, codes) = dict_build(data)?;
    let width = data.physical_type().width();
    let mut out = Vec::new();
    varint_encode(values.len() as u64, &mut out);
    for &bits in &values {
        out.extend_from_slice(&bits.to_le_bytes()[..width]);
    }
    out.extend(rle_encode(&codes));
    Some(out)
}

fn dict_decode(r: &mut Reader, pt: PhysicalType, n: usize) -> Result<ColumnData, ColumnarError> {
    let k = varint_decode(r)? as usize;
    if k > DICT_MAX {
        return Err(ColumnarError::Format(format!("dictionary too large: {k}")));
    }
    let width = pt.width();
    let mut values = Vec::with_capacity(k);
    for _ in 0..k {
        let raw = r.take(width)?;
        let mut x = 0u64;
        for (b, &byte) in raw.iter().enumerate() {
            x |= (byte as u64) << (8 * b);
        }
        values.push(x);
    }
    let codes = if n == 0 {
        Vec::new()
    } else {
        rle_decode(r, n)?
    };
    for &c in &codes {
        if c as usize >= k {
            return Err(ColumnarError::Format(format!("dict code {c} out of range")));
        }
    }
    from_le_values(pt, n, |i, b| (values[codes[i] as usize] >> (8 * b)) as u8)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_bools_compress_heavily() {
        let v = vec![true; 8000];
        let size = compressed_size(&ColumnData::Bool(v));
        assert!(
            size < 20,
            "constant flags should RLE to almost nothing, got {size}"
        );
    }

    #[test]
    fn sequential_ints_compress_heavily() {
        let v: Vec<i64> = (0..10_000).collect();
        let size = compressed_size(&ColumnData::I64(v));
        // Delta of 1 → 1 byte per entry.
        assert!(size <= 10_001, "got {size}");
        assert!(size > 5_000);
    }

    #[test]
    fn random_floats_barely_compress() {
        // Deterministic pseudo-random floats via a simple LCG.
        let mut x = 0x2545F4914F6CDD1Du64;
        let v: Vec<f32> = (0..10_000)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                20.0 + (x >> 40) as f32 / 1000.0
            })
            .collect();
        let raw = v.len() * 4;
        let size = compressed_size(&ColumnData::F32(v));
        let ratio = size as f64 / raw as f64;
        assert!(
            ratio > 0.6 && ratio <= 1.3,
            "physics-like floats should have a negligible compression ratio, got {ratio}"
        );
    }

    #[test]
    fn offsets_compress_like_small_deltas() {
        let offsets: Vec<u32> = (0..=1000u32).map(|i| i * 3).collect();
        let size = offsets_size(&offsets);
        assert!(size <= 1001, "got {size}");
    }

    #[test]
    fn varint_lengths() {
        assert_eq!(varint_len(0), 1);
        assert_eq!(varint_len(127), 1);
        assert_eq!(varint_len(128), 2);
        assert_eq!(varint_len(u64::MAX), 10);
    }

    #[test]
    fn empty_buffers_are_zero() {
        assert_eq!(compressed_size(&ColumnData::F64(vec![])), 0);
        assert_eq!(compressed_size(&ColumnData::Bool(vec![])), 0);
        assert_eq!(compressed_size(&ColumnData::I32(vec![])), 0);
    }

    /// Representative buffers of every variant: constant, sequential,
    /// adversarial (forces literal RLE paths and dictionary overflow),
    /// and empty.
    fn sample_buffers() -> Vec<ColumnData> {
        let mut x = 0x2545F4914F6CDD1Du64;
        let mut rng = move || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            x
        };
        let noise: Vec<u64> = (0..1000).map(|_| rng()).collect();
        vec![
            ColumnData::Bool(vec![]),
            ColumnData::Bool(vec![true; 500]),
            ColumnData::Bool(noise.iter().map(|&x| x & 1 == 1).collect()),
            ColumnData::I32(vec![]),
            ColumnData::I32([-1, 1, 1, -1, 0, 1].repeat(80)),
            ColumnData::I32(noise.iter().map(|&x| x as i32).collect()),
            ColumnData::I64(vec![]),
            ColumnData::I64((0..1000).collect()),
            ColumnData::I64(vec![i64::MIN, i64::MAX, 0, -1, 1]),
            ColumnData::I64(noise.iter().map(|&x| x as i64).collect()),
            ColumnData::F32(vec![]),
            ColumnData::F32(vec![0.105_658_37; 400]),
            ColumnData::F32(noise.iter().map(|&x| (x >> 40) as f32 / 7.0).collect()),
            ColumnData::F64(vec![]),
            ColumnData::F64(vec![0.0, -0.0, f64::NAN, f64::INFINITY, -1.5e300]),
            ColumnData::F64(noise.iter().map(|&x| f64::from_bits(x | 1 << 52)).collect()),
        ]
    }

    fn bits_equal(a: &ColumnData, b: &ColumnData) -> bool {
        a.len() == b.len() && (0..a.len()).all(|i| entry_bits(a, i) == entry_bits(b, i))
    }

    #[test]
    fn every_encoding_round_trips_every_variant() {
        for data in sample_buffers() {
            for &enc in candidates(data.physical_type()) {
                let Some(bytes) = encode_as(&data, enc) else {
                    assert_eq!(
                        encoded_size(&data, enc),
                        None,
                        "size/encode applicability must agree for {enc:?}"
                    );
                    continue;
                };
                assert_eq!(
                    bytes.len(),
                    encoded_size(&data, enc).unwrap(),
                    "measured size must equal estimated size for {enc:?}"
                );
                let back = decode(enc, &bytes, data.physical_type(), data.len()).unwrap();
                assert_eq!(back.physical_type(), data.physical_type());
                assert!(
                    bits_equal(&data, &back),
                    "lossy round trip under {enc:?} for {:?}",
                    data.physical_type()
                );
            }
        }
    }

    #[test]
    fn chosen_encoding_never_exceeds_type_default_estimate() {
        for data in sample_buffers() {
            let (enc, size) = choose(&data);
            assert!(
                size <= compressed_size(&data),
                "{enc:?} chose {size} > baseline {} for {:?}",
                compressed_size(&data),
                data.physical_type()
            );
            // The choice is real: its payload measures exactly `size`.
            assert_eq!(encode_as(&data, enc).unwrap().len(), size);
        }
    }

    #[test]
    fn dictionary_wins_on_low_cardinality_columns() {
        // A constant f32 column (a calibration constant, a particle mass):
        // byte-stream-split still pays RLE overhead per plane, the
        // dictionary collapses to one value + constant codes.
        let constant = ColumnData::F32(vec![0.105_658_37; 4000]);
        let (enc, size) = choose(&constant);
        assert_eq!(enc, Encoding::Dict);
        assert!(size < 100, "constant column should collapse, got {size}");

        // Charges ∈ {−1, 1}: delta-varint pays a byte per value, the
        // dictionary RLEs two codes.
        let mut x = 7u64;
        let charges = ColumnData::I32(
            (0..4000)
                .map(|_| {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                    if x >> 63 == 0 {
                        1
                    } else {
                        -1
                    }
                })
                .collect(),
        );
        let (_, dict) = (
            Encoding::Dict,
            encoded_size(&charges, Encoding::Dict).unwrap(),
        );
        let delta = encoded_size(&charges, Encoding::DeltaVarint).unwrap();
        assert!(dict <= delta + 16, "dict {dict} vs delta {delta}");
    }

    #[test]
    fn dictionary_bails_on_high_cardinality() {
        let v: Vec<i64> = (0..1000).collect();
        assert_eq!(encoded_size(&ColumnData::I64(v), Encoding::Dict), None);
    }

    #[test]
    fn plain_bounds_pathological_ints() {
        // Full-range random i64s: zig-zag deltas mostly cost 10 bytes per
        // value, plain costs 8, and >256 distinct values rule the
        // dictionary out — the adaptive choice must take the raw bound.
        let mut x = 0x9E3779B97F4A7C15u64;
        let v: Vec<i64> = (0..500)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                x as i64
            })
            .collect();
        let data = ColumnData::I64(v);
        assert!(encoded_size(&data, Encoding::DeltaVarint).unwrap() > 500 * 8);
        let (enc, size) = choose(&data);
        assert_eq!(enc, Encoding::Plain);
        assert_eq!(size, 500 * 8);
    }
}
