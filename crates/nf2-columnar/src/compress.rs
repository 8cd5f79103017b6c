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
//! the earlier, type-default candidate) and builds the chunk's zone map,
//! without encoding any candidate and without allocating. Its passes
//! over the typed buffer, each a tight loop over data in L1:
//!
//! * [`ZoneMap::build`]'s lane-wise min/max fold;
//! * one walk over the XORs of neighbouring entries. An RLE stream's size
//!   depends only on where equal neighbours are, and a zero byte of the
//!   XOR is an equal neighbour in that byte plane. Sixty-four entries at a
//!   time, the walk gathers every plane's equal-neighbour bits into a
//!   mask and sizes the mask in a fixed number of bit operations, so the
//!   byte planes and the dictionary's codes (equal exactly when their
//!   entries' bits are) are priced without planes or codes existing;
//! * only while the dictionary can still win: a count of the distinct
//!   entries, first a lower bound from a 1024-bit map of hashes, then
//!   exactly, in an on-stack table that gives up once the dictionary is
//!   too big.
//!
//! [`encoded_size`] prices one candidate at a time from the encoder's own
//! segmentation; it is the oracle the tests hold [`choose`] to, and
//! [`encode_as`] is the oracle for `encoded_size`.

use std::ops::{Add, BitAnd, BitOr, BitXor, Not, Shl, Shr};

use crate::column::ColumnData;
use crate::error::ColumnarError;
use crate::schema::PhysicalType;
use crate::stats::{self, Float, Int, ZoneMap};

/// Compressed size of an offsets array (delta + varint: offsets are sorted,
/// so deltas are the per-row list lengths, which are tiny).
pub fn offsets_size(offsets: &[u32]) -> usize {
    // The zig-zagged difference `z` of two u32s takes one varint byte,
    // plus one for each of z ≥ 2^7, 2^14, 2^21, 2^28 (it is below 2^33).
    // For a difference `d ≥ 0`, z = 2d; for `d < 0`, z = 2|d| - 1: so
    // the thresholds fall on |d|, less one when negative, at half of
    // each, and the sizing stays in 32-bit lanes.
    let len = |x: u32, prev: u32| {
        let m = x.max(prev) - x.min(prev) - u32::from(x < prev);
        1 + u32::from(m >= 1 << 6)
            + u32::from(m >= 1 << 13)
            + u32::from(m >= 1 << 20)
            + u32::from(m >= 1 << 27)
    };
    let first = offsets.first().map_or(0, |&x| len(x, 0));
    let pairs = offsets.iter().skip(1).zip(offsets);
    first as usize
        + pairs
            .map(|(&x, &prev)| len(x, prev) as usize)
            .sum::<usize>()
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
        (Encoding::BoolRle, ColumnData::Bool(v)) => Some(rle_size(&bool_pack(v))),
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

/// What [`choose`] finds in a value buffer.
#[derive(Clone, Debug, PartialEq)]
pub struct Choice {
    /// The smallest applicable candidate; ties go to the earlier one in
    /// [`candidates`].
    pub encoding: Encoding,
    /// Its payload size: `encoded_size(data, encoding)`.
    pub bytes: usize,
    /// The buffer's zone map, as [`ZoneMap::build`] computes it.
    pub zone: ZoneMap,
}

/// Picks the smallest applicable encoding for `data` (ties break toward
/// the earlier candidate) and builds the zone map, without allocating
/// (see the [module docs](self)). The encoding and size are those that
/// pricing every candidate with [`encoded_size`] gives.
pub fn choose(data: &ColumnData) -> Choice {
    match data {
        ColumnData::Bool(v) => {
            let (encoding, bytes) = cheapest((Encoding::BoolRle, bool_size(v)), v.len(), |_| None);
            Choice {
                encoding,
                bytes,
                zone: ZoneMap::build(data),
            }
        }
        ColumnData::I32(v) => choose_ints(v),
        ColumnData::I64(v) => choose_ints(v),
        ColumnData::F32(v) => choose_floats(v),
        ColumnData::F64(v) => choose_floats(v),
    }
}

/// Encodes `data` under `enc`. Returns `None` when the encoding does not
/// apply. The payload is self-contained given the physical type and entry
/// count (no header bytes), so `len()` matches [`encoded_size`].
pub fn encode_as(data: &ColumnData, enc: Encoding) -> Option<Vec<u8>> {
    match (enc, data) {
        (Encoding::Plain, _) => Some(plain_encode(data)),
        (Encoding::BoolRle, ColumnData::Bool(v)) => Some(rle_encode(&bool_pack(v))),
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

/// [`Encoding::BoolRle`]'s size: the bit-packed bytes streamed through
/// an [`RleSizer`], never stored.
fn bool_size(v: &[bool]) -> usize {
    let mut rle = RleSizer::default();
    let mut prev = None;
    for b in v.chunks(8).map(pack8) {
        rle.push(prev == Some(b));
        prev = Some(b);
    }
    rle.finish()
}

/// Bit-packs booleans, eight to a byte.
fn bool_pack(v: &[bool]) -> Vec<u8> {
    v.chunks(8).map(pack8).collect()
}

/// Up to eight booleans as one byte, the first in the lowest bit.
fn pack8(bits: &[bool]) -> u8 {
    bits.iter().rev().fold(0, |b, &bit| b << 1 | bit as u8)
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

// ------------------------------------------------------------ choose

/// The cheapest of a type-default candidate, the dictionary and plain,
/// ties to the earlier, as [`candidates`] orders them. `dict(limit)`
/// prices the dictionary, or gives `None` when it does not apply or would
/// cost `limit` or more: it wins only below the default and at most
/// plain, so a dearer dictionary need not be priced to the end.
fn cheapest(
    default: (Encoding, usize),
    plain: usize,
    dict: impl FnOnce(usize) -> Option<usize>,
) -> (Encoding, usize) {
    let mut best = default;
    if let Some(size) = dict(best.1.min(plain + 1)) {
        best = (Encoding::Dict, size);
    }
    if plain < best.1 {
        best = (Encoding::Plain, plain);
    }
    best
}

fn choose_floats<F: Float + Entry>(v: &[F]) -> Choice {
    let (planes, codes) = rle_sizes(v, true);
    let plain = v.len() * F::Bits::BYTES;
    let (encoding, bytes) = cheapest((Encoding::ByteStreamSplit, planes), plain, |limit| {
        dict_size_under(v, || codes, limit)
    });
    Choice {
        encoding,
        bytes,
        zone: stats::float_zone(v),
    }
}

fn choose_ints<I: Int + Entry>(v: &[I]) -> Choice {
    let plain = v.len() * I::Bits::BYTES;
    let (encoding, bytes) = cheapest((Encoding::DeltaVarint, delta_size(v)), plain, |limit| {
        dict_size_under(v, || rle_sizes(v, false).1, limit)
    });
    Choice {
        encoding,
        bytes,
        zone: stats::int_zone(v),
    }
}

/// [`Encoding::Dict`]'s size if it is below `limit`, given the codes'
/// RLE size. Codes are equal exactly when their entries' bits are, so
/// that size is the entries' own, from [`rle_sizes`].
///
/// The distinct entries are counted twice. First, cheaply, one bit per
/// entry in a 1024-bit map of hashes: the bits set are a lower bound on
/// the distinct entries, which on noisy floats already rules the
/// dictionary out. Then exactly, in an on-stack open-addressing table
/// like [`dict_build`]'s, which gives up once the dictionary is too big.
fn dict_size_under<E: Entry>(
    v: &[E],
    codes: impl FnOnce() -> usize,
    limit: usize,
) -> Option<usize> {
    if v.is_empty() {
        return None;
    }
    let hash = |x: E| x.bits().widen().wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut seen = [0u64; 16];
    for &x in v {
        let h = hash(x) >> (u64::BITS - 10);
        seen[(h >> 6) as usize] |= 1 << (h & 63);
    }
    let at_least = seen.iter().map(|w| w.count_ones() as usize).sum();
    if at_least > DICT_MAX {
        return None;
    }
    let codes = codes();
    let size = |k: usize| varint_len(k as u64) + k * E::Bits::BYTES + codes;
    if size(at_least) >= limit {
        return None;
    }
    let mut values = [0u64; DICT_MAX];
    let mut slots = [0u16; 2 * DICT_MAX];
    let shift = u64::BITS - slots.len().trailing_zeros();
    let mut k = 0;
    let mut prev = None;
    for &x in v {
        let bits = x.bits().widen();
        if prev == Some(bits) {
            continue;
        }
        prev = Some(bits);
        let mut at = (hash(x) >> shift) as usize;
        loop {
            match slots[at] {
                0 => {
                    if k == DICT_MAX || size(k + 1) >= limit {
                        return None;
                    }
                    values[k] = bits;
                    k += 1;
                    slots[at] = k as u16;
                    break;
                }
                s if values[s as usize - 1] == bits => break,
                _ => at = (at + 1) % slots.len(),
            }
        }
    }
    Some(size(k))
}

/// The RLE sizes, as [`rle_size`] gives them, of `v`'s byte planes
/// summed (only when `planes`, else 0) and of its whole entries. One walk:
/// eight entries at a time, the equal-neighbour flags of all planes (the
/// zero bytes of the XOR with the entry before) gather into one word, a
/// byte per plane; eight such words make a 64-entry mask per plane, which
/// an [`RleSizer`] consumes a stretch at a time. A whole entry equals its
/// neighbour when every plane does.
fn rle_sizes<E: Entry>(v: &[E], planes: bool) -> (usize, usize) {
    let width = E::Bits::BYTES;
    let mut sizers: [RleSizer; 8] = Default::default();
    let mut codes = RleSizer::default();
    if v.is_empty() {
        return (0, 0);
    }
    // Entry 0 has no neighbour before it.
    sizers.iter_mut().for_each(|s| s.push(false));
    codes.push(false);
    let mut i = 1;
    while i < v.len() {
        let len = (v.len() - i).min(64);
        let mut masks = [0u64; 8];
        for (k, at) in (i..i + len).step_by(8).enumerate() {
            let mut flags = E::Bits::ZERO;
            if let (Some(cur), Some(prev)) = (v.get(at..at + 8), v.get(at - 1..at + 7)) {
                let cur: &[E; 8] = cur.try_into().expect("8 entries");
                let prev: &[E; 8] = prev.try_into().expect("8 entries");
                for j in 0..8 {
                    flags = flags | (zero_bytes(cur[j].bits() ^ prev[j].bits()) >> 7) << j as u32;
                }
            } else {
                for (j, w) in v[at - 1..].windows(2).enumerate() {
                    flags = flags | (zero_bytes(w[1].bits() ^ w[0].bits()) >> 7) << j as u32;
                }
            }
            for (b, mask) in masks.iter_mut().enumerate().take(width) {
                *mask |= u64::from(flags.byte(b)) << (8 * k);
            }
        }
        if planes {
            for (sizer, &mask) in sizers.iter_mut().zip(&masks).take(width) {
                sizer.push_mask(mask, len as u32);
            }
        }
        codes.push_mask(masks[..width].iter().fold(!0, |a, m| a & m), len as u32);
        i += len;
    }
    let planes = match planes {
        true => sizers.into_iter().take(width).map(RleSizer::finish).sum(),
        false => 0,
    };
    (planes, codes.finish())
}

/// [`rle_size`] computed stretch by stretch: fed whether each byte equals
/// the one before. A maximal stretch of `s` equal bytes is what the
/// encoder cuts into `s / 130` full runs and a rest: a run token if it is
/// at least 3 bytes, literals otherwise.
#[derive(Default)]
struct RleSizer {
    size: usize,
    /// Literals since the last run token.
    literals: usize,
    /// Length of the open stretch of equal bytes.
    stretch: usize,
}

impl RleSizer {
    fn push(&mut self, same: bool) {
        if same {
            self.stretch += 1;
        } else {
            self.close();
            self.stretch = 1;
        }
    }

    /// Pushes the low `len` bits of `mask` (the rest are 0), bit 0
    /// first, in a fixed number of steps. The open stretch runs through
    /// the mask's trailing ones and is closed at its first zero; the one
    /// starting at its last zero stays open. Every stretch in between
    /// starts at a zero bit, is shorter than 64 and so is either
    /// literals or one run token: the bit counts below size them all.
    fn push_mask(&mut self, mask: u64, len: u32) {
        let fresh = !mask & low_bits(len);
        if fresh == 0 {
            self.stretch += len as usize;
            return;
        }
        let (first, last) = (fresh.trailing_zeros(), 63 - fresh.leading_zeros());
        self.stretch += first as usize;
        self.close();
        let inner = low_bits(last) & !low_bits(first);
        // Bit i of `pairs`: entries i - 1, i and i + 1 are equal.
        let pairs = mask & mask >> 1;
        // Starts of the stretches in between of three or more entries,
        // and the entries of the shorter ones.
        let long = fresh & pairs >> 1 & inner;
        let short = !(pairs | pairs << 1 | pairs >> 1) & inner;
        if long == 0 {
            self.literals += short.count_ones() as usize;
        } else {
            let (a, b) = (long.trailing_zeros(), 63 - long.leading_zeros());
            let between = short & low_bits(b) & !low_bits(a);
            // Literal segments between two runs are shorter than 127:
            // each costs one control byte.
            let segments = between & !short << 1;
            self.size += literal_cost(self.literals + (a - first) as usize)
                + 2 * long.count_ones() as usize
                + (between.count_ones() + segments.count_ones()) as usize;
            self.literals = (short & !low_bits(b)).count_ones() as usize;
        }
        self.stretch = (len - last) as usize;
    }

    fn close(&mut self) {
        let s = self.stretch;
        if s < 3 {
            self.literals += s;
            return;
        }
        let rest = s % 130;
        let runs = s / 130 + usize::from(rest >= 3);
        self.size += literal_cost(self.literals) + 2 * runs;
        self.literals = if rest >= 3 { 0 } else { rest };
    }

    fn finish(mut self) -> usize {
        self.close();
        self.size + literal_cost(self.literals)
    }
}

/// The low `n` bits set, `n ≤ 64`.
fn low_bits(n: u32) -> u64 {
    u64::MAX.checked_shr(64 - n).unwrap_or(0)
}

/// The little-endian bit pattern of one fixed-width entry, as the
/// encoders see it: its bytes are the byte planes, its equality the
/// dictionary codes'.
trait Word:
    Copy
    + Eq
    + Add<Output = Self>
    + BitAnd<Output = Self>
    + BitOr<Output = Self>
    + BitXor<Output = Self>
    + Not<Output = Self>
    + Shl<u32, Output = Self>
    + Shr<u32, Output = Self>
{
    const ZERO: Self;
    /// `0x7f` in every byte.
    const LOW7: Self;
    /// Bytes per entry: the number of byte planes.
    const BYTES: usize;
    fn byte(self, plane: usize) -> u8;
    fn widen(self) -> u64;
}

macro_rules! words {
    ($($t:ty),*) => {$(
        impl Word for $t {
            const ZERO: $t = 0;
            const LOW7: $t = <$t>::MAX / 0xff * 0x7f;
            const BYTES: usize = std::mem::size_of::<$t>();
            #[inline]
            fn byte(self, plane: usize) -> u8 {
                (self >> (8 * plane)) as u8
            }
            #[inline]
            fn widen(self) -> u64 {
                self as u64
            }
        }
    )*};
}
words!(u32, u64);

/// `0x80` in each byte of `x` that is zero, 0 in the others. Exact:
/// adding `0x7f` to a byte's low seven bits never carries out of it.
#[inline]
fn zero_bytes<W: Word>(x: W) -> W {
    !(((x & W::LOW7) + W::LOW7) | x | W::LOW7)
}

/// A value type a chunk holds, seen through its bit pattern.
trait Entry: Copy {
    type Bits: Word;
    fn bits(self) -> Self::Bits;
}

macro_rules! entries {
    ($($t:ty => $bits:ty, $to_bits:expr;)*) => {$(
        impl Entry for $t {
            type Bits = $bits;
            #[inline]
            fn bits(self) -> $bits {
                $to_bits(self)
            }
        }
    )*};
}
entries! {
    f32 => u32, f32::to_bits;
    f64 => u64, f64::to_bits;
    i32 => u32, |x: i32| x as u32;
    i64 => u64, |x: i64| x as u64;
}

/// [`Encoding::DeltaVarint`]'s size of an integer buffer.
fn delta_size<I: Int + Entry>(v: &[I]) -> usize {
    let first = v.first().map_or(0, |&x| varint_len(zigzag(x.into())));
    let rest: usize = v
        .windows(2)
        .map(|w| varint_len(zigzag(w[1].into().wrapping_sub(w[0].into()))))
        .sum();
    first + rest
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Size under the type-default encoding, the first candidate.
    fn compressed_size(data: &ColumnData) -> usize {
        encoded_size(data, candidates(data.physical_type())[0]).unwrap()
    }

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
            let Choice {
                encoding: enc,
                bytes: size,
                zone,
            } = choose(&data);
            assert_eq!(zone, ZoneMap::build(&data));
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
        let Choice {
            encoding: enc,
            bytes: size,
            ..
        } = choose(&constant);
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
        let choice = choose(&data);
        assert_eq!(choice.encoding, Encoding::Plain);
        assert_eq!(choice.bytes, 500 * 8);
    }

    #[test]
    fn ties_go_to_the_earlier_candidate() {
        // Three entries whose zig-zag delta takes five varint bytes: the
        // deltas cost 5 + 1 + 1, the dictionary 1 + 4 + 2 (one run).
        let data = ColumnData::I32(vec![1 << 27; 3]);
        assert_eq!(encoded_size(&data, Encoding::DeltaVarint), Some(7));
        assert_eq!(encoded_size(&data, Encoding::Dict), Some(7));
        assert_eq!(choose(&data).encoding, Encoding::DeltaVarint);
        // Two equal floats: dictionary 1 + 4 + 3 (two literal codes),
        // plain 8, byte planes 4 × 3.
        let data = ColumnData::F32(vec![1.5; 2]);
        assert_eq!(encoded_size(&data, Encoding::Dict), Some(8));
        assert_eq!(choose(&data).encoding, Encoding::Dict);
        assert_eq!(choose(&data).bytes, 8);
        // Two entries sharing a bit of the distinct count's hash map, so
        // the exact count must see the tie: deltas 5 + 1 + 1 + 4 + 1 + 1,
        // dictionary 1 + 2 × 4 + two runs.
        let bit = |x: i32| (x as u32 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 54;
        let a = 1 << 27;
        let b = (a + (1 << 20)..).find(|&b| bit(b) == bit(a)).unwrap();
        let data = ColumnData::I32(vec![a, a, a, b, b, b]);
        assert_eq!(encoded_size(&data, Encoding::DeltaVarint), Some(13));
        assert_eq!(encoded_size(&data, Encoding::Dict), Some(13));
        assert_eq!(choose(&data).encoding, Encoding::DeltaVarint);
    }

    #[test]
    fn rle_sizer_prices_like_the_encoder() {
        // Stretches around the 130-byte run cap and the 127-literal
        // control chunks, fed byte by byte and 64 at a time.
        let mut x = 0x2545F4914F6CDD1Du64;
        for case in 0..400 {
            let mut bytes = Vec::new();
            while bytes.len() < 40 + case * 3 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                let len =
                    [1, 2, 3, 4, 127, 128, 129, 130, 131, 132, 133, 260][(x >> 60) as usize % 12];
                let b = (x >> 33) as u8 % 3;
                match x >> 40 & 1 {
                    0 => bytes.extend(std::iter::repeat_n(b, len)),
                    _ => bytes.extend((0..len).map(|i| (i as u8).wrapping_mul(b + 1))),
                }
            }
            let mut one = RleSizer::default();
            let mut masks = RleSizer::default();
            for (i, w) in std::iter::once(&[0u8, 1][..])
                .chain(bytes.windows(2))
                .enumerate()
            {
                let same = i > 0 && w[0] == w[1];
                one.push(same);
                if i % 64 == 0 {
                    let block = &bytes[i..(i + 64).min(bytes.len())];
                    let mask = (0..block.len())
                        .filter(|&j| i + j > 0 && bytes[i + j] == bytes[i + j - 1])
                        .fold(0u64, |m, j| m | 1 << j);
                    masks.push_mask(mask, block.len() as u32);
                }
            }
            let want = rle_size(&bytes);
            assert_eq!(one.finish(), want, "case {case}");
            assert_eq!(masks.finish(), want, "case {case}");
            assert_eq!(rle_encode(&bytes).len(), want);
        }
    }
}
