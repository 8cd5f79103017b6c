//! The one-pass seal against the per-candidate oracle.
//!
//! `ColumnChunk::seal` prices every candidate encoding, and builds the
//! zone map, in one scan of the typed buffer. Each sealed chunk must be
//! exactly what the slow, obvious route gives: the smallest
//! `compress::encoded_size` over `compress::candidates` (ties to the
//! earlier candidate; `encoded_size` is itself held to
//! `encode_as(..).len()`), plus the offsets' delta-varint size, a naive
//! zone-map fold, and the chunk's `min`/`max` read off it, bit for bit.

use hepquery::columnar::compress::{self, candidates, encoded_size, Encoding};
use hepquery::columnar::file::{read_table, write_table};
use hepquery::columnar::{ColumnChunk, ColumnData, DataType, Field, Schema, Table, TableBuilder};
use hepquery::model::DatasetSpec;
use proptest::prelude::*;
use proptest::test_runner::TestRng;

/// A sealed chunk's facts, floats as bits (NaN payloads and the sign of
/// zero count).
#[derive(Debug, PartialEq)]
struct Sealed {
    encoding: Encoding,
    compressed_bytes: usize,
    zone: Zone,
    min: Option<u64>,
    max: Option<u64>,
}

/// A zone map, floats as bits.
#[derive(Debug, PartialEq)]
struct Zone {
    min: Option<u64>,
    max: Option<u64>,
    int_min: Option<i64>,
    int_max: Option<i64>,
    has_nan: bool,
    n_entries: u64,
    n_nulls: u64,
}

fn sealed(c: &ColumnChunk) -> Sealed {
    let z = &c.zone;
    Sealed {
        encoding: c.encoding,
        compressed_bytes: c.compressed_bytes,
        zone: Zone {
            min: z.min.map(f64::to_bits),
            max: z.max.map(f64::to_bits),
            int_min: z.int_min,
            int_max: z.int_max,
            has_nan: z.has_nan,
            n_entries: z.n_entries,
            n_nulls: z.n_nulls,
        },
        min: c.min.map(f64::to_bits),
        max: c.max.map(f64::to_bits),
    }
}

/// What sealing `data` (with `offsets`) must give, the slow way.
fn oracle(data: &ColumnData, offsets: Option<&[u32]>, check_encoders: bool) -> Sealed {
    let mut best: Option<(Encoding, usize)> = None;
    for &enc in candidates(data.physical_type()) {
        let size = encoded_size(data, enc);
        if check_encoders {
            let encoded = compress::encode_as(data, enc).map(|b| b.len());
            assert_eq!(encoded, size, "{enc:?} priced unlike its encoder");
        }
        if let Some(size) = size {
            if best.is_none_or(|(_, b)| size < b) {
                best = Some((enc, size));
            }
        }
    }
    let (encoding, value_bytes) = best.expect("Plain always applies");
    // Offsets are priced as a delta-varint column of their own.
    let offsets_bytes = offsets.map_or(0, |o| {
        let o = ColumnData::I64(o.iter().map(|&x| i64::from(x)).collect());
        encoded_size(&o, Encoding::DeltaVarint).unwrap()
    });
    let (mut lo, mut hi) = (None::<f64>, None::<f64>);
    let (mut int_lo, mut int_hi) = (None::<i64>, None::<i64>);
    let mut has_nan = false;
    let mut fold_int = |x: i64| {
        int_lo = Some(int_lo.map_or(x, |m| m.min(x)));
        int_hi = Some(int_hi.map_or(x, |m| m.max(x)));
    };
    let mut fold_float = |x: f64| {
        if x.is_nan() {
            has_nan = true;
        } else {
            lo = Some(lo.map_or(x, |m: f64| m.min(x)));
            hi = Some(hi.map_or(x, |m: f64| m.max(x)));
        }
    };
    match data {
        ColumnData::Bool(_) => {}
        ColumnData::I32(v) => v.iter().for_each(|&x| fold_int(x.into())),
        ColumnData::I64(v) => v.iter().for_each(|&x| fold_int(x)),
        ColumnData::F32(v) => v.iter().for_each(|&x| fold_float(x.into())),
        ColumnData::F64(v) => v.iter().for_each(|&x| fold_float(x)),
    }
    if int_lo.is_some() {
        (lo, hi) = (int_lo.map(|x| x as f64), int_hi.map(|x| x as f64));
    }
    // The chunk's bounds in `get_f64`'s numeric view: the zone map's,
    // NaN for an all-NaN chunk, 0/1 over the entries for booleans.
    let (min, max) = match data {
        _ if data.is_empty() => (None, None),
        ColumnData::Bool(v) => {
            let any = |b: bool| f64::from(u8::from(v.contains(&b)));
            (Some(1.0 - any(false)), Some(any(true)))
        }
        _ if lo.is_some() => (lo, hi),
        _ => (Some(f64::NAN), Some(f64::NAN)),
    };
    Sealed {
        encoding,
        compressed_bytes: value_bytes + offsets_bytes,
        zone: Zone {
            min: lo.map(f64::to_bits),
            max: hi.map(f64::to_bits),
            int_min: int_lo,
            int_max: int_hi,
            has_nan,
            n_entries: data.len() as u64,
            n_nulls: 0,
        },
        min: min.map(f64::to_bits),
        max: max.map(f64::to_bits),
    }
}

/// Every chunk of `table` against the oracle.
fn assert_table_matches_oracle(table: &Table, check_encoders: bool) {
    for (g, group) in table.row_groups().iter().enumerate() {
        for (path, chunk) in group.columns() {
            let want = oracle(&chunk.data, chunk.offsets.as_deref(), check_encoders);
            assert_eq!(sealed(chunk), want, "group {g}, column {path}");
        }
    }
}

fn reread(table: &Table) -> Table {
    let mut bytes = Vec::new();
    write_table(table, &mut bytes).unwrap();
    read_table(&mut &bytes[..]).unwrap()
}

/// Bit patterns the encoders treat specially.
const SPECIAL: [u64; 12] = [
    0,
    0x8000_0000,           // f32 -0.0
    0x7fc0_0001,           // f32 quiet NaN with a payload
    0xffc0_0000,           // f32 negative NaN
    0x7f80_0001,           // f32 signalling NaN
    0x7f80_0000,           // f32 +inf
    0x8000_0000_0000_0000, // f64 -0.0, i64::MIN
    0x7fff_ffff_ffff_ffff, // i64::MAX, an f64 NaN
    0x7ff8_0000_0000_0001, // f64 NaN with a payload
    0xfff0_0000_0000_0000, // f64 -inf
    0xffff_ffff_8000_0000, // i32::MIN as i64
    0x7fff_ffff,           // i32::MAX
];

/// Lengths at the RLE edges: stretches around the 130-byte run cap and
/// the 127-literal control chunks, and around 8 × 130 (bit-packed
/// booleans).
const EDGES: [usize; 19] = [
    1, 2, 3, 4, 126, 127, 128, 129, 130, 131, 132, 133, 255, 256, 257, 1039, 1040, 1041, 1048,
];

fn pick<T: Copy>(rng: &mut TestRng, xs: &[T]) -> T {
    xs[rng.below(xs.len() as u64) as usize]
}

/// Entry bit patterns with structure: a pool of values sharing some
/// bytes (so some byte planes repeat and others do not), built of equal
/// stretches, literal stretches and runs of exactly `k` distinct pool
/// values (255, 256 and 257 straddle the dictionary's limit).
fn arb_words() -> BoxedStrategy<Vec<u64>> {
    BoxedStrategy::from_fn(|rng: &mut TestRng| {
        let pool_len = pick(rng, &[1, 2, 3, 17, 255, 256, 257, 300]);
        let fixed: u64 = (0..8)
            .map(|b| {
                if rng.below(2) == 0 {
                    0xffu64 << (8 * b)
                } else {
                    0
                }
            })
            .fold(0, |a, m| a | m);
        let base = rng.next_u64();
        let pool: Vec<u64> = (0..pool_len)
            .map(|_| match rng.below(8) {
                0 => pick(rng, &SPECIAL),
                _ => (base & fixed) | (rng.next_u64() & !fixed),
            })
            .collect();
        let target = match rng.below(10) {
            0 => 0,
            1 => rng.below(8) as usize,
            _ => rng.below(1500) as usize,
        };
        let mut words = Vec::new();
        while words.len() < target {
            let len = match rng.below(3) {
                0 => pick(rng, &EDGES),
                _ => 1 + rng.below(40) as usize,
            };
            match rng.below(4) {
                0 => words.extend(std::iter::repeat_n(pick(rng, &pool), len)),
                1 => words.extend((0..len).map(|_| pick(rng, &pool))),
                2 => words.extend(pool.iter().cycle().take(len)),
                _ => words.extend((0..len).map(|i| pool[i * 7 % pool.len()])),
            }
        }
        words.truncate(target);
        words
    })
}

/// The words as a buffer of each physical type.
fn buffers(words: &[u64]) -> [ColumnData; 5] {
    [
        ColumnData::Bool(words.iter().map(|&w| w & 1 == 1).collect()),
        ColumnData::I32(words.iter().map(|&w| w as i32).collect()),
        ColumnData::I64(words.iter().map(|&w| w as i64).collect()),
        ColumnData::F32(words.iter().map(|&w| f32::from_bits(w as u32)).collect()),
        ColumnData::F64(words.iter().map(|&w| f64::from_bits(w)).collect()),
    ]
}

/// A table whose list `L` holds a leaf of each physical type over the
/// words, split into rows of `lens` entries (so the five leaves share
/// each group's offsets), and whose flat leaves hold each row's first
/// word (or 0).
fn table_of(words: &[u64], lens: &[usize], row_group_size: usize) -> Table {
    let leaves = || {
        vec![
            Field::new("b", DataType::bool()),
            Field::new("i", DataType::i32()),
            Field::new("l", DataType::i64()),
            Field::new("f", DataType::f32()),
            Field::new("d", DataType::f64()),
        ]
    };
    let schema = Schema::new(vec![
        Field::new("flat", DataType::Struct(leaves())),
        Field::new("L", DataType::particle_list(leaves())),
    ])
    .unwrap();
    let write = |w: &mut hepquery::columnar::RowWriter<'_>, x: u64| {
        w.bool(x & 1 == 1);
        w.i32(x as i32);
        w.i64(x as i64);
        w.f32(f32::from_bits(x as u32));
        w.f64(f64::from_bits(x));
    };
    let mut b = TableBuilder::new("t", schema, row_group_size);
    let mut at = 0;
    for &len in lens {
        let row = &words[at..at + len];
        at += len;
        b.write_row(|w| {
            write(w, row.first().copied().unwrap_or(0));
            w.list(row, |w, &x| write(w, x));
        })
        .unwrap();
    }
    b.finish()
}

/// Row lengths covering `n` entries: mostly short, some long enough for
/// two-byte offset deltas, some empty.
fn row_lens(rng: &mut TestRng, n: usize) -> Vec<usize> {
    let mut lens = Vec::new();
    let mut left = n;
    while left > 0 {
        let len = match rng.below(8) {
            0 => 0,
            1 => 64 + rng.below(200) as usize,
            _ => rng.below(6) as usize,
        }
        .min(left);
        lens.push(len);
        left -= len;
    }
    lens.push(0);
    lens
}

/// One case: entry words, the row lengths that split them, the table's
/// row-group size, and a free-standing offsets array.
#[derive(Debug)]
struct Case {
    words: Vec<u64>,
    lens: Vec<usize>,
    row_group_size: usize,
    offsets: Vec<u32>,
}

fn arb_case() -> BoxedStrategy<Case> {
    let words = arb_words();
    BoxedStrategy::from_fn(move |rng: &mut TestRng| {
        let words = words.generate(rng);
        let lens = row_lens(rng, words.len());
        let row_group_size = 1 + rng.below(lens.len() as u64 + 2) as usize;
        // Arbitrary u32 offsets, not even monotone: wrapping extremes.
        let offsets = (0..rng.below(40))
            .map(|_| match rng.below(4) {
                0 => pick(
                    rng,
                    &[0, 1, 63, 64, 65, 8191, 8192, 8193, u32::MAX, u32::MAX - 1],
                ),
                1 => pick(
                    rng,
                    &[1 << 20, (1 << 20) + 1, 1 << 27, (1 << 27) + 1, 1 << 31],
                ),
                _ => rng.next_u64() as u32,
            })
            .collect();
        Case {
            words,
            lens,
            row_group_size,
            offsets,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    #[test]
    fn seal_matches_the_per_candidate_oracle(case in arb_case()) {
        let Case {
            words,
            lens,
            row_group_size,
            offsets,
        } = case;
        let mut row_ends: Vec<u32> = vec![0];
        for &len in &lens {
            row_ends.push(row_ends.last().unwrap() + len as u32);
        }
        for data in buffers(&words) {
            let flat = ColumnChunk::seal(data.clone(), None);
            prop_assert_eq!(sealed(&flat), oracle(&data, None, true));
            let listed = ColumnChunk::seal(data.clone(), Some(row_ends.clone()));
            prop_assert_eq!(sealed(&listed), oracle(&data, Some(&row_ends), false));
        }
        let want = encoded_size(
            &ColumnData::I64(offsets.iter().map(|&x| i64::from(x)).collect()),
            Encoding::DeltaVarint,
        );
        let got = compress::offsets_size(&offsets);
        prop_assert!(Some(got) == want, "offsets {:?}: {} vs {:?}", offsets, got, want);
        let table = table_of(&words, &lens, row_group_size);
        assert_table_matches_oracle(&table, false);
        assert_table_matches_oracle(&reread(&table), false);
    }
}

/// The generated data set at the `ingest` benchmark's shape (128 rows
/// per group) and the paper artifacts' (512), built and read back.
#[test]
fn generated_tables_seal_like_the_oracle() {
    for (n_events, row_group_size) in [(16_384, 128), (65_536, 512)] {
        let (_, table) = hepquery::model::generator::build_dataset(DatasetSpec {
            n_events,
            row_group_size,
            seed: 1,
        });
        assert_table_matches_oracle(&table, false);
        let back = reread(&table);
        assert_table_matches_oracle(&back, false);
        assert_eq!(back.fingerprint(), table.fingerprint());
    }
}
