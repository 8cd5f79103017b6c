//! In-tree `sin_cos` and `sinh` for the (pt, η, φ, m) → (px, py, pz, E)
//! conversion.
//!
//! The standard library's `sin`, `cos` and `sinh` call the platform libm,
//! whose last bit Rust does not specify (glibc, musl and macOS differ).
//! Every query path converts through these two functions instead, so a
//! histogram bin depends only on IEEE-754 `+ − × ÷` and `sqrt`, which are
//! exactly rounded on every host. The coefficients and reduction
//! constants are fdlibm's; the structure is not: each body evaluates
//! every polynomial and picks its result with selects and bit
//! operations, with no data-dependent branch, so a loop over objects is
//! straight-line code.
//!
//! The error bounds against `std` are stated and checked by the ulp
//! proptest in this crate; the exact output bits of a fixed input set are
//! pinned by `tests/math_bits.rs` at the workspace root.

use std::f64::consts::{FRAC_2_PI, LOG2_E};

/// `1.5·2⁵²`: adding it to a float of magnitude below 2⁵¹ rounds that
/// float to the nearest integer, which then sits in the low mantissa bits.
const TOINT: f64 = 1.5 / f64::EPSILON;

/// Rounds `x` (|x| < 2⁵¹) to the nearest integer, returned both as a float
/// and as its two's-complement low bits.
#[inline(always)]
fn round_int(x: f64) -> (f64, u64) {
    let big = x + TOINT;
    (big - TOINT, big.to_bits().wrapping_sub(TOINT.to_bits()))
}

/// Flips the sign of `x` when bit 0 of `flip` is set.
#[inline(always)]
fn negate_if(x: f64, flip: u64) -> f64 {
    f64::from_bits(x.to_bits() ^ ((flip & 1) << 63))
}

/// `a − b` as `(d, e)` with `d + e` exactly `a − b` (Knuth's TwoSum).
#[inline(always)]
fn two_diff(a: f64, b: f64) -> (f64, f64) {
    let d = a - b;
    let a1 = d + b;
    let b1 = d - a1;
    (d, (a - a1) - (b + b1))
}

/// π/2 as three 33-bit parts and a 53-bit tail: `n·PIO2_k` is exact for
/// |n| < 2²⁰, and the sum carries π/2 to about 152 bits.
const PIO2_1: f64 = 1.570_796_326_734_125_6;
const PIO2_2: f64 = 6.077_100_506_303_966e-11;
const PIO2_3: f64 = 2.022_266_248_711_166_5e-21;
const PIO2_3T: f64 = 8.478_427_660_368_9e-32;

/// Largest |x| the three-step reduction keeps accurate (≈ 2¹⁹·π/2, so
/// |n| ≤ 2¹⁹). Beyond it `sin_cos` returns NaN rather than an inaccurate
/// value.
pub const SIN_COS_MAX: f64 = 823_549.6;

const S1: f64 = -0.166_666_666_666_666_32;
const S2: f64 = 0.008_333_333_333_322_49;
const S3: f64 = -0.000_198_412_698_298_579_5;
const S4: f64 = 2.755_731_370_707_006_8e-6;
const S5: f64 = -2.505_076_025_340_686_3e-8;
const S6: f64 = 1.589_690_995_211_55e-10;

const C1: f64 = 0.041_666_666_666_666_6;
const C2: f64 = -0.001_388_888_888_887_411;
const C3: f64 = 2.480_158_728_947_673e-5;
const C4: f64 = -2.755_731_435_139_066_3e-7;
const C5: f64 = 2.087_572_321_298_175e-9;
const C6: f64 = -1.135_964_755_778_819_5e-11;

/// `(sin x, cos x)`.
///
/// Cody–Waite reduction by π/2 in three steps to `y + yt` with
/// |y| ≲ π/4, fdlibm's degree-13 sine and degree-14 cosine kernels on it,
/// and the quadrant's swap and signs applied by bit selects. `sin` keeps
/// the sign of zero. NaN, ±∞ and |x| > [`SIN_COS_MAX`] give NaN in both
/// components.
#[inline(always)]
pub fn sin_cos(x: f64) -> (f64, f64) {
    let (n, q) = round_int(x * FRAC_2_PI);
    // `x − n·PIO2_1` is exact; the two later steps keep their rounding
    // errors, which join the last tail in `w`: the remainder is `r − w`.
    let t = x - n * PIO2_1;
    let (r, e2) = two_diff(t, n * PIO2_2);
    let (r, e3) = two_diff(r, n * PIO2_3);
    let w = n * PIO2_3T - (e3 + e2);
    let y = r - w;
    let yt = (r - y) - w;

    let z = y * y;
    let v = z * y;
    let p = S2 + z * (S3 + z * (S4 + z * (S5 + z * S6)));
    let s = y - ((z * (0.5 * yt - v * p) - yt) - v * S1);

    let zz = z * z;
    let p = z * (C1 + z * (C2 + z * C3)) + zz * zz * (C4 + z * (C5 + z * C6));
    let hz = 0.5 * z;
    let h = 1.0 - hz;
    let c = h + (((1.0 - h) - hz) + (z * p - y * yt));

    // Quadrant q: sin = (s, c, −s, −c)[q], cos = (c, −s, −c, s)[q].
    let swap = q & 1 == 1;
    let sin = negate_if(if swap { c } else { s }, q >> 1);
    let cos = negate_if(if swap { s } else { c }, q.wrapping_add(1) >> 1);
    if x.abs() <= SIN_COS_MAX {
        (sin, cos)
    } else {
        (f64::NAN, f64::NAN)
    }
}

const LN2_HI: f64 = 0.693_147_180_369_123_8;
const LN2_LO: f64 = 1.908_214_929_270_587_7e-10;
const P1: f64 = 0.166_666_666_666_666_02;
const P2: f64 = -0.002_777_777_777_701_559_3;
const P3: f64 = 6.613_756_321_437_934e-5;
const P4: f64 = -1.653_390_220_546_525_2e-6;
const P5: f64 = 4.138_136_797_057_238_5e-8;

/// Arguments above this overflow `sinh` anyway; clamping keeps the
/// exponent arithmetic of [`half_exp`] in range.
const SINH_CLAMP: f64 = 711.0;

/// `e^a / 2` for `a` in [0, `SINH_CLAMP`]: fdlibm's `exp` (reduction by
/// ln 2, rational kernel) scaled by `2^(k−1)` in two exact halves, so the
/// result overflows to +∞ exactly where the product does.
#[inline(always)]
fn half_exp(a: f64) -> f64 {
    let (k, kbits) = round_int(a * LOG2_E);
    let hi = a - k * LN2_HI;
    let lo = k * LN2_LO;
    let r = hi - lo;
    let rr = r * r;
    let c = r - rr * (P1 + rr * (P2 + rr * (P3 + rr * (P4 + rr * P5))));
    let y = 1.0 + ((r * c / (2.0 - c) - lo) + hi);
    let m = kbits.wrapping_sub(1);
    let m1 = m >> 1 & 0x3ff;
    let m2 = m.wrapping_sub(m1) & 0x7ff;
    let pow2 = |e: u64| f64::from_bits((e + 1023) << 52);
    y * pow2(m1) * pow2(m2)
}

/// `1/(2k+1)!` for k = 1..=8: the Taylor series of `sinh` past `x`,
/// truncated where the next term is below 2⁻⁵⁶ of the sum on |x| < 1.
const T: [f64; 8] = [
    1.0 / 6.0,
    1.0 / 120.0,
    1.0 / 5_040.0,
    1.0 / 362_880.0,
    1.0 / 39_916_800.0,
    1.0 / 6_227_020_800.0,
    1.0 / 1_307_674_368_000.0,
    1.0 / 355_687_428_096_000.0,
];

/// `sinh x`.
///
/// On |x| < 1 the odd Taylor polynomial through x¹⁷; elsewhere
/// `h − 1/(4h)` with `h = e^|x|/2` from an in-tree `exp`, signed like `x`.
/// Both are evaluated and one is selected. Keeps the sign of zero;
/// NaN gives NaN, and |x| past the overflow threshold (≈ 710.48) gives ±∞.
#[inline(always)]
pub fn sinh(x: f64) -> f64 {
    let z = x * x;
    let p = T[0]
        + z * (T[1] + z * (T[2] + z * (T[3] + z * (T[4] + z * (T[5] + z * (T[6] + z * T[7]))))));
    let small = x + x * z * p;

    let ax = x.abs();
    let h = half_exp(if ax > SINH_CLAMP { SINH_CLAMP } else { ax });
    let large = (h - 0.25 / h).copysign(x);
    if ax < 1.0 {
        small
    } else {
        large
    }
}
