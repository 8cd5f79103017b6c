//! Property-based tests for kinematics and histograms.

use proptest::prelude::*;

use crate::fourvec::FourMomentum;
use crate::hist::{HistSpec, Histogram};
use crate::kinematics::{delta_phi, delta_r, transverse_mass};
use crate::math::{sin_cos, sinh, SIN_COS_MAX};

fn pt() -> impl Strategy<Value = f64> {
    0.1..500.0f64
}
fn eta() -> impl Strategy<Value = f64> {
    -4.0..4.0f64
}
fn phi() -> impl Strategy<Value = f64> {
    -std::f64::consts::PI..std::f64::consts::PI
}
fn mass() -> impl Strategy<Value = f64> {
    0.0..50.0f64
}
/// Azimuths in ±10 mixed with the values where the `mod` reduction has
/// edges: signed zeros, ±π and its neighbours, exact multiples of 2π,
/// large magnitudes and the non-finite values.
fn phi_edge() -> impl Strategy<Value = f64> {
    use std::f64::consts::PI;
    let edges = vec![
        0.0,
        -0.0,
        PI,
        -PI,
        f64::from_bits(PI.to_bits() - 1),
        f64::from_bits(PI.to_bits() + 1),
        -f64::from_bits(PI.to_bits() - 1),
        2.0 * PI,
        -2.0 * PI,
        4.0 * PI,
        -6.0 * PI,
        1e6,
        -1e6,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ];
    prop_oneof![
        -10.0..10.0f64,
        (0..edges.len()).prop_map(move |i| edges[i]),
        (-8i32..=8).prop_map(|k| k as f64 * 2.0 * PI),
    ]
}

proptest! {
    /// (pt, η, φ, m) → Cartesian → (pt, η, φ, m) round-trips.
    #[test]
    fn fourvec_roundtrip(pt in pt(), eta in eta(), phi in phi(), m in mass()) {
        let p = FourMomentum::from_pt_eta_phi_m(pt, eta, phi, m);
        prop_assert!((p.pt() - pt).abs() / pt < 1e-9);
        prop_assert!((p.eta() - eta).abs() < 1e-9);
        prop_assert!(delta_phi(p.phi(), phi).abs() < 1e-9);
        // Mass reconstruction loses precision for ultra-relativistic
        // particles (E ≫ m); tolerance is scaled to the energy.
        prop_assert!((p.mass() - m).abs() < 1e-6 * p.e.max(1.0));
    }

    /// Invariant mass of a two-particle system is ≥ sum of masses − ε and
    /// invariant under exchanging the particles.
    #[test]
    fn pair_mass_symmetric(
        pt1 in pt(), eta1 in eta(), phi1 in phi(), m1 in mass(),
        pt2 in pt(), eta2 in eta(), phi2 in phi(), m2 in mass(),
    ) {
        let a = FourMomentum::from_pt_eta_phi_m(pt1, eta1, phi1, m1);
        let b = FourMomentum::from_pt_eta_phi_m(pt2, eta2, phi2, m2);
        let mab = (a + b).mass();
        let mba = (b + a).mass();
        prop_assert!((mab - mba).abs() < 1e-9);
        prop_assert!(mab + 1e-6 * (a.e + b.e) >= m1 + m2);
    }

    /// Boosting by β and then −β is the identity (up to round-off).
    #[test]
    fn boost_inverse(
        pt in pt(), eta in eta(), phi in phi(), m in 0.1..50.0f64,
        bx in -0.9..0.9f64, by in -0.4..0.4f64, bz in -0.4..0.4f64,
    ) {
        prop_assume!(bx * bx + by * by + bz * bz < 0.95);
        let p = FourMomentum::from_pt_eta_phi_m(pt, eta, phi, m);
        let q = p.boost(bx, by, bz).boost(-bx, -by, -bz);
        let scale = p.e.max(1.0);
        prop_assert!((q.px - p.px).abs() / scale < 1e-6);
        prop_assert!((q.py - p.py).abs() / scale < 1e-6);
        prop_assert!((q.pz - p.pz).abs() / scale < 1e-6);
        prop_assert!((q.e - p.e).abs() / scale < 1e-6);
    }

    /// Δφ is always in (-π, π] and antisymmetric.
    #[test]
    fn delta_phi_range(a in -10.0..10.0f64, b in -10.0..10.0f64) {
        let d = delta_phi(a, b);
        prop_assert!(d > -std::f64::consts::PI - 1e-12);
        prop_assert!(d <= std::f64::consts::PI + 1e-12);
        prop_assert!((delta_phi(b, a) + d).abs() < 1e-9
            || (delta_phi(b, a) + d - 2.0 * std::f64::consts::PI).abs() < 1e-9
            || (delta_phi(b, a) + d + 2.0 * std::f64::consts::PI).abs() < 1e-9);
    }

    /// The in-range fast path of Δφ is bit-identical to the literal
    /// double-`mod` form the SQL/JSONiq texts spell out, on ordinary
    /// azimuths and on every edge the reduction has.
    #[test]
    fn delta_phi_is_the_literal_double_mod(a in phi_edge(), b in phi_edge()) {
        let tau = 2.0 * std::f64::consts::PI;
        let d = a - b + std::f64::consts::PI;
        let literal = ((d % tau) + tau) % tau - std::f64::consts::PI;
        let fast = delta_phi(a, b);
        prop_assert!(
            fast.to_bits() == literal.to_bits() || (fast.is_nan() && literal.is_nan()),
            "delta_phi({a:e}, {b:e}) = {fast:e}, literal form gives {literal:e}"
        );
    }

    /// ΔR satisfies the triangle-ish lower bounds: ≥ |Δη| and ≥ |Δφ|.
    #[test]
    fn delta_r_bounds(e1 in eta(), p1 in phi(), e2 in eta(), p2 in phi()) {
        let dr = delta_r(e1, p1, e2, p2);
        prop_assert!(dr + 1e-12 >= (e1 - e2).abs());
        prop_assert!(dr + 1e-12 >= delta_phi(p1, p2).abs());
    }

    /// Transverse mass is bounded by 2·sqrt(pt·met).
    #[test]
    fn mt_bounds(ptl in pt(), phil in phi(), met in 0.0..300.0f64, metphi in phi()) {
        let mt = transverse_mass(ptl, phil, met, metphi);
        prop_assert!(mt >= 0.0);
        prop_assert!(mt <= 2.0 * (ptl * met).sqrt() + 1e-9);
    }

    /// Histogram filling conserves the total count and merge is equivalent
    /// to filling everything into one histogram.
    #[test]
    fn hist_merge_equals_sequential(
        xs in proptest::collection::vec(-50.0..150.0f64, 0..200),
        split in 0usize..200,
    ) {
        let spec = HistSpec::new(20, 0.0, 100.0);
        let split = split.min(xs.len());
        let mut whole = Histogram::new(spec);
        whole.fill_all(xs.iter().copied());
        let mut left = Histogram::new(spec);
        left.fill_all(xs[..split].iter().copied());
        let mut right = Histogram::new(spec);
        right.fill_all(xs[split..].iter().copied());
        left.merge(&right);
        prop_assert!(whole.counts_equal(&left));
        prop_assert_eq!(whole.total() as usize, xs.len());
    }

    /// Every filled value lands in exactly one bin.
    #[test]
    fn hist_bin_of_partition(x in -1e6..1e6f64) {
        let spec = HistSpec::new(100, -100.0, 100.0);
        let b = spec.bin_of(x);
        prop_assert!((-1..=100).contains(&b));
        if (0..100).contains(&b) {
            prop_assert!(spec.edge(b as usize) <= x);
            prop_assert!(x < spec.edge(b as usize + 1) + 1e-9);
        }
    }
}

/// Distance in units in the last place: the number of doubles between
/// `a` and `b`, 0 when both are NaN.
fn ulps(a: f64, b: f64) -> u64 {
    if a.is_nan() && b.is_nan() {
        return 0;
    }
    let ordered = |x: f64| {
        let i = x.to_bits() as i64;
        if i < 0 {
            i64::MIN - i
        } else {
            i
        }
    };
    ordered(a).abs_diff(ordered(b))
}

/// Magnitudes spread over 2⁻⁴⁰ … 2¹⁹ with either sign.
fn log_uniform() -> impl Strategy<Value = f64> {
    // |u| − 40 is the exponent, the sign of u the sign.
    (-59.0..59.0f64).prop_map(|u| (u.abs() - 40.0).exp2().copysign(u))
}

/// Inputs where the reduction or a select has an edge: signed zeros,
/// multiples of π/4 and their neighbours, the sinh threshold, the
/// subnormals and the non-finite values.
fn math_edge() -> impl Strategy<Value = f64> {
    use std::f64::consts::{FRAC_PI_2, FRAC_PI_4, PI, TAU};
    let mut edges = vec![
        0.0,
        1.0,
        5e-324,
        f64::from_bits(0x000f_ffff_ffff_ffff),
        f64::NAN,
        f64::INFINITY,
    ];
    for x in [FRAC_PI_4, FRAC_PI_2, PI, 1.5 * PI, TAU] {
        edges.extend([
            x,
            f64::from_bits(x.to_bits() - 1),
            f64::from_bits(x.to_bits() + 1),
        ]);
    }
    let n = edges.len();
    (0..2 * n).prop_map(move |i| if i < n { edges[i] } else { -edges[i - n] })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// The in-tree `sin_cos` and `sinh` stay within N = 2 ulp of the
    /// standard library's on the generator's ranges (φ ∈ [−2π, 2π],
    /// covering Q8's raw Δφ, and η ∈ [−4, 4]), on a wide sweep
    /// (|x| ≤ [`SIN_COS_MAX`] for `sin_cos`, |x| ≤ 710 for `sinh`, and
    /// magnitudes from 2⁻⁴⁰ to 2¹⁹) and on the edge inputs, where NaN
    /// must match NaN. Against glibc the largest distances measured over
    /// 2.8·10⁷ inputs are 1 ulp for `sin` and `cos` and 2 for `sinh`;
    /// the bound leaves one ulp for a less accurate platform libm. This
    /// is the only place the platform's trigonometry is called on
    /// purpose.
    #[test]
    fn math_within_two_ulp_of_std(
        phi in -std::f64::consts::TAU..std::f64::consts::TAU,
        eta in eta(),
        wide in -SIN_COS_MAX..SIN_COS_MAX,
        wide_h in -710.0..710.0f64,
        log in log_uniform(),
        edge in math_edge(),
    ) {
        const N: u64 = 2;
        for x in [phi, eta, wide, wide_h, log, edge] {
            let (s, c) = sin_cos(x);
            prop_assert!(ulps(s, x.sin()) <= N, "sin({x:e}) = {s:e}, std {:e}", x.sin());
            prop_assert!(ulps(c, x.cos()) <= N, "cos({x:e}) = {c:e}, std {:e}", x.cos());
            if x.abs() <= 710.0 || !x.is_finite() {
                let h = sinh(x);
                prop_assert!(ulps(h, x.sinh()) <= N, "sinh({x:e}) = {h:e}, std {:e}", x.sinh());
            }
        }
    }
}
