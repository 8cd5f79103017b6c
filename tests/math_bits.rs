//! The exact output bits of the in-tree elementary functions and of the
//! four-vector conversion, for a fixed set of inputs: ±0, ±π/4, ±π/2,
//! ±π, the generator's edges (φ = ±π, η = ±4, leptons' η = ±2.4), Q8's
//! raw Δφ range (−2π, 2π), the `sinh` threshold at 1 and its overflow
//! near 710.5, subnormals, NaN, ±∞ and magnitudes past the range of the
//! `sin_cos` reduction. The last four conversion rows are ordinary jets
//! on which glibc's `cos`/`sin`/`sinh` give different components, so a
//! conversion that slips back to libm fails here on glibc hosts.
//!
//! `physics::math` uses only IEEE-754 `+ − × ÷`, `sqrt` and bit
//! operations, so every host must reproduce these bits; a host that does
//! not would give different histogram bins. NaN results compare as a
//! class: IEEE-754 leaves a NaN's sign and payload to the platform.
//!
//! The SQL and JSONiq `cos`, `sin` and `sinh` builtins must return the
//! same bits as `physics::math` for every input, so an interpreted
//! `pt * COS(phi)` forms the same component as the compiled kernels.

use std::f64::consts::{FRAC_PI_2, FRAC_PI_4, PI, TAU};
use std::sync::Arc;

use hepquery::columnar::{DataType, Field, Schema, TableBuilder};
use hepquery::jsoniq::FlworEngine;
use hepquery::physics::fourvec::to_cartesian;
use hepquery::physics::math::{sin_cos, sinh};
use hepquery::prelude::*;

/// `(x, sin x, cos x, sinh x)`, outputs as bit patterns.
#[rustfmt::skip]
const FUNCTIONS: [(f64, u64, u64, u64); 64] = [
    (0.0, 0x0000000000000000, 0x3ff0000000000000, 0x0000000000000000),
    (-0.0, 0x8000000000000000, 0x3ff0000000000000, 0x8000000000000000),
    (FRAC_PI_4, 0x3fe6a09e667f3bcc, 0x3fe6a09e667f3bcd, 0x3febcc270b522736),
    (-FRAC_PI_4, 0xbfe6a09e667f3bcc, 0x3fe6a09e667f3bcd, 0xbfebcc270b522736),
    (FRAC_PI_2, 0x3ff0000000000000, 0x3c91a62633145c07, 0x4002690f661dd820),
    (-FRAC_PI_2, 0xbff0000000000000, 0x3c91a62633145c07, 0xc002690f661dd820),
    (PI, 0x3ca1a62633145c07, 0xbff0000000000000, 0x402718f45d72e672),
    (-PI, 0xbca1a62633145c07, 0xbff0000000000000, 0xc02718f45d72e672),
    (1.5 * PI, 0xbff0000000000000, 0xbcaa79394c9e8a0a, 0x404bd3c34cf00a25),
    (-1.5 * PI, 0x3ff0000000000000, 0xbcaa79394c9e8a0a, 0xc04bd3c34cf00a25),
    (TAU, 0xbcb1a62633145c07, 0x3ff0000000000000, 0x4070bbeb1603926a),
    (-TAU, 0x3cb1a62633145c07, 0x3ff0000000000000, 0xc070bbeb1603926a),
    (4.0, 0xbfe837b9dddc1eae, 0xbfe4eaa606db24c1, 0x403b4a3803703630),
    (-4.0, 0x3fe837b9dddc1eae, 0xbfe4eaa606db24c1, 0xc03b4a3803703630),
    (2.4, 0x3fe59d64f5c3d19b, 0xbfe798bab490d185, 0x4015dd6b30e4b6e8),
    (-2.4, 0xbfe59d64f5c3d19b, 0xbfe798bab490d185, 0xc015dd6b30e4b6e8),
    (f64::from_bits(TAU.to_bits() - 1), 0xbcd469898cc51702, 0x3ff0000000000000, 0x4070bbeb16039266),
    (-f64::from_bits(TAU.to_bits() - 1), 0x3cd469898cc51702, 0x3ff0000000000000, 0xc070bbeb16039266),
    (5.5, 0xbfe693c94e0ab057, 0x3fe6ad6c3c07d448, 0x405e9602d48d0661),
    (-5.5, 0x3fe693c94e0ab057, 0x3fe6ad6c3c07d448, 0xc05e9602d48d0661),
    (4.71, 0xbfeffffa03fa83ac, 0xbf63920cdb9e96d1, 0x404bc2c30db9faa1),
    (-3.9, 0x3fe6022e2d1fb3cb, 0xbfe73ad66234c8ea, 0xc038b0ec2a5371b3),
    (f64::from_bits(PI.to_bits() - 1), 0x3cc469898cc51702, 0xbff0000000000000, 0x402718f45d72e66f),
    (-f64::from_bits(PI.to_bits() + 1), 0x3cb72cece675d1fd, 0xbff0000000000000, 0xc02718f45d72e675),
    (0.1, 0x3fb98eaecb8bcb2c, 0x3fefd712f9a817c1, 0x3fb9a487337b59b3),
    (-0.3, 0xbfd2e9cd95baba33, 0x3fee921dd42f09ba, 0xbfd37d42af54b926),
    (0.5, 0x3fdeaee8744b05f0, 0x3fec1528065b7d50, 0x3fe0acd00fe63b97),
    (-0.75, 0xbfe5cffc16bf8f0d, 0x3fe769fec655211f, 0xbfea506b2dd3c690),
    (0.999_999_999, 0x3feaed548ebecabc, 0x3fe14a281028ad2c, 0x3ff2cd9fc3e4af59),
    (1.0, 0x3feaed548f090cee, 0x3fe14a280fb5068c, 0x3ff2cd9fc44eb983),
    (-1.0, 0xbfeaed548f090cee, 0x3fe14a280fb5068c, 0xbff2cd9fc44eb983),
    (1.000_000_001, 0x3feaed548f534f21, 0x3fe14a280f415fea, 0x3ff2cd9fc4b8c3ac),
    (1.3, 0x3feed577f9c51e4b, 0x3fd11eb3682a4c5f, 0x3ffb2c9310045c64),
    (-2.1, 0xbfeb9f693feb72fb, 0xbfe027b304989eca, 0xc01016619d230d2a),
    (2.5, 0x3fe326af0dcfcab0, 0xbfe9a2f7ef858b7d, 0x40183368cdb0b6d3),
    (3.0, 0x3fc210386db6d55b, 0xbfefae04be85e5d2, 0x40240926e70949ae),
    (-3.5, 0x3fd6733b7eba621f, 0xbfedf77403c11a5f, 0xc0308ae99f364f3b),
    (7.0, 0x3fe50608c26d0a08, 0x3fe81ff79ed92017, 0x408122876ba380c9),
    (10.0, 0xbfe1689ef5f34f52, 0xbfead9ac890c6b1f, 0x40c5829dced69992),
    (-20.0, 0xbfed36d8f55d3ce0, 0x3fda1e043964a83f, 0xc1aceb088b68e804),
    (100.0, 0xbfe03425b78c4db8, 0x3feb981dbf665fdf, 0x48e3494a9b171bf5),
    (-355.0, 0x3eff9bd0307d1de3, 0xbfefffffffc18e4c, 0xdfe1d613bf0a8036),
    (709.7, 0xbfd2e8dc01eac743, 0x3fee9243306dcd79, 0x7fdd75ae7a50ee14),
    (710.4, 0x3fd8ed23d0d684b0, 0x3fed7923aa8eab70, 0x7feda98a7371610b),
    (-710.5, 0xbfdeafc65d3b2565, 0x3fec14eb67d03eaa, 0xfff0000000000000),
    (711.0, 0x3feaed98de50d44e, 0x3fe149bdab136486, 0x7ff0000000000000),
    (1.0e-8, 0x3e45798ee2308c3a, 0x3ff0000000000000, 0x3e45798ee2308c3a),
    (-1.0e-300, 0x81a56e1fc2f8f359, 0x3ff0000000000000, 0x81a56e1fc2f8f359),
    (5e-324, 0x0000000000000001, 0x3ff0000000000000, 0x0000000000000001),
    (-5e-324, 0x8000000000000001, 0x3ff0000000000000, 0x8000000000000001),
    (f64::from_bits(0x000f_ffff_ffff_ffff), 0x000fffffffffffff, 0x3ff0000000000000, 0x000fffffffffffff),
    (-1.0e-310, 0x800012688b70e62b, 0x3ff0000000000000, 0x800012688b70e62b),
    (f64::NAN, 0x7ff8000000000000, 0x7ff8000000000000, 0x7ff8000000000000),
    (f64::INFINITY, 0x7ff8000000000000, 0x7ff8000000000000, 0x7ff0000000000000),
    (f64::NEG_INFINITY, 0x7ff8000000000000, 0x7ff8000000000000, 0xfff0000000000000),
    (1.0e300, 0x7ff8000000000000, 0x7ff8000000000000, 0x7ff0000000000000),
    (823_549.0, 0xbfe3bc41ec71c06d, 0x3fe930880dddf826, 0x7ff0000000000000),
    (-823_549.0, 0x3fe3bc41ec71c06d, 0x3fe930880dddf826, 0xfff0000000000000),
    (823_550.0, 0x7ff8000000000000, 0x7ff8000000000000, 0x7ff0000000000000),
    (123_456.789, 0xbfeff50e60ab53f9, 0x3faa74d27c41b22a, 0x7ff0000000000000),
    (0.785_398_163_397_448_4, 0x3fe6a09e667f3bcd, 0x3fe6a09e667f3bcc, 0x3febcc270b522738),
    (1.570_796_326_794_896_8, 0x3ff0000000000000, 0xbca72cece675d1fd, 0x4002690f661dd821),
    (3.141_592_653_589_794, 0xbccb9676733ae8fe, 0xbff0000000000000, 0x402718f45d72e677),
    (-1.0e5, 0xbfa24daa9c527e96, 0xbfeffac3841b3da7, 0xfff0000000000000),
];

/// `([pt, η, φ, m], [px, py, pz, e])`, outputs as bit patterns.
#[rustfmt::skip]
const CARTESIAN: [([f64; 4], [u64; 4]); 20] = [
    ([50.0, 0.0, 0.0, 0.0], [0x4049000000000000, 0x0000000000000000, 0x0000000000000000, 0x4049000000000000]),
    ([42.0, 1.3, -2.1, 5.0], [0xc035341af6085069, 0xc042209d11f28375, 0x4051d5408282dca2, 0x4054bb791724a756]),
    ([25.0, 4.0, PI, 10.0], [0xc039000000000000, 0x3ceb939bafcfcfcb, 0x408551fbc2afaa56, 0x4085563b812aa4a5]),
    ([25.0, -4.0, -PI, 10.0], [0xc039000000000000, 0xbceb939bafcfcfcb, 0xc08551fbc2afaa56, 0x4085563b812aa4a5]),
    ([15.0, 2.4, FRAC_PI_2, 0.105_658], [0x3cd08bc3cfe31647, 0x402e000000000000, 0x40547f947dd66b7a, 0x4054d6ac6ed2ed39]),
    ([172.5, -2.4, -FRAC_PI_4, 4.7], [0x405e7e7578217797, 0xc05e7e7578217796, 0xc08d776574e43a7f, 0x408df4ade48a79c0]),
    ([33.3, 0.0, 3.0, 0.0], [0xc0407bbe77ee77fa, 0x4012cc14522bdc6c, 0x0000000000000000, 0x4040a66666666666]),
    ([0.0, 1.0, 1.0, 0.0], [0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000]),
    ([-0.0, -0.0, -0.0, -0.0], [0x8000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000]),
    ([1.0e-300, 0.5, 0.5, 1.0e-300], [0x01a2ce86dd5b670f, 0x01948c603fc54493, 0x0196559645516ad5, 0x0000000000000000]),
    ([1.0e200, 3.0, 1.0, 1.0e200], [0x6966966b8e7e5e62, 0x697196cafb6d6a25, 0x69aa2cd3de763da3, 0x7ff0000000000000]),
    ([80.0, 700.0, 0.2, 1.0], [0x405399f0dd6a9d8c, 0x402fc97eec0d476b, 0x7f627cbab91b93d9, 0x7ff0000000000000]),
    ([80.0, f64::NAN, 0.2, 1.0], [0x405399f0dd6a9d8c, 0x402fc97eec0d476b, 0x7ff8000000000000, 0x7ff8000000000000]),
    ([80.0, 0.2, f64::INFINITY, 1.0], [0x7ff8000000000000, 0x7ff8000000000000, 0x40301b5c8041b5b1, 0x7ff8000000000000]),
    ([f64::INFINITY, 0.0, 0.0, 0.0], [0x7ff0000000000000, 0xfff8000000000000, 0xfff8000000000000, 0xfff8000000000000]),
    ([60.0, -0.8, 2.0, f64::NAN], [0xc038f803f1de3ae5, 0x404b47677c249902, 0xc04aa4a768d25580, 0x7ff8000000000000]),
    ([104.25, -0.13, -0.24, 9.25], [0x405950c458075ecb, 0xc038c7cec50a2a6b, 0xc02b2e70e796a5c6, 0x405a627377e56f3e]),
    ([178.375, -0.27, -2.27, 5.0], [0xc05cb36f077d5d18, 0xc06110a564c7c8c8, 0xc0485fd0594647aa, 0x40671f7c825b76d8]),
    ([220.25, 1.0, -2.17, 9.75], [0xc05f0deef16f3cab, 0xc066bc21f421c92f, 0x40702d68b4a4bb1b, 0x4075400da8fe2a01]),
    ([57.375, -0.38, -0.95, 1.25], [0x4040afe16f97c951, 0xc04755b935250875, 0xc03654bd65dcd11b, 0x404eca45ad095c27]),
];

/// `got` has the committed bits, or both are NaN.
fn same(got: f64, want: u64) -> bool {
    let want = f64::from_bits(want);
    got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan())
}

#[test]
fn math_reproduces_committed_bits() {
    let mut wrong = Vec::new();
    for (x, sin, cos, sh) in FUNCTIONS {
        let (s, c) = sin_cos(x);
        let h = sinh(x);
        if !(same(s, sin) && same(c, cos) && same(h, sh)) {
            wrong.push(format!(
                "x = {x:e}: got ({:#018x}, {:#018x}, {:#018x}), want ({sin:#018x}, {cos:#018x}, {sh:#018x})",
                s.to_bits(),
                c.to_bits(),
                h.to_bits()
            ));
        }
    }
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}

#[test]
fn to_cartesian_reproduces_committed_bits() {
    let col = |k: usize| CARTESIAN.iter().map(|(i, _)| i[k]).collect::<Vec<f64>>();
    let n = CARTESIAN.len();
    let mut out = [vec![0.0; n], vec![0.0; n], vec![0.0; n], vec![0.0; n]];
    let [px, py, pz, e] = &mut out;
    to_cartesian(&col(0), &col(1), &col(2), &col(3), [px, py, pz, e]);
    for (row, (input, want)) in CARTESIAN.iter().enumerate() {
        let got = out.each_ref().map(|c| c[row]);
        assert!(
            (0..4).all(|k| same(got[k], want[k])),
            "{input:?}: got {:#018x?}, want {want:#018x?}",
            got.map(f64::to_bits)
        );
        let p = FourMomentum::from_pt_eta_phi_m(input[0], input[1], input[2], input[3]);
        assert!(
            [p.px, p.py, p.pz, p.e]
                .iter()
                .zip(want)
                .all(|(&g, &w)| same(g, w)),
            "{input:?}: from_pt_eta_phi_m differs from to_cartesian"
        );
    }
}

/// A one-column table `t(x)` holding every input of [`FUNCTIONS`], in
/// one row group so both engines return rows in input order.
fn inputs_table() -> Arc<Table> {
    let schema = Schema::new(vec![Field::new("x", DataType::f64())]).expect("valid schema");
    let mut b = TableBuilder::new("t", schema, FUNCTIONS.len());
    for (x, ..) in FUNCTIONS {
        b.append(&Value::struct_from(vec![("x", Value::Float(x))]))
            .expect("row matches schema");
    }
    Arc::new(b.finish())
}

fn float(v: &Value) -> f64 {
    match v {
        Value::Float(f) => *f,
        other => panic!("expected a float, got {other:?}"),
    }
}

/// Checks one frontend's `(cos, sin, sinh)` per input against
/// `physics::math`, bit for bit.
fn assert_matches_math(frontend: &str, results: &[[f64; 3]]) {
    assert_eq!(
        results.len(),
        FUNCTIONS.len(),
        "{frontend}: one result per input"
    );
    for ((x, ..), got) in FUNCTIONS.iter().zip(results) {
        let (s, c) = sin_cos(*x);
        let want = [c, s, sinh(*x)];
        assert!(
            (0..3).all(|k| same(got[k], want[k].to_bits())),
            "{frontend}: x = {x:e} gives (cos, sin, sinh) = {got:?}, physics::math {want:?}"
        );
    }
}

#[test]
fn sql_builtins_are_physics_math() {
    let mut engine = SqlEngine::new(Dialect::presto(), ExecOptions::default());
    engine.register(inputs_table());
    let out = engine
        .execute("SELECT COS(x), SIN(x), SINH(x) FROM t")
        .expect("query runs");
    let rows: Vec<[f64; 3]> = out
        .relation
        .rows
        .iter()
        .map(|r| [float(&r[0]), float(&r[1]), float(&r[2])])
        .collect();
    assert_matches_math("SQL", &rows);
}

#[test]
fn jsoniq_builtins_are_physics_math() {
    let mut engine = FlworEngine::new(ExecOptions::default());
    engine.register(inputs_table());
    let column = |f: &str| -> Vec<f64> {
        let q = format!("for $r in parquet-file(\"t\") return {f}($r.x)");
        let out = engine.execute(&q).expect("query runs");
        out.items.iter().map(float).collect()
    };
    let (cos, sin, sh) = (column("cos"), column("sin"), column("sinh"));
    assert_eq!((cos.len(), sin.len()), (sh.len(), sh.len()));
    let rows: Vec<[f64; 3]> = (0..sh.len()).map(|i| [cos[i], sin[i], sh[i]]).collect();
    assert_matches_math("JSONiq", &rows);
}
