//! Dimuon invariant-mass spectrum — the classic "rediscover the Z boson"
//! analysis, written three ways against the same data:
//!
//! 1. directly over the event model (what a physicist's event loop does),
//! 2. as an RDataFrame-style chain,
//! 3. as a JSONiq query.
//!
//! The Z peak injected by the generator shows up at ≈91 GeV in all three.
//!
//! ```sh
//! cargo run --release --example dimuon_spectrum
//! ```

use std::sync::Arc;

use engine_rdf::{ColValue, RDataFrame};
use hepquery::bench::reference::pair_mass;
use hepquery::prelude::*;

fn main() {
    let (events, table) = hepquery::model::generator::build_dataset(DatasetSpec {
        n_events: 100_000,
        row_group_size: 8_192,
        seed: 91,
    });
    let table = Arc::new(table);
    let spec = HistSpec::new(60, 60.0, 120.0);

    // --- 1. Plain event loop over the in-memory model.
    let mut h_loop = Histogram::new(spec);
    for e in &events {
        for i in 0..e.muons.len() {
            for k in (i + 1)..e.muons.len() {
                let (a, b) = (&e.muons[i], &e.muons[k]);
                if a.charge * b.charge < 0 {
                    h_loop.fill(pair_mass(
                        a.pt, a.eta, a.phi, a.mass, b.pt, b.eta, b.phi, b.mass,
                    ));
                }
            }
        }
    }

    // --- 2. RDataFrame-style chain.
    let df = RDataFrame::new(table.clone(), ExecOptions::default())
        .define(
            "dimuon_mass",
            &[
                "Muon_pt",
                "Muon_eta",
                "Muon_phi",
                "Muon_mass",
                "Muon_charge",
            ],
            |v| {
                let (pt, eta, phi, mass, charge) =
                    (v.arr(0), v.arr(1), v.arr(2), v.arr(3), v.arr(4));
                let mut out = Vec::new();
                for i in 0..pt.len() {
                    for k in (i + 1)..pt.len() {
                        if charge[i] * charge[k] < 0.0 {
                            out.push(pair_mass(
                                pt[i], eta[i], phi[i], mass[i], pt[k], eta[k], phi[k], mass[k],
                            ));
                        }
                    }
                }
                ColValue::Arr(out)
            },
        )
        .histo1d(spec, "dimuon_mass");
    let h_rdf = df.run().unwrap().histogram;

    // --- 3. JSONiq.
    let mut engine = engine_flwor::FlworEngine::new(Default::default());
    engine.register(table);
    let out = engine
        .execute(
            r#"declare function hep:pair-mass($p1, $p2) {
                 let $px1 := $p1.pt * cos($p1.phi) let $py1 := $p1.pt * sin($p1.phi) let $pz1 := $p1.pt * sinh($p1.eta)
                 let $px2 := $p2.pt * cos($p2.phi) let $py2 := $p2.pt * sin($p2.phi) let $pz2 := $p2.pt * sinh($p2.eta)
                 let $e1 := sqrt($px1 * $px1 + $py1 * $py1 + $pz1 * $pz1 + $p1.mass * $p1.mass)
                 let $e2 := sqrt($px2 * $px2 + $py2 * $py2 + $pz2 * $pz2 + $p2.mass * $p2.mass)
                 let $e := $e1 + $e2 let $px := $px1 + $px2 let $py := $py1 + $py2 let $pz := $pz1 + $pz2
                 return sqrt(max((0.0, $e * $e - ($px * $px + $py * $py + $pz * $pz))))
               };
               for $e in parquet-file("events")
               return for $m1 at $i in $e.Muon[]
                      for $m2 at $k in $e.Muon[]
                      where $i lt $k and $m1.charge ne $m2.charge
                      return hep:pair-mass($m1, $m2)"#,
        )
        .unwrap();
    let mut h_jq = Histogram::new(spec);
    for item in &out.items {
        h_jq.fill(item.as_f64().unwrap());
    }

    assert!(
        h_loop.counts_equal(&h_rdf),
        "event loop vs RDataFrame differ"
    );
    assert!(h_loop.counts_equal(&h_jq), "event loop vs JSONiq differ");

    println!("opposite-charge dimuon mass spectrum, 60–120 GeV:");
    println!("{}", h_loop.ascii(64));
    let peak_bin = h_loop
        .counts()
        .iter()
        .enumerate()
        .max_by_key(|(_, c)| **c)
        .map(|(i, _)| i)
        .unwrap();
    println!(
        "peak at {:.1}–{:.1} GeV (expect the Z at ~91.2 GeV)",
        spec.edge(peak_bin),
        spec.edge(peak_bin + 1)
    );
}
