//! Runnable `engine-rdf` programs equivalent to the RDataFrame C++ texts.
//!
//! The programs use the same flat column names (`Jet_pt`, `MET_phi`, …)
//! and, like the C++ lambdas, read the columns they list by position.
//! Q5, Q7 and Q8 call the per-event kernels of [`crate::reference`] over
//! the event's column slices; Q6 calls the trijet kernel compiled plans
//! run ([`physical_ir::TrijetScratch`]), which shares the four-vector
//! conversion with [`reference::best_trijet`] and sums and compares in
//! its order. Their histograms are therefore
//! bit-identical to the ground truth — which is precisely how RDataFrame
//! relates to hand-written event loops.

use std::cell::RefCell;
use std::sync::Arc;

use engine_rdf::{ColValue, EventView, RDataFrame};
use exec_par::ExecOptions;
use nf2_columnar::Table;
use physical_ir::TrijetScratch;

use crate::reference::{self, LightLeptons, ParticleColumns};
use crate::spec::{masses, QueryId};

/// Jet dependency columns.
const JET_COLS: &[&str] = &["Jet_pt", "Jet_eta", "Jet_phi", "Jet_mass", "Jet_btag"];
/// Muon dependency columns.
const MUON_COLS: &[&str] = &[
    "Muon_pt",
    "Muon_eta",
    "Muon_phi",
    "Muon_mass",
    "Muon_charge",
];
/// Electron dependency columns.
const ELECTRON_COLS: &[&str] = &[
    "Electron_pt",
    "Electron_eta",
    "Electron_phi",
    "Electron_mass",
    "Electron_charge",
];

thread_local! {
    /// The trijet kernel's scratch, one per event-loop worker.
    static TRIJET: RefCell<TrijetScratch> = RefCell::new(TrijetScratch::new());
}

/// The collection whose [`MUON_COLS`]/[`ELECTRON_COLS`]-ordered columns
/// sit at dependency positions `at..at + 5`.
fn particles<'a>(v: &EventView<'a>, at: usize, flavor: i32) -> ParticleColumns<'a> {
    ParticleColumns {
        pt: v.arr(at),
        eta: v.arr(at + 1),
        phi: v.arr(at + 2),
        mass: v.arr(at + 3),
        charge: v.arr(at + 4),
        flavor,
    }
}

/// The light leptons whose muon columns start at dependency position `at`,
/// followed by the electron columns.
fn light_leptons<'a>(
    v: &EventView<'a>,
    at: usize,
) -> LightLeptons<ParticleColumns<'a>, ParticleColumns<'a>> {
    LightLeptons {
        muons: particles(v, at, 0),
        electrons: particles(v, at + MUON_COLS.len(), 1),
    }
}

/// Builds the dataframe program for one query output. The returned frame
/// has exactly one booking; run it with `run_all()`.
pub fn build(q: QueryId, table: Arc<Table>, options: ExecOptions) -> RDataFrame {
    let df = RDataFrame::new(table, options);
    let spec = q.hist_spec();
    match q {
        QueryId::Q1 => df.also_histo1d(spec, "MET_pt"),
        QueryId::Q2 => df.also_histo1d(spec, "Jet_pt"),
        QueryId::Q3 => df
            .define("goodJet_pt", &["Jet_pt", "Jet_eta"], |v| {
                let (pt, eta) = (v.arr(0), v.arr(1));
                ColValue::Arr(
                    (0..pt.len())
                        .filter(|&i| eta[i].abs() < 1.0)
                        .map(|i| pt[i])
                        .collect(),
                )
            })
            .also_histo1d(spec, "goodJet_pt"),
        QueryId::Q4 => df
            .filter(&["Jet_pt"], |v| {
                v.arr(0).iter().filter(|&&pt| pt > 40.0).count() >= 2
            })
            .also_histo1d(spec, "MET_pt"),
        QueryId::Q5 => df
            .filter(MUON_COLS, |v| reference::q5_selects(particles(v, 0, 0)))
            .also_histo1d(spec, "MET_pt"),
        QueryId::Q6a | QueryId::Q6b => {
            let col = if q == QueryId::Q6a {
                "tri_pt"
            } else {
                "tri_btag"
            };
            df.filter(&["Jet_pt"], |v| v.arr(0).len() >= 3)
                .define(col, JET_COLS, move |v| {
                    let (pt, btag) = TRIJET
                        .with_borrow_mut(|s| {
                            s.load(v.arr(0), v.arr(1), v.arr(2), v.arr(3));
                            s.best(v.arr(4), masses::TOP)
                        })
                        .expect(">=3 jets");
                    ColValue::F64(if q == QueryId::Q6a { pt } else { btag })
                })
                .also_histo1d(spec, col)
        }
        QueryId::Q7 => {
            let mut deps: Vec<&str> = JET_COLS.to_vec();
            deps.extend(MUON_COLS);
            deps.extend(ELECTRON_COLS);
            df.define("ht", &deps, |v| {
                let (pt, eta, phi) = (v.arr(0), v.arr(1), v.arr(2));
                let jets = (0..pt.len()).map(|i| (pt[i], eta[i], phi[i]));
                let leptons = light_leptons(v, JET_COLS.len());
                ColValue::F64(reference::q7_sum(jets, leptons).0.unwrap_or(-1.0))
            })
            .filter(&["ht"], |v| v.f64(0) >= 0.0)
            .also_histo1d(spec, "ht")
        }
        QueryId::Q8 => {
            let mut deps: Vec<&str> = vec!["MET_pt", "MET_phi"];
            deps.extend(MUON_COLS);
            deps.extend(ELECTRON_COLS);
            df.define("mt", &deps, |v| {
                let (mt, _) = reference::q8_value(light_leptons(v, 2), v.f64(0), v.f64(1));
                ColValue::F64(mt.unwrap_or(-1.0))
            })
            .filter(&["mt"], |v| v.f64(0) >= 0.0)
            .also_histo1d(spec, "mt")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ALL_QUERIES;
    use hep_model::generator::build_dataset;
    use hep_model::DatasetSpec;
    use physics::Histogram;

    /// Every program, interpreted at 1 and 4 threads, gives the reference
    /// histogram exactly — bins and f64 moments. The event loop fills one
    /// partial per row group and merges them in group order, so the
    /// reference runs per group and merges the same way. The default
    /// options (Q1/Q2 compile to bin indices, no moments) match on bins.
    #[test]
    fn rdf_programs_match_reference_exactly() {
        const GROUP: usize = 256;
        for seed in [99, 7] {
            let (events, table) = build_dataset(DatasetSpec {
                n_events: 4_000,
                row_group_size: GROUP,
                seed,
            });
            assert!(
                events.iter().any(|e| e.jets.len() >= 10),
                "seed {seed}: no 10-jet event to exercise the trijet kernel"
            );
            let table = Arc::new(table);
            for q in ALL_QUERIES {
                let mut want = Histogram::new(q.hist_spec());
                for group in events.chunks(GROUP) {
                    want.merge(&reference::run(*q, group).hist);
                }
                for n_threads in [1, 4] {
                    let options = ExecOptions {
                        n_threads,
                        compile: false,
                        ..ExecOptions::default()
                    };
                    let out = build(*q, table.clone(), options).run_all().unwrap();
                    assert_eq!(
                        out.histograms[0],
                        want,
                        "{} (seed {seed}, {n_threads} threads)",
                        q.name()
                    );
                }
                let out = build(*q, table.clone(), ExecOptions::default())
                    .run_all()
                    .unwrap();
                assert!(
                    out.histograms[0].counts_equal(&want),
                    "{} (seed {seed}, default options)",
                    q.name()
                );
            }
        }
    }
}
