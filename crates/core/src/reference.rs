//! Ground-truth implementations of the benchmark queries.
//!
//! Every kernel here is written so that its floating-point operation
//! sequence can be reproduced *verbatim* in the SQL and JSONiq query texts
//! (component sums before subtraction, `GREATEST(0, …)` clamps, raw-angle
//! cosines) — making exact, bin-for-bin cross-engine validation possible.
//! The RDataFrame programs call the per-event kernels directly, over
//! column slices instead of `Event` structs (see [`Particles`]); their
//! Q6 runs the compiled trijet kernel, which [`best_trijet`] checks.
//!
//! Each run also counts the **records or record combinations explored per
//! event**, the quantity of the paper's Table 2.

use hep_model::{Electron, Event, Muon};
use physics::{invariant_mass_2, FourMomentum, Histogram};

use crate::spec::{masses, QueryId};

/// Result of a reference run.
#[derive(Clone, Debug)]
pub struct RefOutput {
    /// The filled histogram.
    pub hist: Histogram,
    /// Total records/record-combinations explored (Table 2 numerator).
    pub ops: u64,
}

/// A light lepton in (Q7)/(Q8): the merged muon+electron view.
#[derive(Clone, Copy, Debug)]
pub struct Lepton {
    /// Transverse momentum.
    pub pt: f64,
    /// Pseudorapidity.
    pub eta: f64,
    /// Azimuth.
    pub phi: f64,
    /// Rest mass.
    pub mass: f64,
    /// Charge (±1).
    pub charge: i32,
    /// Flavor tag: 0 = muon, 1 = electron (the merge order is muons then
    /// electrons, fixed across all engines).
    pub flavor: i32,
}

/// Index access to one event's particles as [`Lepton`] records. Each
/// per-event kernel below has one implementation over this trait: [`run`]
/// drives it over `Event` structs, the RDataFrame programs over per-event
/// column slices, and neither builds a particle list per event.
pub trait Particles {
    /// Number of particles.
    fn count(&self) -> usize;
    /// Particle `i`, for `i < count()`.
    fn get(&self, i: usize) -> Lepton;
}

impl<P: Particles + ?Sized> Particles for &P {
    fn count(&self) -> usize {
        (**self).count()
    }
    fn get(&self, i: usize) -> Lepton {
        (**self).get(i)
    }
}

impl Particles for [Muon] {
    fn count(&self) -> usize {
        self.len()
    }
    fn get(&self, i: usize) -> Lepton {
        let m = &self[i];
        Lepton {
            pt: m.pt,
            eta: m.eta,
            phi: m.phi,
            mass: m.mass,
            charge: m.charge,
            flavor: 0,
        }
    }
}

impl Particles for [Electron] {
    fn count(&self) -> usize {
        self.len()
    }
    fn get(&self, i: usize) -> Lepton {
        let e = &self[i];
        Lepton {
            pt: e.pt,
            eta: e.eta,
            phi: e.phi,
            mass: e.mass,
            charge: e.charge,
            flavor: 1,
        }
    }
}

/// One event's particle collection as its column slices (`Muon_pt`,
/// `Muon_eta`, …), all of the same length.
#[derive(Clone, Copy, Debug)]
pub struct ParticleColumns<'a> {
    /// Transverse momenta.
    pub pt: &'a [f64],
    /// Pseudorapidities.
    pub eta: &'a [f64],
    /// Azimuths.
    pub phi: &'a [f64],
    /// Rest masses.
    pub mass: &'a [f64],
    /// Charges (±1, widened to `f64` like every column).
    pub charge: &'a [f64],
    /// Flavor tag of every particle (see [`Lepton::flavor`]).
    pub flavor: i32,
}

impl Particles for ParticleColumns<'_> {
    fn count(&self) -> usize {
        self.pt.len()
    }
    fn get(&self, i: usize) -> Lepton {
        Lepton {
            pt: self.pt[i],
            eta: self.eta[i],
            phi: self.phi[i],
            mass: self.mass[i],
            charge: self.charge[i] as i32,
            flavor: self.flavor,
        }
    }
}

/// The light leptons of one event: `muons` first, then `electrons` — the
/// merge order every query text fixes, which decides ties.
pub struct LightLeptons<M, E> {
    /// The muons.
    pub muons: M,
    /// The electrons.
    pub electrons: E,
}

impl<M: Particles, E: Particles> Particles for LightLeptons<M, E> {
    fn count(&self) -> usize {
        self.muons.count() + self.electrons.count()
    }
    fn get(&self, i: usize) -> Lepton {
        let n_mu = self.muons.count();
        if i < n_mu {
            self.muons.get(i)
        } else {
            self.electrons.get(i - n_mu)
        }
    }
}

/// The light leptons of `event`.
pub fn light_leptons(event: &Event) -> LightLeptons<&[Muon], &[Electron]> {
    LightLeptons {
        muons: &event.muons,
        electrons: &event.electrons,
    }
}

/// Best trijet of an event: the 3-jet combination (in `i<j<k` enumeration
/// order, first-minimum wins) whose invariant mass is closest to the top
/// mass. Returns `(system_pt, max_btag, combinations_explored)`.
pub fn best_trijet(jets: &[hep_model::Jet]) -> Option<(f64, f64, u64)> {
    let n = jets.len();
    if n < 3 {
        return None;
    }
    let vecs: Vec<FourMomentum> = jets
        .iter()
        .map(|j| FourMomentum::from_pt_eta_phi_m(j.pt, j.eta, j.phi, j.mass))
        .collect();
    let mut best: Option<(f64, f64, f64)> = None; // (dist, pt, btag)
    let mut ops = 0u64;
    for i in 0..n {
        for j in (i + 1)..n {
            for k in (j + 1)..n {
                ops += 1;
                let e = vecs[i].e + vecs[j].e + vecs[k].e;
                let px = vecs[i].px + vecs[j].px + vecs[k].px;
                let py = vecs[i].py + vecs[j].py + vecs[k].py;
                let pz = vecs[i].pz + vecs[j].pz + vecs[k].pz;
                let mass = (e * e - (px * px + py * py + pz * pz)).max(0.0).sqrt();
                let dist = (mass - masses::TOP).abs();
                let better = match &best {
                    None => true,
                    Some((d, _, _)) => dist < *d,
                };
                if better {
                    let pt = (px * px + py * py).sqrt();
                    let btag = jets[i].btag.max(jets[j].btag).max(jets[k].btag);
                    best = Some((dist, pt, btag));
                }
            }
        }
    }
    best.map(|(_, pt, btag)| (pt, btag, ops))
}

/// (Q5)'s per-event selection: some opposite-charge muon pair has an
/// invariant mass in [60, 120].
pub fn q5_selects(muons: impl Particles) -> bool {
    let n = muons.count();
    (0..n).any(|i| {
        let a = muons.get(i);
        ((i + 1)..n).any(|k| {
            let b = muons.get(k);
            a.charge != b.charge
                && (60.0..=120.0).contains(&invariant_mass_2(
                    a.pt, a.eta, a.phi, a.mass, b.pt, b.eta, b.phi, b.mass,
                ))
        })
    })
}

/// (Q7)'s per-event scalar sum: pt of jets with pt > 30 that are ≥ 0.4 in
/// ΔR away from every light lepton with pt > 10. `jets` yields
/// `(pt, eta, phi)` in collection order. Returns `None` when no jet
/// qualifies; also reports lepton-comparison ops.
pub fn q7_sum(
    jets: impl IntoIterator<Item = (f64, f64, f64)>,
    leptons: impl Particles,
) -> (Option<f64>, u64) {
    let mut sum = 0.0;
    let mut any = false;
    let mut ops = 0u64;
    for (pt, eta, phi) in jets {
        if pt <= 30.0 {
            continue;
        }
        let mut isolated = true;
        for i in 0..leptons.count() {
            ops += 1;
            let l = leptons.get(i);
            if l.pt > 10.0 && physics::delta_r(eta, phi, l.eta, l.phi) < 0.4 {
                isolated = false;
                break;
            }
        }
        if isolated {
            sum += pt;
            any = true;
        }
    }
    (any.then_some(sum), ops)
}

/// (Q8)'s per-event value: the transverse mass of the MET system and the
/// hardest lepton outside the best same-flavor opposite-charge pair.
pub fn q8_value(leptons: impl Particles, met_pt: f64, met_phi: f64) -> (Option<f64>, u64) {
    let mut ops = 1u64;
    let n = leptons.count();
    if n < 3 {
        return (None, ops);
    }
    let mut best: Option<(f64, usize, usize)> = None; // (dist, i, k)
    for i in 0..n {
        let a = leptons.get(i);
        for k in (i + 1)..n {
            ops += 1;
            let b = leptons.get(k);
            if a.flavor != b.flavor || a.charge == b.charge {
                continue;
            }
            let m = invariant_mass_2(a.pt, a.eta, a.phi, a.mass, b.pt, b.eta, b.phi, b.mass);
            let dist = (m - masses::Z).abs();
            let better = match &best {
                None => true,
                Some((d, _, _)) => dist < *d,
            };
            if better {
                best = Some((dist, i, k));
            }
        }
    }
    let Some((_, bi, bk)) = best else {
        return (None, ops);
    };
    let mut lead: Option<Lepton> = None;
    for idx in 0..n {
        ops += 1;
        if idx == bi || idx == bk {
            continue;
        }
        let l = leptons.get(idx);
        lead = Some(match lead {
            None => l,
            Some(cur) => {
                if l.pt > cur.pt {
                    l
                } else {
                    cur
                }
            }
        });
    }
    let lead = lead.expect("n >= 3 leaves at least one lepton");
    let mt = physics::transverse_mass(lead.pt, lead.phi, met_pt, met_phi);
    (Some(mt), ops)
}

/// Runs the reference implementation of a query output.
pub fn run(q: QueryId, events: &[Event]) -> RefOutput {
    let mut hist = Histogram::new(q.hist_spec());
    let mut ops = 0u64;
    match q {
        QueryId::Q1 => {
            for e in events {
                ops += 1;
                hist.fill(e.met.pt);
            }
        }
        QueryId::Q2 => {
            for e in events {
                for j in &e.jets {
                    ops += 1;
                    hist.fill(j.pt);
                }
            }
        }
        QueryId::Q3 => {
            for e in events {
                for j in &e.jets {
                    ops += 1;
                    if j.eta.abs() < 1.0 {
                        hist.fill(j.pt);
                    }
                }
            }
        }
        QueryId::Q4 => {
            for e in events {
                ops += 1;
                let mut n = 0;
                for j in &e.jets {
                    ops += 1;
                    if j.pt > 40.0 {
                        n += 1;
                    }
                }
                if n >= 2 {
                    hist.fill(e.met.pt);
                }
            }
        }
        QueryId::Q5 => {
            for e in events {
                // One op per event and one per muon pair, selected or not.
                let n = e.muons.len() as u64;
                ops += 1 + n * n.saturating_sub(1) / 2;
                if q5_selects(e.muons.as_slice()) {
                    hist.fill(e.met.pt);
                }
            }
        }
        QueryId::Q6a | QueryId::Q6b => {
            for e in events {
                ops += 1;
                if let Some((pt, btag, combos)) = best_trijet(&e.jets) {
                    ops += combos;
                    hist.fill(if q == QueryId::Q6a { pt } else { btag });
                }
            }
        }
        QueryId::Q7 => {
            for e in events {
                let jets = e.jets.iter().map(|j| (j.pt, j.eta, j.phi));
                let (v, o) = q7_sum(jets, light_leptons(e));
                ops += o;
                if let Some(sum) = v {
                    hist.fill(sum);
                }
            }
        }
        QueryId::Q8 => {
            for e in events {
                let (v, o) = q8_value(light_leptons(e), e.met.pt, e.met.phi);
                ops += o;
                if let Some(mt) = v {
                    hist.fill(mt);
                }
            }
        }
    }
    RefOutput { hist, ops }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ALL_QUERIES;
    use hep_model::generator::build_dataset;
    use hep_model::{DatasetSpec, Jet};
    use physical_ir::TrijetScratch;
    use proptest::prelude::*;

    fn events() -> Vec<Event> {
        build_dataset(DatasetSpec {
            n_events: 3_000,
            row_group_size: 512,
            seed: 77,
        })
        .0
    }

    #[test]
    fn q1_counts_every_event() {
        let evs = events();
        let out = run(QueryId::Q1, &evs);
        assert_eq!(out.hist.total(), evs.len() as u64);
        assert_eq!(out.ops, evs.len() as u64);
    }

    #[test]
    fn q2_counts_every_jet() {
        let evs = events();
        let out = run(QueryId::Q2, &evs);
        let jets: u64 = evs.iter().map(|e| e.jets.len() as u64).sum();
        assert_eq!(out.hist.total(), jets);
        assert_eq!(out.ops, jets);
    }

    #[test]
    fn q3_subset_of_q2() {
        let evs = events();
        let q2 = run(QueryId::Q2, &evs);
        let q3 = run(QueryId::Q3, &evs);
        assert!(q3.hist.total() < q2.hist.total());
        assert!(q3.hist.total() > 0);
    }

    #[test]
    fn q4_selects_multijet_events() {
        let evs = events();
        let out = run(QueryId::Q4, &evs);
        let expect = evs
            .iter()
            .filter(|e| e.jets.iter().filter(|j| j.pt > 40.0).count() >= 2)
            .count() as u64;
        assert_eq!(out.hist.total(), expect);
    }

    #[test]
    fn q5_finds_z_candidates() {
        let evs = events();
        let out = run(QueryId::Q5, &evs);
        // The generator injects Z → μμ in ~6.7% of events; with background
        // pairs the selection should land in single-digit percent.
        let frac = out.hist.total() as f64 / evs.len() as f64;
        assert!((0.01..0.2).contains(&frac), "selected fraction {frac}");
    }

    #[test]
    fn q6_shares_selection_between_outputs() {
        let evs = events();
        let a = run(QueryId::Q6a, &evs);
        let b = run(QueryId::Q6b, &evs);
        assert_eq!(a.hist.total(), b.hist.total());
        assert_eq!(a.ops, b.ops);
        let expect = evs.iter().filter(|e| e.jets.len() >= 3).count() as u64;
        assert_eq!(a.hist.total(), expect);
        // Q6b is a discriminant in [0, 1]: no out-of-range fills.
        assert_eq!(b.hist.underflow(), 0);
    }

    #[test]
    fn q7_sums_exceed_single_jet_cut() {
        let evs = events();
        let out = run(QueryId::Q7, &evs);
        assert!(out.hist.total() > 0);
        // Every plotted sum is > 30 (at least one jet above the cut).
        assert_eq!(out.hist.underflow(), 0); // spec lo = 15 < 30
    }

    #[test]
    fn q8_requires_three_leptons() {
        let evs = events();
        let out = run(QueryId::Q8, &evs);
        let upper = evs.iter().filter(|e| e.n_light_leptons() >= 3).count() as u64;
        assert!(out.hist.total() <= upper);
        assert!(out.hist.total() > 0, "no trilepton events selected");
    }

    #[test]
    fn best_trijet_deterministic_and_counts() {
        let evs = events();
        let e = evs.iter().find(|e| e.jets.len() >= 4).unwrap();
        let (pt1, b1, ops1) = best_trijet(&e.jets).unwrap();
        let (pt2, b2, ops2) = best_trijet(&e.jets).unwrap();
        assert_eq!((pt1, b1, ops1), (pt2, b2, ops2));
        let n = e.jets.len() as u64;
        assert_eq!(ops1, n * (n - 1) * (n - 2) / 6);
    }

    #[test]
    fn ops_per_event_match_table2_shape() {
        let evs = events();
        let n = evs.len() as f64;
        let per_event = |q: QueryId| run(q, &evs).ops as f64 / n;
        // Q1 = 1 exactly; Q2 ≈ mean jets; Q6 dominates everything.
        assert_eq!(per_event(QueryId::Q1), 1.0);
        let q2 = per_event(QueryId::Q2);
        assert!((2.0..5.0).contains(&q2), "Q2 ops/event {q2}");
        let q6 = per_event(QueryId::Q6a);
        assert!(q6 > 10.0, "Q6 ops/event {q6}");
        assert!(q6 > per_event(QueryId::Q8));
    }

    #[test]
    fn all_queries_produce_output() {
        let evs = events();
        for q in ALL_QUERIES {
            let out = run(*q, &evs);
            assert!(out.hist.total() > 0, "{} empty", q.name());
        }
    }

    prop_compose! {
        /// Events of 3 to 30 jets — the generator's tails reach past 20.
        /// Up to three jets take an earlier jet's kinematics but keep their
        /// own b-tag, so triples tie exactly and the winner is observable.
        fn trijet_events()(
            n in 3usize..31,
            u in proptest::collection::vec(0.0..1.0f64, 150..151),
            copies in proptest::collection::vec(0usize..30, 0..4),
        ) -> Vec<Jet> {
            let mut jets: Vec<Jet> = u
                .chunks(5)
                .take(n)
                .map(|u| Jet {
                    pt: 20.0 + 80.0 * u[0],
                    eta: -2.5 + 5.0 * u[1],
                    phi: -3.2 + 6.4 * u[2],
                    mass: 1.0 + 10.0 * u[3],
                    btag: u[4],
                    pu_id: false,
                })
                .collect();
            for c in copies {
                let (src, dst) = (c % n, (c * 7 + 1) % n);
                jets[dst] = Jet {
                    btag: jets[dst].btag,
                    ..jets[src]
                };
            }
            jets
        }
    }

    proptest! {
        /// The compiled trijet kernel (pair sums hoisted, winner's pt and
        /// b-tag formed after the scan) is bit-identical to a naive
        /// `i < j < k` loop over pre-decomposed components and to
        /// [`best_trijet`], ties included.
        #[test]
        fn trijet_kernel_matches_naive_loop_and_reference(jets in trijet_events()) {
            let col = |f: fn(&Jet) -> f64| jets.iter().map(f).collect::<Vec<f64>>();
            let (pt, eta, phi, mass, btag) = (
                col(|j| j.pt),
                col(|j| j.eta),
                col(|j| j.phi),
                col(|j| j.mass),
                col(|j| j.btag),
            );
            let mut s = TrijetScratch::new();
            s.load(&pt, &eta, &phi, &mass);
            let got = s.best(&btag, masses::TOP).unwrap();

            let n = jets.len();
            let [mut px, mut py, mut pz, mut e] = [(); 4].map(|_| vec![0.0; n]);
            let out = [&mut px[..], &mut py[..], &mut pz[..], &mut e[..]];
            physics::fourvec::to_cartesian(&pt, &eta, &phi, &mass, out);
            let mut naive: Option<(f64, f64, f64)> = None;
            for i in 0..n {
                for j in (i + 1)..n {
                    for k in (j + 1)..n {
                        let se = e[i] + e[j] + e[k];
                        let sx = px[i] + px[j] + px[k];
                        let sy = py[i] + py[j] + py[k];
                        let sz = pz[i] + pz[j] + pz[k];
                        let m = (se * se - (sx * sx + sy * sy + sz * sz)).max(0.0).sqrt();
                        let dist = (m - masses::TOP).abs();
                        if naive.is_none_or(|(d, _, _)| dist < d) {
                            naive = Some((
                                dist,
                                (sx * sx + sy * sy).sqrt(),
                                btag[i].max(btag[j]).max(btag[k]),
                            ));
                        }
                    }
                }
            }
            let (_, npt, nb) = naive.unwrap();
            let (rpt, rb, _) = best_trijet(&jets).unwrap();
            let bits = |(a, b): (f64, f64)| (a.to_bits(), b.to_bits());
            prop_assert_eq!(bits(got), bits((npt, nb)));
            prop_assert_eq!(bits(got), bits((rpt, rb)));
        }
    }
}
