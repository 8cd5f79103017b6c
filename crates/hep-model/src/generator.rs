//! Seeded synthetic event generator calibrated against the paper.
//!
//! ## Calibration targets
//!
//! * **Figure 3** (particle multiplicity): electrons occur in low
//!   single-digit numbers; muons occur more frequently and reach higher
//!   per-event counts; a significant fraction of events has dozens of jets.
//! * **Table 2** (`#Ops/event`): mean jets/event ≈ 3.2 (Q2), mean
//!   opposite-index muon pairs ≈ 0.6 (Q5), mean 3-jet combinations ≈ 41.8
//!   (Q6). We use a Poisson base for leptons (whose factorial moments are
//!   analytic: E[C(M,2)] = λ²/2) and a two-component jet mixture (a soft
//!   Poisson bulk plus a hard multi-jet tail) tuned to reproduce both the
//!   mean and the heavy combination count.
//! * **Physics signal**: (Q5)/(Q8) cut on an invariant-mass window around
//!   the Z boson and (Q6) looks for masses near the top quark, so the
//!   generator injects real resonances — Z → ℓℓ decayed isotropically in the
//!   parent rest frame and boosted to the lab, and t → 3 jets via sequential
//!   two-body decays — rather than uncorrelated particles. Without this, the
//!   benchmark's selective queries would see only combinatorial background.
//!
//! All measured quantities are quantized to `f32` before being stored in the
//! event structs so that the in-memory ground truth and the (physically
//! `Float32`) columnar data are bit-identical.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_distr::{Beta, Cauchy, Distribution, Exp, Normal, Poisson};

use physics::FourMomentum;

use crate::event::{Electron, Event, Jet, Met, Muon, Photon, Tau};

/// Muon rest mass (GeV).
pub const MUON_MASS: f64 = 0.1056583745;
/// Electron rest mass (GeV).
pub const ELECTRON_MASS: f64 = 0.000510999;
/// Z boson mass (GeV).
pub const Z_MASS: f64 = 91.1876;
/// Z boson width (GeV).
pub const Z_WIDTH: f64 = 2.4952;
/// Top quark mass (GeV).
pub const TOP_MASS: f64 = 172.5;

/// Tunable distribution parameters.
#[derive(Clone, Copy, Debug)]
pub struct GeneratorConfig {
    /// Poisson mean of the soft jet component.
    pub jet_soft_lambda: f64,
    /// Probability of the hard multi-jet tail component.
    pub jet_tail_prob: f64,
    /// Base count of the hard tail (`base + Poisson(tail_lambda)` jets).
    pub jet_tail_base: u32,
    /// Poisson mean on top of the tail base.
    pub jet_tail_lambda: f64,
    /// Poisson mean of the prompt muon count.
    pub muon_lambda: f64,
    /// Poisson mean of the prompt electron count.
    pub electron_lambda: f64,
    /// Poisson mean of the photon count.
    pub photon_lambda: f64,
    /// Poisson mean of the tau count.
    pub tau_lambda: f64,
    /// Probability of injecting a Z → ℓℓ decay.
    pub z_prob: f64,
    /// Probability of injecting a t → 3 jets decay.
    pub top_prob: f64,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        GeneratorConfig {
            jet_soft_lambda: 2.0,
            jet_tail_prob: 0.10,
            jet_tail_base: 8,
            jet_tail_lambda: 3.0,
            muon_lambda: 0.85,
            electron_lambda: 0.55,
            photon_lambda: 0.9,
            tau_lambda: 0.25,
            z_prob: 0.10,
            top_prob: 0.06,
        }
    }
}

/// Scale presets for building data sets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DatasetSpec {
    /// Number of events to generate.
    pub n_events: usize,
    /// Events per row group.
    pub row_group_size: usize,
    /// RNG seed (same seed ⇒ bit-identical data set).
    pub seed: u64,
}

impl DatasetSpec {
    /// Tiny data set for unit tests (fits in milliseconds).
    pub fn tiny() -> DatasetSpec {
        DatasetSpec {
            n_events: 2_000,
            row_group_size: 512,
            seed: 0xAD1B70,
        }
    }

    /// Small data set for integration tests.
    pub fn small() -> DatasetSpec {
        DatasetSpec {
            n_events: 20_000,
            row_group_size: 2_048,
            seed: 0xAD1B70,
        }
    }

    /// Benchmark data set: 2²⁰ events in 128 row groups — the same
    /// row-group count as the paper's full 53.4 M-event Parquet data set,
    /// so parallelization granularity effects (Figure 2) reproduce.
    pub fn benchmark() -> DatasetSpec {
        DatasetSpec {
            n_events: 1 << 20,
            row_group_size: 8_192,
            seed: 0xAD1B70,
        }
    }

    /// Scale factor relative to the paper's 53.4 M events (for mapping the
    /// paper's absolute data-size axis onto ours).
    pub fn paper_scale_factor(&self) -> f64 {
        53_400_000.0 / self.n_events as f64
    }
}

/// Iterator producing seeded synthetic events.
pub struct Generator {
    cfg: GeneratorConfig,
    rng: StdRng,
    next_id: u64,
    // Pre-built distributions (construction is not free).
    d_jet_soft: Poisson<f64>,
    d_jet_tail: Poisson<f64>,
    d_muon: Poisson<f64>,
    d_electron: Poisson<f64>,
    d_photon: Poisson<f64>,
    d_tau: Poisson<f64>,
    d_eta_jet: Normal<f64>,
    d_eta_lep: Normal<f64>,
    d_jet_mass: Normal<f64>,
    d_btag_light: Beta<f64>,
    d_btag_heavy: Beta<f64>,
    d_iso: Exp<f64>,
    d_impact: Normal<f64>,
    d_z_mass: Cauchy<f64>,
    d_top_mass: Normal<f64>,
    d_boost_pt: Exp<f64>,
}

/// Quantizes to `f32` precision (see module docs).
#[inline]
fn q(x: f64) -> f64 {
    x as f32 as f64
}

impl Generator {
    /// Creates a generator with the given config and seed.
    pub fn new(cfg: GeneratorConfig, seed: u64) -> Generator {
        Generator {
            cfg,
            rng: StdRng::seed_from_u64(seed),
            next_id: 1,
            d_jet_soft: Poisson::new(cfg.jet_soft_lambda).expect("λ > 0"),
            d_jet_tail: Poisson::new(cfg.jet_tail_lambda).expect("λ > 0"),
            d_muon: Poisson::new(cfg.muon_lambda).expect("λ > 0"),
            d_electron: Poisson::new(cfg.electron_lambda).expect("λ > 0"),
            d_photon: Poisson::new(cfg.photon_lambda).expect("λ > 0"),
            d_tau: Poisson::new(cfg.tau_lambda).expect("λ > 0"),
            d_eta_jet: Normal::new(0.0, 1.6).expect("σ > 0"),
            d_eta_lep: Normal::new(0.0, 1.1).expect("σ > 0"),
            d_jet_mass: Normal::new(8.0, 4.0).expect("σ > 0"),
            d_btag_light: Beta::new(1.0, 8.0).expect("valid"),
            d_btag_heavy: Beta::new(6.0, 1.5).expect("valid"),
            d_iso: Exp::new(8.0).expect("λ > 0"),
            d_impact: Normal::new(0.0, 0.01).expect("σ > 0"),
            d_z_mass: Cauchy::new(Z_MASS, Z_WIDTH / 2.0).expect("valid"),
            d_top_mass: Normal::new(TOP_MASS, 11.0).expect("σ > 0"),
            d_boost_pt: Exp::new(1.0 / 22.0).expect("λ > 0"),
        }
    }

    /// Like [`Generator::new`], but event ids start at `first_id` instead
    /// of 1 — so a shard generated in isolation carries the same ids it
    /// would have carried inside a longer run (see [`ShardedSpec`]).
    pub fn starting_at(cfg: GeneratorConfig, seed: u64, first_id: u64) -> Generator {
        let mut g = Generator::new(cfg, seed);
        g.next_id = first_id;
        g
    }

    /// Generates `n` events into a vector.
    pub fn generate(&mut self, n: usize) -> Vec<Event> {
        (0..n).map(|_| self.next_event()).collect()
    }

    fn next_event(&mut self) -> Event {
        let id = self.next_id;
        self.next_id += 1;

        let mut jets = Vec::new();
        let mut muons = Vec::new();
        let mut electrons = Vec::new();

        // Prompt (uncorrelated) particles.
        let n_soft = self.d_jet_soft.sample(&mut self.rng) as usize;
        let n_jets = if self.rng.gen_bool(self.cfg.jet_tail_prob) {
            n_soft
                + self.cfg.jet_tail_base as usize
                + self.d_jet_tail.sample(&mut self.rng) as usize
        } else {
            n_soft
        };
        for _ in 0..n_jets {
            jets.push(self.random_jet(None));
        }
        let n_mu = self.d_muon.sample(&mut self.rng) as usize;
        for _ in 0..n_mu {
            muons.push(self.random_muon(None));
        }
        let n_el = self.d_electron.sample(&mut self.rng) as usize;
        for _ in 0..n_el {
            electrons.push(self.random_electron(None));
        }

        // Z → ℓℓ injection.
        if self.rng.gen_bool(self.cfg.z_prob) {
            let m = self
                .d_z_mass
                .sample(&mut self.rng)
                .clamp(Z_MASS - 35.0, Z_MASS + 35.0);
            let to_muons = self.rng.gen_bool(2.0 / 3.0);
            let lep_mass = if to_muons { MUON_MASS } else { ELECTRON_MASS };
            let (p1, p2) = self.decay_resonance(m, lep_mass, lep_mass);
            let charge = if self.rng.gen_bool(0.5) { 1 } else { -1 };
            if to_muons {
                muons.push(self.random_muon(Some((p1, charge))));
                muons.push(self.random_muon(Some((p2, -charge))));
            } else {
                electrons.push(self.random_electron(Some((p1, charge))));
                electrons.push(self.random_electron(Some((p2, -charge))));
            }
        }

        // t → 3 jets injection (sequential two-body decays t → b W, W → qq̄).
        if self.rng.gen_bool(self.cfg.top_prob) {
            let mt = self.d_top_mass.sample(&mut self.rng).max(100.0);
            let (b, w) = self.decay_resonance(mt, 10.0, 80.4);
            let (q1, q2) = self.decay_in_flight(&w, 7.0, 7.0);
            for (p, heavy) in [(b, true), (q1, false), (q2, false)] {
                let mut j = self.random_jet(Some(p));
                if heavy {
                    j.btag = q(self.d_btag_heavy.sample(&mut self.rng));
                }
                jets.push(j);
            }
        }

        // Analysis convention: collections ordered by decreasing pt.
        jets.sort_by(|a, b| b.pt.partial_cmp(&a.pt).expect("finite pt"));
        muons.sort_by(|a, b| b.pt.partial_cmp(&a.pt).expect("finite pt"));
        electrons.sort_by(|a, b| b.pt.partial_cmp(&a.pt).expect("finite pt"));

        let n_ph = self.d_photon.sample(&mut self.rng) as usize;
        let photons = (0..n_ph).map(|_| self.random_photon()).collect();
        let n_tau = self.d_tau.sample(&mut self.rng) as usize;
        let taus = (0..n_tau).map(|_| self.random_tau()).collect();

        let met = self.random_met(&jets, &muons, &electrons);

        Event {
            run: 194_108,
            luminosity_block: (id / 1_000 + 1) as u32,
            event: id,
            met,
            jets,
            muons,
            electrons,
            photons,
            taus,
        }
    }

    /// Isotropic two-body decay of a resonance with mass `m` produced with a
    /// random lab momentum; returns the daughters in the lab frame.
    fn decay_resonance(&mut self, m: f64, m1: f64, m2: f64) -> (FourMomentum, FourMomentum) {
        let pt = self.d_boost_pt.sample(&mut self.rng);
        let eta: f64 = self.d_eta_lep.sample(&mut self.rng).clamp(-2.4, 2.4);
        let phi = self
            .rng
            .gen_range(-std::f64::consts::PI..std::f64::consts::PI);
        let parent = FourMomentum::from_pt_eta_phi_m(pt, eta, phi, m);
        self.decay_in_flight(&parent, m1, m2)
    }

    /// Two-body decay of a moving parent into daughters of mass `m1`, `m2`.
    fn decay_in_flight(
        &mut self,
        parent: &FourMomentum,
        m1: f64,
        m2: f64,
    ) -> (FourMomentum, FourMomentum) {
        let m = parent.mass().max(m1 + m2 + 1e-6);
        // Momentum of either daughter in the rest frame (Källén function).
        let e1 = (m * m + m1 * m1 - m2 * m2) / (2.0 * m);
        let p = (e1 * e1 - m1 * m1).max(0.0).sqrt();
        // Isotropic direction.
        let cos_t: f64 = self.rng.gen_range(-1.0..1.0);
        let sin_t = (1.0 - cos_t * cos_t).sqrt();
        let az = self.rng.gen_range(0.0..2.0 * std::f64::consts::PI);
        let (px, py, pz) = (p * sin_t * az.cos(), p * sin_t * az.sin(), p * cos_t);
        let d1 = FourMomentum::new(px, py, pz, (p * p + m1 * m1).sqrt());
        let d2 = FourMomentum::new(-px, -py, -pz, (p * p + m2 * m2).sqrt());
        let (bx, by, bz) = parent.beta();
        (d1.boost(bx, by, bz), d2.boost(bx, by, bz))
    }

    fn random_jet(&mut self, p: Option<FourMomentum>) -> Jet {
        let (pt, eta, phi, mass) = match p {
            Some(p) => (
                p.pt().max(15.0),
                p.eta().clamp(-4.0, 4.0),
                p.phi(),
                p.mass(),
            ),
            None => (
                15.0 + Exp::new(1.0 / 18.0).expect("λ > 0").sample(&mut self.rng),
                self.d_eta_jet.sample(&mut self.rng).clamp(-4.0, 4.0),
                self.rng
                    .gen_range(-std::f64::consts::PI..std::f64::consts::PI),
                self.d_jet_mass.sample(&mut self.rng).max(0.1),
            ),
        };
        let heavy = self.rng.gen_bool(0.12);
        let btag = if heavy {
            self.d_btag_heavy.sample(&mut self.rng)
        } else {
            self.d_btag_light.sample(&mut self.rng)
        };
        Jet {
            pt: q(pt),
            eta: q(eta),
            phi: q(phi),
            mass: q(mass),
            btag: q(btag),
            pu_id: self.rng.gen_bool(0.9),
        }
    }

    fn lepton_kinematics(&mut self, p: Option<FourMomentum>, mass: f64) -> (f64, f64, f64) {
        match p {
            Some(p) => (p.pt().max(3.0), p.eta().clamp(-2.4, 2.4), p.phi()),
            None => {
                let _ = mass;
                (
                    3.0 + Exp::new(1.0 / 12.0).expect("λ > 0").sample(&mut self.rng),
                    self.d_eta_lep.sample(&mut self.rng).clamp(-2.4, 2.4),
                    self.rng
                        .gen_range(-std::f64::consts::PI..std::f64::consts::PI),
                )
            }
        }
    }

    fn random_muon(&mut self, inject: Option<(FourMomentum, i32)>) -> Muon {
        let (p, charge) = match inject {
            Some((p, c)) => (Some(p), c),
            None => (None, if self.rng.gen_bool(0.5) { 1 } else { -1 }),
        };
        let (pt, eta, phi) = self.lepton_kinematics(p, MUON_MASS);
        Muon {
            pt: q(pt),
            eta: q(eta),
            phi: q(phi),
            mass: q(MUON_MASS),
            charge,
            pf_rel_iso03_all: q(self.d_iso.sample(&mut self.rng)),
            pf_rel_iso04_all: q(self.d_iso.sample(&mut self.rng) * 1.2),
            tight_id: self.rng.gen_bool(0.8),
            soft_id: self.rng.gen_bool(0.3),
            dxy: q(self.d_impact.sample(&mut self.rng)),
            dxy_err: q(self.d_impact.sample(&mut self.rng).abs() * 0.3 + 0.001),
            dz: q(self.d_impact.sample(&mut self.rng) * 2.0),
            dz_err: q(self.d_impact.sample(&mut self.rng).abs() * 0.5 + 0.002),
            jet_idx: -1,
            gen_part_idx: self.rng.gen_range(-1..50),
        }
    }

    fn random_electron(&mut self, inject: Option<(FourMomentum, i32)>) -> Electron {
        let (p, charge) = match inject {
            Some((p, c)) => (Some(p), c),
            None => (None, if self.rng.gen_bool(0.5) { 1 } else { -1 }),
        };
        let (pt, eta, phi) = self.lepton_kinematics(p, ELECTRON_MASS);
        Electron {
            pt: q(pt),
            eta: q(eta),
            phi: q(phi),
            mass: q(ELECTRON_MASS),
            charge,
            pf_rel_iso03_all: q(self.d_iso.sample(&mut self.rng)),
            dxy: q(self.d_impact.sample(&mut self.rng)),
            dxy_err: q(self.d_impact.sample(&mut self.rng).abs() * 0.3 + 0.001),
            dz: q(self.d_impact.sample(&mut self.rng) * 2.0),
            dz_err: q(self.d_impact.sample(&mut self.rng).abs() * 0.5 + 0.002),
            cut_based: self.rng.gen_range(0..5),
            pf_id: self.rng.gen_bool(0.7),
            jet_idx: -1,
            gen_part_idx: self.rng.gen_range(-1..50),
        }
    }

    fn random_photon(&mut self) -> Photon {
        let (pt, eta, phi) = self.lepton_kinematics(None, 0.0);
        Photon {
            pt: q(pt),
            eta: q(eta),
            phi: q(phi),
            mass: 0.0,
            charge: 0,
            pf_rel_iso03_all: q(self.d_iso.sample(&mut self.rng)),
            jet_idx: -1,
            gen_part_idx: self.rng.gen_range(-1..50),
        }
    }

    fn random_tau(&mut self) -> Tau {
        let (pt, eta, phi) = self.lepton_kinematics(None, 1.777);
        Tau {
            pt: q(pt + 15.0),
            eta: q(eta),
            phi: q(phi),
            mass: q(self.rng.gen_range(0.5..1.7)),
            charge: if self.rng.gen_bool(0.5) { 1 } else { -1 },
            decay_mode: self.rng.gen_range(0..11),
            rel_iso_all: q(self.d_iso.sample(&mut self.rng)),
            id_iso_raw: q(self.rng.gen_range(0.0..30.0)),
            jet_idx: -1,
            gen_part_idx: self.rng.gen_range(-1..50),
        }
    }

    fn random_met(&mut self, jets: &[Jet], muons: &[Muon], electrons: &[Electron]) -> Met {
        // Rayleigh-distributed genuine MET plus resolution smearing
        // correlated with total hadronic activity.
        let u1: f64 = self.rng.gen_range(1e-12..1.0);
        let rayleigh = 14.0 * (-2.0 * u1.ln()).sqrt();
        let sum_jet_pt: f64 = jets.iter().map(|j| j.pt).sum();
        let sum_lep_pt: f64 =
            muons.iter().map(|m| m.pt).sum::<f64>() + electrons.iter().map(|e| e.pt).sum::<f64>();
        let sumet = sum_jet_pt + sum_lep_pt + self.rng.gen_range(50.0..250.0);
        let pt = rayleigh * (1.0 + 0.004 * sum_jet_pt);
        let phi = self
            .rng
            .gen_range(-std::f64::consts::PI..std::f64::consts::PI);
        let sigma = 0.6 * sumet.sqrt();
        Met {
            pt: q(pt),
            phi: q(phi),
            sumet: q(sumet),
            significance: q(pt / sigma.max(1e-6)),
            cov_xx: q(sigma * sigma),
            cov_xy: q(self.rng.gen_range(-0.2..0.2) * sigma * sigma),
            cov_yy: q(sigma * sigma * self.rng.gen_range(0.8..1.2)),
        }
    }
}

impl Iterator for Generator {
    type Item = Event;
    fn next(&mut self) -> Option<Event> {
        Some(self.next_event())
    }
}

/// Generates a data set and materializes it into a columnar table.
pub fn build_dataset(spec: DatasetSpec) -> (Vec<Event>, nf2_columnar::Table) {
    let mut g = Generator::new(GeneratorConfig::default(), spec.seed);
    let events = g.generate(spec.n_events);
    let table =
        crate::to_value::events_to_table(&events, spec.row_group_size).expect("events fit schema");
    (events, table)
}

/// splitmix64 mixing step — derives statistically independent per-shard
/// seeds from one root seed.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A scaled data set built from fixed-size, independently seeded shards.
///
/// The paper's Figure 2 data-size scaling study measures the same queries
/// at 1 ×, 8 × and 54 M-event scale of one physical data set. Replaying
/// that here requires a family of tables where the *k*-shard table is a
/// strict prefix of the *k′ > k*-shard table — otherwise a throughput
/// difference between scales could come from different data rather than
/// from more of it. Per-shard seeds derived by a splitmix64 mix from the
/// root seed (rather than one sequential RNG stream) buy exactly that:
/// shard *i* is bit-identical no matter how many shards follow it, and
/// any shard can be regenerated in isolation (the unit a parallel scan
/// would fetch).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardedSpec {
    /// Events generated per shard.
    pub events_per_shard: usize,
    /// Number of shards (total events = `shards × events_per_shard`).
    pub shards: usize,
    /// Events per row group in the materialized table. Keep it a divisor
    /// of `events_per_shard` so shard boundaries align with row-group
    /// boundaries and the prefix property holds group-for-group.
    pub row_group_size: usize,
    /// Root seed; per-shard seeds are derived, not sequential.
    pub seed: u64,
}

impl ShardedSpec {
    /// Total events across all shards.
    pub fn n_events(&self) -> usize {
        self.shards * self.events_per_shard
    }

    /// The derived seed of shard `i` — independent of `self.shards`, so
    /// growing the data set never reshuffles existing shards.
    pub fn shard_seed(&self, i: usize) -> u64 {
        splitmix64(self.seed ^ (i as u64).wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// The same spec with a different shard count (for building the
    /// scale ladder of a Figure 2-style study).
    pub fn with_shards(self, shards: usize) -> ShardedSpec {
        ShardedSpec { shards, ..self }
    }

    /// Scale factor relative to the paper's 53.4 M events.
    pub fn paper_scale_factor(&self) -> f64 {
        53_400_000.0 / self.n_events() as f64
    }
}

/// Builds the sharded table by streaming one event at a time into a
/// [`TableBuilder`](nf2_columnar::TableBuilder) through
/// [`write_event`](crate::to_value::write_event): peak memory is one
/// decoded event plus the open row group, never the whole decoded data
/// set — which is what makes the benchmark-scale and paper-scale tables
/// of the scaling study materializable at all.
pub fn build_sharded_table(spec: ShardedSpec) -> nf2_columnar::Table {
    let mut b = nf2_columnar::TableBuilder::new(
        crate::schema::TABLE_NAME,
        crate::schema::event_schema().expect("event schema is valid"),
        spec.row_group_size,
    );
    for shard in 0..spec.shards {
        let first_id = (shard * spec.events_per_shard) as u64 + 1;
        let g =
            Generator::starting_at(GeneratorConfig::default(), spec.shard_seed(shard), first_id);
        for e in g.take(spec.events_per_shard) {
            b.write_row(|w| crate::to_value::write_event(w, &e))
                .expect("generated events fit schema");
        }
    }
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: usize) -> Vec<Event> {
        Generator::new(GeneratorConfig::default(), 1234).generate(n)
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a = Generator::new(GeneratorConfig::default(), 99).generate(100);
        let b = Generator::new(GeneratorConfig::default(), 99).generate(100);
        assert_eq!(a, b);
        let c = Generator::new(GeneratorConfig::default(), 100).generate(100);
        assert_ne!(a, c);
    }

    #[test]
    fn multiplicities_match_figure3_shape() {
        let events = sample(20_000);
        let n = events.len() as f64;
        let mean_jets = events.iter().map(|e| e.jets.len()).sum::<usize>() as f64 / n;
        let mean_mu = events.iter().map(|e| e.muons.len()).sum::<usize>() as f64 / n;
        let mean_el = events.iter().map(|e| e.electrons.len()).sum::<usize>() as f64 / n;
        // Table 2: Q2 explores 3.2 jets/event on average.
        assert!((2.6..4.0).contains(&mean_jets), "mean jets {mean_jets}");
        // Muons occur more frequently than electrons (Fig 3).
        assert!(mean_mu > mean_el, "mu {mean_mu} vs el {mean_el}");
        // Jets reach several dozen in a non-negligible fraction of events.
        let big = events.iter().filter(|e| e.jets.len() >= 10).count() as f64 / n;
        assert!(big > 0.05, "fraction of ≥10-jet events: {big}");
        let max_jets = events.iter().map(|e| e.jets.len()).max().unwrap();
        assert!(max_jets >= 20, "max jets {max_jets}");
    }

    #[test]
    fn combinatorics_match_table2() {
        let events = sample(20_000);
        let n = events.len() as f64;
        let c3 = |k: usize| (k * k.saturating_sub(1) * k.saturating_sub(2)) / 6;
        let c2 = |k: usize| (k * k.saturating_sub(1)) / 2;
        let trijets = events.iter().map(|e| c3(e.jets.len())).sum::<usize>() as f64 / n;
        let mu_pairs = events.iter().map(|e| c2(e.muons.len())).sum::<usize>() as f64 / n;
        // Paper: Q6 explores 1 + C(J,3) ≈ 42.8, Q5 explores 1 + C(M,2) ≈ 1.6.
        assert!(
            (20.0..75.0).contains(&trijets),
            "mean trijet combinations {trijets}"
        );
        assert!((0.2..1.6).contains(&mu_pairs), "mean muon pairs {mu_pairs}");
    }

    #[test]
    fn z_peak_present() {
        let events = sample(30_000);
        // Count opposite-charge dimuon masses in the Z window.
        let mut in_window = 0usize;
        let mut pairs = 0usize;
        for e in &events {
            for i in 0..e.muons.len() {
                for j in (i + 1)..e.muons.len() {
                    let (a, b) = (&e.muons[i], &e.muons[j]);
                    if a.charge * b.charge < 0 {
                        pairs += 1;
                        let m = physics::invariant_mass_2(
                            a.pt, a.eta, a.phi, a.mass, b.pt, b.eta, b.phi, b.mass,
                        );
                        if (60.0..120.0).contains(&m) {
                            in_window += 1;
                        }
                    }
                }
            }
        }
        assert!(pairs > 0);
        let frac = in_window as f64 / events.len() as f64;
        // Z injection rate is 10% × 2/3 to muons ⇒ roughly 6–7% of events
        // should carry an in-window pair.
        assert!((0.02..0.15).contains(&frac), "Z-window fraction {frac}");
    }

    #[test]
    fn collections_sorted_by_pt() {
        for e in sample(500) {
            assert!(e.jets.windows(2).all(|w| w[0].pt >= w[1].pt));
            assert!(e.muons.windows(2).all(|w| w[0].pt >= w[1].pt));
            assert!(e.electrons.windows(2).all(|w| w[0].pt >= w[1].pt));
        }
    }

    #[test]
    fn values_are_f32_exact() {
        for e in sample(200) {
            assert_eq!(e.met.pt, e.met.pt as f32 as f64);
            for j in &e.jets {
                assert_eq!(j.pt, j.pt as f32 as f64);
                assert_eq!(j.eta, j.eta as f32 as f64);
                assert!((0.0..=1.0).contains(&j.btag));
            }
            for m in &e.muons {
                assert!(m.charge == 1 || m.charge == -1);
                assert!(m.pt >= 3.0);
                assert!(m.eta.abs() <= 2.4 + 1e-6);
            }
        }
    }

    #[test]
    fn event_ids_unique_and_increasing() {
        let events = sample(1000);
        for w in events.windows(2) {
            assert!(w[1].event == w[0].event + 1);
        }
    }

    #[test]
    fn build_dataset_produces_row_groups() {
        let (events, table) = build_dataset(DatasetSpec::tiny());
        assert_eq!(events.len(), 2_000);
        assert_eq!(table.n_rows(), 2_000);
        assert_eq!(table.row_groups().len(), 4);
        assert!(DatasetSpec::benchmark().paper_scale_factor() > 50.0);
    }

    fn sharded(shards: usize) -> ShardedSpec {
        ShardedSpec {
            events_per_shard: 600,
            shards,
            row_group_size: 200,
            seed: 0xAD1B70,
        }
    }

    #[test]
    fn sharded_scales_nest_as_prefixes() {
        // The scale-k table must be a strict prefix of the scale-k′ table
        // (k < k′): same fingerprint for the head, group-for-group.
        let small = build_sharded_table(sharded(2));
        let large = build_sharded_table(sharded(4));
        assert_eq!(small.n_rows(), 1_200);
        assert_eq!(large.n_rows(), 2_400);
        assert_eq!(
            small.fingerprint(),
            large.head(small.n_rows()).fingerprint(),
            "growing the shard count must not disturb existing shards"
        );
        assert_ne!(small.fingerprint(), large.fingerprint());
    }

    #[test]
    fn sharded_shards_regenerate_in_isolation() {
        // Shard i rebuilt alone is bit-identical to shard i inside the
        // full table (row_group_size divides events_per_shard, so shard
        // boundaries are row-group boundaries).
        let spec = sharded(3);
        let full = build_sharded_table(spec);
        let groups_per_shard = spec.events_per_shard / spec.row_group_size;
        for i in 0..spec.shards {
            let alone = build_sharded_table(ShardedSpec {
                events_per_shard: spec.events_per_shard,
                shards: 1,
                row_group_size: spec.row_group_size,
                seed: spec.seed,
            });
            // shard 0 alone ≡ first shard of the full table; deeper shards
            // need their ids and seeds checked through the event stream.
            if i == 0 {
                assert_eq!(
                    alone.fingerprint(),
                    full.shard(0, spec.shards).fingerprint()
                );
            }
            let part = full.shard(i, spec.shards);
            assert_eq!(part.row_groups().len(), groups_per_shard);
            assert_eq!(part.n_rows(), spec.events_per_shard);
        }
    }

    #[test]
    fn one_shard_table_is_events_to_table_of_the_same_events() {
        let spec = sharded(1);
        let events = Generator::starting_at(GeneratorConfig::default(), spec.shard_seed(0), 1)
            .generate(spec.events_per_shard);
        let want = crate::to_value::events_to_table(&events, spec.row_group_size).unwrap();
        let got = build_sharded_table(spec);
        assert_eq!(got.fingerprint(), want.fingerprint());
        assert_eq!(got.row_groups().len(), want.row_groups().len());
        for (a, b) in got.row_groups().iter().zip(want.row_groups()) {
            assert_eq!(a.n_rows(), b.n_rows());
            assert!(a.columns().eq(b.columns()));
        }
    }

    #[test]
    fn sharded_event_ids_are_globally_sequential() {
        let spec = sharded(2);
        let mut want = 1i64;
        for shard in 0..spec.shards {
            let g = Generator::starting_at(
                GeneratorConfig::default(),
                spec.shard_seed(shard),
                (shard * spec.events_per_shard) as u64 + 1,
            );
            for e in g.take(spec.events_per_shard) {
                assert_eq!(e.event as i64, want);
                want += 1;
            }
        }
    }

    #[test]
    fn shard_seeds_are_distinct_and_stable() {
        let spec = sharded(4);
        let seeds: Vec<u64> = (0..64).map(|i| spec.shard_seed(i)).collect();
        let uniq: std::collections::BTreeSet<u64> = seeds.iter().copied().collect();
        assert_eq!(uniq.len(), seeds.len());
        assert_eq!(
            spec.shard_seed(3),
            spec.with_shards(100).shard_seed(3),
            "shard seeds must not depend on the shard count"
        );
        assert!(spec.paper_scale_factor() > 1.0);
    }
}
