//! Relativistic four-momentum arithmetic.
//!
//! HEP data sets store particles in detector coordinates: transverse
//! momentum `pt`, pseudorapidity `eta`, azimuth `phi`, and `mass`. Combining
//! particles (e.g. forming the trijet system of (Q6) or the dilepton system
//! of (Q5)/(Q8)) requires converting to Cartesian (px, py, pz, E), adding
//! component-wise, and converting back — the "vector space transformation,
//! piece-wise addition, and reverse transformation" of the paper's §3.5.

use crate::math;

/// A four-momentum in Cartesian representation.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct FourMomentum {
    /// Momentum x-component (GeV).
    pub px: f64,
    /// Momentum y-component (GeV).
    pub py: f64,
    /// Momentum z-component (GeV).
    pub pz: f64,
    /// Energy (GeV).
    pub e: f64,
}

impl FourMomentum {
    /// Constructs from Cartesian components.
    pub fn new(px: f64, py: f64, pz: f64, e: f64) -> Self {
        FourMomentum { px, py, pz, e }
    }

    /// Constructs from detector coordinates (pt, η, φ, m).
    ///
    /// This is the workspace's one (pt, η, φ, m) → (px, py, pz, E)
    /// conversion; [`to_cartesian`] maps it over slices. The query texts
    /// spell out the same operations (`pt·cos φ`, `pt·sin φ`, `pt·sinh η`,
    /// `√(px² + py² + pz² + m²)`) over the same [`crate::math`] functions,
    /// so every engine forms bit-identical components.
    ///
    /// ```
    /// use physics::FourMomentum;
    /// let p = FourMomentum::from_pt_eta_phi_m(50.0, 0.0, 0.0, 0.0);
    /// assert!((p.px - 50.0).abs() < 1e-12);
    /// assert!(p.pz.abs() < 1e-12);
    /// ```
    // Always inlined, with `math`'s bodies: `to_cartesian`'s loop
    // vectorises only when nothing in it is a call.
    #[inline(always)]
    pub fn from_pt_eta_phi_m(pt: f64, eta: f64, phi: f64, mass: f64) -> Self {
        let (sin, cos) = math::sin_cos(phi);
        let px = pt * cos;
        let py = pt * sin;
        let pz = pt * math::sinh(eta);
        let e = (px * px + py * py + pz * pz + mass * mass).sqrt();
        FourMomentum { px, py, pz, e }
    }

    /// Transverse momentum `sqrt(px² + py²)`.
    pub fn pt(&self) -> f64 {
        self.px.hypot(self.py)
    }

    /// Azimuthal angle in `(-π, π]`.
    pub fn phi(&self) -> f64 {
        self.py.atan2(self.px)
    }

    /// Pseudorapidity `asinh(pz / pt)`.
    ///
    /// Returns ±∞ for purely longitudinal momenta (pt = 0, pz ≠ 0) and 0.0
    /// for the zero vector, matching ROOT's `TLorentzVector::Eta` behaviour
    /// closely enough for analysis cuts.
    pub fn eta(&self) -> f64 {
        let pt = self.pt();
        if pt == 0.0 {
            if self.pz == 0.0 {
                0.0
            } else if self.pz > 0.0 {
                f64::INFINITY
            } else {
                f64::NEG_INFINITY
            }
        } else {
            (self.pz / pt).asinh()
        }
    }

    /// Invariant mass `sqrt(E² − |p|²)`, clamped at zero for round-off.
    pub fn mass(&self) -> f64 {
        let m2 = self.e * self.e - (self.px * self.px + self.py * self.py + self.pz * self.pz);
        if m2 > 0.0 {
            m2.sqrt()
        } else {
            0.0
        }
    }

    /// Magnitude of the spatial momentum.
    pub fn p(&self) -> f64 {
        (self.px * self.px + self.py * self.py + self.pz * self.pz).sqrt()
    }

    /// Component-wise sum (the four-momentum of a composite system).
    pub fn add(&self, other: &FourMomentum) -> FourMomentum {
        FourMomentum {
            px: self.px + other.px,
            py: self.py + other.py,
            pz: self.pz + other.pz,
            e: self.e + other.e,
        }
    }

    /// Velocity vector `β = p/E`, used by [`FourMomentum::boost`].
    pub fn beta(&self) -> (f64, f64, f64) {
        (self.px / self.e, self.py / self.e, self.pz / self.e)
    }

    /// Applies a Lorentz boost with velocity `(bx, by, bz)` (|β| < 1).
    ///
    /// Used by the synthetic data generator to decay resonances: daughters
    /// are produced back-to-back in the parent rest frame and boosted into
    /// the lab frame with the parent's `β`.
    pub fn boost(&self, bx: f64, by: f64, bz: f64) -> FourMomentum {
        let b2 = bx * bx + by * by + bz * bz;
        if b2 == 0.0 {
            return *self;
        }
        debug_assert!(b2 < 1.0, "boost velocity must be < c");
        let gamma = 1.0 / (1.0 - b2).sqrt();
        let bp = bx * self.px + by * self.py + bz * self.pz;
        let gamma2 = (gamma - 1.0) / b2;
        FourMomentum {
            px: self.px + gamma2 * bp * bx + gamma * bx * self.e,
            py: self.py + gamma2 * bp * by + gamma * by * self.e,
            pz: self.pz + gamma2 * bp * bz + gamma * bz * self.e,
            e: gamma * (self.e + bp),
        }
    }
}

/// Converts objects from detector coordinates to Cartesian components,
/// `out = [px, py, pz, e]`, one [`FourMomentum::from_pt_eta_phi_m`] per
/// index. The body is straight-line: no branch depends on the data.
///
/// # Panics
///
/// If any input or output slice is shorter than `pt`.
pub fn to_cartesian(pt: &[f64], eta: &[f64], phi: &[f64], mass: &[f64], out: [&mut [f64]; 4]) {
    let n = pt.len();
    let (eta, phi, mass) = (&eta[..n], &phi[..n], &mass[..n]);
    let [px, py, pz, e] = out;
    let (px, py, pz, e) = (&mut px[..n], &mut py[..n], &mut pz[..n], &mut e[..n]);
    for i in 0..n {
        let p = FourMomentum::from_pt_eta_phi_m(pt[i], eta[i], phi[i], mass[i]);
        (px[i], py[i], pz[i], e[i]) = (p.px, p.py, p.pz, p.e);
    }
}

impl std::ops::Add for FourMomentum {
    type Output = FourMomentum;
    fn add(self, rhs: FourMomentum) -> FourMomentum {
        FourMomentum::add(&self, &rhs)
    }
}

impl std::iter::Sum for FourMomentum {
    fn sum<I: Iterator<Item = FourMomentum>>(iter: I) -> FourMomentum {
        iter.fold(FourMomentum::default(), |acc, p| acc + p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-9;

    #[test]
    fn detector_coordinate_roundtrip() {
        let p = FourMomentum::from_pt_eta_phi_m(42.0, 1.3, -2.1, 5.0);
        assert!((p.pt() - 42.0).abs() < EPS);
        assert!((p.eta() - 1.3).abs() < EPS);
        assert!((p.phi() - (-2.1)).abs() < EPS);
        assert!((p.mass() - 5.0).abs() < EPS);
    }

    #[test]
    fn massless_particle() {
        let p = FourMomentum::from_pt_eta_phi_m(10.0, 0.5, 0.3, 0.0);
        assert!(p.mass() < 1e-6);
        assert!((p.e - p.p()).abs() < 1e-9);
    }

    #[test]
    fn composite_mass_exceeds_parts_for_back_to_back() {
        // Two massless particles back to back: m = 2*pt.
        let a = FourMomentum::from_pt_eta_phi_m(50.0, 0.0, 0.0, 0.0);
        let b = FourMomentum::from_pt_eta_phi_m(50.0, 0.0, std::f64::consts::PI, 0.0);
        let sum = a + b;
        assert!((sum.mass() - 100.0).abs() < 1e-9);
        assert!(sum.pt() < 1e-9);
    }

    #[test]
    fn eta_degenerate_cases() {
        assert_eq!(FourMomentum::new(0.0, 0.0, 0.0, 0.0).eta(), 0.0);
        assert_eq!(FourMomentum::new(0.0, 0.0, 5.0, 5.0).eta(), f64::INFINITY);
        assert_eq!(
            FourMomentum::new(0.0, 0.0, -5.0, 5.0).eta(),
            f64::NEG_INFINITY
        );
    }

    #[test]
    fn boost_to_rest_frame_recovers_mass_as_energy() {
        let p = FourMomentum::from_pt_eta_phi_m(30.0, 0.7, 1.0, 91.2);
        let (bx, by, bz) = p.beta();
        // Boost with -β brings the particle to rest.
        let rest = p.boost(-bx, -by, -bz);
        assert!(rest.p() < 1e-6);
        assert!((rest.e - 91.2).abs() < 1e-6);
    }

    #[test]
    fn boost_preserves_invariant_mass() {
        let p = FourMomentum::from_pt_eta_phi_m(25.0, -1.1, 0.4, 3.5);
        let q = p.boost(0.3, -0.2, 0.5);
        assert!((q.mass() - p.mass()).abs() < 1e-9);
    }

    #[test]
    fn sum_iterator() {
        let parts = [
            FourMomentum::from_pt_eta_phi_m(10.0, 0.0, 0.0, 1.0),
            FourMomentum::from_pt_eta_phi_m(20.0, 0.5, 1.0, 2.0),
            FourMomentum::from_pt_eta_phi_m(30.0, -0.5, -1.0, 3.0),
        ];
        let total: FourMomentum = parts.iter().copied().sum();
        let manual = parts[0] + parts[1] + parts[2];
        assert_eq!(total, manual);
    }
}
