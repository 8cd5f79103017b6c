//! Scalar kinematic formulas shared by all query implementations.

use crate::fourvec::FourMomentum;

/// Signed azimuthal angle difference wrapped into `[-π, π)`.
///
/// Uses a closed-form double-`mod` reduction rather than a subtraction
/// loop so that SQL/JSONiq query texts can spell out the *bit-identical*
/// computation (`MOD(MOD(d, 2π) + 2π, 2π) − π`) — a requirement for exact
/// cross-engine histogram validation.
pub fn delta_phi(phi1: f64, phi2: f64) -> f64 {
    let d = phi1 - phi2 + std::f64::consts::PI;
    rem_tau(rem_tau(d) + TAU) - std::f64::consts::PI
}

const TAU: f64 = std::f64::consts::TAU;

/// `x % 2π` (C `fmod`), without the division when `x` is already in
/// `[0, 4π)` — the common case for azimuths in `[-π, π)`. Bit-identical
/// to `x % 2π` for every input: `fmod(x, τ) = x` for `0 ≤ x < τ`, and for
/// `τ ≤ x < 2τ` the exact result `x − τ` is representable (Sterbenz), so
/// the subtraction rounds to it. `-0.0`, NaN and ±∞ take the `%` path or
/// return themselves exactly as `fmod` would.
#[inline]
fn rem_tau(x: f64) -> f64 {
    if (0.0..TAU).contains(&x) {
        x
    } else if (TAU..2.0 * TAU).contains(&x) {
        x - TAU
    } else {
        x % TAU
    }
}

/// Angular distance `ΔR = sqrt(Δη² + Δφ²)` used by the jet–lepton isolation
/// cut of (Q7).
pub fn delta_r(eta1: f64, phi1: f64, eta2: f64, phi2: f64) -> f64 {
    let deta = eta1 - eta2;
    let dphi = delta_phi(phi1, phi2);
    (deta * deta + dphi * dphi).sqrt()
}

/// Invariant mass of a two-particle system given detector coordinates,
/// `√(max(0, (e₁ + e₂)² − |p₁ + p₂|²))` — the float path the SQL/JSONiq
/// `PairMass` texts of (Q5) and (Q8) spell out.
#[allow(clippy::too_many_arguments)]
pub fn invariant_mass_2(
    pt1: f64,
    eta1: f64,
    phi1: f64,
    m1: f64,
    pt2: f64,
    eta2: f64,
    phi2: f64,
    m2: f64,
) -> f64 {
    let p1 = FourMomentum::from_pt_eta_phi_m(pt1, eta1, phi1, m1);
    let p2 = FourMomentum::from_pt_eta_phi_m(pt2, eta2, phi2, m2);
    (p1 + p2).mass()
}

/// Transverse mass of a lepton–MET system:
/// `mT = sqrt(2 · pt_l · MET · (1 − cos Δφ))` — the plotted quantity of (Q8).
///
/// The cosine is taken of the *raw* angle difference (cos is 2π-periodic,
/// so wrapping is unnecessary) — again keeping the float path identical to
/// the SQL/JSONiq formulations.
pub fn transverse_mass(pt_lep: f64, phi_lep: f64, met: f64, met_phi: f64) -> f64 {
    let dphi = phi_lep - met_phi;
    (2.0 * pt_lep * met * (1.0 - crate::math::sin_cos(dphi).1))
        .max(0.0)
        .sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    #[test]
    fn delta_phi_wraps() {
        assert!((delta_phi(PI - 0.1, -PI + 0.1) - (-0.2)).abs() < 1e-12);
        assert!((delta_phi(0.5, 0.2) - 0.3).abs() < 1e-12);
        // Result is always in (-π, π].
        for a in [-3.1, -1.0, 0.0, 1.0, 3.1] {
            for b in [-3.1, -1.0, 0.0, 1.0, 3.1] {
                let d = delta_phi(a, b);
                assert!(d > -PI - 1e-12 && d <= PI + 1e-12);
            }
        }
    }

    #[test]
    fn delta_r_symmetric_and_zero_on_self() {
        assert_eq!(delta_r(1.0, 0.5, 1.0, 0.5), 0.0);
        let d1 = delta_r(1.0, 0.5, -0.3, 2.0);
        let d2 = delta_r(-0.3, 2.0, 1.0, 0.5);
        assert!((d1 - d2).abs() < 1e-12);
    }

    #[test]
    fn z_peak_invariant_mass() {
        // Back-to-back muons with pt = mZ/2 give m = mZ.
        let m = invariant_mass_2(45.6, 0.0, 0.0, 0.105658, 45.6, 0.0, PI, 0.105658);
        assert!((m - 91.2).abs() < 0.1, "m = {m}");
    }

    #[test]
    fn transverse_mass_extremes() {
        // Δφ = π maximizes mT: mT = sqrt(4·pt·met) = 2·sqrt(pt·met).
        let mt = transverse_mass(50.0, 0.0, 50.0, PI);
        assert!((mt - 100.0).abs() < 1e-9);
        // Aligned lepton and MET: mT = 0.
        assert_eq!(transverse_mass(50.0, 1.0, 50.0, 1.0), 0.0);
    }
}
