//! The fused trijet kernel.
//!
//! Per-jet components come from the shared conversion,
//! [`physics::fourvec::to_cartesian`], once per event. Candidate systems
//! are left-associated three-way sums in `i < j < k` enumeration order,
//! the invariant mass is `√(max(0, e² − (px² + py² + pz²)))`, and the
//! winner is the first candidate with strictly smaller `|mass − top|` —
//! the same float operations and first-minimum tie-break as the reference
//! (`best_trijet` in the benchmark core) and the interpreters' stable
//! `order by` / `MIN_BY`. Bit-identical inputs therefore give
//! bit-identical histograms across compiled and interpreted execution.
//!
//! The pair sum `vᵢ + vⱼ` is formed once per `(i, j)` and `v_k` added in
//! the inner loop: `(vᵢ + vⱼ) + v_k` is the reference's left-associated
//! `vᵢ + vⱼ + v_k`, so hoisting changes no rounding. The winner's `pt`
//! and max b-tag are computed once, after the scan.

/// Per-event scratch: four-momentum component vectors, reused across
/// events so the hot loop allocates nothing after warm-up.
#[derive(Debug, Default)]
pub struct TrijetScratch {
    px: Vec<f64>,
    py: Vec<f64>,
    pz: Vec<f64>,
    e: Vec<f64>,
}

impl TrijetScratch {
    /// An empty scratch.
    pub fn new() -> TrijetScratch {
        TrijetScratch::default()
    }

    /// Loads one event's jets, converting (pt, eta, phi, mass) to
    /// (px, py, pz, e) with [`physics::fourvec::to_cartesian`].
    pub fn load(&mut self, pt: &[f64], eta: &[f64], phi: &[f64], mass: &[f64]) {
        let mut out = [&mut self.px, &mut self.py, &mut self.pz, &mut self.e];
        for v in out.iter_mut() {
            v.resize(pt.len(), 0.0);
        }
        physics::fourvec::to_cartesian(pt, eta, phi, mass, out.map(|v| &mut v[..]));
    }

    /// Enumerates all jet triples of the loaded event and returns
    /// `(pt, max btag)` of the system whose invariant mass is closest to
    /// `top` (first minimum wins), or `None` for fewer than three jets.
    pub fn best(&mut self, btag: &[f64], top: f64) -> Option<(f64, f64)> {
        let n = self.e.len();
        if n < 3 {
            return None;
        }
        let (e, px, py, pz) = (&self.e[..n], &self.px[..n], &self.py[..n], &self.pz[..n]);
        let dist = |se: f64, sx: f64, sy: f64, sz: f64| {
            ((se * se - (sx * sx + sy * sy + sz * sz)).max(0.0).sqrt() - top).abs()
        };
        // Seeding with the first triple keeps the reference's semantics
        // for every input, NaN distances included: it wins unless a later
        // triple is strictly closer, and re-scanning it changes nothing.
        let mut best = [0, 1, 2];
        let mut best_dist = dist(
            e[0] + e[1] + e[2],
            px[0] + px[1] + px[2],
            py[0] + py[1] + py[2],
            pz[0] + pz[1] + pz[2],
        );
        for i in 0..n {
            for j in (i + 1)..n {
                let (pe, pxij, pyij, pzij) =
                    (e[i] + e[j], px[i] + px[j], py[i] + py[j], pz[i] + pz[j]);
                for k in (j + 1)..n {
                    let d = dist(pe + e[k], pxij + px[k], pyij + py[k], pzij + pz[k]);
                    if d < best_dist {
                        best_dist = d;
                        best = [i, j, k];
                    }
                }
            }
        }
        let [i, j, k] = best;
        let sx = px[i] + px[j] + px[k];
        let sy = py[i] + py[j] + py[k];
        Some((
            (sx * sx + sy * sy).sqrt(),
            btag[i].max(btag[j]).max(btag[k]),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn under_three_jets_yields_none() {
        let mut s = TrijetScratch::new();
        s.load(&[50.0, 40.0], &[0.1, -0.2], &[0.3, 1.0], &[5.0, 6.0]);
        assert_eq!(s.best(&[0.5, 0.6], 172.5), None);
    }

    #[test]
    fn first_minimum_wins_on_ties() {
        // Two identical jets ⇒ systems (0,1,2) and (0,1,3) tie exactly;
        // the btag of the *first* (lexicographically smaller) triple must
        // win.
        let pt = [50.0, 60.0, 40.0, 40.0];
        let eta = [0.1, -0.4, 0.7, 0.7];
        let phi = [0.2, 1.1, -2.0, -2.0];
        let mass = [4.0, 5.0, 6.0, 6.0];
        let btag = [0.1, 0.2, 0.9, 0.3];
        let mut s = TrijetScratch::new();
        s.load(&pt, &eta, &phi, &mass);
        let (_, b) = s.best(&btag, 172.5).unwrap();
        assert_eq!(b, 0.9, "tie must resolve to the first triple");
    }
}
