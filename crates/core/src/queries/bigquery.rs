//! BigQuery SQL implementations of the benchmark queries.
//!
//! Characteristic dialect features on display (paper §3): correlated
//! subqueries over `UNNEST` of the outer row's arrays (R2.2), `WITH
//! OFFSET` indices, `STRUCT` constructors (R3.1/R3.2), `ARRAY(SELECT …)`
//! construction (R3.4), mature temp UDFs (R1.4), and `GROUP BY` on select
//! aliases (R2.4).

use super::bq_binof_call;
use crate::spec::QueryId;

/// The `PairMass` temp UDF: invariant mass of two (pt, η, φ, m) particles,
/// written with the exact component-sum float path of
/// [`physics::invariant_mass_2`].
fn pair_mass_fn() -> String {
    "CREATE TEMP FUNCTION PairMass(\n\
     \x20   p1 STRUCT<pt FLOAT64, eta FLOAT64, phi FLOAT64, mass FLOAT64>,\n\
     \x20   p2 STRUCT<pt FLOAT64, eta FLOAT64, phi FLOAT64, mass FLOAT64>) AS ((\n\
     \x20 SELECT SQRT(GREATEST(0.0, (t.e1 + t.e2) * (t.e1 + t.e2)\n\
     \x20        - ((t.px1 + t.px2) * (t.px1 + t.px2) + (t.py1 + t.py2) * (t.py1 + t.py2) + (t.pz1 + t.pz2) * (t.pz1 + t.pz2))))\n\
     \x20 FROM (\n\
     \x20   SELECT SQRT(c.px1 * c.px1 + c.py1 * c.py1 + c.pz1 * c.pz1 + c.m1 * c.m1) AS e1,\n\
     \x20          SQRT(c.px2 * c.px2 + c.py2 * c.py2 + c.pz2 * c.pz2 + c.m2 * c.m2) AS e2,\n\
     \x20          c.px1, c.py1, c.pz1, c.px2, c.py2, c.pz2\n\
     \x20   FROM (\n\
     \x20     SELECT p1.pt * COS(p1.phi) AS px1, p1.pt * SIN(p1.phi) AS py1, p1.pt * SINH(p1.eta) AS pz1, p1.mass AS m1,\n\
     \x20            p2.pt * COS(p2.phi) AS px2, p2.pt * SIN(p2.phi) AS py2, p2.pt * SINH(p2.eta) AS pz2, p2.mass AS m2) c) t));\n"
        .to_string()
}

/// The `DeltaR` temp UDF with the closed-form Δφ wrap of
/// [`physics::delta_phi`].
fn delta_r_fn() -> String {
    "CREATE TEMP FUNCTION DeltaR(eta1 FLOAT64, phi1 FLOAT64, eta2 FLOAT64, phi2 FLOAT64) AS ((\n\
     \x20 SELECT SQRT((eta1 - eta2) * (eta1 - eta2) + t.dphi * t.dphi)\n\
     \x20 FROM (SELECT MOD(MOD(phi1 - phi2 + PI(), 2.0 * PI()) + 2.0 * PI(), 2.0 * PI()) - PI() AS dphi) t));\n"
        .to_string()
}

/// Returns the BigQuery text for a query output.
pub fn text(q: QueryId) -> String {
    let spec = q.hist_spec();
    match q {
        QueryId::Q1 => format!(
            "SELECT {bin} AS bin, COUNT(*) AS n\n\
             FROM events ev\n\
             GROUP BY bin",
            bin = bq_binof_call("ev.MET.pt", spec),
        ),
        QueryId::Q2 => format!(
            "SELECT {bin} AS bin, COUNT(*) AS n\n\
             FROM events ev, UNNEST(ev.Jet) AS j\n\
             GROUP BY bin",
            bin = bq_binof_call("j.pt", spec),
        ),
        QueryId::Q3 => format!(
            "SELECT {bin} AS bin, COUNT(*) AS n\n\
             FROM events ev, UNNEST(ev.Jet) AS j\n\
             WHERE ABS(j.eta) < 1.0\n\
             GROUP BY bin",
            bin = bq_binof_call("j.pt", spec),
        ),
        QueryId::Q4 => format!(
            "SELECT {bin} AS bin, COUNT(*) AS n\n\
             FROM events ev\n\
             WHERE (SELECT COUNT(*) FROM UNNEST(ev.Jet) j WHERE j.pt > 40.0) >= 2\n\
             GROUP BY bin",
            bin = bq_binof_call("ev.MET.pt", spec),
        ),
        QueryId::Q5 => format!(
            "{massfn}\
             SELECT {bin} AS bin, COUNT(*) AS n\n\
             FROM events ev\n\
             WHERE EXISTS (\n\
             \x20 SELECT 1\n\
             \x20 FROM UNNEST(ev.Muon) m1 WITH OFFSET i, UNNEST(ev.Muon) m2 WITH OFFSET k\n\
             \x20 WHERE i < k AND m1.charge != m2.charge\n\
             \x20   AND PairMass(STRUCT(m1.pt, m1.eta, m1.phi, m1.mass),\n\
             \x20                STRUCT(m2.pt, m2.eta, m2.phi, m2.mass)) BETWEEN 60.0 AND 120.0)\n\
             GROUP BY bin",
            massfn = pair_mass_fn(),
            bin = bq_binof_call("ev.MET.pt", spec),
        ),
        QueryId::Q6a | QueryId::Q6b => {
            let plot = if q == QueryId::Q6a { "s.best.pt" } else { "s.best.btag" };
            format!(
                "WITH selected AS (\n\
                 \x20 SELECT (\n\
                 \x20   SELECT AS STRUCT SQRT(t.px * t.px + t.py * t.py) AS pt, t.btag AS btag\n\
                 \x20   FROM (\n\
                 \x20     SELECT b.px, b.py, b.btag,\n\
                 \x20            ABS(SQRT(GREATEST(0.0, b.e * b.e - (b.px * b.px + b.py * b.py + b.pz * b.pz))) - 172.5) AS dist\n\
                 \x20     FROM (\n\
                 \x20       SELECT c.px1 + c.px2 + c.px3 AS px, c.py1 + c.py2 + c.py3 AS py, c.pz1 + c.pz2 + c.pz3 AS pz,\n\
                 \x20              SQRT(c.px1 * c.px1 + c.py1 * c.py1 + c.pz1 * c.pz1 + c.m1 * c.m1)\n\
                 \x20              + SQRT(c.px2 * c.px2 + c.py2 * c.py2 + c.pz2 * c.pz2 + c.m2 * c.m2)\n\
                 \x20              + SQRT(c.px3 * c.px3 + c.py3 * c.py3 + c.pz3 * c.pz3 + c.m3 * c.m3) AS e,\n\
                 \x20              GREATEST(c.b1, c.b2, c.b3) AS btag\n\
                 \x20       FROM (\n\
                 \x20         SELECT j1.pt * COS(j1.phi) AS px1, j1.pt * SIN(j1.phi) AS py1, j1.pt * SINH(j1.eta) AS pz1, j1.mass AS m1, j1.btag AS b1,\n\
                 \x20                j2.pt * COS(j2.phi) AS px2, j2.pt * SIN(j2.phi) AS py2, j2.pt * SINH(j2.eta) AS pz2, j2.mass AS m2, j2.btag AS b2,\n\
                 \x20                j3.pt * COS(j3.phi) AS px3, j3.pt * SIN(j3.phi) AS py3, j3.pt * SINH(j3.eta) AS pz3, j3.mass AS m3, j3.btag AS b3\n\
                 \x20         FROM UNNEST(ev.Jet) j1 WITH OFFSET i1,\n\
                 \x20              UNNEST(ev.Jet) j2 WITH OFFSET i2,\n\
                 \x20              UNNEST(ev.Jet) j3 WITH OFFSET i3\n\
                 \x20         WHERE i1 < i2 AND i2 < i3) c) b) t\n\
                 \x20   ORDER BY t.dist\n\
                 \x20   LIMIT 1) AS best\n\
                 \x20 FROM events ev\n\
                 \x20 WHERE ARRAY_LENGTH(ev.Jet) >= 3)\n\
                 SELECT {bin} AS bin, COUNT(*) AS n\n\
                 FROM selected s\n\
                 WHERE s.best IS NOT NULL\n\
                 GROUP BY bin",
                bin = bq_binof_call(plot, spec),
            )
        }
        QueryId::Q7 => format!(
            "{drfn}\
             WITH plotted AS (\n\
             \x20 SELECT (\n\
             \x20   SELECT SUM(j.pt) FROM UNNEST(ev.Jet) j\n\
             \x20   WHERE j.pt > 30.0\n\
             \x20     AND NOT EXISTS (SELECT 1 FROM UNNEST(ev.Muon) m\n\
             \x20                     WHERE m.pt > 10.0 AND DeltaR(j.eta, j.phi, m.eta, m.phi) < 0.4)\n\
             \x20     AND NOT EXISTS (SELECT 1 FROM UNNEST(ev.Electron) el\n\
             \x20                     WHERE el.pt > 10.0 AND DeltaR(j.eta, j.phi, el.eta, el.phi) < 0.4)\n\
             \x20 ) AS x\n\
             \x20 FROM events ev)\n\
             SELECT {bin} AS bin, COUNT(*) AS n\n\
             FROM plotted p\n\
             WHERE p.x IS NOT NULL\n\
             GROUP BY bin",
            drfn = delta_r_fn(),
            bin = bq_binof_call("p.x", spec),
        ),
        QueryId::Q8 => format!(
            "{massfn}\
             WITH lep AS (\n\
             \x20 SELECT ev.MET.pt AS met, ev.MET.phi AS metphi,\n\
             \x20   ARRAY_CONCAT(\n\
             \x20     ARRAY(SELECT AS STRUCT m.pt, m.eta, m.phi, m.mass, m.charge, 0 AS flavor FROM UNNEST(ev.Muon) m),\n\
             \x20     ARRAY(SELECT AS STRUCT el.pt, el.eta, el.phi, el.mass, el.charge, 1 AS flavor FROM UNNEST(ev.Electron) el)\n\
             \x20   ) AS leptons\n\
             \x20 FROM events ev\n\
             \x20 WHERE ARRAY_LENGTH(ev.Muon) + ARRAY_LENGTH(ev.Electron) >= 3),\n\
             best AS (\n\
             \x20 SELECT l.met, l.metphi, l.leptons,\n\
             \x20   (SELECT AS STRUCT i, k\n\
             \x20    FROM UNNEST(l.leptons) l1 WITH OFFSET i, UNNEST(l.leptons) l2 WITH OFFSET k\n\
             \x20    WHERE i < k AND l1.flavor = l2.flavor AND l1.charge != l2.charge\n\
             \x20    ORDER BY ABS(PairMass(STRUCT(l1.pt, l1.eta, l1.phi, l1.mass),\n\
             \x20                          STRUCT(l2.pt, l2.eta, l2.phi, l2.mass)) - 91.2)\n\
             \x20    LIMIT 1) AS pair\n\
             \x20 FROM lep l),\n\
             lead AS (\n\
             \x20 SELECT b.met, b.metphi,\n\
             \x20   (SELECT l3.pt FROM UNNEST(b.leptons) l3 WITH OFFSET x\n\
             \x20    WHERE x != b.pair.i AND x != b.pair.k ORDER BY l3.pt DESC LIMIT 1) AS lpt,\n\
             \x20   (SELECT l3.phi FROM UNNEST(b.leptons) l3 WITH OFFSET x\n\
             \x20    WHERE x != b.pair.i AND x != b.pair.k ORDER BY l3.pt DESC LIMIT 1) AS lphi\n\
             \x20 FROM best b\n\
             \x20 WHERE b.pair IS NOT NULL)\n\
             SELECT {bin} AS bin, COUNT(*) AS n\n\
             FROM lead d\n\
             GROUP BY bin",
            massfn = pair_mass_fn(),
            bin = bq_binof_call(
                "SQRT(GREATEST(0.0, 2.0 * d.lpt * d.met * (1.0 - COS(d.lphi - d.metphi))))",
                spec
            ),
        ),
    }
}
