//! Windowed variants of Q1 and Q5: the benchmark physics with an added
//! `event`-window cut over the monotone event-id column — the "good runs
//! list" shape that zone maps skip whole row groups for. `paper fig4b`
//! ([`crate::paper`]) and the pruning test in
//! `tests/scan_stats_invariant.rs` run these texts.

use exec_par::ExecOptions;
use hepbench_core::queries::{self, Language};
use hepbench_core::QueryId;

/// The interpreters' options for a windowed run: one intra-query thread,
/// with zone-map pruning as given. Both arms select rows with the
/// vectorized pre-filter, so pruning is priced against the
/// late-materialized path: what it saves is the decode and the filter
/// of the skipped groups.
pub fn options(zone_map_pruning: bool) -> ExecOptions {
    ExecOptions {
        zone_map_pruning,
        n_threads: 1,
        ..ExecOptions::default()
    }
}

/// The event-id window: the middle quarter of the data set, so the cut
/// exercises both bounds and prunes groups on both sides. Event ids are
/// 1-based and monotone across row groups (see `hep_model::generator`),
/// which is what makes the zone maps selective.
pub fn window(n_events: usize) -> (i64, i64) {
    let n = n_events as i64;
    (n / 8, n / 8 + n / 4)
}

/// Windowed Q1 (Presto): the MET distribution binned as in Q1, with the
/// window cut as root-level WHERE conjuncts — the shape
/// `engine_sql::plan::filterable_predicates` extracts pruning
/// predicates from.
pub fn q1w_sql(lo: i64, hi: i64) -> String {
    format!(
        "SELECT CAST(FLOOR(MET.pt / 5.0) AS BIGINT) AS bin, COUNT(*) AS n\n\
         FROM events\n\
         WHERE event >= {lo} AND event < {hi}\n\
         GROUP BY CAST(FLOOR(MET.pt / 5.0) AS BIGINT)\n\
         ORDER BY bin"
    )
}

/// Windowed Q5 (Presto): the opposite-charge dimuon selection of Q5
/// (invariant mass in [60, 120] GeV, MET of the best pair per event)
/// flattened to a single root-level SELECT so the window conjuncts sit
/// in the root WHERE. Without CTEs the energy terms are spelled out
/// repeatedly — the paper's R2.3 complaint about the SQL dialects,
/// suffered here on purpose: this is the *interpreted* path pruning is
/// priced on.
pub fn q5w_sql(lo: i64, hi: i64) -> String {
    let e = |i: usize| {
        format!(
            "SQRT(pt{i} * COS(phi{i}) * pt{i} * COS(phi{i}) \
             + pt{i} * SIN(phi{i}) * pt{i} * SIN(phi{i}) \
             + pt{i} * SINH(eta{i}) * pt{i} * SINH(eta{i}) \
             + mass{i} * mass{i})"
        )
    };
    let (e1, e2) = (e(1), e(2));
    let px = "(pt1 * COS(phi1) + pt2 * COS(phi2))";
    let py = "(pt1 * SIN(phi1) + pt2 * SIN(phi2))";
    let pz = "(pt1 * SINH(eta1) + pt2 * SINH(eta2))";
    format!(
        "SELECT event AS eid, MIN(MET.pt) AS met\n\
         FROM events\n\
         CROSS JOIN UNNEST(Muon) WITH ORDINALITY AS t1 (pt1, eta1, phi1, mass1, q1, iso31, iso41, tight1, soft1, dxy1, dxyerr1, dz1, dzerr1, jidx1, gidx1, i1)\n\
         CROSS JOIN UNNEST(Muon) WITH ORDINALITY AS t2 (pt2, eta2, phi2, mass2, q2, iso32, iso42, tight2, soft2, dxy2, dxyerr2, dz2, dzerr2, jidx2, gidx2, i2)\n\
         WHERE event >= {lo} AND event < {hi} AND i1 < i2 AND q1 != q2\n\
         \x20 AND SQRT(GREATEST(0.0, ({e1} + {e2}) * ({e1} + {e2}) - ({px} * {px} + {py} * {py} + {pz} * {pz}))) BETWEEN 60.0 AND 120.0\n\
         GROUP BY event\n\
         ORDER BY eid"
    )
}

/// Windowed Q1/Q5 (JSONiq): the canonical benchmark module with a
/// window `where` clause inserted directly after the top-level `for` —
/// the leading-clause position `prefilter_predicates` inspects. Panics
/// if the canonical text drifts away from the insertion marker.
pub fn windowed_jq(q: QueryId, lo: i64, hi: i64) -> String {
    let text = queries::text(Language::Jsoniq, q);
    let marker = "for $e in parquet-file(\"events\")\n";
    let windowed = text.replace(
        marker,
        &format!("{marker}where $e.event ge {lo} and $e.event lt {hi}\n"),
    );
    assert_ne!(windowed, text, "{q:?} JSONiq text lost the scan marker");
    windowed
}
