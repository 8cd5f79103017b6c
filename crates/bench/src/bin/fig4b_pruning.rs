//! Figure 4b companion: the economics of zone-map row-group pruning.
//!
//! The paper's Figure 4b prices every system by bytes scanned per row —
//! and its queries scan *every* row group, because the benchmark plots
//! unconditioned distributions. Real analysis workloads cut on run /
//! luminosity-block / event windows first (a "good runs list"), and those
//! cuts are exactly what zone maps ([`nf2_columnar::stats`]) skip whole
//! row groups for. This harness measures that effect on **windowed
//! variants of Q1 and Q5**: the benchmark physics with an added
//! `event`-window cut over the monotone event-id column, run on the two
//! interpreted engines that can express it (Presto SQL and JSONiq).
//!
//! For each (engine, query) the harness runs pruning off and on
//! (min-of-[`RUNS`] wall, single intra-query thread) and records the
//! row-group/byte split. Both arms pin `vectorized_filter` off: the gate
//! prices pruning on the **pure row-at-a-time interpreted path**, not
//! against the orthogonal late-materialization kernels (which
//! `engine_for`'s deployments leave on) — with those on, the window cut
//! is already near-free and the only pruning win left is skipped decode.
//! Two invariants hold unconditionally and are gated in every mode:
//!
//! * results are **byte-identical** with pruning on and off;
//! * accounting bytes are conserved: `bytes_scanned + bytes_pruned`
//!   with pruning on equals `bytes_scanned` with pruning off.
//!
//! The pruned byte split is reported so the Figure 4b pricing question —
//! BigQuery bills logical bytes, Athena compressed bytes, and neither
//! bills pruned groups — can be read off the JSON.
//!
//! `--check` is the CI gate: on top of the two invariants, both windowed
//! queries must prune at least [`MIN_PRUNED_FRACTION`] of row groups.
//! (What pruning buys in wall time is bounded per PR by the Q1w/Q5w
//! points of `benchmark/`'s `text_frontends` workload, not here.) The
//! default mode writes `results/fig4b_pruning.json` (override with
//! `FIG4B_OUT`).
//!
//! Scale knobs: `HEPQUERY_EVENTS`, `HEPQUERY_ROW_GROUP`,
//! `HEPQUERY_SEED`, `HEPQUERY_WATCHDOG`.

use std::sync::Arc;

use engine_flwor::FlworEngine;
use engine_sql::{Dialect, SqlEngine};
use exec_par::ExecOptions;
use hep_model::DatasetSpec;
use hepbench_bench::{dataset, dataset_spec, run_gate};
use hepbench_core::queries::{self, Language};
use hepbench_core::QueryId;
use nf2_columnar::{ExecStats, Table};

/// Wall times in the report are min-of-`RUNS`.
const RUNS: usize = 5;

/// `--check`: minimum fraction of row groups the window cut must prune.
const MIN_PRUNED_FRACTION: f64 = 0.30;

/// The event-id window: the middle quarter of the data set, so the cut
/// exercises both bounds and prunes groups on both sides. Event ids are
/// 1-based and monotone across row groups (see `hep_model::generator`),
/// which is what makes the zone maps selective.
fn window(n_events: usize) -> (i64, i64) {
    let n = n_events as i64;
    (n / 8, n / 8 + n / 4)
}

/// Windowed Q1 (Presto): the MET distribution binned as in Q1, with the
/// window cut as root-level WHERE conjuncts — the shape
/// `engine_sql::plan::filterable_predicates` extracts pruning
/// predicates from.
fn q1w_sql(lo: i64, hi: i64) -> String {
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
/// suffered here on purpose: this is the *interpreted* path the pruning
/// gate prices.
fn q5w_sql(lo: i64, hi: i64) -> String {
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
fn windowed_jq(q: QueryId, lo: i64, hi: i64) -> String {
    let text = queries::text(Language::Jsoniq, q);
    let marker = "for $e in parquet-file(\"events\")\n";
    let windowed = text.replace(
        marker,
        &format!("{marker}where $e.event ge {lo} and $e.event lt {hi}\n"),
    );
    assert_ne!(windowed, text, "{q:?} JSONiq text lost the scan marker");
    windowed
}

/// One measured (engine, query, pruning) point.
struct Point {
    wall_seconds: f64,
    stats: ExecStats,
}

/// Min-of-`RUNS` wall plus the (run-invariant) scan stats, with the
/// result of every run handed to `check` for the identity assertion.
fn measure<R: PartialEq + std::fmt::Debug>(run: impl Fn() -> (R, ExecStats)) -> (R, Point) {
    let (result, first_stats) = run();
    let mut wall = first_stats.wall_seconds;
    let mut stats = first_stats;
    for _ in 1..RUNS {
        let (r, s) = run();
        assert_eq!(r, result, "non-deterministic result across repeat runs");
        if s.wall_seconds < wall {
            wall = s.wall_seconds;
        }
        stats = s;
    }
    stats.wall_seconds = wall;
    (
        result,
        Point {
            wall_seconds: wall,
            stats,
        },
    )
}

fn sql_point(table: &Arc<Table>, sql: &str, prune: bool) -> (engine_sql::exec::Relation, Point) {
    measure(|| {
        let mut engine = SqlEngine::new(
            Dialect::presto(),
            ExecOptions {
                zone_map_pruning: prune,
                n_threads: 1,
                vectorized_filter: false,
                ..ExecOptions::default()
            },
        );
        engine.register(table.clone());
        let out = engine.execute(sql).unwrap_or_else(|e| panic!("{e}"));
        (out.relation, out.stats)
    })
}

fn jq_point(table: &Arc<Table>, text: &str, prune: bool) -> (engine_flwor::interp::Seq, Point) {
    measure(|| {
        let mut engine = FlworEngine::new(ExecOptions {
            zone_map_pruning: prune,
            n_threads: 1,
            vectorized_filter: false,
            ..ExecOptions::default()
        });
        engine.register(table.clone());
        let out = engine.execute(text).unwrap_or_else(|e| panic!("{e}"));
        (out.items, out.stats)
    })
}

/// One (engine, query) row of the report.
struct Row {
    engine: &'static str,
    query: &'static str,
    groups_total: u64,
    groups_pruned: u64,
    pruned_fraction: f64,
    bytes_scanned_off: u64,
    bytes_scanned_on: u64,
    bytes_pruned: u64,
    wall_off: f64,
    wall_on: f64,
    speedup: f64,
}

impl Row {
    /// Builds the report row; a changed result (`same_result` false) or
    /// a broken conservation law is pushed onto `violations`.
    fn build(
        engine: &'static str,
        query: &'static str,
        groups_total: u64,
        same_result: bool,
        off: &Point,
        on: &Point,
        violations: &mut Vec<String>,
    ) -> Row {
        if !same_result {
            violations.push(format!("{engine} {query}: pruning changed the result"));
        }
        if off.stats.scan.groups_pruned != 0 || off.stats.scan.bytes_pruned != 0 {
            violations.push(format!("{engine} {query}: pruning off still pruned"));
        }
        if on.stats.scan.bytes_scanned + on.stats.scan.bytes_pruned != off.stats.scan.bytes_scanned
        {
            violations.push(format!(
                "{engine} {query}: accounting bytes not conserved under pruning"
            ));
        }
        let row = Row {
            engine,
            query,
            groups_total,
            groups_pruned: on.stats.scan.groups_pruned,
            pruned_fraction: on.stats.scan.groups_pruned as f64 / groups_total as f64,
            bytes_scanned_off: off.stats.scan.bytes_scanned,
            bytes_scanned_on: on.stats.scan.bytes_scanned,
            bytes_pruned: on.stats.scan.bytes_pruned,
            wall_off: off.wall_seconds,
            wall_on: on.wall_seconds,
            speedup: off.wall_seconds / on.wall_seconds,
        };
        eprintln!(
            "  {:8} {:4}: pruned {:3}/{} groups ({:4.0}%), {:9} of {:9} bytes; wall {:8.2} -> {:8.2} ms ({:.1}x)",
            row.engine,
            row.query,
            row.groups_pruned,
            row.groups_total,
            row.pruned_fraction * 100.0,
            row.bytes_pruned,
            row.bytes_scanned_off,
            row.wall_off * 1e3,
            row.wall_on * 1e3,
            row.speedup,
        );
        row
    }
}

/// Runs the full (engine × windowed query) grid; result identity and
/// byte conservation are checked on every point and reported in the
/// returned violations.
fn run_grid(spec: DatasetSpec) -> (Vec<Row>, Vec<String>) {
    let (_, table) = dataset(spec);
    let (lo, hi) = window(spec.n_events);
    eprintln!("# window: {lo} <= event < {hi} (monotone event ids, 1-based), min of {RUNS} runs");
    let groups_total = table.row_groups().len() as u64;
    let mut rows = Vec::new();
    let mut violations = Vec::new();

    for (query, sql) in [("Q1", q1w_sql(lo, hi)), ("Q5", q5w_sql(lo, hi))] {
        let (off_rel, off) = sql_point(&table, &sql, false);
        let (on_rel, on) = sql_point(&table, &sql, true);
        let same = on_rel == off_rel;
        rows.push(Row::build(
            "sql",
            query,
            groups_total,
            same,
            &off,
            &on,
            &mut violations,
        ));
    }
    for (query, q) in [("Q1", QueryId::Q1), ("Q5", QueryId::Q5)] {
        let text = windowed_jq(q, lo, hi);
        let (off_items, off) = jq_point(&table, &text, false);
        let (on_items, on) = jq_point(&table, &text, true);
        let same = on_items == off_items;
        rows.push(Row::build(
            "jsoniq",
            query,
            groups_total,
            same,
            &off,
            &on,
            &mut violations,
        ));
    }
    (rows, violations)
}

/// `--check`: every windowed query must prune enough of the table.
fn check_rows(rows: &[Row]) -> Vec<String> {
    rows.iter()
        .filter(|r| r.pruned_fraction < MIN_PRUNED_FRACTION)
        .map(|r| {
            format!(
                "{} {} pruned {:.0}% of row groups, below the {:.0}% gate",
                r.engine,
                r.query,
                r.pruned_fraction * 100.0,
                MIN_PRUNED_FRACTION * 100.0
            )
        })
        .collect()
}

fn to_json(spec: DatasetSpec, rows: &[Row]) -> String {
    let (lo, hi) = window(spec.n_events);
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!(
        "  \"dataset\": {{ \"events\": {}, \"row_group_size\": {}, \"seed\": {} }},\n",
        spec.n_events, spec.row_group_size, spec.seed
    ));
    json.push_str(&format!(
        "  \"window\": {{ \"lo\": {lo}, \"hi\": {hi} }},\n  \"runs_per_point\": {RUNS},\n"
    ));
    json.push_str("  \"fig4b_pruning\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{ \"engine\": \"{}\", \"query\": \"{}\", \"groups_total\": {}, \"groups_pruned\": {}, \"pruned_fraction\": {:.4}, \"bytes_scanned_off\": {}, \"bytes_scanned_on\": {}, \"bytes_pruned\": {}, \"wall_seconds_off\": {:.6}, \"wall_seconds_on\": {:.6}, \"speedup\": {:.2} }}{}\n",
            r.engine,
            r.query,
            r.groups_total,
            r.groups_pruned,
            r.pruned_fraction,
            r.bytes_scanned_off,
            r.bytes_scanned_on,
            r.bytes_pruned,
            r.wall_off,
            r.wall_on,
            r.speedup,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    json
}

fn main() {
    let check = std::env::args().any(|a| a == "--check");
    let spec = dataset_spec(32_768, None);
    std::process::exit(run_gate("fig4b_pruning", move || {
        let (rows, mut violations) = run_grid(spec);
        if check {
            violations.extend(check_rows(&rows));
            return violations;
        }
        let json = to_json(spec, &rows);
        let out =
            std::env::var("FIG4B_OUT").unwrap_or_else(|_| "results/fig4b_pruning.json".to_string());
        if let Some(dir) = std::path::Path::new(&out).parent() {
            std::fs::create_dir_all(dir).expect("create output dir");
        }
        std::fs::write(&out, &json).expect("write fig4b_pruning.json");
        eprintln!("# wrote {out}");
        print!("{json}");
        violations
    }));
}
