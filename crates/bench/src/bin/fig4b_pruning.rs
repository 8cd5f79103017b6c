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
//! row-group/byte split. Both arms pin `vectorized_filter` off: the
//! figure prices pruning on the **pure row-at-a-time interpreted path**,
//! not against the orthogonal late-materialization kernels (which
//! `engine_for`'s deployments leave on) — with those on, the window cut
//! is already near-free and the only pruning win left is skipped decode.
//!
//! The pruned byte split is reported so the Figure 4b pricing question —
//! BigQuery bills logical bytes, Athena compressed bytes, and neither
//! bills pruned groups — can be read off the JSON. What pruning buys in
//! wall time is bounded per PR by the Q1w/Q5w points of `benchmark/`'s
//! `text_frontends` workload. The invariants (byte-identical results,
//! `bytes_scanned + bytes_pruned` conserved, ≥30 % of groups pruned) are
//! `tests/scan_stats_invariant.rs`, on the same texts
//! ([`hepbench_bench::windowed`]) and the same scale.
//!
//! Writes `results/fig4b_pruning.json` (override with `FIG4B_OUT`).
//! Scale knobs: `HEPQUERY_EVENTS`, `HEPQUERY_ROW_GROUP`, `HEPQUERY_SEED`.

use std::sync::Arc;

use engine_flwor::FlworEngine;
use engine_sql::{Dialect, SqlEngine};
use hep_model::DatasetSpec;
use hepbench_bench::windowed::{options, q1w_sql, q5w_sql, window, windowed_jq};
use hepbench_bench::{dataset, dataset_spec};
use hepbench_core::QueryId;
use nf2_columnar::{ExecStats, Table};

/// Wall times in the report are min-of-`RUNS`.
const RUNS: usize = 5;

/// One measured (engine, query, pruning) point.
struct Point {
    wall_seconds: f64,
    stats: ExecStats,
}

/// Min-of-`RUNS` wall plus the (run-invariant) scan stats.
fn measure(run: impl Fn() -> ExecStats) -> Point {
    let stats = run();
    let wall_seconds = (1..RUNS)
        .map(|_| run().wall_seconds)
        .fold(stats.wall_seconds, f64::min);
    Point {
        wall_seconds,
        stats,
    }
}

fn sql_point(table: &Arc<Table>, sql: &str, prune: bool) -> Point {
    measure(|| {
        let mut engine = SqlEngine::new(Dialect::presto(), options(prune));
        engine.register(table.clone());
        engine.execute(sql).unwrap_or_else(|e| panic!("{e}")).stats
    })
}

fn jq_point(table: &Arc<Table>, text: &str, prune: bool) -> Point {
    measure(|| {
        let mut engine = FlworEngine::new(options(prune));
        engine.register(table.clone());
        engine.execute(text).unwrap_or_else(|e| panic!("{e}")).stats
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
    fn build(
        engine: &'static str,
        query: &'static str,
        groups_total: u64,
        off: &Point,
        on: &Point,
    ) -> Row {
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

/// Runs the full (engine × windowed query) grid.
fn run_grid(spec: DatasetSpec) -> Vec<Row> {
    let (_, table) = dataset(spec);
    let (lo, hi) = window(spec.n_events);
    eprintln!("# window: {lo} <= event < {hi} (monotone event ids, 1-based), min of {RUNS} runs");
    let groups_total = table.row_groups().len() as u64;
    let mut rows = Vec::new();
    for (query, sql) in [("Q1", q1w_sql(lo, hi)), ("Q5", q5w_sql(lo, hi))] {
        let off = sql_point(&table, &sql, false);
        let on = sql_point(&table, &sql, true);
        rows.push(Row::build("sql", query, groups_total, &off, &on));
    }
    for (query, q) in [("Q1", QueryId::Q1), ("Q5", QueryId::Q5)] {
        let text = windowed_jq(q, lo, hi);
        let off = jq_point(&table, &text, false);
        let on = jq_point(&table, &text, true);
        rows.push(Row::build("jsoniq", query, groups_total, &off, &on));
    }
    rows
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
    let spec = dataset_spec(32_768, None);
    let json = to_json(spec, &run_grid(spec));
    let out =
        std::env::var("FIG4B_OUT").unwrap_or_else(|_| "results/fig4b_pruning.json".to_string());
    if let Some(dir) = std::path::Path::new(&out).parent() {
        std::fs::create_dir_all(dir).expect("create output dir");
    }
    std::fs::write(&out, &json).expect("write fig4b_pruning.json");
    eprintln!("# wrote {out}");
    print!("{json}");
}
