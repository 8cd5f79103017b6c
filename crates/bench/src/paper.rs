//! The paper's tables and figures, one [`Artifact`] each, rendered to
//! text by [`render`]. The `paper` binary writes them to
//! `results/<artifact>.txt`; `tests/paper.rs` renders the deterministic
//! ones and asserts they equal the committed files.
//!
//! Each artifact's default scale ([`Artifact::default_spec`]) is the
//! scale of its committed file, in the paper's 128-row-group layout:
//! Table 2, Figure 3 and the Figure 4b pruning split at 65 536 events,
//! the timing figures (1, 2, 4) at 16 384. Table 1 reads no data set.
//! Every rendering starts with a one-line header naming the artifact and
//! the data set it was rendered from.

use std::fmt::{Display, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use cloud_sim::InstanceType;
use engine_flwor::FlworEngine;
use engine_sql::{Dialect, SqlEngine};
use hep_model::{DatasetSpec, Event};
use hepbench_core::adapters::ExecEnv;
use hepbench_core::capabilities::{stars, ALL_REQUIREMENTS};
use hepbench_core::complexity::{self, multiplicity_distribution};
use hepbench_core::metrics::{all_language_metrics, LanguageMetrics};
use hepbench_core::queries::ALL_LANGUAGES;
use hepbench_core::runner::{run_one, run_sweep, Measurement, System, ALL_SYSTEMS};
use hepbench_core::{reference, QueryId, ALL_QUERIES};
use nf2_columnar::{ExecStats, Table};

use crate::windowed::{options, q1w_sql, q5w_sql, window, windowed_jq};
use crate::{dataset, describe, fmt_bytes, fmt_secs, fmt_usd, SEED};

/// `writeln!` into a `String`, which cannot fail.
macro_rules! putln {
    ($out:expr, $($arg:tt)*) => {{
        let _ = writeln!($out, $($arg)*);
    }};
}

/// One of the paper's tables or figures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Artifact {
    /// Table 1: functionality stars and conciseness metrics.
    Table1,
    /// Table 2: ops per event, analytic and measured.
    Table2,
    /// Figure 1: running time vs cost per query and system.
    Fig1,
    /// Figure 2: running time vs data-set size.
    Fig2,
    /// Figure 3: particles per event.
    Fig3,
    /// Figure 4a–d: CPU time, bytes/event, throughput/core, top stage.
    Fig4,
    /// Figure 4b's companion: zone-map pruning on windowed Q1/Q5.
    Fig4b,
}

impl Artifact {
    /// Every artifact, in the order `paper all` lists them.
    pub const ALL: [Artifact; 7] = [
        Artifact::Table1,
        Artifact::Table2,
        Artifact::Fig1,
        Artifact::Fig2,
        Artifact::Fig3,
        Artifact::Fig4,
        Artifact::Fig4b,
    ];

    /// The subcommand and file stem (`results/<name>.txt`).
    pub fn name(self) -> &'static str {
        match self {
            Artifact::Table1 => "table1",
            Artifact::Table2 => "table2",
            Artifact::Fig1 => "fig1",
            Artifact::Fig2 => "fig2",
            Artifact::Fig3 => "fig3",
            Artifact::Fig4 => "fig4",
            Artifact::Fig4b => "fig4b",
        }
    }

    /// The artifact named `name`, if any.
    pub fn from_name(name: &str) -> Option<Artifact> {
        Artifact::ALL.into_iter().find(|a| a.name() == name)
    }

    /// The data set the committed file is rendered from: 128 row groups
    /// at seed [`SEED`]. `None` for the scale-free Table 1.
    pub fn default_spec(self) -> Option<DatasetSpec> {
        let n_events = match self {
            Artifact::Table1 => return None,
            Artifact::Table2 | Artifact::Fig3 | Artifact::Fig4b => 65_536,
            Artifact::Fig1 | Artifact::Fig2 | Artifact::Fig4 => 16_384,
        };
        Some(DatasetSpec {
            n_events,
            row_group_size: n_events / 128,
            seed: SEED,
        })
    }
}

/// `results/` at the workspace root, where the committed artifacts live.
pub fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench sits two levels below the workspace root")
        .join("results")
}

/// A generated data set: the events (for the reference and the
/// complexity counters) and their columnar table (for the engines).
pub struct Dataset {
    /// What was generated.
    pub spec: DatasetSpec,
    /// The generated events.
    pub events: Vec<Event>,
    /// The same events, shredded.
    pub table: Arc<Table>,
}

impl Dataset {
    /// Generates the data set `spec` describes.
    pub fn build(spec: DatasetSpec) -> Dataset {
        let (events, table) = dataset(spec);
        Dataset {
            spec,
            events,
            table,
        }
    }
}

/// Renders `artifact`, header line first. Table 1 ignores `data`; every
/// other artifact panics without one.
pub fn render(artifact: Artifact, data: Option<&Dataset>) -> String {
    let data = || data.unwrap_or_else(|| panic!("{} renders from a data set", artifact.name()));
    let mut out = match artifact {
        Artifact::Table1 => "# table1: scale-free, no data set\n".to_string(),
        _ => format!("# {}: {}\n", artifact.name(), describe(data().spec)),
    };
    match artifact {
        Artifact::Table1 => table1(&mut out),
        Artifact::Table2 => table2(&mut out, &data().events),
        Artifact::Fig1 => fig1(&mut out, data()),
        Artifact::Fig2 => fig2(&mut out, &data().table),
        Artifact::Fig3 => fig3(&mut out, &data().events),
        Artifact::Fig4 => fig4(&mut out, &data().table),
        Artifact::Fig4b => fig4b(&mut out, data()),
    }
    out
}

/// The queries the paper plots: Q6 once, since Q6b gives "nearly
/// identical results as Q6a".
fn plotted() -> impl Iterator<Item = QueryId> {
    ALL_QUERIES.iter().copied().filter(|q| *q != QueryId::Q6b)
}

/// The calibrated paper deployment of each system (paper §4.2:
/// m5d.12xlarge for RDataFrame, m5d.24xlarge for the other self-managed
/// systems; QaaS systems have no instance).
fn deployments() -> Vec<(System, Option<&'static InstanceType>)> {
    let big = cloud_sim::instances::by_name("m5d.24xlarge");
    let twelve = cloud_sim::instances::by_name("m5d.12xlarge");
    vec![
        (System::BigQuery, None),
        (System::BigQueryExternal, None),
        (System::AthenaV2, None),
        (System::AthenaV1, None),
        (System::Presto, big),
        (System::Rumble, big),
        (System::RDataFrame, twelve),
    ]
}

/// One table row: `label` left-aligned in `label_width` columns, then
/// each cell right-aligned in `width`.
fn row<T: Display>(
    out: &mut String,
    label_width: usize,
    label: &str,
    width: usize,
    cells: impl IntoIterator<Item = T>,
) {
    let _ = write!(out, "{label:label_width$}");
    for cell in cells {
        let _ = write!(out, "{cell:>width$}");
    }
    out.push('\n');
}

const TABLE1_PAPER: &str = "
paper (Table 1):      chars  Athena 6.8k  BigQuery 3.4k  Presto 6.7k  JSONiq 3.8k  RDataFrame 11k
                 avg clauses  Athena 26.9  BigQuery 15.7  Presto 18.7  JSONiq  6.2  RDataFrame 14.9
";

fn table1(out: &mut String) {
    out.push_str("Table 1 — functionality of general-purpose systems for HEP analyses\n\n");
    row(out, 32, "", 12, ALL_LANGUAGES.iter().map(|l| l.name()));
    for req in ALL_REQUIREMENTS {
        let cells = ALL_LANGUAGES.iter().map(|l| match stars(*l, *req) {
            None => "-".to_string(),
            Some(n) => "*".repeat(n as usize),
        });
        row(out, 32, req.label(), 12, cells);
    }
    let n = ALL_QUERIES.len();
    putln!(out, "\nConciseness metrics over all {n} query outputs:\n");
    let metrics = all_language_metrics();
    row(out, 32, "", 12, metrics.iter().map(|m| m.language.name()));
    let mut metric = |label: &str, f: fn(&LanguageMetrics) -> String| {
        row(out, 32, label, 12, metrics.iter().map(f));
    };
    metric("#characters", |m| {
        format!("{:.1}k", m.characters as f64 / 1000.0)
    });
    metric("#lines", |m| m.lines.to_string());
    metric("#clauses", |m| m.clauses.to_string());
    metric("#avg clauses/query", |m| {
        format!("{:.1}", m.avg_clauses_per_query)
    });
    metric("#unique clauses", |m| m.unique_clauses.to_string());
    metric("#avg unique clauses/query", |m| {
        format!("{:.1}", m.avg_unique_clauses_per_query)
    });
    out.push_str(TABLE1_PAPER);
}

const TABLE2_HEAD: &str = "\
Table 2 — query complexity (ops = records/record-combinations explored)

Query                Complexity   analytic/event   measured/event    paper (CMS)
";

const TABLE2_NOTE: &str = "
note: absolute values depend on the synthetic data set's multiplicity
calibration; the order that holds, analytic and measured, is
Q6 >> Q4 > Q2 = Q3 > Q1, with Q5, Q7 and Q8 below Q2 (see EXPERIMENTS.md).
";

fn table2(out: &mut String, events: &[Event]) {
    out.push_str(TABLE2_HEAD);
    for q in plotted() {
        let r = complexity::row(q, events);
        putln!(
            out,
            "{:6} {:>24} {:>16.2} {:>16.2} {:>14.1}",
            r.query,
            r.formula,
            r.analytic_ops_per_event,
            r.measured_ops_per_event,
            r.paper_ops_per_event
        );
    }
    out.push_str(TABLE2_NOTE);
}

const FIG1_SHAPES: &str = "
shapes to check against the paper (Figure 1):
  * BigQuery is the fastest QaaS system on every query; external tables
    ~2x slower (RDataFrame's best configuration can still beat it, as in
    the paper)
  * RDataFrame is cheapest but never fastest; its wall time degrades on
    the largest instances (lock contention)
  * Presto needs large instances to approach Athena/RDataFrame
  * Rumble is roughly an order of magnitude slower/costlier than the rest
";

/// Every system on every query: QaaS systems as single points,
/// self-managed systems swept across the `m5d` series. Each run's result
/// is checked against the reference.
fn fig1(out: &mut String, data: &Dataset) {
    let env = ExecEnv::seed();
    out.push_str("Figure 1 — running time vs cost per query and system\n");
    for q in plotted() {
        let expect = reference::run(q, &data.events).hist.total();
        putln!(out, "\n== {} — {}", q.name(), q.description());
        out.push_str(
            "system                         instance         wall         cost    entries\n",
        );
        // Athena v1 is excluded from Figure 1 (implausible scan statistics).
        for system in ALL_SYSTEMS.iter().filter(|s| **s != System::AthenaV1) {
            let runs = if system.is_qaas() {
                vec![run_one(*system, None, &data.table, q, &env).expect("qaas run")]
            } else {
                run_sweep(*system, &data.table, q, &env).expect("self-managed run")
            };
            for m in runs {
                assert_eq!(m.hist_entries, expect, "{} result mismatch", m.system);
                putln!(
                    out,
                    "{:24} {:>14} {:>12} {:>12} {:>10}",
                    m.system,
                    m.instance.unwrap_or("-"),
                    fmt_secs(m.wall_seconds),
                    fmt_usd(m.cost_usd),
                    m.hist_entries
                );
            }
        }
    }
    out.push_str(FIG1_SHAPES);
}

const FIG2_SHAPES: &str = "
shapes to check against the paper (Figure 2): a plateau once data
outgrows one row group (parallelism is across row groups only); QaaS
times nearly constant; self-managed times rising again once there are
more row groups than cores.
";

/// Running time vs data-set size: row-group-aligned prefixes
/// (`Table::head`, powers of four from 1 024 up to the full set) through
/// every system's paper deployment.
fn fig2(out: &mut String, table: &Arc<Table>) {
    let env = ExecEnv::seed();
    let n = table.n_rows();
    let sizes: Vec<usize> = std::iter::successors(Some(1024), |s| Some(s * 4))
        .take_while(|s| *s < n)
        .chain([n])
        .collect();
    let heads: Vec<Arc<Table>> = sizes.iter().map(|s| Arc::new(table.head(*s))).collect();
    out.push_str("Figure 2 — running time vs data-set size\n");
    for q in [
        QueryId::Q1,
        QueryId::Q4,
        QueryId::Q5,
        QueryId::Q6a,
        QueryId::Q8,
    ] {
        putln!(out, "\n== {}", q.name());
        row(out, 24, "events:", 12, &sizes);
        for (system, inst) in deployments() {
            let walls = heads.iter().map(|head| {
                fmt_secs(
                    run_one(system, inst, head, q, &env)
                        .expect("run")
                        .wall_seconds,
                )
            });
            row(out, 24, system.name(), 12, walls);
        }
    }
    out.push_str(FIG2_SHAPES);
}

const FIG3_HEAD: &str = "\
Figure 3 — fraction of events with exactly n particles

   n    electrons        muons         jets
";

const FIG3_SHAPES: &str = "
shapes to check against the paper (Figure 3): electrons in low single
digits; muons more frequent with a longer tail; a significant fraction
of events with a dozen or more jets.
";

fn fig3(out: &mut String, events: &[Event]) {
    let max = 40;
    let dist = |count: fn(&Event) -> usize| multiplicity_distribution(events, count, max);
    let electrons = dist(|e| e.electrons.len());
    let muons = dist(|e| e.muons.len());
    let jets = dist(|e| e.jets.len());
    out.push_str(FIG3_HEAD);
    for n in 0..=max {
        if electrons[n] == 0.0 && muons[n] == 0.0 && jets[n] == 0.0 {
            continue;
        }
        let (e, m, j) = (electrons[n], muons[n], jets[n]);
        putln!(out, "{n:>4} {e:>12.5} {m:>12.5} {j:>12.5}");
    }
    let mean = |d: &[f64]| -> f64 { d.iter().enumerate().map(|(i, p)| i as f64 * p).sum() };
    let (e, m, j) = (mean(&electrons), mean(&muons), mean(&jets));
    putln!(out, "\nmeans: electrons {e:.2}, muons {m:.2}, jets {j:.2}");
    out.push_str(FIG3_SHAPES);
}

const FIG4_SHAPES: &str = "
shapes to check against the paper (Figure 4): Q6 dominates the CPU time
of every system; BigQuery's billed bytes exceed the ideal compressed line
(8-byte pricing), Presto/Athena exceed it via whole-struct reads, Rumble
reads the entire file; the interpreted engines' throughput collapses on Q6.
";

/// The compute/IO balance: (a) CPU time, (b) bytes scanned per event with
/// the two ideal lines, (c) scan throughput per core, (d) the top stage
/// of each run's span tree.
fn fig4(out: &mut String, table: &Arc<Table>) {
    // Tracing on: Figure 4d reads the per-stage breakdown straight off
    // each run's span tree. CPU/scan numbers come from the same
    // accounting either way (tracing is an overlay, not a measurement
    // change).
    let env = ExecEnv {
        trace: obs::TraceCtx::enabled(),
        ..ExecEnv::seed()
    };
    let systems: Vec<_> = deployments()
        .into_iter()
        .filter(|(s, _)| !matches!(s, System::BigQueryExternal | System::AthenaV1))
        .collect();
    let rows: Vec<Measurement> = plotted()
        .flat_map(|q| systems.iter().map(move |(s, i)| (q, *s, *i)))
        .map(|(q, system, inst)| run_one(system, inst, table, q, &env).expect("run"))
        .collect();
    let n = systems.len();

    out.push_str("Figure 4a — total CPU time per query (seconds of busy cores)\n");
    per_query(out, &rows, n, 10, |m| fmt_secs(m.cpu_seconds));
    out.push_str("\nFigure 4b — bytes scanned per event (ideal: compressed / uncompressed)\n");
    per_query(out, &rows, n, 10, |m| {
        format!("{:.1}", m.scan.bytes_per_row())
    });
    out.push_str("\nideal lines (B/event):\n");
    for m in rows.iter().step_by(n) {
        let per_row = |bytes: u64| bytes as f64 / m.scan.rows.max(1) as f64;
        let (c, u) = (
            per_row(m.scan.ideal_compressed_bytes),
            per_row(m.scan.ideal_uncompressed_bytes),
        );
        putln!(
            out,
            "  {:6} compressed {c:>8.1}  uncompressed {u:>8.1}",
            m.query
        );
    }
    out.push_str("\nFigure 4c — scan throughput per core (MB per CPU-second)\n");
    per_query(out, &rows, n, 10, |m| {
        format!("{:.2}", m.throughput_mb_per_core_second())
    });
    out.push_str("\nFigure 4d — where the time goes (top stage from each run's span tree)\n");
    per_query(out, &rows, n, 22, |m| {
        m.stage_seconds
            .iter()
            .find(|(stage, _)| *stage != "query")
            .map(|(stage, secs)| format!("{stage} {}", fmt_secs(*secs)))
            .unwrap_or_else(|| "-".to_string())
    });
    let (c, u) = (table.compressed_bytes(), table.uncompressed_bytes());
    putln!(
        out,
        "\ntotal table size: {} compressed / {} uncompressed",
        fmt_bytes(c as u64),
        fmt_bytes(u as u64)
    );
    out.push_str(FIG4_SHAPES);
}

/// One row per system, one `width`-wide column per query; `rows` holds
/// each query's `n_systems` systems back to back.
fn per_query(
    out: &mut String,
    rows: &[Measurement],
    n_systems: usize,
    width: usize,
    f: impl Fn(&Measurement) -> String,
) {
    let column = |s: usize| rows.iter().skip(s).step_by(n_systems);
    row(out, 24, "", width, column(0).map(|m| m.query));
    for (s, first) in rows[..n_systems].iter().enumerate() {
        row(out, 24, first.system, width, column(s).map(&f));
    }
}

const FIG4B_NOTE: &str = "
bytes are accounting bytes: scanned (off) = scanned (on) + bytes pruned.
BigQuery bills logical bytes and Athena compressed bytes; neither bills
the pruned groups.
";

/// The economics of zone-map pruning on windowed Q1/Q5
/// ([`crate::windowed`]): the paper's queries scan every row group, but
/// real analyses cut on an event window first, and zone maps skip the
/// groups outside it. Pruning off and on, on the two interpreted engines
/// that can express the cut (Presto SQL and JSONiq). Every number is
/// scan accounting, so the table is deterministic; the wall time pruning
/// buys is bounded per change by the Q1w/Q5w points of `benchmark/`'s
/// `text_frontends` workload.
fn fig4b(out: &mut String, data: &Dataset) {
    let (lo, hi) = window(data.spec.n_events);
    let sql = |text: &str, prune: bool| -> ExecStats {
        let mut engine = SqlEngine::new(Dialect::presto(), options(prune));
        engine.register(data.table.clone());
        engine.execute(text).unwrap_or_else(|e| panic!("{e}")).stats
    };
    let jq = |text: &str, prune: bool| -> ExecStats {
        let mut engine = FlworEngine::new(options(prune));
        engine.register(data.table.clone());
        engine.execute(text).unwrap_or_else(|e| panic!("{e}")).stats
    };
    let mut points = Vec::new();
    for (query, text) in [("Q1w", q1w_sql(lo, hi)), ("Q5w", q5w_sql(lo, hi))] {
        points.push(("sql", query, sql(&text, false), sql(&text, true)));
    }
    for (query, q) in [("Q1w", QueryId::Q1), ("Q5w", QueryId::Q5)] {
        let text = windowed_jq(q, lo, hi);
        points.push(("jsoniq", query, jq(&text, false), jq(&text, true)));
    }

    putln!(
        out,
        "Figure 4b companion — zone-map row-group pruning, window {lo} <= event < {hi}\n"
    );
    out.push_str(
        "engine   query    pruned   groups    scanned (off)     scanned (on)     bytes pruned\n",
    );
    let groups = data.table.row_groups().len();
    for (engine, query, off, on) in &points {
        putln!(
            out,
            "{engine:8} {query:6} {:>8} {groups:>8} {:>16} {:>16} {:>16}",
            on.scan.groups_pruned,
            off.scan.bytes_scanned,
            on.scan.bytes_scanned,
            on.scan.bytes_pruned
        );
    }
    out.push_str(FIG4B_NOTE);
}
