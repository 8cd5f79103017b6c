//! `results/` is an artifact of the code.
//!
//! * The deterministic artifacts — Table 1, Table 2, Figure 3 and the
//!   Figure 4b pruning split — are rendered at their default scale and
//!   must equal the committed `results/<artifact>.txt` byte for byte,
//!   header included. Regenerate with
//!   `cargo run --release -p hepbench-bench --bin paper -- all`.
//! * The timing artifacts — Figures 1, 2 and 4 — are rendered at a tiny
//!   scale and must carry every (system, query) cell; their time and
//!   cost columns are checked by shape in `tests/paper_shapes.rs`.
//!
//! The golden files are pinned on glibc hosts (CI runs Ubuntu): the
//! generator's decay azimuth and MET draw and the `rand_distr` shim's
//! `ln`/`exp` still call the platform libm, so another libm may move a
//! last digit of Table 2 or Figure 3.

use cloud_sim::M5D_CATALOG;
use hep_model::DatasetSpec;
use hepbench_bench::paper::{render, results_dir, Artifact, Dataset};
use hepbench_bench::SEED;
use hepbench_core::runner::{System, ALL_SYSTEMS};
use hepbench_core::{reference, QueryId, ALL_QUERIES};

#[test]
fn deterministic_artifacts_equal_the_committed_files() {
    let spec = Artifact::Table2.default_spec();
    let data = Dataset::build(spec.expect("table2 reads a data set"));
    for artifact in [
        Artifact::Table1,
        Artifact::Table2,
        Artifact::Fig3,
        Artifact::Fig4b,
    ] {
        if artifact != Artifact::Table1 {
            assert_eq!(artifact.default_spec(), spec, "{artifact:?} shares it");
        }
        let rendered = render(artifact, Some(&data));
        let path = results_dir().join(format!("{}.txt", artifact.name()));
        let committed =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let same = committed.lines().zip(rendered.lines());
        let line = same.take_while(|(c, r)| c == r).count() + 1;
        assert!(
            committed == rendered,
            "{} is not what the code renders (first difference at line {}); regenerate \
             with `cargo run --release -p hepbench-bench --bin paper -- {}`",
            path.display(),
            line,
            artifact.name()
        );
    }
}

/// The `{:24}`-labelled rows of the block after the line starting with
/// `title` (up to the next blank line), each split into its label and
/// its `width`-wide cells. The first row is the block's header.
fn grid<'a>(text: &'a str, title: &str, width: usize) -> Vec<(&'a str, Vec<&'a str>)> {
    let rows: Vec<_> = text
        .lines()
        .skip_while(|l| !l.starts_with(title))
        .skip(1)
        .take_while(|l| !l.is_empty())
        .map(|l| {
            let (label, cells) = l.split_at(24);
            assert_eq!(cells.len() % width, 0, "ragged row {l:?}");
            let cells = (0..cells.len() / width).map(|i| cells[i * width..][..width].trim());
            (label.trim(), cells.collect::<Vec<_>>())
        })
        .collect();
    for (label, cells) in &rows[1..] {
        assert_eq!(
            cells.len(),
            rows[0].1.len(),
            "{title}: {label} misses a cell"
        );
        assert!(cells.iter().all(|c| !c.is_empty()), "{title}: {label}");
    }
    rows
}

fn labels<'a>(rows: &[(&'a str, Vec<&str>)]) -> Vec<&'a str> {
    rows[1..].iter().map(|(label, _)| *label).collect()
}

#[test]
fn timing_artifacts_render_every_cell_at_a_tiny_scale() {
    let data = Dataset::build(DatasetSpec {
        n_events: 256,
        row_group_size: 128,
        seed: SEED,
    });
    let plotted: Vec<QueryId> = ALL_QUERIES
        .iter()
        .copied()
        .filter(|q| *q != QueryId::Q6b)
        .collect();

    // Figure 1: per query, one row per QaaS system and one per
    // (self-managed system, instance), Athena v1 excluded; every entries
    // column is the reference's.
    let fig1 = render(Artifact::Fig1, Some(&data));
    for q in &plotted {
        let title = format!("== {} — {}", q.name(), q.description());
        let entries = reference::run(*q, &data.events).hist.total().to_string();
        let mut expected = Vec::new();
        for s in ALL_SYSTEMS.iter().filter(|s| **s != System::AthenaV1) {
            let instances = if s.is_qaas() {
                vec!["-"]
            } else {
                M5D_CATALOG.iter().map(|i| i.name).collect()
            };
            expected.extend(
                instances
                    .into_iter()
                    .map(|i| (s.name(), i, entries.as_str())),
            );
        }
        let rows: Vec<_> = fig1
            .lines()
            .skip_while(|l| *l != title)
            .skip(2)
            .take_while(|l| !l.is_empty())
            .map(|l| {
                let cols: Vec<&str> = l[24..].split_whitespace().collect();
                (l[..24].trim(), cols[0], *cols.last().expect("entries"))
            })
            .collect();
        assert_eq!(rows, expected, "{title}");
    }

    // Figure 2: every paper deployment has a wall time per prefix size.
    let fig2 = render(Artifact::Fig2, Some(&data));
    let deployments = [
        System::BigQuery,
        System::BigQueryExternal,
        System::AthenaV2,
        System::AthenaV1,
        System::Presto,
        System::Rumble,
        System::RDataFrame,
    ]
    .map(|s| s.name());
    for q in [
        QueryId::Q1,
        QueryId::Q4,
        QueryId::Q5,
        QueryId::Q6a,
        QueryId::Q8,
    ] {
        let rows = grid(&fig2, &format!("== {}", q.name()), 12);
        assert_eq!(rows[0], ("events:", vec!["256"]), "{}", q.name());
        assert_eq!(labels(&rows), deployments, "{}", q.name());
    }

    // Figure 4a–d: a full system × query grid in each panel.
    let fig4 = render(Artifact::Fig4, Some(&data));
    let queries: Vec<&str> = plotted.iter().map(|q| q.name()).collect();
    let systems = [
        System::BigQuery,
        System::AthenaV2,
        System::Presto,
        System::Rumble,
        System::RDataFrame,
    ]
    .map(|s| s.name());
    for (panel, width) in [
        ("Figure 4a", 10),
        ("Figure 4b", 10),
        ("Figure 4c", 10),
        ("Figure 4d", 22),
    ] {
        let rows = grid(&fig4, panel, width);
        assert_eq!(rows[0].1, queries, "{panel}");
        assert_eq!(labels(&rows), systems, "{panel}");
    }
}
