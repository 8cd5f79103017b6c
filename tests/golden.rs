//! Golden snapshot tests: the Q1–Q8 reference histograms over a pinned
//! dataset are stored in `tests/golden/*.json`; every engine × dialect
//! must reproduce each snapshot bin-for-bin. The fixtures detect silent
//! drift anywhere in the stack — generator, storage layout, kernels,
//! parsers, engines — not just cross-engine disagreement.
//!
//! Regenerate after an *intentional* change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden
//! ```

use std::path::PathBuf;
use std::sync::Arc;

use hepquery::bench::{reference, ALL_QUERIES};
use hepquery::prelude::*;

/// The pinned dataset the fixtures were generated from. Changing any of
/// these constants invalidates every golden file.
const GOLDEN_EVENTS: usize = 1_200;
const GOLDEN_ROW_GROUP: usize = 256;
const GOLDEN_SEED: u64 = 0x901D;

fn dataset() -> (Vec<Event>, Arc<Table>) {
    let (e, t) = hepquery::model::generator::build_dataset(DatasetSpec {
        n_events: GOLDEN_EVENTS,
        row_group_size: GOLDEN_ROW_GROUP,
        seed: GOLDEN_SEED,
    });
    (e, Arc::new(t))
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.json"))
}

/// Renders a histogram as the fixture's JSON (hand-rolled: the workspace
/// has no serde, and the format is ours end to end).
fn to_json(query: &str, h: &Histogram) -> String {
    let counts: Vec<String> = h.counts().iter().map(|c| c.to_string()).collect();
    format!(
        "{{\n  \"query\": \"{query}\",\n  \"spec\": {{ \"bins\": {}, \"lo\": {}, \"hi\": {} }},\n  \"underflow\": {},\n  \"overflow\": {},\n  \"counts\": [{}]\n}}\n",
        h.spec().bins,
        h.spec().lo,
        h.spec().hi,
        h.underflow(),
        h.overflow(),
        counts.join(", ")
    )
}

/// Extracts the number following `"key":` (objects are flat and keys
/// unique, so a plain scan is exact for the writer above).
fn field(json: &str, key: &str) -> f64 {
    let tag = format!("\"{key}\":");
    let at = json.find(&tag).unwrap_or_else(|| panic!("missing {key}"));
    let rest = &json[at + tag.len()..];
    let num: String = rest
        .chars()
        .skip_while(|c| c.is_whitespace())
        .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-' || *c == 'e' || *c == '+')
        .collect();
    num.parse()
        .unwrap_or_else(|_| panic!("bad number for {key}: {num:?}"))
}

/// Parses a fixture back into a histogram.
fn from_json(json: &str) -> Histogram {
    let spec = HistSpec::new(
        field(json, "bins") as usize,
        field(json, "lo"),
        field(json, "hi"),
    );
    let mut h = Histogram::new(spec);
    h.add_bin_count(-1, field(json, "underflow") as u64);
    h.add_bin_count(spec.bins as i64, field(json, "overflow") as u64);
    let open = json.find('[').expect("counts array");
    let close = json[open..].find(']').expect("counts array end") + open;
    for (bin, n) in json[open + 1..close].split(',').enumerate() {
        let n: u64 = n.trim().parse().expect("count");
        h.add_bin_count(bin as i64, n);
    }
    h
}

#[test]
fn golden_roundtrip_is_exact() {
    let (events, _) = dataset();
    let h = reference::run(QueryId::Q4, &events).hist;
    let parsed = from_json(&to_json("Q4", &h));
    assert!(parsed.counts_equal(&h), "writer/parser must round-trip");
}

#[test]
fn every_engine_and_dialect_matches_the_golden_snapshots() {
    let (events, table) = dataset();
    let update = std::env::var("UPDATE_GOLDEN").is_ok();
    if update {
        std::fs::create_dir_all(golden_path("x").parent().unwrap()).unwrap();
    }
    let mut missing = Vec::new();
    let env = ExecEnv::seed();
    for &q in ALL_QUERIES {
        let reference = reference::run(q, &events).hist;
        let path = golden_path(q.name());
        if update {
            std::fs::write(&path, to_json(q.name(), &reference)).unwrap();
        }
        let Ok(raw) = std::fs::read_to_string(&path) else {
            missing.push(q.name().to_string());
            continue;
        };
        let golden = from_json(&raw);
        assert!(
            reference.counts_equal(&golden),
            "{}: reference drifted from golden snapshot — if intentional, \
             regenerate with UPDATE_GOLDEN=1",
            q.name()
        );
        // Pin every engine × dialect to the snapshot, not just to the
        // in-memory reference.
        for system in [
            System::BigQuery,
            System::Presto,
            System::AthenaV2,
            System::Rumble,
            System::RDataFrame,
        ] {
            let run = engine_for_compiled(system, table.clone())
                .execute(&q.into(), &env)
                .unwrap();
            assert!(
                run.histogram.counts_equal(&golden),
                "{} {} diverged from golden snapshot",
                q.name(),
                system.name()
            );
        }
    }
    assert!(
        missing.is_empty(),
        "missing golden fixtures for {missing:?} — generate with UPDATE_GOLDEN=1"
    );
}
