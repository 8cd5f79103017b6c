//! Language tour: prints the (Q5) implementation in all five languages and
//! runs each of the executable ones, demonstrating the paper's §3 — same
//! analysis, very different ergonomics.
//!
//! ```sh
//! cargo run --release --example language_tour
//! ```

use std::sync::Arc;

use hepquery::bench::queries::{text, Language, ALL_LANGUAGES};
use hepquery::bench::{metrics, reference, QueryId};
use hepquery::prelude::*;

fn main() {
    let q = QueryId::Q5;
    println!("=== {} — {}\n", q.name(), q.description());

    for lang in ALL_LANGUAGES {
        let t = text(*lang, q);
        let (chars, lines, clauses) = metrics::count_text(*lang, &t);
        println!(
            "--- {} ({chars} chars, {lines} lines, {} clauses) {}",
            lang.name(),
            clauses.len(),
            "-".repeat(20)
        );
        println!("{t}\n");
    }

    // Run the executable ones and confirm they agree.
    let (events, table) = hepquery::model::generator::build_dataset(DatasetSpec {
        n_events: 20_000,
        row_group_size: 2_048,
        seed: 5,
    });
    let table = Arc::new(table);
    let expect = reference::run(q, &events);
    for (name, system) in [
        ("BigQuery", System::BigQuery),
        ("Presto", System::Presto),
        ("Athena", System::AthenaV2),
        ("JSONiq", System::Rumble),
        ("RDataFrame", System::RDataFrame),
    ] {
        let run = engine_for_compiled(system, table.clone())
            .execute(&q.into(), &ExecEnv::seed())
            .unwrap();
        assert!(
            run.histogram.counts_equal(&expect.hist),
            "{name} differs from the reference"
        );
        println!(
            "{name:<12} {} entries — matches the reference bin-for-bin",
            run.histogram.total()
        );
    }
    let _ = Language::Jsoniq;
}
