//! The benchmark's heavyweight: (Q6) — find, in every event with at least
//! three jets, the trijet whose invariant mass is closest to the top quark,
//! then plot its pt and its best b-tag. Demonstrates the compute-bound
//! regime of Table 2 (C(J,3) combinations per event) and compares the SQL
//! formulation's cost across dialects.
//!
//! ```sh
//! cargo run --release --example trijet_topquark
//! ```

use std::sync::Arc;

use hepquery::bench::{complexity, reference, QueryId};
use hepquery::prelude::*;

fn main() {
    let (events, table) = hepquery::model::generator::build_dataset(DatasetSpec {
        n_events: 20_000,
        row_group_size: 2_048,
        seed: 172,
    });
    let table = Arc::new(table);

    // The combinatorial load this query carries (Table 2).
    let row = complexity::row(QueryId::Q6a, &events);
    println!(
        "Q6 explores {} = {:.1} record combinations per event (paper: {:.1})",
        row.formula, row.measured_ops_per_event, row.paper_ops_per_event
    );

    let expect_pt = reference::run(QueryId::Q6a, &events);
    let expect_tag = reference::run(QueryId::Q6b, &events);

    println!("\ntrijet system pt (events with >= 3 jets):");
    println!("{}", expect_pt.hist.ascii(60));
    println!("max b-tag in the selected trijet:");
    println!("{}", expect_tag.hist.ascii(60));

    println!("dialect comparison on Q6a (same result, different work):");
    for system in [System::BigQuery, System::Presto, System::AthenaV2] {
        let run = engine_for_compiled(system, table.clone())
            .execute(&QueryId::Q6a.into(), &ExecEnv::seed())
            .unwrap();
        assert!(run.histogram.counts_equal(&expect_pt.hist));
        println!(
            "  {:<9} cpu {:>8.1} ms   bytes scanned {:>10}",
            system.name(),
            run.stats.cpu_seconds * 1e3,
            run.stats.scan.bytes_scanned
        );
    }
}
