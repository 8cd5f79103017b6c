//! Regenerates **Table 2**: per-query complexity formulas and the number
//! of records/record-combinations explored per event, analytic vs measured
//! vs the paper's values for the CMS data set.

use hepbench_bench::{dataset, dataset_spec};
use hepbench_core::complexity;
use hepbench_core::ALL_QUERIES;

fn main() {
    let (events, _) = dataset(dataset_spec(65_536, None));
    println!("Table 2 — query complexity (ops = records/record-combinations explored)");
    println!();
    println!(
        "{:6} {:>24} {:>16} {:>16} {:>14}",
        "Query", "Complexity", "analytic/event", "measured/event", "paper (CMS)"
    );
    for q in ALL_QUERIES {
        // Q6b duplicates Q6a's complexity row; the paper lists Q6 once.
        if *q == hepbench_core::QueryId::Q6b {
            continue;
        }
        let row = complexity::row(*q, &events);
        println!(
            "{:6} {:>24} {:>16.2} {:>16.2} {:>14.1}",
            row.query,
            row.formula,
            row.analytic_ops_per_event,
            row.measured_ops_per_event,
            row.paper_ops_per_event
        );
    }
    println!();
    println!("note: absolute values depend on the synthetic data set's multiplicity");
    println!("calibration; the shape to check is Q6 >> Q8 > Q2..Q4 > Q1 (see EXPERIMENTS.md).");
}
