//! Regenerates **Figure 2** (running time vs data-set size): power-of-two
//! prefixes of the data set through every system's calibrated paper
//! deployment (`Table::head` keeps prefixes row-group-aligned, preserving
//! the parallelization-granularity plateau).
//!
//! Parallel determinism — sharded scales × plans × 1/2/4/8 workers,
//! byte-identical to serial — is `tests/parallel_determinism.rs`;
//! parallel *throughput* is the `parallel_scaling` workload of
//! `benchmark/`.
//!
//! Scale knobs: `HEPQUERY_EVENTS`, `HEPQUERY_ROW_GROUP`, `HEPQUERY_SEED`.

use std::sync::Arc;

use hepbench_bench::{dataset, dataset_spec, fmt_secs};
use hepbench_core::adapters::ExecEnv;
use hepbench_core::runner::{run_one, System};
use hepbench_core::QueryId;

/// The systems of Figure 2, with their best instances (paper §4.2:
/// m5d.12xlarge for RDataFrame, m5d.24xlarge otherwise).
fn systems() -> Vec<(System, Option<&'static cloud_sim::InstanceType>)> {
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

/// The paper's Figure 2 table: running time vs data-set size for every
/// calibrated paper deployment.
fn figure2_table() {
    let (_, table) = dataset(dataset_spec(65_536, None));
    let env = ExecEnv::seed();
    let queries = [
        QueryId::Q1,
        QueryId::Q4,
        QueryId::Q5,
        QueryId::Q6a,
        QueryId::Q8,
    ];
    println!("Figure 2 — running time vs data-set size");
    for q in queries {
        println!();
        println!("== {}", q.name());
        // Size sweep: powers of two up to the full set.
        let mut sizes = Vec::new();
        let mut n = 1024usize;
        while n < table.n_rows() {
            sizes.push(n);
            n *= 4;
        }
        sizes.push(table.n_rows());
        print!("{:24}", "events:");
        for s in &sizes {
            print!("{s:>12}");
        }
        println!();
        for (system, inst) in systems() {
            print!("{:24}", system.name());
            for s in &sizes {
                let head = Arc::new(table.head(*s));
                let m = run_one(system, inst, &head, q, &env).expect("run");
                print!("{:>12}", fmt_secs(m.wall_seconds));
            }
            println!();
        }
    }
    println!();
    println!("shapes to check against the paper (Figure 2): a plateau once data");
    println!("outgrows one row group (parallelism is across row groups only); QaaS");
    println!("times nearly constant; self-managed times rising again once there are");
    println!("more row groups than cores.");
}

fn main() {
    figure2_table();
}
