//! Regenerates **Figure 1**: the running-time / cost trade-off of every
//! system on every query.
//!
//! Self-managed systems (Presto, Rumble, RDataFrame) are swept across the
//! `m5d` instance series; QaaS systems are single points. Engines really
//! execute each query on the generated data set (results are validated
//! against the reference); wall times and costs come from the cloud
//! simulator as described in DESIGN.md.

use hepbench_bench::{dataset, dataset_spec, fmt_secs, fmt_usd};
use hepbench_core::adapters::ExecEnv;
use hepbench_core::runner::{run_one, System, ALL_SYSTEMS};
use hepbench_core::{reference, ALL_QUERIES};

fn main() {
    let (events, table) = dataset(dataset_spec(65_536, None));
    let env = ExecEnv::seed();
    println!("Figure 1 — running time vs cost per query and system");
    for q in ALL_QUERIES {
        // Like the paper, Q6b is omitted: "nearly identical results as Q6a".
        if *q == hepbench_core::QueryId::Q6b {
            continue;
        }
        let expect = reference::run(*q, &events).hist;
        println!();
        println!("== {} — {}", q.name(), q.description());
        println!(
            "{:24} {:>14} {:>12} {:>12} {:>10}",
            "system", "instance", "wall", "cost", "entries"
        );
        for system in ALL_SYSTEMS {
            if *system == System::AthenaV1 {
                continue; // excluded from Fig 1 (implausible scan statistics)
            }
            if system.is_qaas() {
                let m = run_one(*system, None, &table, *q, &env).expect("qaas run");
                assert_eq!(
                    m.hist_entries,
                    expect.total(),
                    "{} result mismatch",
                    m.system
                );
                println!(
                    "{:24} {:>14} {:>12} {:>12} {:>10}",
                    m.system,
                    "-",
                    fmt_secs(m.wall_seconds),
                    fmt_usd(m.cost_usd),
                    m.hist_entries
                );
            } else {
                for m in hepbench_core::runner::run_sweep(*system, &table, *q, &env)
                    .expect("self-managed run")
                {
                    assert_eq!(
                        m.hist_entries,
                        expect.total(),
                        "{} result mismatch",
                        m.system
                    );
                    println!(
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
    }
    println!();
    println!("shapes to check against the paper (Figure 1):");
    println!("  * BigQuery is the fastest QaaS system on every query; external tables");
    println!("    ~2x slower (RDataFrame's best configuration can still beat it, as in");
    println!("    the paper)");
    println!("  * RDataFrame is cheapest but never fastest; its wall time degrades on");
    println!("    the largest instances (lock contention)");
    println!("  * Presto needs large instances to approach Athena/RDataFrame");
    println!("  * Rumble is roughly an order of magnitude slower/costlier than the rest");
}
